"""Structural algorithms for staging the backward dynamic program.

The solver works one decision at a time, last decision first.  Before each
stage it needs to know (a) which variables the stage's conditional expectation
actually ranges over and (b) which factors of the joint distribution matter.
That is computed here:

  * `remove_barren`     -- drop nodes that cannot influence the value node
  * `compute_partition` -- group variables into observation blocks between
                           consecutive decisions
  * `relevance_subgraph` / `moralize`
                        -- the undirected dependency structure, keeping
                           constraint (relevance) arrows into decisions
  * `build_stage_context`
                        -- the stage's live block, the variables the decision
                           function depends on, and the relevant factors
  * `absorb_decision`   -- substitute a solved decision function into every
                           table where the decision was a parent, removing the
                           node (its zero-one conditional is deliberately NOT
                           kept as a factor: those zeros would trap the
                           sampler)

All functions are pure; models are rebuilt through `build_model`, so the
output of every transformation is revalidated.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import NotLastDecision, StageOutOfRange, UnknownDecision
from .factors import Factor
from .model import (
    CHANCE,
    DECISION,
    VALUE,
    ArrowSpec,
    Cpt,
    IridModel,
    Policy,
    ValueTable,
    build_model,
    iter_configs,
    validate_policy,
)

#: undirected view with co-parents married; plain networkx graph
MoralGraph = nx.Graph

#: roles a stage factor can play
ROLE_CHANCE = "chance"
ROLE_DECISION = "decision"
ROLE_VALUE = "value"


@dataclass(frozen=True)
class StagePartition:
    """Observation blocks: block 0 is seen before the first decision, block i
    (i >= 1) is decision i together with what is observed before decision i+1
    (the last block also holds never-observed chance variables)."""

    blocks: tuple[frozenset[str], ...]
    decisions: tuple[str, ...]

    @property
    def stage_count(self) -> int:
        return len(self.decisions)


@dataclass(frozen=True)
class StageFactor:
    """A factor of the stage's joint, tagged with what it is.

    role "chance" is a conditional probability table (child given), role
    "decision" is the all-ones placeholder standing in for the not-yet-chosen
    decision function over the decision and its constraint scope, and role
    "value" is the real-valued table (never multiplied into probability
    products).
    """

    role: str
    child: str | None
    factor: Factor


@dataclass(frozen=True)
class StageContext:
    """Everything one stage of the dynamic program needs.

    gamma_prime is the part of the stage's block that is still connected to
    the value node; dependency_set holds the variables outside it (and outside
    the value node) that the stage's decision function must range over.
    free_vars are gamma_prime minus the decision, in model order (the Gibbs
    scan order); free_topological is the same set ordered for forward
    initialization.
    """

    stage: int
    decision: str | None
    gamma_prime: frozenset[str]
    dependency_set: frozenset[str]
    factors: tuple[StageFactor, ...]
    free_vars: tuple[str, ...]
    free_topological: tuple[str, ...]

    @property
    def probability_factors(self) -> tuple[Factor, ...]:
        return tuple(sf.factor for sf in self.factors if sf.role != ROLE_VALUE)

    @property
    def value_factor(self) -> Factor | None:
        for sf in self.factors:
            if sf.role == ROLE_VALUE:
                return sf.factor
        return None

    def cpt_of(self, var: str) -> Factor:
        for sf in self.factors:
            if sf.role == ROLE_CHANCE and sf.child == var:
                return sf.factor
        raise UnknownDecision(f"no chance factor for {var!r} in stage {self.stage}")


# --------------------------------------------------------------------------


def remove_barren(model: IridModel) -> IridModel:
    """Iteratively delete non-value nodes with no children.

    Such nodes cannot influence the value node, so the optimal expected value
    and the policies of surviving decisions are unchanged.  Returns the input
    unchanged (same object) when nothing is barren.
    """
    alive = set(model.variables)
    value_var = model.value_var
    while True:
        barren = [
            v
            for v in alive
            if v != value_var and not any(c in alive for c in model.children(v))
        ]
        if not barren:
            break
        alive -= set(barren)
    if alive == set(model.variables):
        return model
    nodes = tuple(n for n in model.nodes if n.id in alive)
    arrows = tuple(a for a in model.arrows if a.source in alive and a.target in alive)
    cpts = tuple(c for c in model.cpts if c.child in alive)
    constraints = tuple(c for c in model.constraints if c.decision in alive)
    return build_model(nodes, arrows, cpts, constraints, model.value, model.objective)


def compute_partition(model: IridModel) -> StagePartition:
    """Assign every non-value variable to an observation block.

    A chance variable is observed at decision i when any arrow (relevance or
    informational -- constraint arrows carry information too) points from it
    to decision i.  Never-observed chance variables land in the last block.
    """
    decisions = model.decisions
    k = len(decisions)
    observed_by = {d: set(model.parents(d)) for d in decisions}
    blocks: list[set[str]] = [set() for _ in range(k + 1)]
    for i, d in enumerate(decisions):
        blocks[i + 1].add(d)
    for v in model.chance_vars:
        if k == 0:
            blocks[0].add(v)
            continue
        if v in observed_by[decisions[0]]:
            blocks[0].add(v)
            continue
        placed = False
        for i in range(1, k):
            if v in observed_by[decisions[i]] and v not in observed_by[decisions[i - 1]]:
                blocks[i].add(v)
                placed = True
                break
        if not placed:
            blocks[k].add(v)
    return StagePartition(
        blocks=tuple(frozenset(b) for b in blocks), decisions=decisions
    )


def relevance_subgraph(model: IridModel, partition: StagePartition | None = None) -> nx.DiGraph:
    """The directed graph with informational arrows dropped.

    Relevance arrows into decisions (from their constraint scopes) stay: they
    matter for what the decision function depends on.
    """
    g = nx.DiGraph()
    g.add_nodes_from(model.variables)
    g.add_edges_from(
        (a.source, a.target) for a in model.arrows if a.kind == "relevance"
    )
    return g


def moralize(directed_graph: nx.DiGraph) -> nx.Graph:
    """Undirected graph with every parent pair of a common child married."""
    return nx.moral_graph(directed_graph)


def build_stage_context(
    model: IridModel,
    partition: StagePartition,
    moral_graph: nx.Graph,
    stage: int,
) -> StageContext:
    """Assemble the working set for the last unsolved stage.

    gamma_prime keeps the members of the stage's block that are connected to
    the value node inside the moral subgraph induced by the block plus the
    value node.  The dependency set is the moral neighborhood of gamma_prime
    outside gamma_prime and the value node.  A factor is kept when its child
    or any of its parents lies in gamma_prime.
    """
    k = partition.stage_count
    if not 1 <= stage <= k:
        raise StageOutOfRange(f"stage {stage} outside 1..{k}")
    if stage != k:
        raise StageOutOfRange(
            f"stage {stage} is not the last unsolved stage ({k}); solve later stages first"
        )
    decision = partition.decisions[stage - 1]
    block = partition.blocks[stage]
    value_var = model.value_var

    induced = moral_graph.subgraph(set(block) | {value_var})
    connected = nx.node_connected_component(induced, value_var)
    gamma_prime = frozenset(v for v in block if v in connected)

    dependency: set[str] = set()
    for v in gamma_prime:
        dependency.update(moral_graph.neighbors(v))
    dependency -= set(gamma_prime)
    dependency.discard(value_var)

    factors = _stage_factors(model, gamma_prime)

    order = {v: i for i, v in enumerate(model.variables)}
    free = tuple(
        v for v in sorted(gamma_prime, key=order.__getitem__) if v != decision
    )
    free_topo = tuple(v for v in model.topological_order if v in set(free))
    return StageContext(
        stage=stage,
        decision=decision,
        gamma_prime=gamma_prime,
        dependency_set=frozenset(dependency),
        factors=factors,
        free_vars=free,
        free_topological=free_topo,
    )


def terminal_stage_context(model: IridModel) -> StageContext:
    """Stage-0 context for a model with no decisions left: everything free,
    nothing fixed, all conditionals in play."""
    if model.decisions:
        raise StageOutOfRange("terminal context requires all decisions absorbed")
    order = {v: i for i, v in enumerate(model.variables)}
    free = tuple(sorted(model.chance_vars, key=order.__getitem__))
    gamma = frozenset(free)
    factors = [
        StageFactor(ROLE_CHANCE, v, model.cpt_factor(v)) for v in model.chance_vars
    ]
    factors.append(StageFactor(ROLE_VALUE, model.value_var, model.value_factor))
    free_topo = tuple(v for v in model.topological_order if v in gamma)
    return StageContext(
        stage=0,
        decision=None,
        gamma_prime=gamma,
        dependency_set=frozenset(),
        factors=tuple(factors),
        free_vars=free,
        free_topological=free_topo,
    )


def _stage_factors(model: IridModel, gamma_prime: frozenset[str]) -> tuple[StageFactor, ...]:
    out: list[StageFactor] = []
    for v in model.variables:
        kind = model.kind(v)
        if kind == CHANCE:
            touched = v in gamma_prime or any(p in gamma_prime for p in model.parents(v))
            if touched:
                out.append(StageFactor(ROLE_CHANCE, v, model.cpt_factor(v)))
        elif kind == DECISION:
            scope = model.constraint(v).scope + (v,)
            if any(s in gamma_prime for s in scope):
                out.append(StageFactor(ROLE_DECISION, v, _placeholder_factor(model, v)))
        else:  # value
            if any(p in gamma_prime for p in model.parents(v)):
                out.append(StageFactor(ROLE_VALUE, v, model.value_factor))
    return tuple(out)


def _placeholder_factor(model: IridModel, decision: str) -> Factor:
    """All-ones stand-in over (scope, decision) for a not-yet-chosen decision.

    Its scope variables are always fixed during a stage, so it contributes a
    constant; keeping it at 1.0 means it never perturbs weights or support.
    """
    scope = model.constraint(decision).scope + (decision,)
    frames = tuple(model.frame(v) for v in scope)
    size = 1
    for f in frames:
        size *= len(f)
    return Factor.from_flat(scope, frames, [1.0] * size)


# --------------------------------------------------------------------------


def absorb_decision(model: IridModel, decision: str, policy: Policy) -> IridModel:
    """Substitute a solved decision function into the diagram.

    Every table where the decision was a parent is recomposed: the decision's
    slot is replaced by the policy's scope variables (deduplicated against
    existing parents), and each row is copied from the old table at the
    alternative the policy picks.  The decision node disappears; its zero-one
    conditional is not added anywhere.
    """
    if decision not in model.variables or model.kind(decision) != DECISION:
        raise UnknownDecision(f"no decision {decision!r}")
    if model.decisions[-1] != decision:
        raise NotLastDecision(
            f"{decision!r} is not the last decision; absorb {model.decisions[-1]!r} first"
        )
    validate_policy(model, policy)

    children = model.children(decision)
    new_nodes = tuple(n for n in model.nodes if n.id != decision)
    keep_arrows = [
        a for a in model.arrows if decision not in (a.source, a.target)
    ]
    existing = {(a.source, a.target) for a in keep_arrows}
    for child in children:
        for s in policy.scope:
            if (s, child) not in existing:
                keep_arrows.append(ArrowSpec(s, child, "relevance"))
                existing.add((s, child))

    new_cpts = []
    for c in model.cpts:
        if decision in c.parents:
            new_cpts.append(_compose_cpt(model, c, policy))
        else:
            new_cpts.append(c)
    new_value = model.value
    if decision in model.value.parents:
        new_value = _compose_value(model, model.value, policy)
    new_constraints = tuple(c for c in model.constraints if c.decision != decision)
    return build_model(
        new_nodes, tuple(keep_arrows), tuple(new_cpts), new_constraints, new_value, model.objective
    )


def _composed_parents(old_parents: tuple[str, ...], decision: str, policy: Policy):
    kept = [p for p in old_parents if p != decision]
    merged = list(kept)
    for s in policy.scope:
        if s not in merged:
            merged.append(s)
    return tuple(kept), tuple(merged)


def _compose_cpt(model: IridModel, cpt: Cpt, policy: Policy) -> Cpt:
    kept, merged = _composed_parents(cpt.parents, policy.decision, policy)
    rows = {}
    for cfg in iter_configs(merged, model.frames):
        assign = dict(zip(merged, cfg))
        assign[policy.decision] = policy.choice(assign)
        key = tuple(assign[p] for p in cpt.parents)
        rows[cfg] = cpt.rows[key]
    return Cpt(cpt.child, merged, rows)


def _compose_value(model: IridModel, vt: ValueTable, policy: Policy) -> ValueTable:
    kept, merged = _composed_parents(vt.parents, policy.decision, policy)
    cells = {}
    for cfg in iter_configs(merged, model.frames):
        assign = dict(zip(merged, cfg))
        assign[policy.decision] = policy.choice(assign)
        key = tuple(assign[p] for p in vt.parents)
        cells[cfg] = vt.cells[key]
    return ValueTable(merged, cells)
