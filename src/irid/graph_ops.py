"""Structural algorithms for staging the backward dynamic program.

The solver works one decision at a time, last decision first.  Before each
stage it needs to know (a) which variables the stage's conditional expectation
actually ranges over and (b) which factors of the joint distribution matter.
That is computed here:

  * `remove_barren`     -- keep the value node and its ancestors: the other
                           nodes have no directed path to the value node, so
                           they cannot influence it
  * `compute_partition` -- a chance node joins the observation block of the
                           first decision that observes it, or the last block
  * `relevance_subgraph` / `moralize`
                        -- the undirected dependency structure, keeping
                           constraint (relevance) arrows into decisions; the
                           DAG is a map from each variable to its parents, the
                           moral graph one from each variable to its neighbours
  * `build_stage_context`
                        -- the stage's live block, the variables the decision
                           function depends on, and the tables whose scope
                           meets the live block
  * `absorb_decision`   -- substitute a solved decision function into every
                           table where the decision was a parent, removing the
                           node (its zero-one conditional is deliberately NOT
                           kept as a factor: those zeros would trap the
                           sampler)

All functions are pure.  `remove_barren` and `absorb_decision` keep every
invariant `build_model` checks, so they assemble their output from the input's
validated parts through `model.derived_model` without checking it again (only
the policy is validated); tables that do not change are carried over as they
are, and a table the decision was a parent of is composed by one gather on its
old array.  The graph code is plain Python over dicts and sets (the
topological sort lives in `model`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import NotLastDecision, StageOutOfRange, UnknownDecision, UnknownVariable
from .factors import Factor
from .model import (
    CHANCE,
    DECISION,
    RELEVANCE,
    VALUE,
    ArrowSpec,
    Frame,
    IridModel,
    Policy,
    build_model,  # noqa: F401  the benchmark's tracer patches graph_ops.build_model
    derived_model,
    validate_policy,
)

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
    """A node's table in the stage's joint, tagged with the node's kind.

    role "chance" is a conditional probability table (child given), role
    "decision" is the all-ones placeholder standing in for the not-yet-chosen
    decision function over the decision and its constraint scope, and role
    "value" is the real-valued table (never multiplied into probability
    products).  child is the node.
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
    initialization.  cache holds tables an evaluator derives from the context
    on first use (the exact backend's elimination tables), so they are freed
    with the context.
    """

    stage: int
    decision: str | None
    gamma_prime: frozenset[str]
    dependency_set: frozenset[str]
    factors: tuple[StageFactor, ...]
    free_vars: tuple[str, ...]
    free_topological: tuple[str, ...]
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def probability_factors(self) -> tuple[Factor, ...]:
        return tuple(sf.factor for sf in self.factors if sf.role != VALUE)

    @property
    def value_factor(self) -> Factor | None:
        for sf in self.factors:
            if sf.role == VALUE:
                return sf.factor
        return None

    def cpt_of(self, var: str) -> Factor:
        for sf in self.factors:
            if sf.role == CHANCE and sf.child == var:
                return sf.factor
        raise UnknownVariable(f"no chance factor for {var!r} in stage {self.stage}")


# --------------------------------------------------------------------------


def remove_barren(model: IridModel) -> IridModel:
    """Keep the value node and its ancestors; delete every other node.

    A node without a directed path to the value node cannot influence it, so
    the optimal expected value and the policies of surviving decisions are
    unchanged.  These are exactly the nodes that repeatedly deleting childless
    non-value nodes removes (Shachter 1986).  Returns the input unchanged
    (same object) when nothing is barren.
    """
    alive = {model.value_var}
    stack = [model.value_var]
    while stack:
        for p in model.parents(stack.pop()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    if len(alive) == len(model.nodes):
        return model
    nodes = tuple(n for n in model.nodes if n.id in alive)
    arrows = tuple(a for a in model.arrows if a.source in alive and a.target in alive)
    constraints = tuple(c for c in model.constraints if c.decision in alive)
    return derived_model(model, nodes, arrows, constraints, {})


def compute_partition(model: IridModel) -> StagePartition:
    """Assign every non-value variable to an observation block.

    Decision i (counting from 1) is in block i.  A chance variable is in
    block i - 1 when decision i is the first decision that observes it, that
    is, the first one an arrow from it points to (relevance or informational
    -- constraint arrows carry information too); a chance variable that no
    decision observes is in the last block.
    """
    decisions = model.decisions
    k = len(decisions)
    observed_by = [set(model.parents(d)) for d in decisions]
    blocks: list[set[str]] = [set() for _ in range(k + 1)]
    for i, d in enumerate(decisions):
        blocks[i + 1].add(d)
    for v in model.chance_vars:
        blocks[next((i for i, seen in enumerate(observed_by) if v in seen), k)].add(v)
    return StagePartition(
        blocks=tuple(frozenset(b) for b in blocks), decisions=decisions
    )


def relevance_subgraph(model: IridModel) -> dict[str, tuple[str, ...]]:
    """The parents of each variable, in model order, with informational
    arrows dropped.

    Relevance arrows into decisions (from their constraint scopes) stay: they
    matter for what the decision function depends on.
    """
    parents: dict[str, list[str]] = {v: [] for v in model.variables}
    for a in model.arrows:  # sorted by (target, source) position
        if a.kind == RELEVANCE:
            parents[a.target].append(a.source)
    return {v: tuple(ps) for v, ps in parents.items()}


def moralize(parents: Mapping[str, tuple[str, ...]]) -> dict[str, frozenset[str]]:
    """Neighbours of each node of the moral graph of the DAG given by
    `parents` (every node a key): arrows lose their direction and every two
    parents of a common child are married."""
    neighbours: dict[str, set[str]] = {v: set() for v in parents}
    for child, ps in parents.items():
        neighbours[child].update(ps)
        for p in ps:
            neighbours[p].add(child)
            neighbours[p].update(ps)
            neighbours[p].discard(p)
    return {v: frozenset(ns) for v, ns in neighbours.items()}


def build_stage_context(
    model: IridModel,
    partition: StagePartition,
    moral_graph: Mapping[str, frozenset[str]],
    stage: int,
) -> StageContext:
    """Assemble the working set for the last unsolved stage.

    gamma_prime keeps the members of the stage's block that are connected to
    the value node inside the moral subgraph induced by the block plus the
    value node.  The dependency set is the moral neighborhood of gamma_prime
    outside gamma_prime and the value node.  A node's table (CPT, decision
    placeholder or value table) is a stage factor when its scope meets
    gamma_prime.  free_vars are gamma_prime without the decision, in model
    order.
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

    connected = {value_var}
    stack = [value_var]
    while stack:
        for u in moral_graph[stack.pop()]:
            if u in block and u not in connected:
                connected.add(u)
                stack.append(u)
    gamma_prime = block & connected

    dependency: set[str] = set()
    for v in gamma_prime:
        dependency.update(moral_graph[v])
    dependency -= gamma_prime
    dependency.discard(value_var)

    factors = _stage_factors(model, gamma_prime)

    free = tuple(v for v in model.variables if v in gamma_prime and v != decision)
    free_topo = tuple(
        v for v in model.topological_order if v in gamma_prime and v != decision
    )
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
    free = model.chance_vars
    gamma = frozenset(free)
    factors = [StageFactor(CHANCE, v, model.cpt_factor(v)) for v in free]
    factors.append(StageFactor(VALUE, model.value_var, model.value_factor))
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
    """Each node's table whose scope meets gamma_prime, in model order."""
    out: list[StageFactor] = []
    for n in model.nodes:
        table = model._tables[n.id]
        if not gamma_prime.isdisjoint(table.scope):
            out.append(StageFactor(n.kind, n.id, table))
    return tuple(out)


# --------------------------------------------------------------------------


def absorb_decision(model: IridModel, policy: Policy) -> IridModel:
    """Substitute the solved decision function `policy` into the diagram; its
    decision must be the last.

    Every table where the decision was a parent is recomposed on its array
    (`_compose`): the decision's slot is replaced by the policy's scope
    variables (deduplicated against existing parents), and each row is
    copied from the old table at the alternative the policy picks.  The new
    arrays become the derived model's tables as they are; no label-keyed
    rows are made.  The decision node disappears; its zero-one conditional
    is not added anywhere.
    """
    decision = policy.decision
    if decision not in model.variables or model.kind(decision) != DECISION:
        raise UnknownDecision(f"no decision {decision!r}")
    if model.decisions[-1] != decision:
        raise NotLastDecision(
            f"{decision!r} is not the last decision; absorb {model.decisions[-1]!r} first"
        )
    # the chosen alternative's index per configuration of the policy's scope
    choice = validate_policy(model, policy)
    frames = model.frames

    children = model.children(decision)
    new_nodes = tuple(n for n in model.nodes if n.id != decision)
    arrows = [a for a in model.arrows if decision not in (a.source, a.target)]
    existing = {(a.source, a.target) for a in arrows}
    for child in children:
        for s in policy.scope:
            if (s, child) not in existing:
                arrows.append(ArrowSpec(s, child, RELEVANCE))
                existing.add((s, child))
    index = model._node_index
    arrows.sort(key=lambda a: (index[a.target], index[a.source]))

    # the decision's children are chance nodes and the value node (it is
    # the last decision); a CPT's scope ends in its child
    changed: dict[str, Factor] = {}
    for child in children:
        table = model._tables[child]
        if child == model.value_var:
            scope = _composed_parents(table.scope, policy)
        else:
            scope = _composed_parents(table.scope[:-1], policy) + (child,)
        changed[child] = _compose(table, scope, policy, choice, frames)
    new_constraints = tuple(c for c in model.constraints if c.decision != decision)
    return derived_model(model, new_nodes, tuple(arrows), new_constraints, changed)


def _composed_parents(old_parents: tuple[str, ...], policy: Policy) -> tuple[str, ...]:
    merged = [p for p in old_parents if p != policy.decision]
    for s in policy.scope:
        if s not in merged:
            merged.append(s)
    return tuple(merged)


def _compose(
    table: Factor,
    scope: tuple[str, ...],
    policy: Policy,
    choice: np.ndarray,
    frames: Mapping[str, Frame],
) -> Factor:
    """`table` with the policy's decision replaced by its choice: the entry at
    each configuration of `scope` is the old one at the same labels, with the
    decision at the alternative `choice` holds for that configuration.  One
    gather on the old array; row-major over `scope`."""
    shape = tuple(len(frames[v]) for v in scope)
    # the label index of each variable of `scope`, on its own axis of the
    # result, so the indices broadcast to it and no full grid is built
    at = dict(zip(scope, np.ix_(*map(range, shape))))
    at[policy.decision] = choice[tuple(at[v] for v in policy.scope)]
    # a scalar when every index is one (an empty `scope`)
    values = np.asarray(table.values[tuple(at[v] for v in table.scope)]).reshape(shape)
    return Factor.trusted(scope, tuple(frames[v] for v in scope), values)
