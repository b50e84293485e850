"""Domain types and validation for influence diagrams with constrained decisions.

A model is a DAG of chance, decision, and value nodes.  Arrows into chance and
value nodes are relevance arrows.  Arrows into a decision are relevance arrows
exactly when they come from the decision's constraint scope; every other arrow
into a decision is informational (the value is known at decision time but does
not restrict the choice).  Each chance node carries a conditional probability
table, each decision a constraint mapping scope configurations to nonempty
sets of permitted alternatives, and the single value node a real-valued table.

A model holds each table as one float array over its scope, row-major in frame
order: the `Factor` the solver reads.  A chance node's is its CPT over
(parents..., child), the value node's the value table over its parents, and a
decision's the all-ones placeholder over (constraint scope..., decision).
`Cpt` and `ValueTable` are the label-keyed form callers build models from;
`IridModel.cpts`, `cpt` and `value` make that form from the arrays on demand,
and nothing on the solve path asks for it.

`build_model` validates a model assembled from outside parts and turns each
table into its array once; `derived_model` assembles, without checks, one
that a transformation (barren-node removal, decision absorption) made from a
validated model, from the parent's arrays and the changed ones.  Models are
immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ArrowKindMismatch,
    ConstraintScopeNotParents,
    CptParentsMismatch,
    CptRowNotNormalized,
    CycleDetected,
    DecisionsNotTotallyOrdered,
    DuplicateVariable,
    EmptyConstraintCell,
    IncompleteConfig,
    IncompletePolicy,
    InvalidModel,
    MissingTableEntry,
    MissingValueNode,
    ModelError,
    MultipleValueNodes,
    NoForgettingViolated,
    NonFiniteValue,
    PolicyViolatesConstraint,
    UnknownDecision,
    UnknownVariable,
    ValueNodeNotSink,
    ValueNotInFrame,
)
from .factors import Factor

CHANCE = "chance"
DECISION = "decision"
VALUE = "value"
NODE_KINDS = (CHANCE, DECISION, VALUE)

RELEVANCE = "relevance"
INFORMATIONAL = "informational"
ARROW_KINDS = (RELEVANCE, INFORMATIONAL)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"
OBJECTIVES = (MAXIMIZE, MINIMIZE)

#: absolute tolerance for CPT row normalization
PROB_TOL = 1e-9

Config = Mapping[str, str]


@dataclass(frozen=True)
class Frame:
    """Ordered set of values a variable can take.

    The ordering is fixed at construction and used for deterministic iteration
    and argmax tie-breaking everywhere in the package.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.labels, str):
            raise InvalidModel(f"frame labels must be a sequence of strings, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        for lab in self.labels:
            if not isinstance(lab, str):
                raise InvalidModel(f"frame labels must be strings, got {lab!r}")
        if len(self.labels) < 1:
            raise InvalidModel("frame must have at least one value")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidModel(f"frame labels not unique: {self.labels!r}")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueNotInFrame(f"{label!r} not in frame {self.labels!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str
    frame: Frame | None = None

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InvalidModel(f"node id must be a string, got {self.id!r}")
        if self.kind not in NODE_KINDS:
            raise InvalidModel(f"unknown node kind {self.kind!r} for {self.id!r}")
        if self.kind == VALUE and self.frame is not None:
            raise InvalidModel(f"value node {self.id!r} must not declare a frame")
        if self.kind != VALUE and self.frame is None:
            raise InvalidModel(f"{self.kind} node {self.id!r} needs a frame")


@dataclass(frozen=True)
class ArrowSpec:
    source: str
    target: str
    kind: str

    def __post_init__(self):
        if self.kind not in ARROW_KINDS:
            raise InvalidModel(f"unknown arrow kind {self.kind!r}")


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table: one probability row per parent configuration.

    `rows` maps each configuration of `parents` (a tuple of labels, in
    `parents` order) to the child's distribution, label -> probability.  It
    is kept as given; `build_model` checks it and turns it into an array.
    """

    child: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[str, ...], Mapping[str, float]]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class Constraint:
    """Maps configurations of the scope (tuples of labels, in `scope` order)
    to the alternatives the decision may take.  `cells` is kept as given;
    `build_model` checks it and keeps the alternatives in frame order."""

    decision: str
    scope: tuple[str, ...]
    cells: Mapping[tuple[str, ...], tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))


@dataclass(frozen=True)
class ValueTable:
    """The value node's table: one real value per configuration of `parents`
    (a tuple of labels, in `parents` order).  `cells` is kept as given;
    `build_model` checks it and turns it into an array."""

    parents: tuple[str, ...]
    cells: Mapping[tuple[str, ...], float]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class Policy:
    """Deterministic decision function: one chosen alternative per scope configuration.

    The scope is the decision's full parent list; the table must pick an
    admissible alternative for every configuration and hold nothing else.
    `table` is kept as given; `validate_policy` checks it.
    """

    decision: str
    scope: tuple[str, ...]
    table: Mapping[tuple[str, ...], str]

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))

    def choice(self, config: Config) -> str:
        try:
            key = tuple(config[v] for v in self.scope)
        except KeyError as e:
            raise IncompleteConfig(f"policy for {self.decision!r} needs {e.args[0]!r}") from None
        try:
            return self.table[key]
        except KeyError:
            raise IncompletePolicy(
                f"policy for {self.decision!r} has no entry at {key!r}"
            ) from None


def topological_sort(
    nodes: Sequence[str], edges: Iterable[tuple[str, str]]
) -> tuple[str, ...]:
    """Kahn's algorithm: of the nodes whose parents are all placed, the one
    earliest in `nodes` comes next.  Raises CycleDetected naming the nodes of
    one cycle."""
    position = {v: i for i, v in enumerate(nodes)}
    children: dict[str, list[str]] = {v: [] for v in nodes}
    waiting = dict.fromkeys(nodes, 0)  # parents not yet placed
    for source, target in edges:
        children[source].append(target)
        waiting[target] += 1
    ready = [position[v] for v in nodes if not waiting[v]]  # sorted, so a heap
    order = []
    while ready:
        v = nodes[heapq.heappop(ready)]
        order.append(v)
        for c in children[v]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, position[c])
    if len(order) < len(nodes):
        raise CycleDetected(_one_cycle(nodes, children, waiting))
    return tuple(order)


def _one_cycle(nodes, children, waiting) -> list[str]:
    """A cycle among the nodes Kahn's algorithm could not place, in arrow order.

    Each of them has an unplaced parent, so walking to unplaced parents from
    any of them must come back to a node already on the walk."""
    left = [v for v in nodes if waiting[v]]
    parent = {c: v for v in reversed(left) for c in children[v] if waiting[c]}
    walk = [left[0]]
    seen = {left[0]: 0}
    while (p := parent[walk[-1]]) not in seen:
        seen[p] = len(walk)
        walk.append(p)
    return walk[seen[p]:][::-1]


def iter_configs(scope: Sequence[str], frames: Mapping[str, Frame]) -> Iterator[tuple[str, ...]]:
    """Row-major iteration over all configurations of `scope`."""
    return itertools.product(*(frames[v].labels for v in scope))


@dataclass(frozen=True, eq=False)
class IridModel:
    """Validated influence diagram.

    Construct it through `build_model`, which checks every invariant, or,
    for a model derived from a validated one, through `derived_model`.
    `_tables` holds every node's table as a factor (see the module
    docstring); two models are equal when their structure, constraints,
    objective and table arrays are.  The content hash is computed on first
    use and cached.
    """

    nodes: tuple[NodeSpec, ...]
    arrows: tuple[ArrowSpec, ...]
    constraints: tuple[Constraint, ...]
    #: every node's table, by owner: CPTs by child, the value table by the
    #: value node, placeholders by decision.  A placeholder's scope is fixed
    #: during a stage, so it contributes a constant and never perturbs
    #: weights or support
    _tables: Mapping[str, Factor]
    objective: str = MAXIMIZE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IridModel):
            return NotImplemented
        return (
            (self.nodes, self.arrows, self.constraints, self.objective)
            == (other.nodes, other.arrows, other.constraints, other.objective)
            and self._tables.keys() == other._tables.keys()
            and all(
                t.scope == other._tables[v].scope
                and np.array_equal(t.values, other._tables[v].values)
                for v, t in self._tables.items()
            )
        )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _node_index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @cached_property
    def _node_map(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, var: str) -> NodeSpec:
        try:
            return self._node_map[var]
        except KeyError:
            raise UnknownVariable(f"no node {var!r}") from None

    def kind(self, var: str) -> str:
        return self.node(var).kind

    def frame(self, var: str) -> Frame:
        fr = self.node(var).frame
        if fr is None:
            raise InvalidModel(f"value node {var!r} has no frame")
        return fr

    @cached_property
    def frames(self) -> dict[str, Frame]:
        return {n.id: n.frame for n in self.nodes if n.frame is not None}

    # build_model and derived_model keep arrows sorted by (target, source)
    # position, so both maps list their nodes in model order
    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        by_target: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for a in self.arrows:
            by_target[a.target].append(a.source)
        return {v: tuple(ps) for v, ps in by_target.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        by_source: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for a in self.arrows:
            by_source[a.source].append(a.target)
        return {v: tuple(cs) for v, cs in by_source.items()}

    def parents(self, var: str) -> tuple[str, ...]:
        self.node(var)
        return self._parents[var]

    def children(self, var: str) -> tuple[str, ...]:
        self.node(var)
        return self._children[var]

    @cached_property
    def chance_vars(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == CHANCE)

    @cached_property
    def decisions(self) -> tuple[str, ...]:
        """Decision variables in their (unique) temporal order: valid models
        chain their decisions by arrows, so topological order lists them in
        chain order."""
        node = self._node_map
        return tuple(v for v in self.topological_order if node[v].kind == DECISION)

    @cached_property
    def value_var(self) -> str:
        for n in self.nodes:
            if n.kind == VALUE:
                return n.id
        raise MissingValueNode("model has no value node")

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        return topological_sort(self.variables, ((a.source, a.target) for a in self.arrows))

    # -- tables ------------------------------------------------------------

    @cached_property
    def cpts(self) -> tuple[Cpt, ...]:
        """The CPTs in label-keyed form, in chance-node order, built on demand."""
        return tuple(_label_view(CHANCE, self._tables[v]) for v in self.chance_vars)

    def cpt(self, var: str) -> Cpt:
        if var not in self._node_map or self._node_map[var].kind != CHANCE:
            raise UnknownVariable(f"no CPT for {var!r}")
        return self.cpts[self.chance_vars.index(var)]

    @cached_property
    def value(self) -> ValueTable:
        """The value table in label-keyed form, built on demand."""
        return _label_view(VALUE, self._tables[self.value_var])

    @cached_property
    def _constraint_map(self) -> dict[str, Constraint]:
        return {c.decision: c for c in self.constraints}

    def constraint(self, decision: str) -> Constraint:
        if decision not in self._constraint_map:
            if decision in self._node_map:
                raise UnknownDecision(f"{decision!r} is not a decision node")
            raise UnknownDecision(f"no decision {decision!r}")
        return self._constraint_map[decision]

    def cpt_factor(self, var: str) -> Factor:
        if self.kind(var) != CHANCE:
            raise UnknownVariable(f"no CPT for {var!r}")
        return self._tables[var]

    @property
    def value_factor(self) -> Factor:
        return self._tables[self.value_var]

    @cached_property
    def _content_hash(self) -> str:
        """sha256 of the canonical model file; see `modelfile.model_content_hash`."""
        from .modelfile import serialize_model  # modelfile imports this module

        return hashlib.sha256(serialize_model(self)).hexdigest()

    # -- behaviour ---------------------------------------------------------

    def admissible(self, decision: str, config: Config) -> tuple[str, ...]:
        """Alternatives the constraint permits given `config`.

        `config` must assign a value to every variable in the constraint scope
        (it may assign more, e.g. the full parent configuration).
        """
        con = self.constraint(decision)
        key = []
        for v in con.scope:
            if v not in config:
                raise IncompleteConfig(
                    f"admissible({decision!r}) needs a value for {v!r}"
                )
            label = config[v]
            if label not in self.frame(v):
                raise ValueNotInFrame(f"{label!r} not in frame of {v!r}")
            key.append(label)
        return con.cells[tuple(key)]


# --------------------------------------------------------------------------
# construction / validation


def build_model(
    nodes: Iterable[NodeSpec],
    arrows: Iterable[ArrowSpec],
    cpts: Iterable[Cpt],
    constraints: Iterable[Constraint] = (),
    value_table: ValueTable | None = None,
    objective: str = MAXIMIZE,
) -> IridModel:
    """Assemble and fully validate a model.

    Raises a specific ModelError subclass for each violated invariant; on
    success every structural and numerical invariant holds and the model is
    immutable.  An error that one entry of the arguments causes names it in
    its `field`, by position in the model file's path syntax (see
    `ModelError.field`).
    """
    nodes = tuple(nodes)
    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        error = DuplicateVariable(tuple(sorted({v for v in ids if ids.count(v) > 1})))
        second = next(i for i, v in enumerate(ids) if ids.index(v) < i)
        raise _at(f"nodes[{second}].id", error)
    known = set(ids)

    if objective not in OBJECTIVES:
        raise InvalidModel(f"objective must be one of {OBJECTIVES}, got {objective!r}")

    value_nodes = [n.id for n in nodes if n.kind == VALUE]
    if len(value_nodes) > 1:
        raise MultipleValueNodes(f"more than one value node: {value_nodes}")
    if not value_nodes:
        raise MissingValueNode("model needs exactly one value node")
    value_var = value_nodes[0]

    given_arrows = tuple(arrows)
    for i, a in enumerate(given_arrows):
        for end in (a.source, a.target):
            if end not in known:
                error = UnknownVariable(
                    f"arrow {a.source!r}->{a.target!r} references unknown {end!r}",
                    arrow=(a.source, a.target),
                )
                raise _at(f"arrows[{i}]", error)
    if len({(a.source, a.target) for a in given_arrows}) != len(given_arrows):
        raise InvalidModel("duplicate arrows")

    node_index = {v: i for i, v in enumerate(ids)}
    arrows = tuple(
        sorted(given_arrows, key=lambda a: (node_index[a.target], node_index[a.source]))
    )

    try:
        order = topological_sort(ids, [(a.source, a.target) for a in arrows])
    except CycleDetected as e:  # named by its first arrow in the given order
        edges = set(zip(e.cycle, e.cycle[1:] + e.cycle[:1]))
        first = next(i for i, a in enumerate(given_arrows) if (a.source, a.target) in edges)
        e.field = f"arrows[{first}]"
        raise

    if any(a.source == value_var for a in arrows):
        raise ValueNodeNotSink(f"value node {value_var!r} has outgoing arrows")

    # arrows are sorted by (target, source) position, so parents come in model order
    parents_of: dict[str, list[str]] = {v: [] for v in ids}
    for a in arrows:
        parents_of[a.target].append(a.source)
    parents = {v: tuple(ps) for v, ps in parents_of.items()}
    kinds = {n.id: n.kind for n in nodes}
    frames = {n.id: n.frame for n in nodes if n.frame is not None}

    # the decisions in topological order, which chain them when each is a
    # parent of the next
    dec_order = [v for v in order if kinds[v] == DECISION]
    for a, b in zip(dec_order, dec_order[1:]):
        if a not in parents[b]:
            raise DecisionsNotTotallyOrdered(
                f"no arrow between consecutive decisions {a!r} and {b!r}"
            )
    _check_no_forgetting(dec_order, parents)

    # constraints: normalize, one per decision, auto-fill unconstrained; each
    # with its position in `constraints`, which an auto-filled one lacks
    con_map: dict[str, tuple[Constraint, int | None]] = {}
    for i, con in enumerate(constraints):
        if con.decision not in known or kinds[con.decision] != DECISION:
            raise UnknownDecision(f"constraint on non-decision {con.decision!r}")
        if con.decision in con_map:
            raise InvalidModel(f"duplicate constraint for {con.decision!r}")
        con_map[con.decision] = con, i
    for d in dec_order:
        if d not in con_map:
            con_map[d] = Constraint(d, (), {(): tuple(frames[d].labels)}), None
    normalized_constraints = tuple(
        _validate_constraint(*con_map[d], parents[d], frames) for d in dec_order
    )

    # arrow kinds follow from node kinds and constraint scopes
    scope_of = {c.decision: set(c.scope) for c in normalized_constraints}
    for a in arrows:
        target_kind = kinds[a.target]
        if target_kind in (CHANCE, VALUE):
            if a.kind != RELEVANCE:
                raise ArrowKindMismatch(
                    f"arrow {a.source!r}->{a.target!r} into a {target_kind} node must be relevance"
                )
        else:
            expected = RELEVANCE if a.source in scope_of[a.target] else INFORMATIONAL
            if a.kind != expected:
                raise ArrowKindMismatch(
                    f"arrow {a.source!r}->{a.target!r} must be {expected} "
                    f"(constraint scope of {a.target!r} is {sorted(scope_of[a.target])})"
                )

    # CPTs: exactly one per chance node, matching graph parents, normalized rows
    cpt_map: dict[str, tuple[Cpt, int]] = {}  # with its position in `cpts`
    for i, c in enumerate(cpts):
        if c.child not in known:
            raise UnknownVariable(f"CPT for unknown variable {c.child!r}")
        if kinds[c.child] != CHANCE:
            raise InvalidModel(f"CPT given for non-chance node {c.child!r}")
        if c.child in cpt_map:
            raise InvalidModel(f"duplicate CPT for {c.child!r}")
        cpt_map[c.child] = c, i
    tables: dict[str, Factor] = {}
    for v in (n.id for n in nodes if n.kind == CHANCE):
        if v not in cpt_map:
            raise CptParentsMismatch(f"chance node {v!r} has no CPT")
        tables[v] = _cpt_table(*cpt_map[v], parents[v], frames)

    if value_table is None:
        raise InvalidModel("a value table is required")
    tables[value_var] = _value_table(value_table, value_var, parents[value_var], frames)
    for con in normalized_constraints:
        scope = con.scope + (con.decision,)
        ones = np.ones(math.prod(len(frames[v]) for v in scope))
        tables[con.decision] = _factor(scope, frames, ones)

    return IridModel(
        nodes=nodes,
        arrows=arrows,
        constraints=normalized_constraints,
        _tables={n.id: tables[n.id] for n in nodes},
        objective=objective,
    )


def derived_model(
    parent: IridModel,
    nodes: tuple[NodeSpec, ...],
    arrows: tuple[ArrowSpec, ...],
    constraints: tuple[Constraint, ...],
    changed: Mapping[str, Factor],
) -> IridModel:
    """Assemble, without checks, a model made from the validated `parent` by a
    transformation that keeps every invariant `build_model` checks (removing
    barren nodes, absorbing the last decision).

    The parts must be in `build_model`'s normal form: nodes in the parent's
    order, arrows sorted by (target, source) position and constraints in
    decision order.  `changed` holds the table of every surviving node whose
    table differs from the parent's; every other node keeps the parent's.
    """
    tables = {n.id: parent._tables[n.id] for n in nodes}
    tables.update(changed)
    return IridModel(nodes, arrows, constraints, tables, parent.objective)


def _check_no_forgetting(dec_order: list[str], parents: Mapping[str, tuple[str, ...]]):
    for earlier, later in zip(dec_order, dec_order[1:]):
        missing = set(parents[earlier]) - set(parents[later])
        if missing:
            raise NoForgettingViolated(
                f"{later!r} does not inherit parents {sorted(missing)} of {earlier!r}"
            )


def _at(field: str, error: ModelError) -> ModelError:
    """`error`, naming `field` as the entry that caused it."""
    error.field = field
    return error


def _factor(scope: tuple[str, ...], frames: Mapping[str, Frame], values: np.ndarray) -> Factor:
    """A factor over `scope` holding `values`, any array of its size in
    row-major order.  build_model checked the entries, so Factor's checks
    are not repeated."""
    table_frames = tuple(map(frames.__getitem__, scope))
    return Factor.trusted(scope, table_frames, values.reshape(tuple(map(len, table_frames))))


#: the field of a table's entries, by section, given the table's position
_ENTRIES = {"cpt": "cpts[{}].rows", "constraint": "constraints[{}].cells", "value": "value.cells"}


def _config_index(
    scope: tuple[str, ...],
    entries: Mapping,
    frames: Mapping[str, Frame],
    section: str,
    owner: str,
    at: int | None = None,
) -> dict[tuple[str, ...], int]:
    """The row-major position of each configuration of `scope`; raises
    MissingTableEntry at the first one (row-major) that `entries`, of the
    table at position `at` of its section, lacks."""
    configs = list(iter_configs(scope, frames))
    for cfg in configs:
        if cfg not in entries:
            raise _at(_ENTRIES[section].format(at), MissingTableEntry(section, owner, cfg))
    return dict(zip(configs, range(len(configs))))


def _bad_key(
    key, scope: tuple[str, ...], frames: Mapping[str, Frame], mismatch: str, where: str
) -> ModelError:
    """The error for a table key that is no configuration of `scope`: a
    label outside its variable's frame, else `mismatch`."""
    if type(key) is tuple and len(key) == len(scope):
        for v, lab in zip(scope, key):
            if lab not in frames[v]:
                return ValueNotInFrame(f"{lab!r} not in frame of {v!r} ({where})")
    return InvalidModel(mismatch)


def _real(x) -> float | None:
    """A table entry as a float, or None if it is not a number: an int, a
    float or a numpy integer or floating scalar, but not a bool.  An integer
    beyond the doubles becomes an infinity."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _cpt_table(
    cpt: Cpt, at: int, graph_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Factor:
    """`cpt`, at position `at` of the CPTs, as an array over (parents...,
    child), once every row is checked; a bad CPT raises the error of its
    first bad row in `rows` order."""
    child, parents = cpt.child, cpt.parents
    if set(parents) != set(graph_parents):
        raise CptParentsMismatch(
            f"CPT for {child!r} declares parents {list(parents)}, "
            f"graph has {list(graph_parents)}"
        )
    if len(set(parents)) != len(parents):
        raise CptParentsMismatch(f"CPT for {child!r} repeats a parent")
    labels = frames[child].labels
    label_set = set(labels)
    index = _config_index(parents, cpt.rows, frames, "cpt", child, at)
    ordered: list = [None] * len(index)
    for j, (cfg, row) in enumerate(cpt.rows.items()):
        i = index.get(cfg)
        if i is None:
            raise _bad_key(
                cfg, parents, frames,
                f"CPT row key {cfg!r} does not match parents of {child!r}", f"CPT of {child!r}",
            )
        if row.keys() != label_set:
            extra = set(row) - label_set
            if extra:
                raise ValueNotInFrame(
                    f"CPT row of {child!r} mentions {sorted(extra)} outside the frame"
                )
            raise _bad_row(at, j, child, cfg, "missing probabilities")
        probs = []
        total = 0.0
        for lab in labels:
            p = row[lab]
            if type(p) is not float:  # the parser gives floats
                p = _real(p)
                if p is None:
                    raise _bad_row(at, j, child, cfg, f"P({lab!r})={row[lab]!r} is not a number")
            if not (0.0 <= p <= 1.0):
                raise _bad_row(at, j, child, cfg, f"P={p!r} outside [0,1]")
            total += p
            probs.append(p)
        if abs(total - 1.0) > PROB_TOL:
            raise _bad_row(at, j, child, cfg, f"row sums to {total!r}")
        ordered[i] = probs
    return _factor(parents + (child,), frames, np.array(ordered, dtype=float))


def _bad_row(at: int, j: int, child: str, cfg: tuple, detail: str) -> ModelError:
    """The error for row `j` of the CPT at position `at`."""
    return _at(f"cpts[{at}].rows[{j}].p", CptRowNotNormalized(child, cfg, detail))


def _validate_constraint(
    con: Constraint, at: int | None, dec_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Constraint:
    """`con`, at position `at` of the constraints, once every cell is
    checked, with each cell's alternatives in frame order."""
    extra = set(con.scope) - set(dec_parents)
    if extra:
        raise ConstraintScopeNotParents(
            f"constraint scope of {con.decision!r} includes non-parents {sorted(extra)}"
        )
    if len(set(con.scope)) != len(con.scope):
        raise ConstraintScopeNotParents(f"constraint scope of {con.decision!r} repeats a variable")
    dec_frame = frames[con.decision]
    index = _config_index(con.scope, con.cells, frames, "constraint", con.decision, at)
    cells = {}
    for j, (cfg, allowed) in enumerate(con.cells.items()):
        if cfg not in index:
            raise _bad_key(
                cfg, con.scope, frames,
                f"constraint cell key {cfg!r} does not match scope of {con.decision!r}",
                f"constraint of {con.decision!r}",
            )
        for alt in allowed:
            if alt not in dec_frame:
                raise ValueNotInFrame(
                    f"constraint of {con.decision!r} permits {alt!r} outside the frame"
                )
        ordered = tuple(filter(set(allowed).__contains__, dec_frame.labels))
        if not ordered:
            error = EmptyConstraintCell(con.decision, cfg)
            raise _at(f"constraints[{at}].cells[{j}].allow", error)
        cells[cfg] = ordered
    return Constraint(con.decision, con.scope, cells)


def _value_table(
    vt: ValueTable, value_var: str, graph_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Factor:
    """`vt` as an array over its parents, once every cell is checked; an
    invalid table raises the error of its first bad cell in `cells` order."""
    parents = vt.parents
    if set(parents) != set(graph_parents):
        raise InvalidModel(
            f"value table declares parents {list(parents)}, graph has {list(graph_parents)}"
        )
    if len(set(parents)) != len(parents):
        raise InvalidModel("value table repeats a parent")
    index = _config_index(parents, vt.cells, frames, "value", value_var)
    ordered = [0.0] * len(index)
    for j, (cfg, v) in enumerate(vt.cells.items()):
        i = index.get(cfg)
        if i is None:
            raise _bad_key(
                cfg, parents, frames,
                f"value cell key {cfg!r} does not match value parents", "value table",
            )
        if type(v) is not float:  # the parser gives floats
            real = _real(v)
            if real is None:
                raise InvalidModel(f"value table entry at {cfg!r} is {v!r}, not a number")
            v = real
        if not math.isfinite(v):
            error = NonFiniteValue(f"value table entry at {cfg!r} is {v!r}")
            raise _at(f"value.cells[{j}].v", error)
        ordered[i] = v
    return _factor(parents, frames, np.array(ordered))


def _label_view(kind: str, table: Factor) -> Cpt | ValueTable:
    """The label-keyed form of a model's table: a chance node's CPT, whose
    scope ends in the child, or the value table."""
    if kind == VALUE:
        configs = itertools.product(*(f.labels for f in table.frames))
        return ValueTable(table.scope, dict(zip(configs, table.values.ravel().tolist())))
    labels = table.frames[-1].labels
    configs = itertools.product(*(f.labels for f in table.frames[:-1]))
    rows = table.values.reshape(-1, len(labels)).tolist()
    return Cpt(
        table.scope[-1],
        table.scope[:-1],
        {cfg: dict(zip(labels, row)) for cfg, row in zip(configs, rows)},
    )


# --------------------------------------------------------------------------
# operations


def validate_policy(model: IridModel, policy: Policy) -> np.ndarray:
    """Raise unless `policy` is a total, constraint-respecting decision
    function with no entry outside its scope.  Returns the chosen
    alternative's frame index at each configuration of the policy's scope,
    an `np.intp` array with one axis per scope variable."""
    dec = policy.decision
    if dec not in model.variables or model.kind(dec) != DECISION:
        raise UnknownDecision(f"no decision {dec!r}")
    want = set(model.parents(dec))
    if len(policy.scope) != len(want) or set(policy.scope) != want:
        raise IncompletePolicy(
            f"policy scope for {dec!r} is {sorted(policy.scope)}, "
            f"parents are {sorted(want)}"
        )
    frames = model.frames
    position = {lab: i for i, lab in enumerate(frames[dec].labels)}
    con = model.constraint(dec)
    # build_model keeps a constraint's scope inside the decision's parents
    # and gives every configuration of it a cell
    pos = [policy.scope.index(v) for v in con.scope]
    table = policy.table
    choice = []
    for cfg in iter_configs(policy.scope, frames):
        if cfg not in table:
            raise IncompletePolicy(f"policy for {dec!r} misses {cfg!r}")
        chosen = table[cfg]
        if not isinstance(chosen, str) or chosen not in position:
            raise ValueNotInFrame(f"policy picks {chosen!r} outside frame of {dec!r}")
        allowed = con.cells[tuple(cfg[i] for i in pos)]
        if chosen not in allowed:
            raise PolicyViolatesConstraint(
                f"policy picks {chosen!r} at {cfg!r} but constraint allows {list(allowed)}"
            )
        choice.append(position[chosen])
    if len(table) != len(choice):
        raise IncompletePolicy(
            f"policy for {dec!r} has {len(table)} entries, its scope "
            f"{list(policy.scope)} has {len(choice)} configurations"
        )
    return np.array(choice, dtype=np.intp).reshape(tuple(len(frames[v]) for v in policy.scope))


def policy_to_conditional(model: IridModel, policy: Policy) -> Factor:
    """Zero-one conditional for a decision over (scope..., decision): each
    row is one-hot on the chosen alternative."""
    choice = validate_policy(model, policy)
    scope = policy.scope + (policy.decision,)
    frames = tuple(map(model.frames.__getitem__, scope))
    return Factor.trusted(scope, frames, np.eye(len(frames[-1]))[choice])
