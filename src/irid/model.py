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
validated model, from the parent's arrays and the changed ones.  A table's
entries have one check, `_Entries`: the model file's parser feeds it as it
walks the file, and `build_model` feeds it the mappings of the Python API.
Models are immutable and safe to share across threads.
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

#: the most entries a table or an enumeration may have: the exact backend's
#: largest elimination table, the oracle's joint and stage enumerations and
#: the sampler's support search raise BudgetExceeded beyond it
MAX_CONFIGS = 10**7

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
        positions = {lab: i for i, lab in enumerate(self.labels)}
        if len(positions) != len(self.labels):
            raise InvalidModel(f"frame labels not unique: {self.labels!r}")
        #: each label's position in the frame
        object.__setattr__(self, "_positions", positions)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
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

    # constraints: one per decision, checked with its position in
    # `constraints`; an unconstrained decision permits its whole frame
    con_map: dict[str, tuple[Constraint, int]] = {}
    for i, con in enumerate(constraints):
        if con.decision not in known or kinds[con.decision] != DECISION:
            error = UnknownDecision(f"constraint on non-decision {con.decision!r}")
            raise _at(f"constraints[{i}]", error)
        if con.decision in con_map:
            error = InvalidModel(f"duplicate constraint for {con.decision!r}")
            raise _at(f"constraints[{i}]", error)
        con_map[con.decision] = con, i
    normalized_constraints = tuple(
        _validate_constraint(*con_map[d], parents[d], frames) if d in con_map
        else Constraint(d, (), {(): frames[d].labels})
        for d in dec_order
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
            raise _at(f"cpts[{i}]", UnknownVariable(f"CPT for unknown variable {c.child!r}"))
        if kinds[c.child] != CHANCE:
            raise _at(f"cpts[{i}]", InvalidModel(f"CPT given for non-chance node {c.child!r}"))
        if c.child in cpt_map:
            raise _at(f"cpts[{i}]", InvalidModel(f"duplicate CPT for {c.child!r}"))
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
    shape = tuple([len(f.labels) for f in table_frames])
    return Factor.trusted(scope, table_frames, values.reshape(shape))


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


class _Entries:
    """The entries of one table, each checked once, as it comes, and kept by
    its row-major position over the table's scope: a CPT's rows, a
    constraint's cells or the value table's cells.

    It is the one check of a table entry.  The model file's parser feeds it
    each entry as it walks the document and hands it to `build_model` in
    place of the label-keyed mapping of a `Cpt`, `Constraint` or
    `ValueTable`; `build_model` feeds it the mapping of one built through
    the Python API.  The error of a bad entry is held, not raised, so that
    `build_model` raises it where it reads the table, after the model's
    structure is checked: `values` raises the first configuration without
    an entry (row-major), else the first bad entry in the order fed.
    """

    #: the table's section, and the field of its entries given its position;
    #: `where` names the table in the error for a label outside its frame,
    #: and `mismatch` is the error for a key that is no label tuple
    section = field = where = mismatch = ""

    def __init__(self, owner, scope: tuple[str, ...], frames: Mapping[str, Frame], at=None):
        self.owner, self.scope, self.at = owner, scope, at
        # each variable with its labels' positions in its frame; one without
        # a frame has none, and build_model rejects such a scope before it
        # reads the entries
        self._axes = []
        self.size = 1
        for v in scope:
            positions = frames[v]._positions if v in frames else {}
            self._axes.append((v, positions))
            self.size *= len(positions)
        self.placed: dict[int, object] = {}  # each entry by its position
        self.strays: set = set()  # the keys of entries at no position
        self.fault: BaseException | None = None

    def position(self, given: Mapping) -> int | None:
        """The row-major position of the configuration that `given` maps
        each scope variable to a label of; None if a label is outside its
        frame."""
        pos = 0
        try:
            for var, positions in self._axes:
                pos = pos * len(positions) + positions[given[var]]
        except (KeyError, TypeError):  # a label outside its frame, or unhashable
            return None
        return pos

    def config(self, pos: int, key=None) -> tuple:
        """The configuration an error names the entry at `pos` by: `key`,
        the entry's key as given, or if None the labels at `pos`."""
        if key is not None:
            return key
        labels = []
        for _, positions in reversed(self._axes):
            pos, i = divmod(pos, len(positions))
            labels.append(list(positions)[i])
        return tuple(reversed(labels))

    def add(self, j: int, pos: int, entry, key=None) -> None:
        """Entry `j` fed, at position `pos`; `key` is its key as given, or
        None for the labels at `pos`."""
        if self.fault is None:
            try:
                entry = self._checked(j, entry, pos, key)
            except Exception as e:  # held, so that a missing entry still wins
                self.fault = e
        self.placed[pos] = entry

    def stray(self, j: int, key) -> None:
        """Entry `j` fed, whose key is no configuration of the scope."""
        self.strays.add(key)
        if self.fault is not None:
            return
        if type(key) is tuple and len(key) == len(self.scope):
            for (v, positions), lab in zip(self._axes, key):
                if lab not in positions:
                    self.fault = ValueNotInFrame(
                        f"{lab!r} not in frame of {v!r} ({self.where.format(self.owner)})"
                    )
                    return
        self.fault = InvalidModel(self.mismatch.format(key, self.owner))

    def feed(self, entries: Mapping) -> _Entries:
        """Feed the label-keyed `entries` of a table from the Python API.
        build_model rejects a scope that repeats a variable first, so a key
        maps each scope variable to one label."""
        n = len(self.scope)
        for j, (key, entry) in enumerate(entries.items()):
            ok = isinstance(key, tuple) and len(key) == n
            pos = self.position(dict(zip(self.scope, key))) if ok else None
            if pos is None:
                self.stray(j, key)
            else:
                self.add(j, pos, entry, key)
        return self

    def values(self) -> Iterator:
        """The checked entries in row-major order, once every configuration
        has one and none is bad."""
        placed = self.placed
        if len(placed) < self.size:
            first = next(i for i in itertools.count() if i not in placed)
            error = MissingTableEntry(self.section, self.owner, self.config(first))
            raise _at(self.field.format(self.at), error)
        if self.fault is not None:
            raise self.fault
        return map(placed.__getitem__, range(self.size))


class _CptRows(_Entries):
    """A CPT's rows; each is kept as its probabilities in frame order."""

    section, field = "cpt", "cpts[{}].rows"
    where = "CPT of {!r}"
    mismatch = "CPT row key {!r} does not match parents of {!r}"

    def __init__(self, child: str, parents: tuple[str, ...], frames: Mapping[str, Frame], at: int):
        super().__init__(child, parents, frames, at)
        self.labels = frames[child]._positions if child in frames else {}

    def _checked(self, j: int, row: Mapping, pos: int, key) -> list[float]:
        if row.keys() != self.labels.keys():
            extra = set(row) - self.labels.keys()
            if extra:
                raise ValueNotInFrame(
                    f"CPT row of {self.owner!r} mentions {sorted(extra)} outside the frame"
                )
            raise self._bad(j, pos, key, "missing probabilities")
        probs = []
        total = 0.0
        for lab in self.labels:
            p = row[lab]
            if type(p) is not float:
                p = _real(p)
                if p is None:
                    raise self._bad(j, pos, key, f"P({lab!r})={row[lab]!r} is not a number")
            if not (0.0 <= p <= 1.0):
                raise self._bad(j, pos, key, f"P={p!r} outside [0,1]")
            total += p
            probs.append(p)
        if abs(total - 1.0) > PROB_TOL:
            raise self._bad(j, pos, key, f"row sums to {total!r}")
        return probs

    def _bad(self, j: int, pos: int, key, detail: str) -> ModelError:
        error = CptRowNotNormalized(self.owner, self.config(pos, key), detail)
        return _at(f"cpts[{self.at}].rows[{j}].p", error)


class _ConstraintCells(_Entries):
    """A constraint's cells; each is kept as its alternatives in frame order."""

    section, field = "constraint", "constraints[{}].cells"
    where = "constraint of {!r}"
    mismatch = "constraint cell key {!r} does not match scope of {!r}"

    def __init__(self, decision: str, scope: tuple[str, ...], frames: Mapping[str, Frame], at: int):
        super().__init__(decision, scope, frames, at)
        self.labels = frames[decision].labels if decision in frames else ()

    def _checked(self, j: int, allowed, pos: int, key) -> tuple[str, ...]:
        for alt in allowed:
            if alt not in self.labels:
                raise ValueNotInFrame(
                    f"constraint of {self.owner!r} permits {alt!r} outside the frame"
                )
        ordered = tuple(filter(set(allowed).__contains__, self.labels))
        if not ordered:
            error = EmptyConstraintCell(self.owner, self.config(pos, key))
            raise _at(f"constraints[{self.at}].cells[{j}].allow", error)
        return ordered


class _ValueCells(_Entries):
    """The value table's cells; each is kept as a float."""

    section, field = "value", "value.cells"
    where = "value table"
    mismatch = "value cell key {!r} does not match value parents"

    def _checked(self, j: int, v, pos: int, key) -> float:
        if type(v) is not float:
            real = _real(v)
            if real is None:
                cfg = self.config(pos, key)
                raise InvalidModel(f"value table entry at {cfg!r} is {v!r}, not a number")
            v = real
        if not math.isfinite(v):
            error = NonFiniteValue(f"value table entry at {self.config(pos, key)!r} is {v!r}")
            raise _at(f"value.cells[{j}].v", error)
        return v


def _cpt_table(
    cpt: Cpt, at: int, graph_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Factor:
    """`cpt`, at position `at` of the CPTs, as an array over (parents...,
    child), once every row is checked; a bad CPT raises the error of its
    first bad row in `rows` order.  `cpt.rows` is a label-keyed mapping
    from the Python API, or the `_CptRows` the model file's parser fed."""
    child, parents = cpt.child, cpt.parents
    if parents != graph_parents:  # else they are the graph's, and distinct
        if set(parents) != set(graph_parents):
            error = CptParentsMismatch(
                f"CPT for {child!r} declares parents {list(parents)}, "
                f"graph has {list(graph_parents)}"
            )
            raise _at(f"cpts[{at}].parents", error)
        if len(set(parents)) != len(parents):
            error = CptParentsMismatch(f"CPT for {child!r} repeats a parent")
            raise _at(f"cpts[{at}].parents", error)
    rows = cpt.rows
    if not isinstance(rows, _CptRows):
        rows = _CptRows(child, parents, frames, at).feed(rows)
    probs: list[float] = []
    for row in rows.values():
        probs += row
    return _factor(parents + (child,), frames, np.array(probs))


def _validate_constraint(
    con: Constraint, at: int, dec_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Constraint:
    """`con`, at position `at` of the constraints, once every cell is
    checked: its cells keyed by the frames' labels in row-major order, each
    cell's alternatives in frame order.  `con.cells` is a label-keyed
    mapping, or the `_ConstraintCells` the model file's parser fed."""
    extra = set(con.scope) - set(dec_parents)
    if extra:
        error = ConstraintScopeNotParents(
            f"constraint scope of {con.decision!r} includes non-parents {sorted(extra)}"
        )
        raise _at(f"constraints[{at}].scope", error)
    if len(set(con.scope)) != len(con.scope):
        error = ConstraintScopeNotParents(
            f"constraint scope of {con.decision!r} repeats a variable"
        )
        raise _at(f"constraints[{at}].scope", error)
    cells = con.cells
    if not isinstance(cells, _ConstraintCells):
        cells = _ConstraintCells(con.decision, con.scope, frames, at).feed(cells)
    configs = iter_configs(con.scope, frames)
    return Constraint(con.decision, con.scope, dict(zip(configs, cells.values())))


def _value_table(
    vt: ValueTable, value_var: str, graph_parents: tuple[str, ...], frames: Mapping[str, Frame]
) -> Factor:
    """`vt` as an array over its parents, once every cell is checked; an
    invalid table raises the error of its first bad cell in `cells` order.
    `vt.cells` is a label-keyed mapping, or the `_ValueCells` the model
    file's parser fed."""
    parents = vt.parents
    if parents != graph_parents:  # else they are the graph's, and distinct
        if set(parents) != set(graph_parents):
            error = InvalidModel(
                f"value table declares parents {list(parents)}, graph has {list(graph_parents)}"
            )
            raise _at("value.parents", error)
        if len(set(parents)) != len(parents):
            raise _at("value.parents", InvalidModel("value table repeats a parent"))
    cells = vt.cells
    if not isinstance(cells, _ValueCells):
        cells = _ValueCells(value_var, parents, frames).feed(cells)
    return _factor(parents, frames, np.fromiter(cells.values(), float))


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
