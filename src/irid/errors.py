"""Exception taxonomy.

Everything raised by this package derives from IridError.  Model construction
and file parsing raise ModelError subclasses; samplers and the enumeration
oracle have their own small families.
"""

from __future__ import annotations


class IridError(Exception):
    """Base class for all errors raised by this package."""


# --------------------------------------------------------------------------
# model construction / validation


class ModelError(IridError):
    """A model (or model file) violates a structural or numerical invariant."""

    #: the entry at fault, as a path in the model file's syntax
    #: (`nodes[3].id`, `cpts[2].rows[0].p`, `value.cells`).  The file parser
    #: sets it for a malformed entry.  `build_model` sets it, by the entry's
    #: position in its own arguments, for a repeated node id (the second
    #: node), an arrow naming an unknown node, a cycle (its first arrow in the
    #: given order), a constraint on a non-decision or a second constraint
    #: for a decision (`constraints[i]`), a CPT for an unknown or non-chance
    #: node or a second CPT for a node (`cpts[i]`), CPT
    #: parents, a constraint scope or value parents that repeat a variable or
    #: differ from the graph's (`cpts[i].parents`, `constraints[i].scope`,
    #: `value.parents`), a CPT row that is no probability vector, an empty
    #: constraint cell, a table missing an entry (`cpts[i].rows`,
    #: `constraints[i].cells`, `value.cells`) and a non-finite value; every
    #: other error leaves it None.
    field: str | None = None


class InvalidModel(ModelError):
    """Catch-all for malformed model inputs not covered by a named error."""


class DuplicateVariable(ModelError):
    def __init__(self, ids: tuple[str, ...]):
        self.ids = ids
        super().__init__(f"duplicate node ids: {list(ids)}")


class UnknownVariable(ModelError):
    """`arrow` is the (source, target) of the arrow that names the unknown
    variable, where an arrow does."""

    def __init__(self, message: str, arrow: tuple[str, str] | None = None):
        self.arrow = arrow
        super().__init__(message)


class CycleDetected(ModelError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__(f"cycle through {cycle}")


class MultipleValueNodes(ModelError):
    pass


class MissingValueNode(ModelError):
    pass


class ValueNodeNotSink(ModelError):
    pass


class DecisionsNotTotallyOrdered(ModelError):
    pass


class NoForgettingViolated(ModelError):
    pass


class ArrowKindMismatch(ModelError):
    pass


class CptParentsMismatch(ModelError):
    pass


class CptRowNotNormalized(ModelError):
    def __init__(self, child: str, config: tuple, detail: str = ""):
        self.child = child
        self.config = config
        msg = f"CPT row for {child!r} at {config!r} is not a probability vector"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EmptyConstraintCell(ModelError):
    def __init__(self, decision: str, config: tuple):
        self.decision = decision
        self.config = config
        super().__init__(
            f"constraint on {decision!r} permits no alternative at {config!r}"
        )


class ConstraintScopeNotParents(ModelError):
    pass


class MissingTableEntry(ModelError):
    def __init__(self, section: str, owner: str, config: tuple):
        self.section = section
        self.owner = owner
        self.config = config
        super().__init__(f"{section} table for {owner!r} has no entry at {config!r}")


class NonFiniteValue(ModelError):
    pass


class UnknownDecision(ModelError):
    pass


class MissingPolicy(ModelError):
    def __init__(self, decision: str):
        self.decision = decision
        super().__init__(f"no policy supplied for decision {decision!r}")


class IncompletePolicy(ModelError):
    pass


class PolicyViolatesConstraint(ModelError):
    pass


class NotLastDecision(ModelError):
    pass


# --------------------------------------------------------------------------
# factor algebra


class ValueNotInFrame(IridError):
    pass


class IncompleteConfig(IridError):
    pass


class AllZeroSupport(IridError):
    """The sampler drew no weight to average: a configuration of a cell has
    a state of positive probability, but every draw weighs zero, because
    each read a row of its evidence with no positive weight (`irid solve`
    exits 3).  Run without -O, also a checked draw whose factor product and
    weight disagree in sign."""


# --------------------------------------------------------------------------
# staging / sampling


class StageOutOfRange(IridError):
    pass


class NoPositiveState(IridError):
    """No positive-probability completion of the fixed configuration exists."""


# --------------------------------------------------------------------------
# enumeration oracle


class BudgetExceeded(IridError):
    pass


class ZeroNormalizer(IridError):
    """The conditioning event has probability zero."""


# --------------------------------------------------------------------------
# model files


class ModelSyntaxError(IridError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        super().__init__(message)


class SchemaError(IridError):
    """A model document has the wrong shape at the path `field`, which the
    message leaves out."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)
