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

    #: dotted/indexed path into the source document, set by the file parser
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
    """Every candidate value of the target variable has factor product zero."""


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
