"""Influence diagrams with constraint-carrying arrows into decision nodes.

Build a model (chance nodes with conditional probability tables, totally
ordered decisions with per-configuration admissible alternatives, one
real-valued sink), then `solve` it: backward dynamic programming chooses the
best admissible alternative per information state, evaluating conditional
expectations either exactly or by Gibbs sampling, and absorbs each solved
decision into the diagram.  `oracle` holds brute-force counterparts for
validation at desk scale.
"""

from .errors import (
    AllZeroSupport,
    ArrowKindMismatch,
    BudgetExceeded,
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
    IridError,
    MissingPolicy,
    MissingTableEntry,
    MissingValueNode,
    ModelError,
    ModelSyntaxError,
    MultipleValueNodes,
    NoForgettingViolated,
    NonFiniteValue,
    NoPositiveState,
    NotLastDecision,
    PolicyViolatesConstraint,
    SchemaError,
    StageOutOfRange,
    UnknownDecision,
    UnknownVariable,
    ValueNodeNotSink,
    ValueNotInFrame,
    ZeroNormalizer,
)
from .gibbs import SamplerConfig
from .model import (
    ArrowSpec,
    Constraint,
    Cpt,
    Frame,
    IridModel,
    NodeSpec,
    Policy,
    ValueTable,
    build_model,
)
from .modelfile import (
    model_content_hash,
    parse_model,
    read_model,
    serialize_model,
    serialize_solution,
)
from .oracle import (
    EnumerationBudget,
    exact_expectation,
    exhaustive_policy_search,
)
from .solver import (
    CellDiagnostic,
    Solution,
    SolveOptions,
    solve,
)

__version__ = "0.1.0"
