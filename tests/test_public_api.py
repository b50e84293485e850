import types

import irid

#: what README examples, the CLI and the bench read from `irid` itself, and
#: the model types and errors they build and catch; everything else is
#: imported from its module
PUBLIC = {
    "AllZeroSupport",
    "ArrowKindMismatch",
    "ArrowSpec",
    "BudgetExceeded",
    "CellDiagnostic",
    "Constraint",
    "ConstraintScopeNotParents",
    "Cpt",
    "CptParentsMismatch",
    "CptRowNotNormalized",
    "CycleDetected",
    "DecisionsNotTotallyOrdered",
    "DuplicateVariable",
    "EmptyConstraintCell",
    "EnumerationBudget",
    "Frame",
    "IncompleteConfig",
    "IncompletePolicy",
    "InvalidModel",
    "IridError",
    "IridModel",
    "MissingPolicy",
    "MissingTableEntry",
    "MissingValueNode",
    "ModelError",
    "ModelSyntaxError",
    "MultipleValueNodes",
    "NoForgettingViolated",
    "NoPositiveState",
    "NodeSpec",
    "NonFiniteValue",
    "NotLastDecision",
    "Policy",
    "PolicyViolatesConstraint",
    "SamplerConfig",
    "SchemaError",
    "Solution",
    "SolveOptions",
    "StageOutOfRange",
    "UnknownDecision",
    "UnknownVariable",
    "ValueNodeNotSink",
    "ValueNotInFrame",
    "ValueTable",
    "ZeroNormalizer",
    "build_model",
    "exact_expectation",
    "exhaustive_policy_search",
    "model_content_hash",
    "parse_model",
    "read_model",
    "serialize_model",
    "serialize_solution",
    "solve",
}


def test_top_level_names_are_pinned():
    names = {
        name
        for name, obj in vars(irid).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names == PUBLIC
