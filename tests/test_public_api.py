import ast
import dataclasses
import importlib
import types
from pathlib import Path

import pytest

import irid
import irid.gibbs

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


@pytest.mark.parametrize(
    "options, fields",
    [
        (irid.SolveOptions, ("backend", "sampler", "objective_override")),
        (irid.SamplerConfig, ("seed", "burn_in", "samples")),
    ],
)
def test_option_fields_are_pinned(options, fields):
    """Every field is a setting that tests and the benchmark must cover, so
    a new one shows up here."""
    assert tuple(f.name for f in dataclasses.fields(options)) == fields


def _module_ast(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_gibbs_exports_only_the_estimate():
    """`estimate_expectation` is the one way into the sampler; every other
    public name of `irid.gibbs` is one it imports."""
    imported = set()
    for node in _module_ast(irid.gibbs).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
    names = {
        name
        for name, obj in vars(irid.gibbs).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names - imported == {"SamplerConfig", "Estimate", "estimate_expectation"}


@pytest.mark.parametrize("name", ["gibbs", "graph_ops", "model", "factors", "modelfile"])
def test_fast_paths_import_nothing_from_the_oracle(name):
    """The oracle is the independent reference the certificate tests compare
    against, so the modules that solve import nothing from it."""
    module = importlib.import_module(f"irid.{name}")
    for node in ast.walk(_module_ast(module)):
        if isinstance(node, ast.Import):
            sources = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is from `irid`
            base = ".".join(filter(None, ["irid" if node.level else "", node.module]))
            sources = [base, *(f"{base}.{a.name}" for a in node.names)]
        else:
            continue
        assert not any(s == "irid.oracle" or s.startswith("irid.oracle.") for s in sources), (
            name,
            ast.unparse(node),
        )
