import dataclasses
import json

import numpy as np
import pytest

import irid.modelfile
from irid.data import BUNDLED, bundled_bytes, load_bundled
from irid.errors import (
    CptRowNotNormalized,
    CycleDetected,
    DuplicateVariable,
    EmptyConstraintCell,
    InvalidModel,
    ModelSyntaxError,
    NonFiniteValue,
    SchemaError,
    UnknownVariable,
)
from irid.gibbs import SamplerConfig
from irid.modelfile import (
    model_content_hash,
    parse_model,
    serialize_model,
    serialize_solution,
)
from irid.solver import SolveOptions, solve

from model_gen import escaped_decision_model, escaped_label_model, random_model


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_files(self, name):
        model = load_bundled(name)
        assert parse_model(serialize_model(model)) == model

    @pytest.mark.parametrize("seed", range(10))
    def test_random_models(self, seed):
        model = random_model(seed, n_decisions=(0, 2), allow_zeros=(seed % 2 == 0))
        assert parse_model(serialize_model(model)) == model

    def test_bytes_are_stable(self, wildcatter):
        assert serialize_model(wildcatter) == serialize_model(wildcatter)
        assert serialize_model(wildcatter) == bundled_bytes("wildcatter_irid")

    def test_hash_tracks_content(self, wildcatter, wildcatter_info_only):
        assert model_content_hash(wildcatter) == model_content_hash(wildcatter)
        assert model_content_hash(wildcatter) != model_content_hash(wildcatter_info_only)

    def test_hash_computed_once_per_model(self, monkeypatch):
        calls = []
        serialize = irid.modelfile.serialize_model
        monkeypatch.setattr(
            irid.modelfile, "serialize_model", lambda m: calls.append(m) or serialize(m)
        )
        model = parse_model(bundled_bytes("wildcatter_irid"))
        first = solve(model)
        assert len(calls) == 1
        second = solve(model)
        assert len(calls) == 1
        assert first.model_hash == second.model_hash == model_content_hash(model)
        # an equal model parsed afresh is hashed again, to the same digest
        assert model_content_hash(parse_model(bundled_bytes("wildcatter_irid"))) == first.model_hash
        assert len(calls) == 2


class TestParseErrors:
    def test_broken_json_reports_line(self):
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(b'{\n  "schema_version": "1",\n  oops\n}')
        assert exc.value.line == 3

    def test_unsupported_schema_version(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["schema_version"] = "99"
        with pytest.raises(SchemaError):
            parse_model(json.dumps(doc))

    def test_missing_top_level_key(self):
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps({"schema_version": "1"}))
        assert exc.value.field == "nodes"

    def test_wrong_type(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["nodes"] = "not-a-list"
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == "nodes"

    @pytest.mark.parametrize("constraints", [None, 3, {}, {"D": []}], ids=repr)
    def test_constraints_must_be_a_list(self, wildcatter, constraints):
        doc = json.loads(serialize_model(wildcatter))
        doc["constraints"] = constraints
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == "constraints"

    def test_bad_objective(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["objective"] = "optimize"
        with pytest.raises(SchemaError):
            parse_model(json.dumps(doc))

    def test_given_must_match_parents(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        del doc["cpts"][2]["rows"][0]["given"]["T"]
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert "given" in exc.value.field

    def test_denormalized_row_carries_field_path(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        assert doc["cpts"][2]["child"] == "R"
        doc["cpts"][2]["rows"][0]["p"]["o"] = 0.17  # row now sums to 0.97
        with pytest.raises(CptRowNotNormalized) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == "cpts[2].rows[0].p"

    def test_empty_constraint_cell_carries_field_path(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        assert doc["constraints"][1]["decision"] == "D"
        doc["constraints"][1]["cells"][1]["allow"] = []
        with pytest.raises(EmptyConstraintCell) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == "constraints[1].cells[1].allow"

    def test_arrow_to_an_unknown_node_carries_field_path(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["arrows"][4]["to"] = "Q"
        with pytest.raises(UnknownVariable) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.arrow == ("T", "Q")
        assert exc.value.field == "arrows[4]"

    def test_repeated_node_id_names_the_second_node(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        assert doc["nodes"][1]["id"] == "O"
        doc["nodes"].insert(3, {"id": "O", "kind": "chance", "frame": ["w", "y"]})
        with pytest.raises(DuplicateVariable) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.ids == ("O",)
        assert exc.value.field == "nodes[3].id"

    def test_cycle_names_its_first_arrow(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["arrows"].append({"from": "R", "to": "O", "kind": "relevance"})
        assert (doc["arrows"][1]["from"], doc["arrows"][1]["to"]) == ("O", "R")
        with pytest.raises(CycleDetected) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.cycle == ["R", "O"]
        assert exc.value.field == "arrows[1]"

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("literal", ["1e400", "-Infinity", "NaN"])
    def test_non_finite_value_carries_field_path(self, wildcatter, literal):
        doc = json.loads(serialize_model(wildcatter))
        doc["value"]["cells"][5]["v"] = "@v@"
        with pytest.raises(NonFiniteValue) as exc:
            parse_model(json.dumps(doc).replace('"@v@"', literal))
        assert exc.value.field == "value.cells[5].v"

    @pytest.mark.parametrize(
        "section, field",
        [("value", "value.cells[5].v"), ("cpts", "cpts[2].rows[0].p.o")],
    )
    def test_integer_beyond_the_doubles_is_a_schema_error(self, wildcatter, section, field):
        doc = json.loads(serialize_model(wildcatter))
        if section == "value":
            doc["value"]["cells"][5]["v"] = 10**400
        else:
            doc["cpts"][2]["rows"][0]["p"]["o"] = 10**400
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "path, field",
        [
            (("cpts", 2, "parents", 1), "cpts[2].parents[1]"),
            (("cpts", 2, "rows", 4, "given", "O"), "cpts[2].rows[4].given.O"),
            (("constraints", 1, "scope", 0), "constraints[1].scope[0]"),
            (("constraints", 1, "cells", 2, "given", "T"), "constraints[1].cells[2].given.T"),
            (("constraints", 1, "cells", 3, "allow", 1), "constraints[1].cells[3].allow[1]"),
            (("value", "parents", 2), "value.parents[2]"),
            (("value", "cells", 5, "given", "D"), "value.cells[5].given.D"),
        ],
    )
    @pytest.mark.parametrize("literal", [None, True, 1, ["d"], {"d": "d"}], ids=repr)
    def test_names_and_labels_must_be_strings(self, wildcatter, path, field, literal):
        doc = json.loads(serialize_model(wildcatter))
        *outer, last = path
        entry = doc
        for key in outer:
            entry = entry[key]
        entry[last] = literal
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "frame", [[None, True], ["w", 1], [{"w": 1}, "y"], [["w"], "y"]], ids=repr
    )
    def test_frame_labels_must_be_strings(self, wildcatter, frame):
        doc = json.loads(serialize_model(wildcatter))
        assert doc["nodes"][1]["id"] == "O"
        doc["nodes"][1]["frame"] = frame
        for row in doc["cpts"][2]["rows"]:
            row["given"]["O"] = frame[row["given"]["O"] == "y"]
        with pytest.raises(InvalidModel) as exc:
            parse_model(json.dumps(doc))
        assert "frame labels must be strings" in str(exc.value)
        assert exc.value.field == "nodes[1].frame"

    def test_duplicate_row(self, wildcatter):
        doc = json.loads(serialize_model(wildcatter))
        doc["cpts"][2]["rows"].append(doc["cpts"][2]["rows"][0])
        with pytest.raises(SchemaError):
            parse_model(json.dumps(doc))


class TestSerializeSolution:
    def test_byte_identical_for_same_seed(self, wildcatter):
        opts = SolveOptions(
            backend="gibbs", sampler=SamplerConfig(seed=5, burn_in=50, samples=500)
        )
        a = serialize_solution(solve(wildcatter, opts))
        b = serialize_solution(solve(wildcatter, opts))
        assert a == b

    def test_exact_solution_bytes_stable(self, wildcatter):
        a = serialize_solution(solve(wildcatter, SolveOptions(backend="exact")))
        b = serialize_solution(solve(wildcatter, SolveOptions(backend="exact")))
        assert a == b

    def test_document_shape(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        doc = json.loads(serialize_solution(sol))
        assert doc["backend"] == "exact"
        assert doc["expected_value"] == 334750
        assert doc["model_hash"] == model_content_hash(wildcatter)
        assert doc["sampler"] is None
        by_decision = {p["decision"]: p for p in doc["policies"]}
        assert by_decision["D"]["scope"] == ["B", "T", "R"]
        cells = {
            tuple(c["given"][v] for v in ("B", "T", "R")): c["choose"]
            for c in by_decision["D"]["cells"]
        }
        assert cells[("$1M", "t2", "c")] == "nd"
        assert all(
            set(d) == {
                "stage", "decision", "given", "alternative", "value",
                "std_error", "n", "chosen", "zero_probability",
            }
            for d in doc["diagnostics"]
        )

    def test_currency_formatting(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        doc = json.loads(serialize_solution(sol))
        values = [d["value"] for d in doc["diagnostics"] if d["value"] is not None]
        # integral amounts serialize as integers, the rest with two decimals
        assert any(isinstance(v, int) for v in values)
        for v in values:
            if isinstance(v, float):
                assert round(v, 2) == v

    def test_expected_value_matches_terminal_diagnostic_field(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        doc = json.loads(serialize_solution(sol))
        assert doc["expected_value"] == sol.expected_value


def _dumped(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _amount(x):
    """A solution number as the solution file writes it."""
    if x is None:
        return None
    return int(x) if float(x).is_integer() and abs(x) < 2**53 else round(x, 2)


def _solution_document(solution) -> dict:
    """The solution file's document, from the Solution's fields."""
    sampler = solution.sampler
    return {
        "schema_version": "1",
        "backend": solution.backend_used,
        "objective": solution.objective,
        "expected_value": _amount(solution.expected_value),
        "expected_value_std_error": _amount(solution.expected_value_std_error),
        "expected_value_n": solution.expected_value_n,
        "model_hash": solution.model_hash,
        "sampler": None if sampler is None else {
            "seed": sampler.seed, "burn_in": sampler.burn_in, "samples": sampler.samples,
        },
        "policies": [
            {
                "decision": d,
                "scope": list(pol.scope),
                "cells": [
                    {"given": dict(zip(pol.scope, cfg)), "choose": alt}
                    for cfg, alt in pol.table.items()
                ],
            }
            for d, pol in solution.policies.items()
        ],
        "diagnostics": [
            {
                "stage": diag.stage,
                "decision": diag.decision,
                "given": dict(diag.config),
                "alternative": diag.alternative,
                "value": _amount(diag.value),
                "std_error": _amount(diag.std_error),
                "n": diag.n,
                "chosen": diag.chosen,
                "zero_probability": diag.zero_probability,
            }
            for diag in solution.per_cell_diagnostics
        ],
    }


#: exact, Gibbs with 200 samples, and Gibbs with one sample, whose
#: standard errors are all undefined
SOLVE_SETTINGS = (
    SolveOptions(),
    SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=1, burn_in=20, samples=200)),
    SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=0, samples=1)),
)


class TestCanonicalWriter:
    """serialize_model and serialize_solution write exactly
    json.dumps(doc, indent=2) of the documents they stand for."""

    @staticmethod
    def check_solutions(model):
        for options in SOLVE_SETTINGS:
            solution = solve(model, options)
            assert solution.model_hash == model_content_hash(model)
            assert serialize_solution(solution) == _dumped(_solution_document(solution))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_models_and_solutions(self, name):
        model = load_bundled(name)
        # the bundled files were written by json.dumps(doc, indent=2)
        assert serialize_model(model) == bundled_bytes(name)
        self.check_solutions(model)

    def test_escaped_decision_solutions(self):
        self.check_solutions(escaped_decision_model())

    @pytest.mark.parametrize(
        "amount",
        [
            -0.0, 0.004, -2.5, 1.005, -12345.678, 1e-7, 1e300, -1e22,
            2.0**53 - 1, 2.0**53, -(2.0**53), np.float64(0.1), np.int64(7),
        ],
        ids=repr,
    )
    def test_number_rule(self, wildcatter, amount):
        """Amounts that real solves rarely produce: signed zero, rounding
        edges, magnitudes at and beyond 2**53, numpy scalars."""
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        first = dataclasses.replace(
            sol.per_cell_diagnostics[0], value=amount, std_error=-amount
        )
        crafted = dataclasses.replace(
            sol,
            expected_value=amount,
            expected_value_std_error=amount,
            per_cell_diagnostics=(first, *sol.per_cell_diagnostics[1:]),
        )
        assert serialize_solution(crafted) == _dumped(_solution_document(crafted))

    def test_escaped_labels(self):
        model = escaped_label_model()
        x, labels = model.chance_vars[0], model.frame("X é").labels
        doc = {
            "schema_version": "1",
            "objective": "maximize",
            "nodes": [
                {"id": x, "kind": "chance", "frame": list(labels)},
                {"id": "V", "kind": "value"},
            ],
            "arrows": [{"from": x, "to": "V", "kind": "relevance"}],
            "cpts": [
                {"child": x, "parents": [], "rows": [{"given": {}, "p": dict.fromkeys(labels, 0.25)}]}
            ],
            "constraints": [],
            "value": {
                "parents": [x],
                "cells": [{"given": {x: lab}, "v": float(i)} for i, lab in enumerate(labels)],
            },
        }
        data = serialize_model(model)
        assert data == _dumped(doc)
        assert parse_model(data) == model
