import json
import math

import pytest

import irid.modelfile
from irid.data import BUNDLED, bundled_bytes, load_bundled
from irid.errors import (
    CptRowNotNormalized,
    CycleDetected,
    DuplicateVariable,
    EmptyConstraintCell,
    ModelSyntaxError,
    NonFiniteValue,
    SchemaError,
    UnknownVariable,
)
from irid.gibbs import SamplerConfig
from irid.modelfile import (
    _to_json,
    model_content_hash,
    parse_model,
    serialize_model,
    serialize_solution,
)
from irid.solver import SolveOptions, solve

from model_gen import escaped_label_model, random_model


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


class TestCanonicalWriter:
    """serialize_model and serialize_solution (through `_to_json`) produce
    exactly json.dumps(doc, indent=2)."""

    @pytest.fixture
    def top_level_documents(self, monkeypatch):
        """Every document the serializers hand to the writer."""
        docs = []
        writer = irid.modelfile._to_json

        def spy(obj, *nested):
            if not nested:
                docs.append(obj)
            return writer(obj, *nested)

        monkeypatch.setattr(irid.modelfile, "_to_json", spy)
        return docs

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_models_and_solutions(self, name, top_level_documents):
        model = load_bundled(name)
        # the bundled files were written by json.dumps(doc, indent=2)
        assert serialize_model(model) == bundled_bytes(name)
        gibbs = SolveOptions(
            backend="gibbs", sampler=SamplerConfig(seed=1, burn_in=20, samples=200)
        )
        for options in (SolveOptions(), gibbs):
            data = serialize_solution(solve(model, options))
            assert data == _dumped(top_level_documents[-1])
            assert top_level_documents[-1]["model_hash"] == model_content_hash(model)

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"numbers": [-0.0, 1e-300, 0.1, 2**60, -(2**60), 0, 1.5e300, -7]},
            {"specials": [math.nan, math.inf, -math.inf]},
            {"constants": [True, False, None]},
            {"empty": [{}, [], ""], "nested": {"a": [[1, {"b": []}], {}]}, "": {}},
            [],
            {},
            "é\u2028\x00",
            [[[]]],
            (1, ("tuple",)),
        ],
    )
    def test_crafted_documents(self, doc):
        assert _to_json(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{1: "int key"}, {"set": {1}}, [b"bytes"], [object()]])
    def test_rejects_what_it_does_not_write(self, doc):
        with pytest.raises(TypeError):
            _to_json(doc)
