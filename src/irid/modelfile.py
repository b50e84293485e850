"""JSON model files and solution serialization.

The model format mirrors the domain types one-to-one:

    {
      "schema_version": "1",
      "objective": "maximize",
      "nodes":   [{"id": "B", "kind": "chance", "frame": ["$1M", "$2M"]}, ...],
      "arrows":  [{"from": "B", "to": "T", "kind": "informational"}, ...],
      "cpts":    [{"child": "O", "parents": [],
                   "rows": [{"given": {}, "p": {"w": 0.6, "y": 0.4}}]}, ...],
      "constraints": [{"decision": "D", "scope": ["B", "T"],
                       "cells": [{"given": {"B": "$1M", "T": "t2"},
                                  "allow": ["nd"]}, ...]}, ...],
      "value":   {"parents": ["O", "T", "D"],
                  "cells": [{"given": {...}, "v": -2000000}, ...]}
    }

Parsing reports the offending field path in the error's `field`; validation
errors from model construction are annotated with one where it can be
located.  Serialization is canonical (fixed key order, full-precision
numbers), so parse(serialize(m)) reproduces m field-by-field and the
serialized bytes hash stably.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from .errors import (
    CptRowNotNormalized,
    CycleDetected,
    DuplicateVariable,
    EmptyConstraintCell,
    MissingTableEntry,
    ModelError,
    ModelSyntaxError,
    NonFiniteValue,
    SchemaError,
    UnknownVariable,
)
from .model import (
    OBJECTIVES,
    ArrowSpec,
    Constraint,
    Cpt,
    Frame,
    IridModel,
    NodeSpec,
    ValueTable,
    build_model,
    iter_configs,
)

SCHEMA_VERSION = "1"

#: the string escaper json.dumps uses by default (C in CPython; non-ASCII as \uXXXX)
_escape = json.encoder.encode_basestring_ascii


# --------------------------------------------------------------------------
# parsing


def parse_model(data: bytes | str) -> IridModel:
    """Parse and fully validate a model document."""
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
        doc = json.loads(text)
    except UnicodeDecodeError as e:
        raise ModelSyntaxError(f"not UTF-8 at byte {e.start}: {e.reason}") from None
    except json.JSONDecodeError as e:
        raise ModelSyntaxError(
            f"line {e.lineno}, column {e.colno}: {e.msg}", e.lineno, e.colno
        ) from None
    except RecursionError:
        raise ModelSyntaxError("arrays or objects nested too deeply") from None
    return model_from_document(doc)


def read_model(path) -> IridModel:
    with open(path, "rb") as fh:
        return parse_model(fh.read())


def model_from_document(doc: Any) -> IridModel:
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be a JSON object")
    version = _req(doc, "schema_version", str, "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"unsupported version {version!r}")
    objective = doc.get("objective", "maximize")
    if objective not in OBJECTIVES:
        raise SchemaError("objective", f"must be one of {list(OBJECTIVES)}")

    nodes = []
    for i, item in enumerate(_req(doc, "nodes", list, "$")):
        path = f"nodes[{i}]"
        _expect(item, dict, path)
        nid = _req(item, "id", str, path)
        kind = _req(item, "kind", str, path)
        frame = None
        if "frame" in item:
            labels = _expect(item["frame"], list, f"{path}.frame")
            frame = _wrap(lambda: Frame(tuple(str(x) for x in labels)), f"{path}.frame")
        node = _wrap(lambda: NodeSpec(nid, kind, frame), path)
        nodes.append(node)

    arrows = []
    for i, item in enumerate(_req(doc, "arrows", list, "$")):
        path = f"arrows[{i}]"
        _expect(item, dict, path)
        arrows.append(
            _wrap(
                lambda: ArrowSpec(
                    _req(item, "from", str, path),
                    _req(item, "to", str, path),
                    _req(item, "kind", str, path),
                ),
                path,
            )
        )

    cpts = []
    for i, item in enumerate(_req(doc, "cpts", list, "$")):
        path = f"cpts[{i}]"
        _expect(item, dict, path)
        child = _req(item, "child", str, path)
        parents = tuple(str(p) for p in _req(item, "parents", list, path))
        rows = {}
        for j, row in enumerate(_req(item, "rows", list, path)):
            rpath = f"{path}.rows[{j}]"
            _expect(row, dict, rpath)
            given = _given(row, parents, rpath)
            p = _req(row, "p", dict, rpath)
            probs = {lab: _req_number(p, lab, f"{rpath}.p") for lab in p}
            if given in rows:
                raise SchemaError(f"{rpath}.given", "duplicate row configuration")
            rows[given] = probs
        cpts.append(Cpt(child, parents, rows))

    constraints = []
    for i, item in enumerate(_expect(doc.get("constraints", []), list, "constraints")):
        path = f"constraints[{i}]"
        _expect(item, dict, path)
        decision = _req(item, "decision", str, path)
        scope = tuple(str(s) for s in _req(item, "scope", list, path))
        cells = {}
        for j, cell in enumerate(_req(item, "cells", list, path)):
            cpath = f"{path}.cells[{j}]"
            _expect(cell, dict, cpath)
            given = _given(cell, scope, cpath)
            allow = _req(cell, "allow", list, cpath)
            if given in cells:
                raise SchemaError(f"{cpath}.given", "duplicate cell configuration")
            cells[given] = tuple(str(a) for a in allow)
        constraints.append(Constraint(decision, scope, cells))

    vdoc = _req(doc, "value", dict, "$")
    vparents = tuple(str(p) for p in _req(vdoc, "parents", list, "value"))
    vcells = {}
    for j, cell in enumerate(_req(vdoc, "cells", list, "value")):
        cpath = f"value.cells[{j}]"
        _expect(cell, dict, cpath)
        given = _given(cell, vparents, cpath)
        v = _req_number(cell, "v", cpath)
        if given in vcells:
            raise SchemaError(f"{cpath}.given", "duplicate cell configuration")
        vcells[given] = v
    value = ValueTable(vparents, vcells)

    try:
        return build_model(nodes, arrows, cpts, constraints, value, objective)
    except ModelError as e:
        e.field = _locate(e, doc)
        raise


def _req(obj: Mapping, key: str, typ, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}" if path != "$" else key, "missing")
    return _expect(obj[key], typ, f"{path}.{key}" if path != "$" else key)


def _req_number(obj: Mapping, key: str, path: str) -> float:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}", "must be a number")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the doubles
        raise SchemaError(f"{path}.{key}", "number out of range") from None


def _expect(value, typ, path: str):
    if not isinstance(value, typ):
        raise SchemaError(path, f"expected {typ.__name__}, got {type(value).__name__}")
    return value


def _given(obj: Mapping, scope: tuple[str, ...], path: str) -> tuple[str, ...]:
    given = _req(obj, "given", dict, path)
    if set(given) != set(scope):
        raise SchemaError(
            f"{path}.given", f"must assign exactly {list(scope)}, got {sorted(given)}"
        )
    return tuple(str(given[v]) for v in scope)


def _wrap(fn, path: str):
    try:
        return fn()
    except ModelError as e:
        e.field = path
        raise


def _locate(e: ModelError, doc: Mapping) -> str | None:
    """Best-effort field path for a validation error raised by build_model."""
    try:
        if isinstance(e, DuplicateVariable):
            seen = set()
            for i, node in enumerate(doc["nodes"]):
                if node["id"] in seen:  # the second node with its id
                    return f"nodes[{i}].id"
                seen.add(node["id"])
        if isinstance(e, UnknownVariable) and e.arrow is not None:
            return _arrow_field(doc, {e.arrow})
        if isinstance(e, CycleDetected):
            return _arrow_field(doc, set(zip(e.cycle, e.cycle[1:] + e.cycle[:1])))
        if isinstance(e, CptRowNotNormalized):
            i, cpt = next(
                (i, c) for i, c in enumerate(doc["cpts"]) if c.get("child") == e.child
            )
            parents = tuple(cpt.get("parents", ()))
            for j, row in enumerate(cpt.get("rows", [])):
                key = tuple(str(row.get("given", {}).get(p)) for p in parents)
                if key == tuple(e.config):
                    return f"cpts[{i}].rows[{j}].p"
            return f"cpts[{i}]"
        if isinstance(e, EmptyConstraintCell):
            i, con = next(
                (i, c)
                for i, c in enumerate(doc.get("constraints", []))
                if c.get("decision") == e.decision
            )
            scope = tuple(con.get("scope", ()))
            for j, cell in enumerate(con.get("cells", [])):
                key = tuple(str(cell.get("given", {}).get(s)) for s in scope)
                if key == tuple(e.config):
                    return f"constraints[{i}].cells[{j}].allow"
            return f"constraints[{i}]"
        if isinstance(e, MissingTableEntry):
            if e.section == "cpt":
                i = next(
                    i for i, c in enumerate(doc["cpts"]) if c.get("child") == e.owner
                )
                return f"cpts[{i}].rows"
            if e.section == "constraint":
                i = next(
                    i
                    for i, c in enumerate(doc.get("constraints", []))
                    if c.get("decision") == e.owner
                )
                return f"constraints[{i}].cells"
            return "value.cells"
        if isinstance(e, NonFiniteValue):
            # the model reports the first non-finite cell in document order
            cells = doc["value"]["cells"]
            j = next(j for j, c in enumerate(cells) if not math.isfinite(c["v"]))
            return f"value.cells[{j}].v"
    except (StopIteration, KeyError, TypeError):
        return None
    return None


def _arrow_field(doc: Mapping, arrows: set[tuple[str, str]]) -> str:
    """The path of the first arrow in the document that is one of `arrows`."""
    i = next(i for i, a in enumerate(doc["arrows"]) if (a["from"], a["to"]) in arrows)
    return f"arrows[{i}]"


# --------------------------------------------------------------------------
# serialization


def model_to_document(model: IridModel) -> dict:
    nodes = []
    for n in model.nodes:
        item: dict[str, Any] = {"id": n.id, "kind": n.kind}
        if n.frame is not None:
            item["frame"] = list(n.frame.labels)
        nodes.append(item)
    cpts = []
    for c in model.cpts:
        rows = []
        for cfg in iter_configs(c.parents, model.frames):
            rows.append(
                {
                    "given": dict(zip(c.parents, cfg)),
                    "p": {lab: c.rows[cfg][lab] for lab in model.frame(c.child).labels},
                }
            )
        cpts.append({"child": c.child, "parents": list(c.parents), "rows": rows})
    constraints = []
    for con in model.constraints:
        cells = [
            {"given": dict(zip(con.scope, cfg)), "allow": list(con.cells[cfg])}
            for cfg in iter_configs(con.scope, model.frames)
        ]
        constraints.append(
            {"decision": con.decision, "scope": list(con.scope), "cells": cells}
        )
    vcells = [
        {"given": dict(zip(model.value.parents, cfg)), "v": model.value.cells[cfg]}
        for cfg in iter_configs(model.value.parents, model.frames)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "objective": model.objective,
        "nodes": nodes,
        "arrows": [
            {"from": a.source, "to": a.target, "kind": a.kind} for a in model.arrows
        ],
        "cpts": cpts,
        "constraints": constraints,
        "value": {"parents": list(model.value.parents), "cells": vcells},
    }


def _to_json(obj, newline: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2)` for the documents irid writes.

    CPython's json uses its pure-Python generator encoder whenever `indent` is
    set; building each container with one `str.join` is faster for the same
    bytes.  `newline` is the line break plus the indentation of `obj`'s level.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_escape(key) + ": " + _to_json(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_to_json(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def serialize_model(model: IridModel) -> bytes:
    """Canonical bytes; numbers keep full precision so round-trips are exact."""
    return (_to_json(model_to_document(model)) + "\n").encode("utf-8")


def model_content_hash(model: IridModel) -> str:
    """sha256 of `serialize_model(model)`, computed once per model object
    (models are immutable)."""
    return model._content_hash


def _currency(x: float | None):
    """Integers stay integers; anything else is fixed to two decimals."""
    if x is None:
        return None
    if x == int(x) and abs(x) < 2**53:
        return int(x)
    return round(float(x), 2)


def serialize_solution(solution) -> bytes:
    """Canonical solution bytes: stable key order, currency-style numbers.

    Identical solutions (same policies, values, sampler, model hash) always
    produce byte-identical output.
    """
    sampler = None
    if solution.sampler is not None:
        sampler = {
            "seed": solution.sampler.seed,
            "burn_in": solution.sampler.burn_in,
            "samples": solution.sampler.samples,
        }
    policies = []
    for d, pol in solution.policies.items():
        cells = [
            {"given": dict(zip(pol.scope, cfg)), "choose": alt}
            for cfg, alt in pol.table.items()
        ]
        policies.append({"decision": d, "scope": list(pol.scope), "cells": cells})
    diagnostics = []
    for diag in solution.per_cell_diagnostics:
        diagnostics.append(
            {
                "stage": diag.stage,
                "decision": diag.decision,
                "given": dict(diag.config),
                "alternative": diag.alternative,
                "value": _currency(diag.value),
                "std_error": _currency(diag.std_error),
                "n": diag.n,
                "chosen": diag.chosen,
                "zero_probability": diag.zero_probability,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "backend": solution.backend_used,
        "objective": solution.objective,
        "expected_value": _currency(solution.expected_value),
        "expected_value_std_error": _currency(solution.expected_value_std_error),
        "expected_value_n": solution.expected_value_n,
        "model_hash": solution.model_hash,
        "sampler": sampler,
        "policies": policies,
        "diagnostics": diagnostics,
    }
    return (_to_json(doc) + "\n").encode("utf-8")
