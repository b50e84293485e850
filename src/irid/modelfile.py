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

Parsing reports the offending field path in the error's `field`.  Errors
from `build_model` name their entry by its position in `build_model`'s
arguments (see `ModelError.field`); the parser hands it the entries in
document order and rejects duplicate rows and cells, so that position is the
entry's path in the document.

`serialize_model` writes the canonical bytes straight from the model's frames
and table arrays, through %-templates of the `json.dumps(doc, indent=2)`
layout: fixed key order, rows and cells row-major over their parents, numbers
as `float.__repr__`.  So parse(serialize(m)) == m, and the bytes hash stably:
`model_content_hash` is their sha256, computed once per model object.
`serialize_solution` writes solution files through the same templates.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Mapping

from .errors import ModelError, ModelSyntaxError, SchemaError
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
            frame = _wrap(Frame, f"{path}.frame", labels)
        nodes.append(_wrap(NodeSpec, path, nid, kind, frame))

    arrows = []
    for i, item in enumerate(_req(doc, "arrows", list, "$")):
        path = f"arrows[{i}]"
        _expect(item, dict, path)
        source = _req(item, "from", str, path)
        target = _req(item, "to", str, path)
        arrows.append(_wrap(ArrowSpec, path, source, target, _req(item, "kind", str, path)))

    cpts = []
    for i, item in enumerate(_req(doc, "cpts", list, "$")):
        path = f"cpts[{i}]"
        _expect(item, dict, path)
        child = _req(item, "child", str, path)
        parents = _names(_req(item, "parents", list, path), f"{path}.parents")
        names = set(parents)
        rows = {}
        for j, row in enumerate(_req(item, "rows", list, path)):
            rpath = f"{path}.rows[{j}]"
            _expect(row, dict, rpath)
            given = _given(row, parents, names, rpath)
            p = _req(row, "p", dict, rpath)
            ppath = f"{rpath}.p"
            probs = {lab: _number(x, ppath, lab) for lab, x in p.items()}
            if given in rows:
                raise SchemaError(f"{rpath}.given", "duplicate row configuration")
            rows[given] = probs
        cpts.append(Cpt(child, parents, rows))

    constraints = []
    for i, item in enumerate(_expect(doc.get("constraints", []), list, "constraints")):
        path = f"constraints[{i}]"
        _expect(item, dict, path)
        decision = _req(item, "decision", str, path)
        scope = _names(_req(item, "scope", list, path), f"{path}.scope")
        names = set(scope)
        cells = {}
        for j, cell in enumerate(_req(item, "cells", list, path)):
            cpath = f"{path}.cells[{j}]"
            _expect(cell, dict, cpath)
            given = _given(cell, scope, names, cpath)
            allow = _names(_req(cell, "allow", list, cpath), f"{cpath}.allow")
            if given in cells:
                raise SchemaError(f"{cpath}.given", "duplicate cell configuration")
            cells[given] = allow
        constraints.append(Constraint(decision, scope, cells))

    vdoc = _req(doc, "value", dict, "$")
    vparents = _names(_req(vdoc, "parents", list, "value"), "value.parents")
    names = set(vparents)
    vcells = {}
    for j, cell in enumerate(_req(vdoc, "cells", list, "value")):
        cpath = f"value.cells[{j}]"
        _expect(cell, dict, cpath)
        given = _given(cell, vparents, names, cpath)
        if "v" not in cell:
            raise SchemaError(f"{cpath}.v", "missing")
        v = _number(cell["v"], cpath, "v")
        if given in vcells:
            raise SchemaError(f"{cpath}.given", "duplicate cell configuration")
        vcells[given] = v
    value = ValueTable(vparents, vcells)

    return build_model(nodes, arrows, cpts, constraints, value, objective)


def _req(obj: Mapping, key: str, typ, path: str):
    if key not in obj:
        raise SchemaError(_field(path, key), "missing")
    value = obj[key]
    if not isinstance(value, typ):  # the field is formatted only to raise
        _expect(value, typ, _field(path, key))
    return value


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path != "$" else key


def _number(v, path: str, key: str) -> float:
    """`v` as a float; the error names the field `path`.`key`."""
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


def _given(obj: Mapping, scope: tuple[str, ...], names: set[str], path: str) -> tuple[str, ...]:
    """The entry's configuration of `scope`, whose variables are `names`."""
    given = _req(obj, "given", dict, path)
    if given.keys() != names:
        raise SchemaError(
            f"{path}.given", f"must assign exactly {list(scope)}, got {sorted(given)}"
        )
    key = tuple(map(given.__getitem__, scope))
    for var, label in zip(scope, key):
        if not isinstance(label, str):
            _expect(label, str, f"{path}.given.{var}")
    return key


def _names(items: list, path: str) -> tuple[str, ...]:
    """`items` as a tuple, once each is a string; the error names the
    first that is not, as `path`[i]."""
    for i, x in enumerate(items):
        if not isinstance(x, str):
            _expect(x, str, f"{path}[{i}]")
    return tuple(items)


def _wrap(make, path: str, *args):
    """`make(*args)`, with `path` as the field of a ModelError it raises."""
    try:
        return make(*args)
    except ModelError as e:
        e.field = path
        raise


# --------------------------------------------------------------------------
# serialization


#: the line break and indentation before an item at each nesting depth
_NL = tuple("\n" + "  " * depth for depth in range(7))


def _block(brackets: str, items: list[str], depth: int) -> str:
    """A JSON object or array at `depth` whose items are written already, in
    `json.dumps(..., indent=2)` layout."""
    if not items:
        return brackets
    inner = _NL[depth + 1]
    return brackets[0] + inner + ("," + inner).join(items) + _NL[depth] + brackets[1]


def _object(keys: str, depth: int) -> str:
    """A %-template of an object at `depth` with the space-separated keys
    and a %s slot for each value."""
    return _block("{}", [_escape(key) + ": %s" for key in keys.split()], depth)


def _key(name: str) -> str:
    """`"name": ` as %-template text."""
    return _escape(name).replace("%", "%%") + ": "


def _cells(keys: list[str], configs, depth: int, field: str, fmt: str, values) -> str:
    """The array at `depth` of {"given": {...}, field: value} objects, one per
    configuration: `keys` are the `_key`s of the given variables, each of
    `configs` a tuple of escaped labels, and each of `values` the tuple that
    fills `fmt`."""
    given = _block("{}", [k + "%s" for k in keys], depth + 2)
    template = _block("{}", ['"given": ' + given, field + ": " + fmt], depth + 1)
    return _block("[]", [template % (cfg + x) for cfg, x in zip(configs, values)], depth)


_NODE = _object("id kind", 2)
_FRAMED_NODE = _object("id kind frame", 2)
_ARROW = _object("from to kind", 2)
_CPT = _object("child parents rows", 2)
_CONSTRAINT = _object("decision scope cells", 2)
_VALUE = _object("parents cells", 1)
_DOCUMENT = _object("schema_version objective nodes arrows cpts constraints value", 0)


def serialize_model(model: IridModel) -> bytes:
    """Canonical bytes: `json.dumps(doc, indent=2)` of the document
    `parse_model` reads back as `model`, written straight from its frames
    and table arrays.  Rows and cells come in row-major order over their
    parents; numbers are `float.__repr__`, so round-trips are exact."""
    name = {n.id: _escape(n.id) for n in model.nodes}
    labels = {v: [_escape(lab) for lab in f.labels] for v, f in model.frames.items()}
    key = {v: _key(v) for v in name}

    def names(scope, depth):
        return _block("[]", [name[v] for v in scope], depth)

    def cells(scope, depth, field, fmt, values):
        configs = itertools.product(*[labels[v] for v in scope])
        return _cells([key[v] for v in scope], configs, depth, field, fmt, values)

    nodes = [
        _NODE % (name[n.id], _escape(n.kind)) if n.frame is None
        else _FRAMED_NODE % (name[n.id], _escape(n.kind), _block("[]", labels[n.id], 3))
        for n in model.nodes
    ]
    arrows = [_ARROW % (name[a.source], name[a.target], _escape(a.kind)) for a in model.arrows]
    cpts = []
    for v in model.chance_vars:
        table = model.cpt_factor(v)
        parents = table.scope[:-1]
        k = len(labels[v])
        p = _block("{}", [lab.replace("%", "%%") + ": %r" for lab in labels[v]], 5)
        rows = map(tuple, table.values.reshape(-1, k).tolist())
        cpts.append(_CPT % (name[v], names(parents, 3), cells(parents, 3, '"p"', p, rows)))
    constraints = []
    for con in model.constraints:
        allowed = (
            (_block("[]", list(map(_escape, con.cells[cfg])), 5),)
            for cfg in iter_configs(con.scope, model.frames)
        )
        scope = names(con.scope, 3)
        con_cells = cells(con.scope, 3, '"allow"', "%s", allowed)
        constraints.append(_CONSTRAINT % (name[con.decision], scope, con_cells))
    value = model.value_factor
    vcells = cells(value.scope, 2, '"v"', "%r", zip(value.values.ravel().tolist()))
    doc = _DOCUMENT % (
        _escape(SCHEMA_VERSION),
        _escape(model.objective),
        _block("[]", nodes, 1),
        _block("[]", arrows, 1),
        _block("[]", cpts, 1),
        _block("[]", constraints, 1),
        _VALUE % (names(value.scope, 2), vcells),
    )
    return (doc + "\n").encode("utf-8")


def model_content_hash(model: IridModel) -> str:
    """sha256 of `serialize_model(model)`, computed once per model object
    (models are immutable) and kept on it."""
    return model._content_hash


def _amount(x) -> str:
    """A number of a solution file: null for None, an integral amount below
    2**53 as an integer, anything else rounded to two decimals."""
    if x is None:
        return "null"
    x = float(x)
    if x == int(x) and abs(x) < 2**53:
        return int.__repr__(int(x))
    return float.__repr__(round(x, 2))


_SOLUTION = _object(
    "schema_version backend objective expected_value expected_value_std_error"
    " expected_value_n model_hash sampler policies diagnostics", 0
)
_SAMPLER = _object("seed burn_in samples", 1)
_POLICY = _object("decision scope cells", 2)
_DIAGNOSTIC = _object(
    "stage decision given alternative value std_error n chosen zero_probability", 2
)
_BOOL = ("false", "true")


def serialize_solution(solution) -> bytes:
    """Canonical solution bytes, in the layout of `json.dumps(doc, indent=2)`:
    stable key order, currency-style numbers, policy cells in table order.
    Identical solutions (same policies, values, sampler, model hash) always
    produce byte-identical output."""
    s = solution.sampler
    sampler = "null" if s is None else _SAMPLER % (s.seed, s.burn_in, s.samples)
    policies = []
    for d, pol in solution.policies.items():
        configs = [tuple(map(_escape, cfg)) for cfg in pol.table]
        choices = zip(map(_escape, pol.table.values()))
        cells = _cells(list(map(_key, pol.scope)), configs, 3, '"choose"', "%s", choices)
        scope = _block("[]", list(map(_escape, pol.scope)), 3)
        policies.append(_POLICY % (_escape(d), scope, cells))
    templates = {}  # the diagnostic template for each tuple of given variables
    diagnostics = []
    for diag in solution.per_cell_diagnostics:
        names = tuple(v for v, _ in diag.config)
        if names not in templates:
            given = _block("{}", [_key(v) + "%s" for v in names], 3)
            templates[names] = _DIAGNOSTIC.replace('"given": %s', '"given": ' + given)
        diagnostics.append(templates[names] % (
            diag.stage, _escape(diag.decision), *[_escape(lab) for _, lab in diag.config],
            _escape(diag.alternative), _amount(diag.value), _amount(diag.std_error),
            _amount(diag.n), _BOOL[diag.chosen], _BOOL[diag.zero_probability],
        ))
    doc = _SOLUTION % (
        _escape(SCHEMA_VERSION), _escape(solution.backend_used), _escape(solution.objective),
        _amount(solution.expected_value), _amount(solution.expected_value_std_error),
        _amount(solution.expected_value_n), _escape(solution.model_hash), sampler,
        _block("[]", policies, 1), _block("[]", diagnostics, 1),
    )
    return (doc + "\n").encode("utf-8")
