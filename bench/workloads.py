"""Seeded inputs for the benchmark workloads.

Every input is the JSON bytes of one model, exactly what `irid solve` reads
from a file.  The same seed always yields the same bytes; `fingerprint`
hashes them, so a change to a generator shows as a changed workload rather
than as a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from irid.data import BUNDLED, bundled_bytes
from irid.model import iter_configs
from irid.modelfile import serialize_model

#: `chain-exact` solves CHAIN_STEPS chains whose estimated cost steps evenly
#: on a log scale from the binary chain of 8 to the binary chain of 12.  The
#: exact backend enumerates every state of C1..Cn per cell, about
#: (states) x (n + 3) factor lookups; mixing binary and ternary variables
#: fills the gaps between the powers of two, so solve times spread over the
#: range instead of sitting in a few clusters.  41 chains put 10 beyond the
#: 75th percentile, so the tail is not the median.
CHAIN_ENDS = (8, 12)
CHAIN_STEPS = 41

#: random models in `desk-mix` (the five bundled models come on top)
DESK_RANDOM_MODELS = 900

#: the most policy combinations the exhaustive-search reference enumerates
#: (the acceptance suite's budget; the bundled models need up to 2.4e6);
#: desk-mix keeps only random models within it
ORACLE_POLICY_COMBINATIONS = 10**7

_DYADIC = 16


@dataclass(frozen=True)
class Input:
    name: str
    data: bytes


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([seed & 0xFFFFFFFF, tag])


def _labels(size: int) -> list[str]:
    return [f"v{i}" for i in range(size)]


def _dyadic_row(rng: np.random.Generator, size: int) -> dict[str, float]:
    # multiples of 1/16 without zeros: sums and products stay exact
    counts = 1 + rng.multinomial(_DYADIC - size, [1.0 / size] * size)
    return dict(zip(_labels(size), (c / _DYADIC for c in counts)))


def chain_document(frames: list[int], rng: np.random.Generator) -> dict:
    """`C0` informs `D`; `D -> C1 -> ... -> Cn -> V` with `len(frames[i-1])`
    values for `Ci`, `C0 -> C1` so the decision function depends on `C0`,
    and `V` over `(D, Cn)`."""
    chain = [f"C{i}" for i in range(1, len(frames) + 1)]
    size = dict(zip(chain, frames), C0=2)
    nodes = [{"id": "C0", "kind": "chance", "frame": _labels(2)},
             {"id": "D", "kind": "decision", "frame": ["d0", "d1"]}]
    nodes += [{"id": c, "kind": "chance", "frame": _labels(size[c])} for c in chain]
    nodes.append({"id": "V", "kind": "value"})
    arrows = [{"from": "C0", "to": "D", "kind": "informational"},
              {"from": "C0", "to": "C1", "kind": "relevance"},
              {"from": "D", "to": "C1", "kind": "relevance"}]
    arrows += [{"from": a, "to": b, "kind": "relevance"} for a, b in zip(chain, chain[1:])]
    arrows += [{"from": "D", "to": "V", "kind": "relevance"},
               {"from": chain[-1], "to": "V", "kind": "relevance"}]
    cpts = [{"child": "C0", "parents": [], "rows": [{"given": {}, "p": _dyadic_row(rng, 2)}]},
            {"child": "C1", "parents": ["C0", "D"],
             "rows": [{"given": {"C0": c, "D": d}, "p": _dyadic_row(rng, size["C1"])}
                      for c in _labels(2) for d in ("d0", "d1")]}]
    cpts += [{"child": b, "parents": [a],
              "rows": [{"given": {a: x}, "p": _dyadic_row(rng, size[b])}
                       for x in _labels(size[a])]}
             for a, b in zip(chain, chain[1:])]
    last = chain[-1]
    value = {"parents": ["D", last],
             "cells": [{"given": {"D": d, last: x}, "v": int(rng.integers(-100, 101))}
                       for d in ("d0", "d1") for x in _labels(size[last])]}
    return {"schema_version": "1", "objective": "maximize", "nodes": nodes,
            "arrows": arrows, "cpts": cpts, "constraints": [], "value": value}


def _chain_cost(binary: int, ternary: int) -> float:
    return math.log2(2**binary * 3**ternary * (binary + ternary + 3))


def chain_shapes() -> list[tuple[int, int]]:
    """(binary, ternary) variable counts of each chain, each the nearest to
    its step of the cost ladder (neighbouring steps may share a shape)."""
    lo, hi = (_chain_cost(n, 0) for n in CHAIN_ENDS)
    candidates = [(a, b) for a in range(CHAIN_ENDS[1] + 1) for b in range(10) if a + b >= 2]
    return [
        min(candidates, key=lambda s: abs(_chain_cost(*s) - target))
        for target in np.linspace(lo, hi, CHAIN_STEPS)
    ]


def chain_inputs(seed: int) -> list[Input]:
    rng = _rng(seed, "chain-exact")
    out = []
    for k, (a, b) in enumerate(chain_shapes()):
        frames = [2] * a + [3] * b
        rng.shuffle(frames)
        doc = chain_document(frames, rng)
        out.append(Input(f"chain{k:02d}_{a}x2_{b}x3", json.dumps(doc, indent=2).encode()))
    return out


def wildcatter_inputs(seed: int) -> list[Input]:
    """The bundled models; the seed only drives the per-solve sampler seeds."""
    return [Input(name, bundled_bytes(name)) for name in BUNDLED]


def _policy_combinations(model) -> int:
    combos = 1
    for d in model.decisions:
        scope = model.parents(d)
        for cfg in iter_configs(scope, model.frames):
            combos *= len(model.admissible(d, dict(zip(scope, cfg))))
    return combos


def desk_mix_inputs(seed: int, count: int = DESK_RANDOM_MODELS) -> list[Input]:
    """The bundled models plus `count` models from the test suite's generator.

    Slot i gets 3 + i % 5 chance nodes and 1 + (i // 5) % 3 decisions, and
    every third block of 15 slots allows table zeros.  Fixing the sizes per
    slot, instead of drawing them, keeps the mix of model sizes (and so the
    throughput) the same for every seed."""
    from model_gen import random_model

    rng = _rng(seed, "desk-mix")
    out = wildcatter_inputs(seed)
    for i in range(count):
        n_chance, n_decisions = 3 + i % 5, 1 + (i // 5) % 3
        while True:
            model_seed = int(rng.integers(2**31))
            model = random_model(model_seed, n_chance=(n_chance, n_chance),
                                 n_decisions=(n_decisions, n_decisions),
                                 allow_zeros=(i // 15) % 3 == 0)
            if _policy_combinations(model) <= ORACLE_POLICY_COMBINATIONS:
                break
        out.append(Input(f"random_{model_seed}", serialize_model(model)))
    return out


WORKLOADS = {
    "chain-exact": chain_inputs,
    "wildcatter-gibbs": wildcatter_inputs,
    "desk-mix": desk_mix_inputs,
}


def fingerprint(inputs: list[Input]) -> str:
    """sha256 over every input's name and bytes, in order."""
    h = hashlib.sha256()
    for item in inputs:
        h.update(item.name.encode() + b"\0" + hashlib.sha256(item.data).digest())
    return h.hexdigest()
