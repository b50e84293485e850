"""Tests of the benchmark itself: generators, gate, tail rule and tracer."""

import json
import time

import numpy as np
import pytest

import run  # first: puts this checkout's src/ and tests/ on sys.path

import irid.solver
from irid.data import bundled_bytes
from irid.modelfile import parse_model
from irid.oracle import exhaustive_policy_search
from hostspeed import REFERENCE_S, Timeline
from spans import ROOT_SPAN, Tracer
from workloads import chain_document, chain_inputs, desk_mix_inputs, fingerprint


def _chain_bytes(n: int) -> bytes:
    return json.dumps(chain_document([2] * n, np.random.default_rng(0))).encode()


def test_generators_are_deterministic_given_the_seed():
    assert chain_inputs(5) == chain_inputs(5)
    assert fingerprint(chain_inputs(5)) != fingerprint(chain_inputs(6))
    desk = desk_mix_inputs(5, count=6)
    assert desk == desk_mix_inputs(5, count=6)
    assert fingerprint(desk) != fingerprint(desk_mix_inputs(6, count=6))


def test_gate_fails_on_a_wrong_reference():
    model = parse_model(_chain_bytes(3))
    solution, _ = run.solve_bytes(_chain_bytes(3), irid.SolveOptions())
    policies, value = exhaustive_policy_search(model)
    evs = [(0, solution.expected_value)]
    assert run.gate_exact(evs, [(policies, value)], ["chain"]) == []
    wrong = [(policies, value + 1e-6)]
    assert len(run.gate_exact(evs, wrong, ["chain"])) == 1


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_a_time_is_scaled_by_the_host_speed_around_it():
    timeline = Timeline(interval=0.0)
    # (start, duration, reference time) of four samples; three operations
    timeline.samples = [(0.0, 0.1, REFERENCE_S), (2.0, 0.1, 2 * REFERENCE_S),
                        (3.0, 0.5, 4 * REFERENCE_S), (5.0, 0.1, REFERENCE_S)]
    timeline.ops = [(1.0, 1.5), (2.5, 4.0), (4.5, 4.75)]
    # the second one holds a sample of 0.5 s; the third has no sample inside
    assert timeline.measured() == pytest.approx([0.5, 1.0, 0.25])
    # mean speeds: (1 + 1/2) / 2; (1/2 + 1/4 + 1) / 3; (1/4 + 1) / 2
    assert timeline.scaled() == pytest.approx([0.5 * 0.75, 1.0 * 7 / 12, 0.25 * 0.625])


def test_a_timer_sample_inside_an_operation_is_left_out():
    timeline = Timeline(interval=0.01)
    timeline.sample()
    with timeline.sampling():
        start = time.perf_counter()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        timeline.end(start)
    timeline.sample()
    ((t0, t1),) = timeline.ops
    inside = [d for s, d, _ in timeline.samples if t0 <= s < t1]
    assert len(inside) >= 3
    assert timeline.measured() == pytest.approx([t1 - t0 - sum(inside)])


def test_traced_self_times_sum_to_the_traced_solve_time():
    original = irid.solver.remove_barren
    tracer = Tracer()
    with tracer.installed():
        with tracer.request(0):
            run.solve_bytes(bundled_bytes("wildcatter_irid"), irid.SolveOptions())
    assert irid.solver.remove_barren is original
    root = tracer.spans[0]
    assert root[0] == ROOT_SPAN
    assert sum(tracer.self_times()) == pytest.approx(root[2] - root[1], abs=1e-9)
    names = set(tracer.self_time_by_name())
    assert {"modelfile.parse", "solver.solve", "oracle.stage_eval", "graph_ops.absorb",
            "model.build", "modelfile.hash", "modelfile.serialize"} <= names


def test_exact_config_count_is_the_product_of_free_frames():
    # chain n=3: four stage cells over C1..C3 (2**3 each) and a terminal
    # evaluation over C0..C3 (2**4)
    tracer = Tracer()
    with tracer.installed():
        with tracer.request(0):
            run.solve_bytes(_chain_bytes(3), irid.SolveOptions())
    assert tracer.counts["oracle.stage_evals"] == 5
    assert tracer.counts["exact.configs"] == 4 * 2**3 + 2**4
    assert tracer.counts["solver.free_vars_max"] == 4
