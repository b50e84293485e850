"""irid benchmark: one workload, one process, one client, closed loop.

    python3 bench/run.py --workload chain-exact --seed 1 --seconds 20 --trace 0

Each operation feeds one generated model's JSON bytes through the path
`irid solve` takes (`parse_model` -> `solve` -> `serialize_solution`); the next
starts only when the previous one has finished.  The loop runs whole passes
over the workload's inputs until `--seconds` have elapsed and every input has
been solved MIN_PASSES times.  Solve and set-up times are scaled to a fixed
reference speed of the host (see bench/hostspeed.py).  With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and prints the per-layer metrics (see bench/README.md).  The
outputs are checked against independent references; any failure makes the
exit code 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import irid  # noqa: E402
import irid.modelfile  # noqa: E402
import irid.solver  # noqa: E402
from irid.gibbs import SamplerConfig  # noqa: E402
from irid.oracle import EnumerationBudget, exhaustive_policy_search  # noqa: E402

from hostspeed import Timeline  # noqa: E402
from spans import END, NAME, SOLVE, STAGE, START, Tracer  # noqa: E402
from workloads import ORACLE_POLICY_COMBINATIONS, WORKLOADS, fingerprint  # noqa: E402

GIBBS_WORKLOAD = "wildcatter-gibbs"

#: percentiles a tail may be reported at; the highest one with at least
#: TAIL_BEYOND inputs above it is used, or the slowest solve when there is
#: none.  Counting inputs, not solves, keeps the tail from resting on the
#: repeats of a few inputs, and keeps the percentile the same when a faster
#: program fits more solves in.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

#: an untraced run keeps going until every input has been solved this often
MIN_PASSES = 3

#: seconds between two timings of the reference loop (bench/hostspeed.py)
REFERENCE_INTERVAL = 0.1

SETUP_REPEATS = 7
EV_TOLERANCE = 1e-9
REFERENCE_BUDGET = EnumerationBudget(max_policy_combinations=ORACLE_POLICY_COMBINATIONS)

#: self-time layers reported per solve: metric -> span names
LAYER_SPANS = {
    "modelfile.parse_s": ("modelfile.parse",),
    "modelfile.serialize_s": ("modelfile.serialize",),
    "modelfile.hash_s": ("modelfile.hash",),
    "model.build_s": ("model.build",),
    "graph_ops.barren_s": ("graph_ops.barren",),
    "graph_ops.partition_s": ("graph_ops.partition",),
    "graph_ops.context_s": ("graph_ops.context",),
    "graph_ops.absorb_s": ("graph_ops.absorb",),
    "graph_ops.terminal_ctx_s": ("graph_ops.terminal_ctx",),
    "oracle.stage_eval_s": ("oracle.stage_eval",),
    "gibbs.estimate_s": ("gibbs.estimate",),
    "solver.self_s": ("solver.solve",),
    "bench.self_s": ("bench.request",),
}

# --------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> float | None:
    """Highest TAIL_GRID percentile with at least TAIL_BEYOND of `n` samples
    beyond it, or None when `n` is too small for any."""
    best = None
    for p in TAIL_GRID:
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_BEYOND:
            best = p
    return best


# --------------------------------------------------------------------------
# the operation under test


def solve_bytes(data: bytes, options) -> tuple:
    """parse -> solve -> serialize, resolved through the module attributes so
    that the tracer's wrappers apply."""
    model = irid.modelfile.parse_model(data)
    solution = irid.solver.solve(model, options)
    return solution, irid.modelfile.serialize_solution(solution)


def options_for(workload: str, seed: int, input_index: int, round_index: int):
    if workload != GIBBS_WORKLOAD:
        return irid.SolveOptions(backend="exact")
    ss = np.random.SeedSequence([seed % 2**32, input_index, round_index])
    sampler = SamplerConfig(seed=int(ss.generate_state(1, np.uint64)[0]))
    return irid.SolveOptions(backend="gibbs", sampler=sampler)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports irid, scaled to
    the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeline = Timeline(interval=0.0)
    for _ in range(SETUP_REPEATS):
        timeline.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import irid"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        timeline.end(start)
    timeline.sample()
    return statistics.median(timeline.scaled())


class Loop:
    """The timed closed loop and everything it records."""

    def __init__(self, workload: str, seed: int, inputs, trace: bool):
        self.workload, self.seed, self.inputs, self.trace = workload, seed, inputs, trace
        self.tracer = Tracer()
        self.timeline = Timeline(interval=REFERENCE_INTERVAL)
        # (input, traced, timeline index) of every solve
        self.solves: list[tuple[int, bool, int]] = []
        self.passes: dict[bool, int] = {False: 0, True: 0}
        self.solve_input: list[int] = []  # traced solve id -> input index
        self.evs: list[tuple[int, float]] = []  # every solve: (input, EV)
        self.kept: list[tuple[int, int, object]] = []  # (input, round, Solution)
        self.first_bytes: bytes | None = None
        self.errors: list[str] = []
        self.attempted = 0

    def run(self, seconds: float) -> float:
        start = time.perf_counter()
        self.timeline.sample()
        r = 0
        while True:
            traced = self.trace and r % 2 == 1
            # a fresh order each pass spreads every input's solves over the
            # run, so no percentile rests on a few moments of host speed
            order = np.random.default_rng([self.seed % 2**32, r]).permutation(len(self.inputs))
            # traced passes sample only between solves, outside every span
            with self.tracer.installed() if traced else self.timeline.sampling():
                for i in order.tolist():
                    self._one(i, r, self.inputs[i], traced)
            self.passes[traced] += 1
            r += 1
            elapsed = time.perf_counter() - start
            enough = (
                self.passes[True] and self.passes[False]
                if self.trace
                else self.passes[False] >= MIN_PASSES
            )
            if elapsed >= seconds and enough:
                self.timeline.sample()
                return elapsed

    def latencies(self, traced: bool, scaled: bool = True) -> list[tuple[int, float]]:
        """(input, seconds) of every untraced or traced solve, at the
        reference speed or as measured."""
        times = self.timeline.scaled() if scaled else self.timeline.measured()
        return [(i, times[k]) for i, tr, k in self.solves if tr == traced]

    def _one(self, i: int, r: int, item, traced: bool) -> None:
        options = options_for(self.workload, self.seed, i, r)
        self.attempted += 1
        if traced:
            ctx = self.tracer.request(len(self.solve_input))
            self.solve_input.append(i)
        else:
            ctx = nullcontext()
        self.timeline.tick()
        t0 = time.perf_counter()
        try:
            with ctx:
                solution, out = solve_bytes(item.data, options)
        except Exception as e:  # a failed solve is a measured outcome
            self.errors.append(f"{item.name} round {r}: {type(e).__name__}: {e}")
            return
        self.solves.append((i, traced, self.timeline.end(t0)))
        if i == 0 and r == 0:
            self.first_bytes = out
        self.evs.append((i, solution.expected_value))
        if r == 0 or self.workload == GIBBS_WORKLOAD:
            self.kept.append((i, r, solution))


# --------------------------------------------------------------------------
# correctness


def policies_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[d].table == b[d].table for d in a)


def gate_exact(evs, references, names) -> list[str]:
    """Every solve's EV against its input's exhaustive-search EV."""
    return [
        f"{names[i]}: EV {ev!r} != oracle {references[i][1]!r}"
        for i, ev in evs
        if not abs(ev - references[i][1]) <= EV_TOLERANCE
    ]


def gibbs_accuracy(kept, exact) -> tuple[float, float, float]:
    """(policy agreement, median |EV error| / SE, share of cells within 3 SE).

    A stage cell is compared with the exact backend's cell only when every
    later decision got the exact backend's policy, so both conditioned on the
    same absorbed model."""
    agree, ratios, covered, cells = 0, [], 0, 0
    for i, _, sol in kept:
        ref = exact[i]
        agree += policies_equal(sol.policies, ref.policies)
        if sol.expected_value_std_error:
            err = abs(sol.expected_value - ref.expected_value)
            ratios.append(err / sol.expected_value_std_error)
        ref_cells = {
            (c.decision, c.config, c.alternative): c.value for c in ref.per_cell_diagnostics
        }
        order = list(ref.policies)
        for c in sol.per_cell_diagnostics:
            later = order[order.index(c.decision) + 1:]
            if c.value is None or any(
                sol.policies[d].table != ref.policies[d].table for d in later
            ):
                continue
            exact_value = ref_cells.get((c.decision, c.config, c.alternative))
            if exact_value is None:
                continue
            cells += 1
            covered += abs(c.value - exact_value) <= 3 * c.std_error
    return agree / len(kept), statistics.median(ratios), covered / cells


def check(loop: Loop, names, warmup_bytes: bytes) -> dict:
    """Correctness gate and accuracy, all outside the timed region."""
    failures = list(loop.errors)
    if loop.first_bytes is not None and loop.first_bytes != warmup_bytes:
        failures.append(f"{names[0]}: two solves with the same seed differ")
    models = [irid.modelfile.parse_model(item.data) for item in loop.inputs]
    out = {"wildcatter_exact_s": 0.0, "ev_err_se": 0.0}
    if loop.workload == GIBBS_WORKLOAD:
        exact = [irid.solver.solve(m, irid.SolveOptions()) for m in models]
        agreement, out["ev_err_se"], cover = gibbs_accuracy(loop.kept, exact)
        data = loop.inputs[names.index("wildcatter_irid")].data
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            solve_bytes(data, irid.SolveOptions())
            times.append(time.perf_counter() - t0)
        out["wildcatter_exact_s"] = statistics.median(times)
    else:
        references = [exhaustive_policy_search(m, REFERENCE_BUDGET) for m in models]
        failures += gate_exact(loop.evs, references, names)
        first = [(i, sol) for i, r, sol in loop.kept if r == 0]
        agreement = sum(
            policies_equal(sol.policies, references[i][0]) for i, sol in first
        ) / len(first)
        cover = 1.0  # exact-backend cells carry no error
    out.update(failures=failures, policy_agreement=agreement, cell_cover_3se=cover)
    return out


def solver_counts(loop: Loop) -> dict:
    """Cells, alternatives and zero-probability cells in one pass, from the
    first pass's solutions."""
    first = [sol for _, r, sol in loop.kept if r == 0]
    diags = [(k, c) for k, sol in enumerate(first) for c in sol.per_cell_diagnostics]
    return {
        "solver.cells": (len({(k, c.stage, c.config) for k, c in diags}), "count"),
        "solver.alternatives": (len(diags), "count"),
        "solver.zero_prob_cells": (
            len({(k, c.stage, c.config) for k, c in diags if c.zero_probability}), "count"),
    }


def per_layer_metrics(loop: Loop, names, checked) -> dict:
    tracer = loop.tracer
    passes = loop.passes[True]
    solves = len(loop.solve_input)
    counts = tracer.counts
    by_name = tracer.self_time_by_name()
    m: dict[str, tuple[float, str]] = {}
    for metric, span_names in LAYER_SPANS.items():
        m[metric] = (sum(by_name.get(s, 0.0) for s in span_names) / solves, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    for key in ("model.build_calls", "oracle.stage_evals", "exact.configs",
                "gibbs.estimates", "gibbs.site_updates"):
        m[key] = (counts[key] / passes, "count")
    m["exact.ns_per_config"] = (
        1e9 * ratio(by_name.get("oracle.stage_eval", 0.0), counts["exact.configs"]), "ns")
    m["gibbs.ns_per_site_update"] = (
        1e9 * ratio(by_name.get("gibbs.estimate", 0.0), counts["gibbs.site_updates"]), "ns")
    m["gibbs.iid_share"] = (
        ratio(counts["gibbs.iid_site_updates"], counts["gibbs.site_updates"]), "ratio")
    m["gibbs.ev_err_se"] = (checked["ev_err_se"], "ratio")

    m.update(solver_counts(loop))
    m["solver.free_vars_max"] = (counts["solver.free_vars_max"], "count")
    plain, traced = ([t for _, t in loop.latencies(tr)] for tr in (False, True))
    m["trace.overhead"] = (
        (sum(traced) / loop.passes[True]) / (sum(plain) / loop.passes[False]), "ratio")

    crit06 = crit07 = 0.0
    if loop.workload == GIBBS_WORKLOAD:
        target = names.index("wildcatter_irid")
        stage2 = [
            s[END] - s[START]
            for s in tracer.spans
            if s[NAME] == "gibbs.estimate" and s[STAGE] == 2
            and loop.solve_input[s[SOLVE]] == target
        ]
        crit06 = 1800 * statistics.median(stage2)
        gibbs_s = statistics.median(
            t for i, t in loop.latencies(False, scaled=False) if i == target)
        crit07 = 100 * (checked["wildcatter_exact_s"] + gibbs_s)
    m["computed.criterion06_s"] = (crit06, "s")
    m["computed.criterion07_s"] = (crit07, "s")
    return m


def layer_shares(loop: Loop) -> dict[str, float]:
    """Each layer's share of traced request time."""
    by_name = loop.tracer.self_time_by_name()
    total = sum(by_name.values())
    shares: dict[str, float] = {}
    for metric, span_names in LAYER_SPANS.items():
        shares[metric] = sum(by_name.get(s, 0.0) for s in span_names) / total
    return shares


def end_to_end_metrics(loop: Loop, setup_s: float, peak_kb: int,
                       checked, attempted: int, failed: int) -> tuple[dict, str]:
    """Every timing at the reference speed; `solves_per_s` is the rate of
    the closed loop with its solves at that speed."""
    lat = [t for _, t in loop.latencies(False)]
    p = tail_percentile(len(loop.inputs))
    n = f"{len(lat)} solves of {len(loop.inputs)} inputs"
    label = f"p{p:g} of {n}" if p else f"slowest of {n}"
    m = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(lat) / sum(lat), "1/s"),
        "solve_p50_s": (statistics.median(lat), "s"),
        "solve_tail_s": (float(np.percentile(lat, p or 100.0)), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "policy_agreement": (checked["policy_agreement"], "ratio"),
        "cell_cover_3se": (checked["cell_cover_3se"], "ratio"),
    }
    return m, label


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(irid.__file__).resolve().parents:
        print(f"irid was imported from {irid.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = WORKLOADS[args.workload](args.seed)
    names = [item.name for item in inputs]
    print(f"workload {args.workload}  seed {args.seed}  inputs {len(inputs)}  "
          f"sha256 {fingerprint(inputs)}")
    setup_s = 0.0 if args.trace else measure_setup()

    # warm-up, and the first half of the same-seed determinism check
    _, warmup_bytes = solve_bytes(inputs[0].data, options_for(args.workload, args.seed, 0, 0))
    loop = Loop(args.workload, args.seed, inputs, bool(args.trace))
    wall = loop.run(args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checked = check(loop, names, warmup_bytes)
    failures = checked["failures"]
    for line in failures:
        print(f"FAIL {line}")
    attempted = loop.attempted + 1
    failed = len(failures)
    print(f"error_rate {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    if args.trace:
        metrics = per_layer_metrics(loop, names, checked)
        shares = layer_shares(loop)
        print("share of traced solve time: " + "  ".join(
            f"{k[:-2]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
            if v >= 0.005))
    else:
        metrics, tail_label = end_to_end_metrics(
            loop, setup_s, peak_kb, checked, attempted, failed)
        measured = [t for _, t in loop.latencies(False, scaled=False)]
        print(f"solve_tail_s is the {tail_label}; as measured, {len(measured) / wall:.4g} "
              f"solves per wall second and a median of {statistics.median(measured):.4g} s; "
              f"reference loop {1e3 * statistics.median(r for *_, r in loop.timeline.samples):.4g} ms")
        print("per pass: " + "  ".join(
            f"{k} {v}" for k, (v, _) in solver_counts(loop).items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
