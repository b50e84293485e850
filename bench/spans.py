"""Outside-in tracing: spans around irid's public functions.

Each traced function is replaced, for the duration of `Tracer.installed`, at
the module attribute its caller resolves it through (the solver imports most
`graph_ops` functions by name, so they are wrapped in `irid.solver`; the
`build_model` calls live in `irid.modelfile` and `irid.graph_ops`).  A span
is `[name, start, end, parent, solve_id]`; self time is a span's duration
minus its children's, so work a later refactor moves out of a traced function
shows as self time of its caller.  Nothing inside `src/` is instrumented.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import irid.gibbs
import irid.graph_ops
import irid.modelfile
import irid.oracle
import irid.solver

ROOT_SPAN = "bench.request"

#: (module, attribute, span name); the span name's prefix is the layer
TRACED = (
    (irid.modelfile, "parse_model", "modelfile.parse"),
    (irid.modelfile, "serialize_solution", "modelfile.serialize"),
    (irid.modelfile, "model_content_hash", "modelfile.hash"),
    (irid.modelfile, "build_model", "model.build"),
    (irid.graph_ops, "build_model", "model.build"),
    (irid.solver, "solve", "solver.solve"),
    (irid.solver, "remove_barren", "graph_ops.barren"),
    (irid.solver, "compute_partition", "graph_ops.partition"),
    (irid.solver, "relevance_subgraph", "graph_ops.partition"),
    (irid.solver, "moralize", "graph_ops.partition"),
    (irid.solver, "build_stage_context", "graph_ops.context"),
    (irid.solver, "absorb_decision", "graph_ops.absorb"),
    (irid.solver, "terminal_stage_context", "graph_ops.terminal_ctx"),
    (irid.oracle, "exact_stage_expectation", "oracle.stage_eval"),
    (irid.gibbs, "estimate_expectation", "gibbs.estimate"),
)

NAME, START, END, PARENT, SOLVE, STAGE = range(6)


class Tracer:
    """Collects spans and work counts in memory for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve_id: int | None = None
        self._stack: list[int] = []
        self._stage_info: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, stage=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.solve_id, stage])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[START] = start
        span[END] = end

    @contextmanager
    def request(self, solve_id: int):
        """Root span of one parse -> solve -> serialize."""
        self.solve_id = solve_id
        self._stage_info.clear()
        idx = self._open(ROOT_SPAN)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())
            self.solve_id = None

    def _stage(self, ctx) -> tuple[int, int, bool]:
        """(free configurations, free sites, i.i.d.) of a stage context;
        i.i.d. means no probability factor holds two free sites."""
        key = id(ctx)
        info = self._stage_info.get(key)
        if info is None:
            free = set(ctx.free_vars)
            configs = math.prod(len(ctx.cpt_of(v).frame_of(v)) for v in ctx.free_vars)
            iid = all(
                sum(v in free for v in f.scope) <= 1 for f in ctx.probability_factors
            )
            info = (ctx, configs, len(free), iid)
            self._stage_info[key] = info  # holds ctx, so its id is not reused
        return info[1:]

    def _count(self, name: str, args) -> int | None:
        """Work counts of one call; returns the stage of a stage evaluation."""
        counts = self.counts
        if name == "model.build":
            counts["model.build_calls"] += 1
            return None
        if name not in ("oracle.stage_eval", "gibbs.estimate"):
            return None
        ctx = args[0]
        configs, sites, iid = self._stage(ctx)
        counts["solver.free_vars_max"] = max(counts["solver.free_vars_max"], sites)
        if name == "oracle.stage_eval":
            counts["oracle.stage_evals"] += 1
            counts["exact.configs"] += configs
        else:
            sampler = args[3]
            updates = (sampler.burn_in + sampler.samples) * sites
            counts["gibbs.estimates"] += 1
            counts["gibbs.site_updates"] += updates
            if iid:
                counts["gibbs.iid_site_updates"] += updates
        return ctx.stage

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stage = self._count(name, args)
            idx = self._open(name, stage)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry of TRACED; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TRACED, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            totals[s[NAME]] += t
        return dict(totals)
