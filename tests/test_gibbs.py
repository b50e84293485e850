import collections
import itertools

import numpy as np
import pytest

from irid.data import BUNDLED, load_bundled
from irid.errors import AllZeroSupport, IncompleteConfig, InvalidModel, NoPositiveState
from irid.gibbs import Estimate, SamplerConfig, estimate_expectation, init_state, sweep
from irid.graph_ops import (
    absorb_decision,
    build_stage_context,
    compute_partition,
    moralize,
    relevance_subgraph,
    remove_barren,
    terminal_stage_context,
)
from irid.model import (
    ArrowSpec,
    Cpt,
    Frame,
    NodeSpec,
    ValueTable,
    build_model,
    iter_configs,
)
from irid.oracle import exact_stage_expectation
from irid.solver import solve

from model_gen import random_model


@pytest.fixture(scope="module")
def stage2(wildcatter):
    part = compute_partition(wildcatter)
    moral = moralize(relevance_subgraph(wildcatter))
    return build_stage_context(wildcatter, part, moral, 2)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig(seed=1)
        assert (cfg.burn_in, cfg.samples, cfg.thinning) == (1000, 20000, 1)

    @pytest.mark.parametrize(
        "kwargs", [{"burn_in": -1}, {"samples": 0}, {"thinning": 0}, {"samples": 2, "thinning": 3}]
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(InvalidModel):
            SamplerConfig(seed=1, **kwargs)


class TestInitState:
    def test_single_free_variable(self, stage2):
        rng = np.random.default_rng(0)
        state = init_state(stage2, {"T": "nt", "R": "nr", "B": "$1M", "D": "nd"}, rng)
        assert set(state.assignment) == {"O"}
        assert state.assignment["O"] in ("w", "y")

    def test_impossible_evidence(self, stage2):
        rng = np.random.default_rng(0)
        with pytest.raises(NoPositiveState):
            init_state(stage2, {"T": "nt", "R": "c", "B": "$1M", "D": "nd"}, rng)

    def test_deterministic_chain_forced(self):
        m = build_model(
            nodes=(
                NodeSpec("A", "chance", Frame(("a0", "a1"))),
                NodeSpec("C", "chance", Frame(("c0", "c1"))),
                NodeSpec("D1", "decision", Frame(("x", "y"))),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("A", "C", "relevance"),
                ArrowSpec("C", "V", "relevance"),
                ArrowSpec("D1", "V", "relevance"),
            ),
            cpts=(
                Cpt("A", (), {(): {"a0": 1.0, "a1": 0.0}}),
                Cpt(
                    "C",
                    ("A",),
                    {("a0",): {"c0": 1.0, "c1": 0.0}, ("a1",): {"c0": 0.0, "c1": 1.0}},
                ),
            ),
            constraints=(),
            value_table=ValueTable(
                ("C", "D1"),
                {("c0", "x"): 1.0, ("c0", "y"): 2.0, ("c1", "x"): 3.0, ("c1", "y"): 4.0},
            ),
        )
        part = compute_partition(m)
        ctx = build_stage_context(m, part, moralize(relevance_subgraph(m)), 1)
        state = init_state(ctx, {"D1": "x"}, rng=np.random.default_rng(5))
        assert state.assignment == {"A": "a0", "C": "c0"}

    def test_missing_fixed_variable(self, stage2):
        with pytest.raises(IncompleteConfig):
            init_state(stage2, {"T": "nt", "R": "nr"}, np.random.default_rng(0))


class TestSweep:
    def test_single_site_stationary_distribution(self, stage2):
        fixed = {"T": "t1", "R": "c", "B": "$2M", "D": "d"}
        rng = np.random.default_rng(123)
        state = init_state(stage2, fixed, rng)
        counts = collections.Counter()
        n = 100_000
        for _ in range(n):
            state = sweep(state, stage2, rng)
            counts[state.assignment["O"]] += 1
        assert counts["w"] / n == pytest.approx(0.923077, abs=0.01)
        assert counts["y"] / n == pytest.approx(0.076923, abs=0.01)

    def test_flat_conditional_stays_uniform(self):
        m = build_model(
            nodes=(
                NodeSpec("X", "chance", Frame(("x0", "x1"))),
                NodeSpec("D1", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("X", "V", "relevance"), ArrowSpec("D1", "V", "relevance")),
            cpts=(Cpt("X", (), {(): {"x0": 0.5, "x1": 0.5}}),),
            constraints=(),
            value_table=ValueTable(
                ("X", "D1"),
                {("x0", "a"): 0.0, ("x0", "b"): 1.0, ("x1", "a"): 2.0, ("x1", "b"): 3.0},
            ),
        )
        ctx = build_stage_context(
            m, compute_partition(m), moralize(relevance_subgraph(m)), 1
        )
        rng = np.random.default_rng(42)
        state = init_state(ctx, {"D1": "a"}, rng)
        counts = collections.Counter()
        for _ in range(20000):
            state = sweep(state, ctx, rng)
            counts[state.assignment["X"]] += 1
        assert counts["x0"] / 20000 == pytest.approx(0.5, abs=0.02)

    def test_chain_never_leaves_positive_support(self):
        model = random_model(17, n_chance=(3, 4), n_decisions=(1, 1), allow_zeros=True)
        part = compute_partition(model)
        ctx = build_stage_context(model, part, moralize(relevance_subgraph(model)), 1)
        dec = ctx.decision
        order = sorted(ctx.dependency_set)
        rng = np.random.default_rng(5)
        for cfg in iter_configs(order, model.frames):
            fixed = dict(zip(order, cfg))
            fixed[dec] = model.admissible(dec, fixed)[0]
            try:
                state = init_state(ctx, fixed, rng)
            except NoPositiveState:
                continue
            for _ in range(500):
                state = sweep(state, ctx, rng)
                total = {**state.assignment, **state.fixed}
                product = 1.0
                for f in ctx.probability_factors:
                    product *= f.evaluate(total)
                assert product > 0.0


class TestEstimateExpectation:
    def test_no_test_drill_expectation(self, stage2):
        est = estimate_expectation(
            stage2,
            {"B": "$2M", "T": "nt", "R": "nr", "D": "d"},
            stage2.value_factor,
            SamplerConfig(seed=11),
        )
        assert est.n == 20000
        assert abs(est.mean - 250000.0) <= 3 * est.std_error

    def test_no_test_no_drill_expectation(self, stage2):
        est = estimate_expectation(
            stage2,
            {"B": "$1M", "T": "nt", "R": "nr", "D": "nd"},
            stage2.value_factor,
            SamplerConfig(seed=13),
        )
        assert abs(est.mean - (-1200000.0)) <= 3 * est.std_error

    def test_matches_exact_counterpart(self, stage2):
        fixed = {"B": "$2M", "T": "t2", "R": "o", "D": "nd"}
        exact = exact_stage_expectation(stage2, fixed)
        est = estimate_expectation(
            stage2, fixed, stage2.value_factor, SamplerConfig(seed=21)
        )
        assert abs(est.mean - exact) <= 3 * est.std_error

    def test_constant_value_factor(self):
        m = build_model(
            nodes=(
                NodeSpec("X", "chance", Frame(("x0", "x1"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("X", "V", "relevance"),),
            cpts=(Cpt("X", (), {(): {"x0": 0.5, "x1": 0.5}}),),
            constraints=(),
            value_table=ValueTable(("X",), {("x0",): 42.0, ("x1",): 42.0}),
        )
        ctx = terminal_stage_context(m)
        est = estimate_expectation(ctx, {}, ctx.value_factor, SamplerConfig(seed=1))
        assert est.mean == 42.0
        assert est.std_error == 0.0

    def test_thinning_controls_sample_count(self, stage2):
        est = estimate_expectation(
            stage2,
            {"B": "$2M", "T": "nt", "R": "nr", "D": "d"},
            stage2.value_factor,
            SamplerConfig(seed=3, burn_in=10, samples=100, thinning=7),
        )
        assert est.n == 100 // 7

    def test_bit_identical_for_same_seed(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "o", "D": "d"}
        cfg = SamplerConfig(seed=77, burn_in=50, samples=500)
        a = estimate_expectation(stage2, fixed, stage2.value_factor, cfg)
        b = estimate_expectation(stage2, fixed, stage2.value_factor, cfg)
        assert a == b

    def test_seed_changes_estimate(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "o", "D": "d"}
        a = estimate_expectation(
            stage2, fixed, stage2.value_factor, SamplerConfig(seed=1, burn_in=10, samples=200)
        )
        b = estimate_expectation(
            stage2, fixed, stage2.value_factor, SamplerConfig(seed=2, burn_in=10, samples=200)
        )
        assert a.mean != b.mean

    def test_equals_manual_sweep_composition(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "c", "D": "d"}
        cfg = SamplerConfig(seed=7, burn_in=3, samples=10, thinning=2)
        est = estimate_expectation(stage2, fixed, stage2.value_factor, cfg)
        rng = np.random.default_rng(7)
        state = init_state(stage2, fixed, rng)
        vals = []
        for i in range(1, cfg.burn_in + cfg.samples + 1):
            state = sweep(state, stage2, rng)
            if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
                vals.append(
                    stage2.value_factor.evaluate({**state.assignment, **fixed})
                )
        assert float(np.mean(vals)) == est.mean
        assert len(vals) == est.n

    def test_impossible_cell_raises(self, stage2):
        with pytest.raises(NoPositiveState):
            estimate_expectation(
                stage2,
                {"B": "$1M", "T": "t2", "R": "nr", "D": "nd"},
                stage2.value_factor,
                SamplerConfig(seed=5),
            )


def _sweep_chain_estimate(ctx, fixed, cfg):
    """The estimate of a chain of public `init_state` + `sweep` steps driven
    by `default_rng(cfg.seed)`, read with the value factor, with the batch
    means standard error over 20 equal batches."""
    rng = np.random.default_rng(cfg.seed)
    state = init_state(ctx, fixed, rng)
    vals = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        state = sweep(state, ctx, rng)
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            vals.append(ctx.value_factor.evaluate({**state.assignment, **fixed}))
    return _batch_means_estimate(vals)


def _reference_weights(ctx, var, assignment):
    """Full-conditional weights of `var` over its frame: the product, in
    `ctx.probability_factors` order, of the factors that contain it, each
    evaluated on labels; 1.0 for every value when no factor contains it."""
    weights = []
    for label in ctx.cpt_of(var).frame_of(var).labels:
        total = {**assignment, var: label}
        w = 1.0
        for f in ctx.probability_factors:
            if var in f.scope:
                w *= f.evaluate(total)
        weights.append(w)
    return weights


def _reference_draw(weights, u):
    """Inverse-CDF draw over the positive weights: the first positive value
    whose running sum exceeds `u` times the sum of all weights, or the last
    positive value when rounding leaves that product past every sum."""
    total = 0.0
    for w in weights:
        total += w
    if total <= 0.0:
        raise AllZeroSupport("reference chain reached a zero-total conditional")
    target = u * total
    acc = 0.0
    last = None
    for j, w in enumerate(weights):
        if w > 0.0:
            acc += w
            last = j
            if target < acc:
                return j
    return last


def _reference_chain_estimate(ctx, fixed, cfg):
    """The estimate of a single-site Gibbs chain that recomputes every full
    conditional from the factors' labels: it starts at the public
    `init_state` and then takes one uniform per variable and sweep, in
    `ctx.free_vars` order, from the same `default_rng(cfg.seed)` stream."""
    rng = np.random.default_rng(cfg.seed)
    assignment = {**init_state(ctx, fixed, rng).assignment, **fixed}
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars}
    vals = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        for var, u in zip(ctx.free_vars, rng.random(len(ctx.free_vars))):
            j = _reference_draw(_reference_weights(ctx, var, assignment), float(u))
            assignment[var] = labels[var][j]
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            vals.append(ctx.value_factor.evaluate(assignment))
    return _batch_means_estimate(vals)


def _batch_means_estimate(vals):
    kept = np.array(vals)
    m = len(kept) // 20
    batch_means = kept[: 20 * m].reshape(20, m).mean(axis=1)
    return Estimate(
        mean=float(kept.mean()),
        std_error=float(batch_means.std(ddof=1) / np.sqrt(20)),
        n=len(kept),
    )


IID_CONFIGS = [
    pytest.param({}, id="default"),
    pytest.param({"burn_in": 37, "samples": 7001, "thinning": 3}, id="thinned"),
]


class TestIidCells:
    """Cells whose free sites share no probability factor are sampled by
    blocks, and must give exactly what the sweep chain gives."""

    @pytest.mark.parametrize("kwargs", IID_CONFIGS)
    def test_wildcatter_stage2_cells_equal_sweep_chain(self, wildcatter, stage2, kwargs):
        deps = sorted(stage2.dependency_set)
        compared = 0
        for idx, cfg in enumerate(iter_configs(deps, wildcatter.frames)):
            fixed = dict(zip(deps, cfg))
            for alt in wildcatter.admissible(stage2.decision, fixed):
                fixed[stage2.decision] = alt
                sampler = SamplerConfig(seed=1000 + idx, **kwargs)
                try:
                    expected = _sweep_chain_estimate(stage2, fixed, sampler)
                except NoPositiveState:
                    with pytest.raises(NoPositiveState):
                        estimate_expectation(stage2, fixed, stage2.value_factor, sampler)
                    continue
                est = estimate_expectation(stage2, fixed, stage2.value_factor, sampler)
                assert est == expected, fixed
                compared += 1
        assert compared == 18

    @pytest.mark.parametrize("kwargs", IID_CONFIGS)
    def test_zero_weight_cell_equals_sweep_chain(self, kwargs):
        # two free sites, each alone in its factors; X never takes x1
        m = build_model(
            nodes=(
                NodeSpec("X", "chance", Frame(("x0", "x1", "x2"))),
                NodeSpec("Y", "chance", Frame(("y0", "y1"))),
                NodeSpec("D1", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("X", "V", "relevance"),
                ArrowSpec("Y", "V", "relevance"),
                ArrowSpec("D1", "V", "relevance"),
            ),
            cpts=(
                Cpt("X", (), {(): {"x0": 0.25, "x1": 0.0, "x2": 0.75}}),
                Cpt("Y", (), {(): {"y0": 0.375, "y1": 0.625}}),
            ),
            constraints=(),
            value_table=ValueTable(
                ("X", "Y", "D1"),
                {
                    (x, y, d): float(10 * i + 3 * j + k)
                    for i, x in enumerate(("x0", "x1", "x2"))
                    for j, y in enumerate(("y0", "y1"))
                    for k, d in enumerate(("a", "b"))
                },
            ),
        )
        ctx = build_stage_context(
            m, compute_partition(m), moralize(relevance_subgraph(m)), 1
        )
        assert ctx.free_vars == ("X", "Y")
        sampler = SamplerConfig(seed=11, **kwargs)
        est = estimate_expectation(ctx, {"D1": "b"}, ctx.value_factor, sampler)
        assert est == _sweep_chain_estimate(ctx, {"D1": "b"}, sampler)


def _coupled_cells(model):
    """(context, fixed configuration) of every cell the Gibbs solver runs
    in stages whose free variables share a probability factor, with the
    exact policies absorbed, and of the terminal chain."""
    policies = solve(model).policies
    working = remove_barren(model)
    cells = []
    while working.decisions:
        part = compute_partition(working)
        ctx = build_stage_context(
            working, part, moralize(relevance_subgraph(working)), part.stage_count
        )
        if any(sum(v in ctx.free_vars for v in f.scope) > 1 for f in ctx.probability_factors):
            deps = sorted(ctx.dependency_set)
            for cfg in iter_configs(deps, working.frames):
                fixed = dict(zip(deps, cfg))
                for alt in working.admissible(ctx.decision, fixed):
                    cells.append((ctx, {**fixed, ctx.decision: alt}))
        working = absorb_decision(working, ctx.decision, policies[ctx.decision])
    return cells + [(terminal_stage_context(working), {})]


def _has_zero_total_conditional(ctx, fixed):
    """Whether some free variable has all-zero weights for some assignment
    of the other free variables."""
    free = ctx.free_vars
    frames = {v: ctx.cpt_of(v).frame_of(v).labels for v in free}
    for var in free:
        others = [v for v in free if v != var]
        for labels in itertools.product(*(frames[v] for v in others)):
            assignment = {**fixed, **dict(zip(others, labels))}
            if not any(w > 0.0 for w in _reference_weights(ctx, var, assignment)):
                return True
    return False


COUPLED_CONFIGS = [
    pytest.param({"burn_in": 100, "samples": 900}, id="default"),
    pytest.param({"burn_in": 37, "samples": 901, "thinning": 3}, id="thinned"),
]


class TestCoupledCells:
    """Cells whose free variables share factors run the table-driven sweep;
    it must give exactly what a chain recomputing every full conditional
    from the factors gives, although some of their tables' blanket states
    have all-zero weights (those raise only if a chain visits them)."""

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_equals_reference_chain(self, name, kwargs):
        cells = _coupled_cells(load_bundled(name))
        assert [ctx.stage for ctx, _ in cells] == [1] * 6 + [0]
        for seed, (ctx, fixed) in enumerate(cells):
            assert _has_zero_total_conditional(ctx, fixed)
            sampler = SamplerConfig(seed=seed, **kwargs)
            est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
            assert est == _reference_chain_estimate(ctx, fixed, sampler), (ctx.stage, fixed)


class TestKernelInvariance:
    """Long-run state frequencies match the normalized factor product."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_variation_small(self, seed):
        model = random_model(seed + 40, n_chance=(2, 3), n_decisions=(0, 0))
        ctx = terminal_stage_context(model)
        free = ctx.free_vars
        if not free:
            pytest.skip("degenerate draw")
        target = {}
        z = 0.0
        for cfg in iter_configs(free, model.frames):
            assign = dict(zip(free, cfg))
            w = 1.0
            for f in ctx.probability_factors:
                w *= f.evaluate(assign)
            target[cfg] = w
            z += w
        rng = np.random.default_rng(seed)
        state = init_state(ctx, {}, rng)
        counts = collections.Counter()
        n = 100_000
        for _ in range(n):
            state = sweep(state, ctx, rng)
            counts[tuple(state.assignment[v] for v in free)] += 1
        tv = 0.5 * sum(
            abs(counts.get(cfg, 0) / n - target[cfg] / z) for cfg in target
        )
        assert tv <= 0.02
