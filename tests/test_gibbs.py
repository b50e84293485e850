import collections
import itertools
from bisect import bisect_right

import numpy as np
import pytest

from irid import gibbs
from irid.data import BUNDLED, load_bundled
from irid.errors import AllZeroSupport, IncompleteConfig, InvalidModel, NoPositiveState
from irid.gibbs import (
    Estimate,
    SamplerConfig,
    _cdf,
    _blocks,
    _CompiledCell,
    _iid_chain,
    _kept_rows,
    estimate_expectation,
    init_state,
    sweep,
)
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

from model_gen import certificate_model, random_model, with_point_masses


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


def _stage_cells(model):
    """(context, fixed configuration) of every cell the solver evaluates,
    with the exact policies absorbed, and of the terminal value."""
    policies = solve(model).policies
    working = remove_barren(model)
    cells = []
    while working.decisions:
        part = compute_partition(working)
        ctx = build_stage_context(
            working, part, moralize(relevance_subgraph(working)), part.stage_count
        )
        deps = sorted(ctx.dependency_set)
        for cfg in iter_configs(deps, working.frames):
            fixed = dict(zip(deps, cfg))
            for alt in working.admissible(ctx.decision, fixed):
                cells.append((ctx, {**fixed, ctx.decision: alt}))
        working = absorb_decision(working, ctx.decision, policies[ctx.decision])
    return cells + [(terminal_stage_context(working), {})]


def _is_coupled(ctx):
    """Whether some probability factor holds two free variables."""
    return any(sum(v in ctx.free_vars for v in f.scope) > 1 for f in ctx.probability_factors)


def _has_evidence(ctx):
    """Whether a conditional table whose child is not free holds a free
    variable (decision placeholders are all ones and weigh nothing)."""
    return any(
        sf.role == "chance"
        and sf.child not in ctx.free_vars
        and any(v in ctx.free_vars for v in sf.factor.scope)
        for sf in ctx.factors
    )


def _has_positive_state(ctx, fixed):
    try:
        init_state(ctx, fixed, np.random.default_rng(0))
    except NoPositiveState:
        return False
    return True


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


def _point_mass_model(seed):
    """Random model `seed` (1-3 decisions) with point masses in its rows."""
    m = random_model(seed + 7000, n_chance=(1, 5), n_decisions=(1, 3))
    return with_point_masses(m, np.random.default_rng(seed))


class TestCoupledCells:
    """Coupled cells with evidence run the table-driven sweep; it must give
    exactly what a chain recomputing every full conditional from the factors
    gives, although some of their tables' blanket states have all-zero
    weights (those raise only if a chain visits them)."""

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    @pytest.mark.parametrize(
        "seed, count",
        [pytest.param(s, n, id=f"point_masses_{s}") for s, n in
         [(33, 4), (127, 15), (138, 6), (325, 3), (426, 2)]],
    )
    def test_equals_reference_chain(self, seed, count, kwargs):
        cells = [
            (ctx, fixed)
            for ctx, fixed in _stage_cells(_point_mass_model(seed))
            if _is_coupled(ctx) and _has_evidence(ctx) and _has_positive_state(ctx, fixed)
        ]
        assert len(cells) == count
        for cell_seed, (ctx, fixed) in enumerate(cells):
            assert _has_zero_total_conditional(ctx, fixed)
            sampler = SamplerConfig(seed=cell_seed, **kwargs)
            est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
            assert est == _reference_chain_estimate(ctx, fixed, sampler), (ctx.stage, fixed)


def _reference_ancestral_estimate(ctx, fixed, cfg):
    """The estimate of logic sampling driven by the sweep chain's uniforms:
    after the public `init_state`, each sweep takes one uniform per variable
    in `ctx.free_vars` order from `default_rng(cfg.seed)`; a kept sweep draws
    every free variable, in `ctx.free_topological` order, from its own
    conditional given the values drawn so far, with its own uniform."""
    rng = np.random.default_rng(cfg.seed)
    init_state(ctx, fixed, rng)
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars}
    vals = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        uniforms = dict(zip(ctx.free_vars, rng.random(len(ctx.free_vars)).tolist()))
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            assignment = dict(fixed)
            for var in ctx.free_topological:
                cpt = ctx.cpt_of(var)
                weights = [cpt.evaluate({**assignment, var: lab}) for lab in labels[var]]
                support, cumulative, total = _cdf(weights)
                j = support[bisect_right(cumulative, uniforms[var] * total)]
                assignment[var] = labels[var][j]
            vals.append(ctx.value_factor.evaluate(assignment))
    return _batch_means_estimate(vals)


def _child_listed_first():
    """X -> Y -> V and X -> V with Y listed first, so model order is not
    topological; some rows end in zero-weight values, and Y's rows have
    positive supports of different lengths."""
    return build_model(
        nodes=(
            NodeSpec("Y", "chance", Frame(("y0", "y1", "y2"))),
            NodeSpec("X", "chance", Frame(("x0", "x1", "x2"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            ArrowSpec("X", "Y", "relevance"),
            ArrowSpec("X", "V", "relevance"),
            ArrowSpec("Y", "V", "relevance"),
        ),
        cpts=(
            Cpt(
                "Y",
                ("X",),
                {
                    ("x0",): {"y0": 0.5, "y1": 0.5, "y2": 0.0},
                    ("x1",): {"y0": 0.25, "y1": 0.25, "y2": 0.5},
                    ("x2",): {"y0": 0.0, "y1": 0.0, "y2": 1.0},
                },
            ),
            Cpt("X", (), {(): {"x0": 0.25, "x1": 0.75, "x2": 0.0}}),
        ),
        constraints=(),
        value_table=ValueTable(
            ("X", "Y"),
            {
                (x, y): float(10 * i + j)
                for i, x in enumerate(("x0", "x1", "x2"))
                for j, y in enumerate(("y0", "y1", "y2"))
            },
        ),
    )


def _block_sizes(cfg, n_free):
    """The number of sweeps in each block `_blocks` makes."""
    return [len(uniforms) for uniforms, _ in _blocks(np.random.default_rng(0), cfg, n_free)]


class TestAncestralCells:
    """Coupled cells without evidence draw each kept sweep by logic
    sampling, a block at a time; the result must equal a per-draw loop."""

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_equal_reference(self, name, kwargs):
        cells = [c for c in _stage_cells(load_bundled(name)) if _is_coupled(c[0])]
        assert [ctx.stage for ctx, _ in cells] == [1] * 6 + [0]
        for seed, (ctx, fixed) in enumerate(cells):
            assert not _has_evidence(ctx)
            sampler = SamplerConfig(seed=seed, **kwargs)
            est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
            assert est == _reference_ancestral_estimate(ctx, fixed, sampler), (ctx.stage, fixed)

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_generated_equal_reference(self, kwargs):
        compared = 0
        for seed in range(24):
            for ctx, fixed in _stage_cells(_point_mass_model(seed)):
                if not _is_coupled(ctx) or _has_evidence(ctx):
                    continue
                sampler = SamplerConfig(seed=seed, **kwargs)
                est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
                expected = _reference_ancestral_estimate(ctx, fixed, sampler)
                assert est == expected, (seed, ctx.stage, fixed)
                compared += 1
        assert compared == 46

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_child_listed_first_equals_reference(self, kwargs):
        ctx = terminal_stage_context(_child_listed_first())
        assert ctx.free_vars == ("Y", "X") and ctx.free_topological == ("X", "Y")
        sampler = SamplerConfig(seed=5, **kwargs)
        est = estimate_expectation(ctx, {}, ctx.value_factor, sampler)
        assert est == _reference_ancestral_estimate(ctx, {}, sampler)

    @pytest.mark.parametrize(
        "name, blocks",
        [("wildcatter_irid", 5), ("wildcatter_deterministic_workaround", 5)],
    )
    def test_multi_block_thinned_terminal_equals_reference(self, name, blocks):
        """Kept sweeps span several of the blocks `_blocks` makes, and
        neither a block nor the samples hold a multiple of the thinning."""
        ctx, fixed = _stage_cells(load_bundled(name))[-1]
        sampler = SamplerConfig(seed=9, burn_in=16000, samples=20001, thinning=7)
        sizes = _block_sizes(sampler, len(ctx.free_vars))
        assert len(sizes) == blocks
        assert all(n % sampler.thinning for n in [*sizes, sampler.samples])
        est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
        assert est == _reference_ancestral_estimate(ctx, fixed, sampler)

    def test_a_uniform_of_one_draws_the_last_positive_value(self):
        """Where `u * total` reaches `total`, a block draw takes the last
        positive value of the row, never a zero-weight value after it."""
        ctx = terminal_stage_context(_child_listed_first())
        cell = _CompiledCell(ctx, {}, value_factor=ctx.value_factor)

        class Ones:
            def random(self, n):
                return np.ones(n)

        sampler = SamplerConfig(seed=0, burn_in=3, samples=40)
        kept = _iid_chain(cell, Ones(), sampler, cell.block_sites())
        assert kept.tolist() == [12.0] * 40  # X = x1, Y = y2

    @pytest.mark.parametrize("seed", range(8))
    def test_wildcatter_terminal_value_within_4_se(self, wildcatter, seed):
        ctx, fixed = _stage_cells(wildcatter)[-1]
        est = estimate_expectation(ctx, fixed, ctx.value_factor, SamplerConfig(seed=seed))
        assert abs(est.mean - 334750.0) <= 4 * est.std_error


class TestKeptRows:
    """A block keeps the sweeps `i > burn_in` with
    `(i - burn_in) % thinning == 0`, by one slice of its rows."""

    def test_block_slices_follow_the_rule(self):
        for done, count, burn, thin in itertools.product(
            (0, 1, 2, 5, 36, 37, 38, 63, 64, 99, 1000),
            (1, 2, 7, 64),
            (0, 1, 5, 37, 64),
            (1, 2, 3, 7, 65, 100),
        ):
            sweeps = list(range(done + 1, done + count + 1))
            expected = [i for i in sweeps if i > burn and (i - burn) % thin == 0]
            assert sweeps[_kept_rows(done, burn, thin)] == expected, (done, count, burn, thin)

    def test_runs_keep_samples_over_thinning_sweeps(self):
        for burn, samples, thin, block in itertools.product(
            (0, 3, 64), (1, 20, 129, 1000), (1, 2, 7, 200), (1, 5, 64)
        ):
            if samples // thin < 1:
                continue
            kept = []
            done = 0
            while done < burn + samples:
                count = min(block, burn + samples - done)
                kept += list(range(done + 1, done + count + 1))[_kept_rows(done, burn, thin)]
                done += count
            assert kept == [burn + thin * j for j in range(1, samples // thin + 1)]


def _invariance_cell(kind):
    """A positive cell of each kind of draw: i.i.d., logic sampling (two
    of them, stage 1 and the terminal value) and the chain."""
    if kind == "chain":
        model = with_point_masses(
            random_model(9001, n_chance=(3, 7), n_decisions=(1, 3)), np.random.default_rng(1)
        )
        return next(
            (ctx, fixed)
            for ctx, fixed in _stage_cells(model)
            if _is_coupled(ctx) and _has_evidence(ctx) and _has_positive_state(ctx, fixed)
        )
    if kind == "terminal":
        return _stage_cells(load_bundled("wildcatter_deterministic_workaround"))[-1]
    stage = {"iid": 2, "logic_sampling": 1}[kind]
    return next(
        (ctx, fixed)
        for ctx, fixed in _stage_cells(load_bundled("wildcatter_irid"))
        if ctx.stage == stage and _has_positive_state(ctx, fixed)
    )


class TestBlockSizeInvariance:
    """A block is drawn at its exact size from the one generator, so the
    cap on a block's sweeps changes no estimate, on any kind of draw."""

    CAPS = (1, 7, 64, 8192, 65536)

    @pytest.mark.parametrize("thinning", [1, 7])
    @pytest.mark.parametrize("kind", ["iid", "logic_sampling", "terminal", "chain"])
    def test_estimate_ignores_the_sweep_cap(self, monkeypatch, kind, thinning):
        ctx, fixed = _invariance_cell(kind)
        cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
        assert (cell.iid, cell.evidence) == {
            "iid": (True, True),
            "logic_sampling": (False, False),
            "terminal": (False, False),
            "chain": (False, True),
        }[kind]
        # more sweeps than the 8 192 cap, and a burn-in that is not a
        # multiple of any cap above 1
        sampler = SamplerConfig(seed=4, burn_in=6001, samples=2300, thinning=thinning)
        estimates, block_counts = [], []
        for cap in self.CAPS:
            monkeypatch.setattr(gibbs, "_BLOCK_SWEEPS", cap)
            block_counts.append(len(_block_sizes(sampler, len(ctx.free_vars))))
            estimates.append(estimate_expectation(ctx, fixed, ctx.value_factor, sampler))
        assert block_counts == sorted(set(block_counts), reverse=True)
        assert estimates == [estimates[0]] * len(self.CAPS)


def _initial_state_first_estimate(ctx, fixed, cfg):
    """The estimate drawn without the early exit for empty cells:
    `initial_state` takes its uniforms first, then the block draw, or the
    chain of public `init_state` + `sweep` steps when there is no block."""
    cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
    sites = cell.block_sites() if cell.free else None
    if sites is None:
        return _sweep_chain_estimate(ctx, fixed, cfg)
    rng = np.random.default_rng(cfg.seed)
    cell.initial_state(rng)
    return _batch_means_estimate(_iid_chain(cell, rng, cfg, sites))


class TestEmptyCells:
    """`estimate_expectation` raises NoPositiveState before drawing a
    uniform only where no state of the cell has a positive product; every
    other cell draws what it drew with `initial_state` first."""

    def test_early_exit_is_exact(self):
        counts = collections.Counter()
        for source in [*BUNDLED, *range(200)]:
            for index, (ctx, fixed) in enumerate(_stage_cells(certificate_model(source))):
                cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
                empty = not any(
                    cell.product_at(list(state)) > 0.0
                    for state in itertools.product(*(range(n) for n in cell.sizes))
                )
                sampler = SamplerConfig(seed=index, burn_in=10, samples=200)
                if empty:
                    with pytest.raises(NoPositiveState):
                        estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
                    counts["early" if cell.free and cell.certainly_empty() else "late"] += 1
                    continue
                assert not cell.certainly_empty(), (source, ctx.stage, fixed)
                est = estimate_expectation(ctx, fixed, ctx.value_factor, sampler)
                assert est == _initial_state_first_estimate(ctx, fixed, sampler), (
                    source,
                    ctx.stage,
                    fixed,
                )
                counts["positive"] += 1
        # every empty cell here exits before drawing, among them a coupled
        # cell with evidence (`certificate_model(141)`, stage 2) whose factor
        # over its free `C0` alone is zero at both values of `C0`
        assert counts == {"early": 70, "positive": 2002}


def _reference_init(ctx, fixed, rng):
    """The initial state forward sampling on labels gives, and how it was
    found: each attempt draws one uniform per variable in `ctx.free_vars`
    order, then each variable in `ctx.free_topological` order from its own
    conditional given the values drawn so far; the first attempt whose
    product of the probability factors is positive wins.  After 100
    attempts, the first positive state in row-major order over
    `ctx.free_vars`, else NoPositiveState."""
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars}

    def positive(assignment):
        product = 1.0
        for f in ctx.probability_factors:
            product *= f.evaluate(assignment)
        return product > 0.0

    for _ in range(100):
        uniforms = dict(zip(ctx.free_vars, rng.random(len(ctx.free_vars)).tolist()))
        assignment = dict(fixed)
        for var in ctx.free_topological:
            cpt = ctx.cpt_of(var)
            weights = [cpt.evaluate({**assignment, var: lab}) for lab in labels[var]]
            support, cumulative, total = _cdf(weights)
            assignment[var] = labels[var][support[bisect_right(cumulative, uniforms[var] * total)]]
        if positive(assignment):
            return {v: assignment[v] for v in ctx.free_vars}, "forward"
    for combo in itertools.product(*(labels[v] for v in ctx.free_vars)):
        assignment = {**fixed, **dict(zip(ctx.free_vars, combo))}
        if positive(assignment):
            return dict(zip(ctx.free_vars, combo)), "search"
    raise NoPositiveState("reference found no positive state")


class TestInitStateReference:
    """`init_state` draws what forward sampling on labels draws, from the
    same uniforms, and leaves its generator where the reference leaves
    its own."""

    def test_bundled_and_certificate_cells(self):
        counts = collections.Counter()
        for source in [*BUNDLED, *range(200)]:
            for index, (ctx, fixed) in enumerate(_stage_cells(certificate_model(source))):
                ours, theirs = np.random.default_rng(index), np.random.default_rng(index)
                try:
                    expected, path = _reference_init(ctx, fixed, theirs)
                except NoPositiveState:
                    with pytest.raises(NoPositiveState):
                        init_state(ctx, fixed, ours)
                    path = "empty"
                else:
                    state = init_state(ctx, fixed, ours)
                    assert state.assignment == expected, (source, ctx.stage, fixed)
                assert ours.random() == theirs.random(), (source, ctx.stage, fixed)
                counts[path] += 1
        assert counts == {"forward": 2002, "empty": 70}

    def test_child_listed_first(self):
        """Model order is not topological: Y's conditional reads X's draw."""
        ctx = terminal_stage_context(_child_listed_first())
        drawn = set()
        for seed in range(20):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, path = _reference_init(ctx, {}, theirs)
            assert path == "forward"
            assert init_state(ctx, {}, ours).assignment == expected, seed
            assert ours.random() == theirs.random()
            drawn.add(tuple(expected.values()))
        assert len(drawn) == 5

    def test_rare_evidence_falls_back_to_row_major_search(self):
        """Evidence that forward sampling meets with probability 2^-20 per
        attempt: both give the first positive state in row-major order."""
        rare = 2.0**-20
        m = build_model(
            nodes=(
                NodeSpec("X", "chance", Frame(("x0", "x1"))),
                NodeSpec("Y", "chance", Frame(("y0", "y1"))),
                NodeSpec("R", "chance", Frame(("r0", "r1"))),
                NodeSpec("D1", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("X", "R", "relevance"),
                ArrowSpec("R", "D1", "informational"),
                ArrowSpec("X", "V", "relevance"),
                ArrowSpec("Y", "V", "relevance"),
                ArrowSpec("D1", "V", "relevance"),
            ),
            cpts=(
                Cpt("X", (), {(): {"x0": 1.0 - rare, "x1": rare}}),
                Cpt("Y", (), {(): {"y0": 0.5, "y1": 0.5}}),
                Cpt(
                    "R",
                    ("X",),
                    {("x0",): {"r0": 1.0, "r1": 0.0}, ("x1",): {"r0": 0.0, "r1": 1.0}},
                ),
            ),
            constraints=(),
            value_table=ValueTable(
                ("X", "Y", "D1"),
                {
                    (x, y, d): float(i + 2 * j + 4 * k)
                    for i, x in enumerate(("x0", "x1"))
                    for j, y in enumerate(("y0", "y1"))
                    for k, d in enumerate(("a", "b"))
                },
            ),
        )
        ctx = build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)
        fixed = {"R": "r1", "D1": "a"}
        assert ctx.free_vars == ("X", "Y")
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert _reference_init(ctx, fixed, theirs) == ({"X": "x1", "Y": "y0"}, "search")
        assert init_state(ctx, fixed, ours).assignment == {"X": "x1", "Y": "y0"}
        assert ours.random() == theirs.random()


def _probed_states(cell, sites, cfg):
    """The kept states the positivity check of `_iid_chain` reads, every
    64th from the first, drawn one sweep at a time through `sites` with the
    uniforms of `default_rng(cfg.seed)`."""
    rng = np.random.default_rng(cfg.seed)
    kept = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        uniforms = rng.random(len(cell.free)).tolist()
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            state = [0] * len(cell.free)
            for slot, parents, rows in sites:
                support, cumulative, total = rows[sum(r * state[s] for s, r in parents)]
                state[slot] = support[bisect_right(cumulative, uniforms[slot] * total)]
            kept.append(state)
    return kept[::64]


@pytest.mark.skipif(not __debug__, reason="the positivity probe runs only without -O")
class TestPositivityProbe:
    """`_iid_chain` checks every 64th kept draw for a positive product of the
    probability factors.  With one entry of one factor zeroed in the cell's
    copy, it must raise exactly when a checked draw reads that entry."""

    @pytest.mark.parametrize(
        "name, stage, sampler, blocks",
        [
            pytest.param(
                "wildcatter_irid",
                2,
                SamplerConfig(seed=0, burn_in=5, samples=641, thinning=2),
                1,
                id="iid",
            ),
            pytest.param(
                "wildcatter_irid",
                1,
                SamplerConfig(seed=1, burn_in=5, samples=641, thinning=2),
                1,
                id="coupled",
            ),
            pytest.param(
                "wildcatter_deterministic_workaround",
                0,
                SamplerConfig(seed=2, burn_in=16000, samples=20001, thinning=7),
                5,
                id="coupled_five_blocks",
            ),
        ],
    )
    def test_raises_iff_a_checked_draw_reads_a_zero(self, name, stage, sampler, blocks):
        ctx, fixed = next(
            (ctx, fixed)
            for ctx, fixed in _stage_cells(load_bundled(name))
            if ctx.stage == stage and _has_positive_state(ctx, fixed)
        )
        assert _is_coupled(ctx) == (stage < 2)
        assert len(_block_sizes(sampler, len(ctx.free_vars))) == blocks
        cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
        probed = _probed_states(cell, cell.block_sites(), sampler)
        outcomes = collections.Counter()
        for index, factor in enumerate(cell.prob_factors):
            offsets = {
                factor.base + sum(stride * state[slot] for slot, stride in factor.free_pairs)
                for state in itertools.product(*(range(n) for n in cell.sizes))
            }
            for off in sorted(o for o in offsets if factor.flat[o] > 0.0):
                zeroed = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
                sites = zeroed.block_sites()
                cf = zeroed.prob_factors[index]
                cf.flat[off] = 0.0
                reads = any(
                    cf.base + sum(stride * st[slot] for slot, stride in cf.free_pairs) == off
                    for st in probed
                )
                rng = np.random.default_rng(sampler.seed)
                if reads:
                    with pytest.raises(AllZeroSupport):
                        _iid_chain(zeroed, rng, sampler, sites)
                else:
                    _iid_chain(zeroed, rng, sampler, sites)
                outcomes[reads] += 1
        assert outcomes[True] and outcomes[False], outcomes


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
