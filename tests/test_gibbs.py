import collections
import copy
import functools
import itertools
import types
from bisect import bisect_right

import numpy as np
import pytest

from irid import gibbs
from irid.data import BUNDLED, load_bundled
from irid.errors import (
    AllZeroSupport,
    BudgetExceeded,
    IncompleteConfig,
    InvalidModel,
    NoPositiveState,
)
from irid.gibbs import (
    Estimate,
    SamplerConfig,
    _cdf,
    _blocks,
    _CompiledCell,
    _block_draws,
    estimate_expectation,
)
from irid.factors import Factor
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


def _chain(ctx, fixed, rng):
    """The sampler's single-site chain as label assignments of
    `ctx.free_vars`: the cell's `initial_state`, then the state after each
    sweep, one `run` over its full conditionals (`sites`) with one uniform
    per free variable from `rng`."""
    cell = _CompiledCell(ctx, fixed, ctx.value_factor)
    labels = [ctx.cpt_of(v).frame_of(v).labels for v in cell.free]
    state = cell.initial_state(rng)
    while True:
        yield {v: labels[i][j] for i, (v, j) in enumerate(zip(cell.free, state))}
        cell.run(state, cell.sites, [rng.random(len(state)).tolist()])


@pytest.fixture(scope="module")
def stage2(wildcatter):
    part = compute_partition(wildcatter)
    moral = moralize(relevance_subgraph(wildcatter))
    return build_stage_context(wildcatter, part, moral, 2)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig(seed=1)
        assert (cfg.burn_in, cfg.samples) == (1000, 20000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burn_in": -1},
            {"samples": 0},
            {"burn_in": 1.5},
            {"burn_in": None},
            {"burn_in": True},
            {"samples": 2.5},
            {"samples": True},
            {"samples": "5"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(InvalidModel):
            SamplerConfig(seed=1, **kwargs)

    def test_run_lengths_are_kept_as_ints(self):
        cfg = SamplerConfig(seed=1, burn_in=np.int64(0), samples=np.uint32(7))
        assert (cfg.burn_in, cfg.samples) == (0, 7)
        assert type(cfg.burn_in) is int and type(cfg.samples) is int

    @pytest.mark.parametrize(
        "seed, stored",
        [(0, 0), (2**64 - 1, 2**64 - 1), (np.int64(5), 5), (np.uint64(5), 5)],
    )
    def test_seed_is_kept_as_an_int(self, seed, stored):
        cfg = SamplerConfig(seed=seed)
        assert cfg.seed == stored and type(cfg.seed) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.True_, "5", None])
    def test_rejects_a_seed_outside_the_64_bit_integers(self, seed):
        with pytest.raises(InvalidModel):
            SamplerConfig(seed=seed)


class TestInitState:
    def test_single_free_variable(self, stage2):
        rng = np.random.default_rng(0)
        assignment = next(_chain(stage2, {"T": "nt", "R": "nr", "B": "$1M", "D": "nd"}, rng))
        assert set(assignment) == {"O"}
        assert assignment["O"] in ("w", "y")

    def test_impossible_evidence(self, stage2):
        rng = np.random.default_rng(0)
        with pytest.raises(NoPositiveState):
            next(_chain(stage2, {"T": "nt", "R": "c", "B": "$1M", "D": "nd"}, rng))

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
        assignment = next(_chain(ctx, {"D1": "x"}, np.random.default_rng(5)))
        assert assignment == {"A": "a0", "C": "c0"}

    def test_missing_fixed_variable(self, stage2):
        with pytest.raises(IncompleteConfig):
            next(_chain(stage2, {"T": "nt", "R": "nr"}, np.random.default_rng(0)))


class TestSweep:
    def test_single_site_stationary_distribution(self, stage2):
        fixed = {"T": "t1", "R": "c", "B": "$2M", "D": "d"}
        rng = np.random.default_rng(123)
        counts = collections.Counter()
        n = 100_000
        for assignment in itertools.islice(_chain(stage2, fixed, rng), 1, n + 1):
            counts[assignment["O"]] += 1
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
        counts = collections.Counter()
        for assignment in itertools.islice(_chain(ctx, {"D1": "a"}, rng), 1, 20001):
            counts[assignment["X"]] += 1
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
            chain = _chain(ctx, fixed, rng)
            try:
                next(chain)
            except NoPositiveState:
                continue
            for assignment in itertools.islice(chain, 500):
                total = {**assignment, **fixed}
                product = 1.0
                for f in ctx.probability_factors:
                    product *= f.evaluate(total)
                assert product > 0.0


class TestEstimateExpectation:
    def test_no_test_drill_expectation(self, stage2):
        (est,) = estimate_expectation(
            stage2,
            [{"B": "$2M", "T": "nt", "R": "nr", "D": "d"}],
            stage2.value_factor,
            SamplerConfig(seed=11),
        )
        assert est.n == 20000
        assert abs(est.mean - 250000.0) <= 3 * est.std_error

    def test_no_test_no_drill_expectation(self, stage2):
        (est,) = estimate_expectation(
            stage2,
            [{"B": "$1M", "T": "nt", "R": "nr", "D": "nd"}],
            stage2.value_factor,
            SamplerConfig(seed=13),
        )
        assert abs(est.mean - (-1200000.0)) <= 3 * est.std_error

    def test_matches_exact_counterpart(self, stage2):
        fixed = {"B": "$2M", "T": "t2", "R": "o", "D": "nd"}
        exact = exact_stage_expectation(stage2, fixed)
        (est,) = estimate_expectation(
            stage2, [fixed], stage2.value_factor, SamplerConfig(seed=21)
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
        (est,) = estimate_expectation(ctx, [{}], ctx.value_factor, SamplerConfig(seed=1))
        assert est.mean == 42.0
        assert est.std_error == 0.0

    def test_bit_identical_for_same_seed(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "o", "D": "d"}
        cfg = SamplerConfig(seed=77, burn_in=50, samples=500)
        a = estimate_expectation(stage2, [fixed], stage2.value_factor, cfg)
        b = estimate_expectation(stage2, [fixed], stage2.value_factor, cfg)
        assert a == b

    def test_seed_changes_estimate(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "o", "D": "d"}
        (a,) = estimate_expectation(
            stage2, [fixed], stage2.value_factor, SamplerConfig(seed=1, burn_in=10, samples=200)
        )
        (b,) = estimate_expectation(
            stage2, [fixed], stage2.value_factor, SamplerConfig(seed=2, burn_in=10, samples=200)
        )
        assert a.mean != b.mean

    def test_equals_manual_sweep_composition(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "c", "D": "d"}
        cfg = SamplerConfig(seed=7, burn_in=3, samples=10)
        (est,) = estimate_expectation(stage2, [fixed], stage2.value_factor, cfg)
        steps = itertools.islice(
            _chain(stage2, fixed, np.random.default_rng(7)), 1, cfg.burn_in + cfg.samples + 1
        )
        vals = []
        for i, assignment in enumerate(steps, 1):
            if i > cfg.burn_in:
                vals.append(stage2.value_factor.evaluate({**assignment, **fixed}))
        assert float(np.mean(vals)) == est.mean
        assert len(vals) == est.n

    def test_impossible_cell_has_no_estimate(self, stage2):
        assert estimate_expectation(
            stage2,
            [{"B": "$1M", "T": "t2", "R": "nr", "D": "nd"}],
            stage2.value_factor,
            SamplerConfig(seed=5),
        ) == [None]


def _sweep_chain_estimate(ctx, fixed, cfg):
    """The estimate of the `_chain` steps driven by `default_rng(cfg.seed)`,
    read with the value factor, with the batch means standard error over 20
    equal batches."""
    steps = itertools.islice(
        _chain(ctx, fixed, np.random.default_rng(cfg.seed)), 1, cfg.burn_in + cfg.samples + 1
    )
    vals = []
    for i, assignment in enumerate(steps, 1):
        if i > cfg.burn_in:
            vals.append(ctx.value_factor.evaluate({**assignment, **fixed}))
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
    conditional from the factors' labels: it starts at the cell's
    `initial_state` and then takes one uniform per variable and sweep, in
    `ctx.free_vars` order, from the same `default_rng(cfg.seed)` stream."""
    rng = np.random.default_rng(cfg.seed)
    assignment = {**next(_chain(ctx, fixed, rng)), **fixed}
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars}
    vals = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        for var, u in zip(ctx.free_vars, rng.random(len(ctx.free_vars))):
            j = _reference_draw(_reference_weights(ctx, var, assignment), float(u))
            assignment[var] = labels[var][j]
        if i > cfg.burn_in:
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
    pytest.param({"burn_in": 37, "samples": 7001}, id="uneven"),
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
                    assert estimate_expectation(
                        stage2, [fixed], stage2.value_factor, sampler
                    ) == [None]
                    continue
                (est,) = estimate_expectation(stage2, [fixed], stage2.value_factor, sampler)
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
        (est,) = estimate_expectation(ctx, [{"D1": "b"}], ctx.value_factor, sampler)
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
        working = absorb_decision(working, policies[ctx.decision])
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
        next(_chain(ctx, fixed, np.random.default_rng(0)))
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
    pytest.param({"burn_in": 37, "samples": 901}, id="uneven"),
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
            (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
            assert est == _reference_chain_estimate(ctx, fixed, sampler), (ctx.stage, fixed)


def _reference_ancestral_estimate(ctx, fixed, cfg):
    """The estimate of logic sampling driven by the sweep chain's uniforms:
    after the cell's `initial_state`, each sweep takes one uniform per variable
    in `ctx.free_vars` order from `default_rng(cfg.seed)`; a kept sweep draws
    every free variable, in `ctx.free_topological` order, from its own
    conditional given the values drawn so far, with its own uniform."""
    rng = np.random.default_rng(cfg.seed)
    next(_chain(ctx, fixed, rng))
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars}
    vals = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        uniforms = dict(zip(ctx.free_vars, rng.random(len(ctx.free_vars)).tolist()))
        if i > cfg.burn_in:
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
            (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
            assert est == _reference_ancestral_estimate(ctx, fixed, sampler), (ctx.stage, fixed)

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_generated_equal_reference(self, kwargs):
        compared = 0
        for seed in range(24):
            for ctx, fixed in _stage_cells(_point_mass_model(seed)):
                if not _is_coupled(ctx) or _has_evidence(ctx):
                    continue
                sampler = SamplerConfig(seed=seed, **kwargs)
                (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
                expected = _reference_ancestral_estimate(ctx, fixed, sampler)
                assert est == expected, (seed, ctx.stage, fixed)
                compared += 1
        assert compared == 46

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_child_listed_first_equals_reference(self, kwargs):
        ctx = terminal_stage_context(_child_listed_first())
        assert ctx.free_vars == ("Y", "X") and ctx.free_topological == ("X", "Y")
        sampler = SamplerConfig(seed=5, **kwargs)
        (est,) = estimate_expectation(ctx, [{}], ctx.value_factor, sampler)
        assert est == _reference_ancestral_estimate(ctx, {}, sampler)

    @pytest.mark.parametrize(
        "name, blocks",
        [("wildcatter_irid", 5), ("wildcatter_deterministic_workaround", 5)],
    )
    def test_multi_block_terminal_equals_reference(self, name, blocks):
        """Kept sweeps span several of the blocks `_blocks` makes, and the
        burn-in ends inside a block."""
        ctx, fixed = _stage_cells(load_bundled(name))[-1]
        sampler = SamplerConfig(seed=9, burn_in=16000, samples=20001)
        sizes = _block_sizes(sampler, len(ctx.free_vars))
        assert len(sizes) == blocks
        assert sampler.burn_in % sizes[0]
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert est == _reference_ancestral_estimate(ctx, fixed, sampler)

    def test_a_uniform_of_one_draws_the_last_positive_value(self):
        """Where `u * total` reaches `total`, a block draw takes the last
        positive value of the row, never a zero-weight value after it."""
        ctx = terminal_stage_context(_child_listed_first())
        cell = _CompiledCell(ctx, {}, value_factor=ctx.value_factor)

        class Ones:
            bit_generator = types.SimpleNamespace(advance=lambda steps: None)

            def random(self, n):
                return np.ones(n)

        sampler = SamplerConfig(seed=0, burn_in=3, samples=40)
        (kept,) = _block_draws([cell], Ones(), sampler)
        assert kept.tolist() == [12.0] * 40  # X = x1, Y = y2

    @pytest.mark.parametrize("seed", range(8))
    def test_wildcatter_terminal_value_within_4_se(self, wildcatter, seed):
        ctx, fixed = _stage_cells(wildcatter)[-1]
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, SamplerConfig(seed=seed))
        assert abs(est.mean - 334750.0) <= 4 * est.std_error


class TestBlockRows:
    """The blocks of `_blocks` keep exactly the sweeps after the burn-in."""

    def test_blocks_keep_every_sweep_after_the_burn_in(self, monkeypatch):
        for burn, samples, cap in itertools.product(
            (0, 1, 5, 37, 64), (1, 20, 129), (1, 2, 7, 64)
        ):
            monkeypatch.setattr(gibbs, "_BLOCK_SWEEPS", cap)
            cfg = SamplerConfig(seed=3, burn_in=burn, samples=samples)
            blocks = list(_blocks(np.random.default_rng(cfg.seed), cfg, 2))
            sweeps = np.concatenate([uniforms for uniforms, _ in blocks])
            kept = np.concatenate([uniforms[keep] for uniforms, keep in blocks])
            assert len(sweeps) == burn + samples
            assert np.array_equal(kept, sweeps[burn:]), (burn, samples, cap)


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

    @pytest.mark.parametrize("kind", ["iid", "logic_sampling", "terminal", "chain"])
    def test_estimate_ignores_the_sweep_cap(self, monkeypatch, kind):
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
        sampler = SamplerConfig(seed=4, burn_in=6001, samples=2300)
        estimates, block_counts = [], []
        for cap in self.CAPS:
            monkeypatch.setattr(gibbs, "_BLOCK_SWEEPS", cap)
            block_counts.append(len(_block_sizes(sampler, len(ctx.free_vars))))
            estimates += estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert block_counts == sorted(set(block_counts), reverse=True)
        assert estimates == [estimates[0]] * len(self.CAPS)


def _initial_state_first_estimate(ctx, fixed, cfg):
    """The estimate drawn without the early exit for empty cells:
    `initial_state` takes its uniforms first, then the block draw, or the
    `_chain` steps when there is no block."""
    cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
    if not (cell.free and cell.stage.block):
        return _sweep_chain_estimate(ctx, fixed, cfg)
    rng = np.random.default_rng(cfg.seed)
    cell.initial_state(rng)
    return _batch_means_estimate(_block_draws([cell], rng, cfg)[0])


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
                    assert estimate_expectation(ctx, [fixed], ctx.value_factor, sampler) == [None]
                    counts["early" if cell.certainly_empty() else "late"] += 1
                    continue
                assert not cell.certainly_empty(), (source, ctx.stage, fixed)
                (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
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


def _rare_evidence_stage():
    """The stage of a decision that observes `R`, a copy of `X`, where `X`
    takes `x1` with probability 2^-20: forward sampling meets `R = r1` with
    that probability per attempt, and `R = r0` almost always at once."""
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
    return build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)


class TestInitStateReference:
    """`_CompiledCell.initial_state` draws what forward sampling on labels draws, from the
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
                        next(_chain(ctx, fixed, ours))
                    path = "empty"
                else:
                    assert next(_chain(ctx, fixed, ours)) == expected, (source, ctx.stage, fixed)
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
            assert next(_chain(ctx, {}, ours)) == expected, seed
            assert ours.random() == theirs.random()
            drawn.add(tuple(expected.values()))
        assert len(drawn) == 5

    def test_rare_evidence_falls_back_to_row_major_search(self):
        """Evidence that forward sampling meets with probability 2^-20 per
        attempt: both give the first positive state in row-major order."""
        ctx = _rare_evidence_stage()
        fixed = {"R": "r1", "D1": "a"}
        assert ctx.free_vars == ("X", "Y")
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        assert _reference_init(ctx, fixed, theirs) == ({"X": "x1", "Y": "y0"}, "search")
        assert next(_chain(ctx, fixed, ours)) == {"X": "x1", "Y": "y0"}
        assert ours.random() == theirs.random()


def _evidence_chain(n):
    """A stage whose free `X0 -> X1 -> ... -> X{n-1}` chain of fair binary
    variables each has a copy `E{i}` observed at `e1`: the one positive
    state is all `x1`, and a forward sample meets it with probability 2^-n."""
    xs = [f"X{i}" for i in range(n)]
    es = [f"E{i}" for i in range(n)]
    half = {"x0": 0.5, "x1": 0.5}
    copy = {("x0",): {"e0": 1.0, "e1": 0.0}, ("x1",): {"e0": 0.0, "e1": 1.0}}
    m = build_model(
        nodes=(
            *(NodeSpec(x, "chance", Frame(("x0", "x1"))) for x in xs),
            *(NodeSpec(e, "chance", Frame(("e0", "e1"))) for e in es),
            NodeSpec("D1", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            *(ArrowSpec(a, b, "relevance") for a, b in zip(xs, xs[1:])),
            *(ArrowSpec(x, e, "relevance") for x, e in zip(xs, es)),
            *(ArrowSpec(e, "D1", "informational") for e in es),
            ArrowSpec(xs[-1], "V", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
        ),
        cpts=(
            Cpt(xs[0], (), {(): half}),
            *(Cpt(x, (p,), {("x0",): half, ("x1",): half}) for p, x in zip(xs, xs[1:])),
            *(Cpt(e, (x,), copy) for x, e in zip(xs, es)),
        ),
        constraints=(),
        value_table=ValueTable(
            (xs[-1], "D1"),
            {("x0", "a"): 0.0, ("x0", "b"): 1.0, ("x1", "a"): 2.0, ("x1", "b"): 3.0},
        ),
    )
    ctx = build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)
    assert ctx.free_vars == tuple(xs)
    return ctx, {**dict.fromkeys(es, "e1"), "D1": "a"}


class TestInitialSearchBudget:
    """After its forward samples fail, `initial_state` searches at most
    10**7 states, the default `EnumerationBudget.max_joint_configs`."""

    def test_search_beyond_the_budget_raises(self):
        ctx, fixed = _evidence_chain(24)  # 2^24 states
        sampler = SamplerConfig(seed=0, burn_in=0, samples=1)
        with pytest.raises(BudgetExceeded):
            estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)

    def test_search_within_the_budget_finds_the_positive_state(self):
        self.finds_the_positive_state(16)

    def test_search_of_2_to_the_20_states_finds_the_positive_state(self):
        self.finds_the_positive_state(20)

    @pytest.mark.parametrize("block_uniforms", [65536, 3])
    def test_search_matches_a_state_by_state_search(self, block_uniforms, monkeypatch):
        """Straight to the search, in chunks of one state or of all, on every
        cell of models with point masses: the first state in row-major order
        with a positive product, which is not always the first state."""
        monkeypatch.setattr(gibbs, "_INIT_ATTEMPTS", 0)
        monkeypatch.setattr(gibbs, "_BLOCK_UNIFORMS", block_uniforms)
        found = collections.Counter()
        for source in range(0, 90, 3):
            for ctx, fixed in _stage_cells(certificate_model(source)):
                cell = _CompiledCell(ctx, fixed, ctx.value_factor)
                states = (list(s) for s in itertools.product(*map(range, cell.sizes)))
                first = next(s for s in states if cell.product_at(s) > 0.0)
                assert cell.initial_state(np.random.default_rng(0)) == first
                found[any(first)] += 1
        assert found == {False: 195, True: 41}

    @staticmethod
    def finds_the_positive_state(n):
        ctx, fixed = _evidence_chain(n)
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        assert next(_chain(ctx, fixed, ours)) == dict.fromkeys(ctx.free_vars, "x1")
        # all 100 forward samples failed, so the search found it
        theirs.random(100 * n)
        assert ours.random() == theirs.random()
        sampler = SamplerConfig(seed=0, burn_in=0, samples=1)
        assert estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)[0].mean == 2.0


def _probed_states(cell, sites, cfg):
    """The kept states the positivity check of `_block_draws` reads, every
    64th from the first, drawn one sweep at a time through `sites` with the
    uniforms of `default_rng(cfg.seed)`."""
    rng = np.random.default_rng(cfg.seed)
    kept = []
    for i in range(1, cfg.burn_in + cfg.samples + 1):
        uniforms = rng.random(len(cell.free)).tolist()
        if i > cfg.burn_in:
            state = [0] * len(cell.free)
            for slot, parents, rows in sites:
                support, cumulative, total = rows[sum(r * state[s] for s, r in parents)]
                state[slot] = support[bisect_right(cumulative, uniforms[slot] * total)]
            kept.append(state)
    return kept[::64]


@pytest.mark.skipif(not __debug__, reason="the positivity probe runs only without -O")
class TestPositivityProbe:
    """`_block_draws` checks every 64th kept draw for a positive product of the
    probability factors.  With one entry of one factor zeroed in a private
    copy of the cell's factor, it must raise exactly when a checked draw
    reads that entry."""

    @pytest.mark.parametrize(
        "name, stage, sampler, blocks",
        [
            pytest.param(
                "wildcatter_irid",
                2,
                # one probe, the first draw: it reads one value of the one
                # free site, so the entries of the others stay unread
                SamplerConfig(seed=0, burn_in=5, samples=64),
                1,
                id="iid",
            ),
            pytest.param(
                "wildcatter_irid",
                1,
                SamplerConfig(seed=1, burn_in=5, samples=641),
                1,
                id="coupled",
            ),
            pytest.param(
                "wildcatter_deterministic_workaround",
                0,
                SamplerConfig(seed=2, burn_in=16000, samples=20001),
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
                # its tables bound before the zero: they hold the true rows
                zeroed.block_sites()
                # zeroed in a private copy: the cell's factors share their
                # tables with every cell of the stage
                cf = copy.copy(zeroed.prob_factors[index])
                cf.flat = [0.0 if o == off else w for o, w in enumerate(cf.flat)]
                cf.array = np.array(cf.flat)
                zeroed.prob_factors[index] = cf
                assert factor.flat[off] > 0.0
                reads = any(
                    cf.base + sum(stride * st[slot] for slot, stride in cf.free_pairs) == off
                    for st in probed
                )
                rng = np.random.default_rng(sampler.seed)
                if reads:
                    with pytest.raises(AllZeroSupport):
                        _block_draws([zeroed], rng, sampler)
                else:
                    _block_draws([zeroed], rng, sampler)
                outcomes[reads] += 1
        assert outcomes[True] and outcomes[False], outcomes


def _stage_builders(model):
    """Per stage of `model`, with the exact policies absorbed, and for its
    terminal value: a function that builds the stage's context afresh, so
    with an empty cache, and the fixed configurations of its cells."""
    policies = solve(model).policies
    working = remove_barren(model)
    stages = []
    while working.decisions:
        part = compute_partition(working)
        build = functools.partial(
            build_stage_context,
            working,
            part,
            moralize(relevance_subgraph(working)),
            part.stage_count,
        )
        ctx = build()
        deps = sorted(ctx.dependency_set)
        cells = []
        for cfg in iter_configs(deps, working.frames):
            fixed = dict(zip(deps, cfg))
            cells += [{**fixed, ctx.decision: a} for a in working.admissible(ctx.decision, fixed)]
        stages.append((build, cells))
        working = absorb_decision(working, policies[ctx.decision])
    return [*stages, (functools.partial(terminal_stage_context, working), [{}])]


def _outcome(ctx, fixed, value_factor, sampler):
    """The estimate, NoPositiveState where there is none, or the type of the
    error it raises."""
    try:
        (est,) = estimate_expectation(ctx, [fixed], value_factor, sampler)
    except AllZeroSupport as e:
        return type(e)
    return NoPositiveState if est is None else est


class TestStageCache:
    """Each context compiles its stage once and its cells share the site
    tables, so no estimate may depend on which cells ran before it on the
    same context."""

    SAMPLER = {"burn_in": 20, "samples": 300}

    @pytest.mark.parametrize("source", [*BUNDLED, 33, 127])
    def test_estimates_ignore_order_and_cache(self, source):
        model = load_bundled(source) if isinstance(source, str) else _point_mass_model(source)
        chain_cells = 0
        for build, cells in _stage_builders(model):
            samplers = [SamplerConfig(seed=i, **self.SAMPLER) for i in range(len(cells))]
            runs = list(zip(cells, samplers))
            ctx = build()
            in_order = [_outcome(ctx, fixed, ctx.value_factor, s) for fixed, s in runs]
            ctx = build()
            reverse = [_outcome(ctx, fixed, ctx.value_factor, s) for fixed, s in runs[::-1]]
            cold = [_outcome(c, fixed, c.value_factor, s) for (fixed, s), c in
                    zip(runs, (build() for _ in runs))]
            assert in_order == reverse[::-1] == cold
            assert "gibbs" in ctx.cache
            if _is_coupled(ctx) and _has_evidence(ctx):
                chain_cells += sum(isinstance(e, Estimate) for e in cold)
        # the two generated models hold cells that run the chain
        assert (chain_cells > 0) == (source in (33, 127))

    def test_a_second_value_factor_leaves_the_first_alone(self):
        sampler = SamplerConfig(seed=3, **self.SAMPLER)
        differs = 0
        for build, cells in _stage_builders(load_bundled("wildcatter_irid")):
            ctx = build()
            value = ctx.value_factor
            other = Factor(value.scope, value.frames, 7.0 - 2.0 * value.values)
            for fixed in cells:
                expected = _outcome(build(), fixed, value, sampler)
                expected_other = _outcome(build(), fixed, other, sampler)
                assert _outcome(ctx, fixed, other, sampler) == expected_other
                assert _outcome(ctx, fixed, value, sampler) == expected
                differs += expected != expected_other
        assert differs


def _by_cell(ctx, configs):
    """`configs` split into the alternatives of each cell, in order."""
    cells: dict[tuple, list[dict]] = {}
    for fixed in configs:
        key = tuple((v, lab) for v, lab in fixed.items() if v != ctx.decision)
        cells.setdefault(key, []).append(fixed)
    return list(cells.values())


def _places(ctx, configs, sampler):
    """The distinct places the generator stands at after each configuration's
    `initial_state`, over the configurations that have one."""
    places = set()
    for fixed in configs:
        rng = np.random.default_rng(sampler.seed)
        try:
            _CompiledCell(ctx, fixed, ctx.value_factor).initial_state(rng)
        except NoPositiveState:
            continue
        places.add(rng.random())
    return places


def _shared_table_model():
    """D1 -> X -> Y, with V reading Y and D1: every alternative draws Y
    through the one table of `P(Y | X)`, but X is the constant `x0` under
    `a` and `x1` under `d`, and drawn from different rows of `P(X | D1)`
    under `b` and `c`, so the alternatives' Y draws differ in their fixed
    row part or in their row parent's draws."""
    return build_model(
        nodes=(
            NodeSpec("D1", "decision", Frame(("a", "b", "c", "d"))),
            NodeSpec("X", "chance", Frame(("x0", "x1"))),
            NodeSpec("Y", "chance", Frame(("y0", "y1"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            ArrowSpec("D1", "X", "relevance"),
            ArrowSpec("X", "Y", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
            ArrowSpec("Y", "V", "relevance"),
        ),
        cpts=(
            Cpt(
                "X",
                ("D1",),
                {
                    ("a",): {"x0": 1.0, "x1": 0.0},
                    ("b",): {"x0": 0.25, "x1": 0.75},
                    ("c",): {"x0": 0.625, "x1": 0.375},
                    ("d",): {"x0": 0.0, "x1": 1.0},
                },
            ),
            Cpt("Y", ("X",), {("x0",): {"y0": 0.125, "y1": 0.875}, ("x1",): {"y0": 0.5, "y1": 0.5}}),
        ),
        constraints=(),
        value_table=ValueTable(
            ("D1", "Y"),
            {(d, y): float(10 * i + j) for i, d in enumerate("abcd") for j, y in enumerate(("y0", "y1"))},
        ),
    )


class TestSharedCall:
    """One call estimates every alternative of a cell from one stream: each
    entry must equal its configuration estimated alone, on a fresh context."""

    SAMPLER = {"burn_in": 37, "samples": 901}

    @pytest.mark.parametrize("source", [*BUNDLED, "shared_table", 0, 127])
    def test_each_entry_equals_its_configuration_alone(self, source):
        if source == "shared_table":
            model = _shared_table_model()
        elif isinstance(source, str):
            model = load_bundled(source)
        else:
            model = _point_mass_model(source)
        shared_draws = collections.Counter()
        for build, configs in _stage_builders(model):
            ctx = build()
            for index, alternatives in enumerate(_by_cell(ctx, configs)):
                sampler = SamplerConfig(seed=index, **self.SAMPLER)
                shared = estimate_expectation(ctx, alternatives, ctx.value_factor, sampler)
                alone = []
                for fixed in alternatives:
                    c = build()
                    alone += estimate_expectation(c, [fixed], c.value_factor, sampler)
                assert shared == alone, (ctx.stage, alternatives)
                if sum(est is not None for est in shared) > 1:
                    kind = "block" if ctx.cache["gibbs"].block else "chain"
                    shared_draws[kind] += 1
        # bundled cells draw blocks together, and generated ones run chains
        # together
        assert shared_draws["block" if isinstance(source, str) else "chain"] > 0

    @pytest.mark.parametrize("kind", ["block", "chain"])
    def test_configurations_whose_initial_states_draw_apart(self, kind):
        """Configurations whose initialization takes different numbers of
        forward samples draw from different places of the stream."""
        if kind == "block":
            ctx = _rare_evidence_stage()
            configs = [{"R": r, "D1": d} for d in ("a", "b") for r in ("r0", "r1")]
        else:
            ctx, _ = _evidence_chain(3)
            es = sorted(v for v in ctx.dependency_set if v.startswith("E"))
            configs = [
                {**dict(zip(es, labels)), "D1": d}
                for labels in itertools.product(("e0", "e1"), repeat=len(es))
                for d in ("a", "b")
            ]
        sampler = SamplerConfig(seed=2, **self.SAMPLER)
        assert len(_places(ctx, configs, sampler)) > 1
        shared = estimate_expectation(ctx, configs, ctx.value_factor, sampler)
        assert ctx.cache["gibbs"].block == (kind == "block")
        assert None not in shared
        assert shared == [
            estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)[0] for fixed in configs
        ]


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
        counts = collections.Counter()
        n = 100_000
        for assignment in itertools.islice(_chain(ctx, {}, rng), 1, n + 1):
            counts[tuple(assignment[v] for v in free)] += 1
        tv = 0.5 * sum(
            abs(counts.get(cfg, 0) / n - target[cfg] / z) for cfg in target
        )
        assert tv <= 0.02
