import collections
import copy
import dataclasses
import functools
import itertools
import math
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
    ZeroNormalizer,
)
from irid.gibbs import (
    Estimate,
    SamplerConfig,
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

from model_gen import certificate_model, multisite_model, random_model, with_point_masses


def _positive(ctx, assignment):
    """Whether the product of the probability factors is positive at
    `assignment`, read through their labels."""
    product = 1.0
    for f in ctx.probability_factors:
        product *= f.evaluate(assignment)
    return product > 0.0


def _positive_states(ctx, fixed):
    """Whether each state of `ctx.free_vars`, in row-major order, has a
    positive product of the probability factors."""
    labels = [ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars]
    return [
        _positive(ctx, {**fixed, **dict(zip(ctx.free_vars, combo))})
        for combo in itertools.product(*labels)
    ]


def _has_positive_state(ctx, fixed):
    return any(_positive_states(ctx, fixed))


def _sizes(ctx):
    return [len(ctx.cpt_of(v).frame_of(v)) for v in ctx.free_vars]


def _drawn_states(ctx, fixed, sampler):
    """The state of the free slots at each of the cell's draws, one row per
    draw, and the draws' weights, all ones where they are constant: read
    from `_block_draws`, from the start of the seed's stream, through a value
    factor that numbers the states."""
    frames = tuple(ctx.cpt_of(v).frame_of(v) for v in ctx.free_vars)
    sizes = _sizes(ctx)
    numbers = Factor(ctx.free_vars, frames, np.arange(math.prod(sizes), dtype=float).reshape(sizes))
    cell = _CompiledCell(ctx, fixed, numbers)
    ((values, weights),) = _block_draws([cell], np.random.default_rng(sampler.seed), sampler)
    states = np.array(np.unravel_index(values.astype(int), sizes)).T
    return states, np.ones(len(values)) if weights is None else weights


def _shares(ctx, fixed, sampler):
    """The weighted share of the draws at each state of `ctx.free_vars`
    drawn with a positive weight, keyed by its labels."""
    labels = [ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars]
    states, weights = _drawn_states(ctx, fixed, sampler)
    shares = collections.Counter()
    for state, w in zip(states.tolist(), weights.tolist()):
        if w > 0.0:
            shares[tuple(labels[i][j] for i, j in enumerate(state))] += w
    total = sum(weights.tolist())
    return {key: w / total for key, w in shares.items()}


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


class TestDraws:
    """The states the draws visit, read through a value factor that numbers
    them, with their weights."""

    def test_iid_draws_follow_the_full_conditional(self, stage2):
        fixed = {"T": "t1", "R": "c", "B": "$2M", "D": "d"}
        shares = _shares(stage2, fixed, SamplerConfig(seed=123, samples=100_000))
        assert shares[("w",)] == pytest.approx(0.923077, abs=0.01)
        assert shares[("y",)] == pytest.approx(0.076923, abs=0.01)

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
        shares = _shares(ctx, {"D1": "a"}, SamplerConfig(seed=42))
        assert shares[("x0",)] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("source", ["zeros17", "point_masses33"])
    def test_a_draw_weighs_zero_exactly_off_the_positive_support(self, source):
        """Every draw of every positive cell has a positive product of the
        probability factors exactly where its weight is positive; only
        weighted draws ever weigh zero."""
        if source == "zeros17":
            model = random_model(17, n_chance=(3, 4), n_decisions=(1, 1), allow_zeros=True)
        else:
            model = _point_mass_model(33)
        zero_weights = 0
        for ctx, fixed in _stage_cells(model):
            if not _has_positive_state(ctx, fixed):
                continue
            sampler = SamplerConfig(seed=5, burn_in=10, samples=500)
            states, weights = _drawn_states(ctx, fixed, sampler)
            positive = np.array(_positive_states(ctx, fixed))
            drawn = positive[np.ravel_multi_index(states.T, _sizes(ctx))]
            assert (drawn == (weights > 0.0)).all(), (ctx.stage, fixed)
            zero_weights += int((weights == 0.0).sum())
        assert (zero_weights > 0) == (source == "point_masses33")


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

    def test_equals_a_per_draw_reference(self, stage2):
        fixed = {"B": "$2M", "T": "t1", "R": "c", "D": "d"}
        cfg = SamplerConfig(seed=7, burn_in=3, samples=40)
        (est,) = estimate_expectation(stage2, [fixed], stage2.value_factor, cfg)
        assert est == _reference_estimate(stage2, fixed, cfg)
        assert est.n == 40

    @pytest.mark.parametrize(
        "fixed",
        [{"B": "$1M", "T": "t2", "R": "nr", "D": "nd"}, {"T": "nt", "R": "c", "B": "$1M", "D": "nd"}],
    )
    def test_impossible_cell_has_no_estimate(self, stage2, fixed):
        assert estimate_expectation(
            stage2, [fixed], stage2.value_factor, SamplerConfig(seed=5)
        ) == [None]

    @pytest.mark.parametrize("kind", ["fixed_zero_row", "contradictory_evidence"])
    def test_impossible_evidence_has_no_estimate(self, kind):
        """`fixed_zero_row`: `A` is constant, so it fixes `B`'s row, which
        has no positive value, and the cell has no estimate before it draws.
        `contradictory_evidence`: no row of `B` has a positive value, but
        `A` is drawn, so every draw weighs zero and the search over the
        cell's states finds none positive.  The exact backend finds the cell
        impossible too."""
        model, evidence = _two_root_evidence(kind)
        ctx = build_stage_context(
            model, compute_partition(model), moralize(relevance_subgraph(model)), 1
        )
        assert ctx.free_vars == ("A", "B")
        configs = [{**evidence, "D1": d} for d in ("a", "b")]
        cell = _CompiledCell(ctx, configs[0], ctx.value_factor)
        assert cell.certainly_empty() == (kind == "fixed_zero_row")
        for sampler in (SamplerConfig(seed=0), SamplerConfig(seed=1, burn_in=0, samples=1)):
            assert estimate_expectation(ctx, configs, ctx.value_factor, sampler) == [None, None]
        exact = [c for c in solve(model).per_cell_diagnostics if dict(c.config) == evidence]
        assert len(exact) == 2 and all(c.zero_probability for c in exact)

    def test_forced_chain_is_constant(self):
        """`A` is a point mass and `C` copies it: both are constant, so every
        draw reads `C = c0`."""
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
        ctx = build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)
        assert set(ctx.free_vars) == {"A", "C"}
        assert _CompiledCell(ctx, {"D1": "x"}, ctx.value_factor).plan == ({0: 0, 1: 0}, [])
        configs = [{"D1": "x"}, {"D1": "y"}]
        estimates = estimate_expectation(ctx, configs, ctx.value_factor, SamplerConfig(seed=5))
        assert estimates == [Estimate(1.0, 0.0, 20000), Estimate(2.0, 0.0, 20000)]

    def test_missing_fixed_variable(self, stage2):
        with pytest.raises(IncompleteConfig):
            estimate_expectation(
                stage2, [{"T": "nt", "R": "nr"}], stage2.value_factor, SamplerConfig(seed=0)
            )


def _two_root_evidence(kind):
    """A model whose decision `D1` observes evidence over `A` and its fair
    child `B`, which closes every evidence table; the value reads `B` and
    `D1`.  Returns the model and the evidence, all at `e1`.
    `fixed_zero_row`: `A` is `a0` for sure, and `E` is impossible where
    `A = a0`.  `contradictory_evidence`: `A` is fair, `E1` says `A` and `B`
    agree and `E2` that they differ, both for sure."""
    pairs = [(a, b) for a in ("a0", "a1") for b in ("b0", "b1")]
    if kind == "fixed_zero_row":
        prior = {"a0": 1.0, "a1": 0.0}
        evidence = {"E": {pair: 0.0 if pair[0] == "a0" else 0.5 for pair in pairs}}
    else:
        prior = {"a0": 0.5, "a1": 0.5}
        agree = {(a, b): float(a[1] == b[1]) for a, b in pairs}
        evidence = {"E1": agree, "E2": {pair: 1.0 - p for pair, p in agree.items()}}
    fair = {"b0": 0.5, "b1": 0.5}
    m = build_model(
        nodes=(
            NodeSpec("A", "chance", Frame(("a0", "a1"))),
            NodeSpec("B", "chance", Frame(("b0", "b1"))),
            *(NodeSpec(e, "chance", Frame(("e0", "e1"))) for e in evidence),
            NodeSpec("D1", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            ArrowSpec("A", "B", "relevance"),
            *(ArrowSpec(p, e, "relevance") for e in evidence for p in ("A", "B")),
            *(ArrowSpec(e, "D1", "informational") for e in evidence),
            ArrowSpec("B", "V", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
        ),
        cpts=(
            Cpt("A", (), {(): prior}),
            Cpt("B", ("A",), {("a0",): fair, ("a1",): fair}),
            *(
                Cpt(e, ("A", "B"), {pair: {"e0": 1.0 - p, "e1": p} for pair, p in table.items()})
                for e, table in evidence.items()
            ),
        ),
        constraints=(),
        value_table=ValueTable(
            ("B", "D1"),
            {("b0", "a"): 0.0, ("b0", "b"): 1.0, ("b1", "a"): 2.0, ("b1", "b"): 3.0},
        ),
    )
    return m, dict.fromkeys(evidence, "e1")


def _site_factors(ctx):
    """Per free variable, in `ctx.free_topological` order, the factors of its
    site: every conditional table holding a free variable whose last free
    variable in that order it is, in `ctx.factors` order."""
    order = ctx.free_topological
    sites = {v: [] for v in order}
    for sf in ctx.factors:
        held = [v for v in order if v in sf.factor.scope]
        if sf.role == "chance" and held:
            sites[held[-1]].append(sf.factor)
    return sites


def _reference_draw(weights, u):
    """The total of `weights` and an inverse-CDF draw over the positive ones:
    the first positive value whose running sum exceeds `u` times the total,
    or the last positive value when rounding leaves that product past every
    sum; value 0 where no weight is positive."""
    total = 0.0
    for w in weights:
        total += w
    target = u * total
    acc = 0.0
    last = 0
    for j, w in enumerate(weights):
        if w > 0.0:
            acc += w
            last = j
            if target < acc:
                return total, j
    return total, last


def _reference_draws(ctx, fixed, cfg):
    """(value, weight, assignment) of each draw, recomputed from the factors'
    labels.  From the start of the seed's stream, the uniforms of `burn_in`
    draws are skipped; each draw then takes one uniform per variable in
    `ctx.free_vars` order and draws every free variable, in
    `ctx.free_topological` order, from the product of its site's factors
    given the values drawn so far.  A variable is constant when its site's
    other free variables are constant and its weights have one positive
    entry.  A variable that is not, whose site holds an evidence table and
    some other free variable that is not constant either, multiplies its
    weights' total into the draw's weight, which stays None when no
    variable does.  A site's weights, and the value, are computed once per
    state of the variables their factors hold."""
    rng = np.random.default_rng(cfg.seed)
    free = ctx.free_vars
    rng.random(cfg.burn_in * len(free))
    sites = _site_factors(ctx)
    labels = {v: ctx.cpt_of(v).frame_of(v).labels for v in free}
    scopes = {var: sorted({v for f in fs for v in f.scope} - {var}) for var, fs in sites.items()}
    known: dict[tuple, list[float]] = {}
    value = functools.cache(lambda *labels: ctx.value_factor.evaluate(dict(zip(scope, labels))))
    scope = ctx.value_factor.scope
    draws = []
    for _ in range(cfg.samples):
        uniforms = dict(zip(free, rng.random(len(free)).tolist()))
        assignment, constant, weight = dict(fixed), set(), None
        for var in ctx.free_topological:
            others = {v for v in scopes[var] if v in free}
            key = (var, *(assignment[v] for v in scopes[var]))
            if key not in known:
                known[key] = []
                for label in labels[var]:
                    w = 1.0
                    for f in sites[var]:
                        w *= f.evaluate({**assignment, var: label})
                    known[key].append(w)
            weights = known[key]
            total, j = _reference_draw(weights, uniforms[var])
            assignment[var] = labels[var][j]
            if others <= constant and sum(w > 0.0 for w in weights) == 1:
                constant.add(var)
            elif len(sites[var]) > 1 and not others <= constant:
                weight = total if weight is None else weight * total
        draws.append((value(*(assignment[v] for v in scope)), weight, assignment))
    return draws


def _reference_estimate(ctx, fixed, cfg):
    """The estimate of `_reference_draws`: the mean and batch-means
    standard error of the values where no draw has a weight, else the
    weighted mean and the batch-means error of the linearized draws."""
    draws = _reference_draws(ctx, fixed, cfg)
    values = np.array([v for v, _, _ in draws])
    if draws[0][1] is None:
        return _batch_means_estimate(values)
    return _weighted_estimate(values, np.array([w for _, w, _ in draws]))


def _weighted_estimate(values, weights):
    """sum(w * V) / sum(w), with the batch-means standard error of
    w * (V - mean) / mean(w), or None where Kish's effective sample size,
    sum(w)**2 / sum(w**2), is below the 20 batches."""
    total = weights.sum()
    mean = float((weights * values).sum()) / float(total)
    linearized = weights * (values - mean) / (total / len(values))
    estimate = dataclasses.replace(_batch_means_estimate(linearized), mean=mean)
    scaled = weights / weights.max()
    if scaled.sum() ** 2 / (scaled * scaled).sum() < 20:
        return dataclasses.replace(estimate, std_error=None)
    return estimate


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


def _sites_are_full_conditionals(ctx):
    """Whether each free variable's site holds every conditional table that
    holds it, as in a cell where no table holds two free variables."""
    return all(
        factors
        == [sf.factor for sf in ctx.factors if sf.role == "chance" and var in sf.factor.scope]
        for var, factors in _site_factors(ctx).items()
    )


class TestIidCells:
    """Cells whose free variables share no probability factor: each site is
    the variable's full conditional, so every draw is an exact i.i.d. draw
    with a constant weight, and must equal a per-draw loop."""

    @pytest.mark.parametrize("kwargs", IID_CONFIGS)
    def test_wildcatter_stage2_cells_equal_reference(self, wildcatter, stage2, kwargs):
        assert _sites_are_full_conditionals(stage2)
        deps = sorted(stage2.dependency_set)
        compared = 0
        for idx, cfg in enumerate(iter_configs(deps, wildcatter.frames)):
            fixed = dict(zip(deps, cfg))
            for alt in wildcatter.admissible(stage2.decision, fixed):
                fixed[stage2.decision] = alt
                sampler = SamplerConfig(seed=1000 + idx, **kwargs)
                (est,) = estimate_expectation(stage2, [fixed], stage2.value_factor, sampler)
                if not _has_positive_state(stage2, fixed):
                    assert est is None
                    continue
                assert est == _reference_estimate(stage2, fixed, sampler), fixed
                compared += 1
        assert compared == 18

    @pytest.mark.parametrize("kwargs", IID_CONFIGS)
    def test_zero_weight_cell_equals_reference(self, kwargs):
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
        assert ctx.free_vars == ("X", "Y") and _sites_are_full_conditionals(ctx)
        sampler = SamplerConfig(seed=11, **kwargs)
        (est,) = estimate_expectation(ctx, [{"D1": "b"}], ctx.value_factor, sampler)
        assert est == _reference_estimate(ctx, {"D1": "b"}, sampler)


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


COUPLED_CONFIGS = [
    pytest.param({"burn_in": 100, "samples": 900}, id="default"),
    pytest.param({"burn_in": 37, "samples": 901}, id="uneven"),
]


def _point_mass_model(seed):
    """Random model `seed` (1-3 decisions) with point masses in its rows."""
    m = random_model(seed + 7000, n_chance=(1, 5), n_decisions=(1, 3))
    return with_point_masses(m, np.random.default_rng(seed))


class TestCoupledCells:
    """Coupled cells with evidence, among them cells whose draws are
    weighted, and weigh zero where a site's row has no positive weight:
    every estimate must equal the per-draw loop's."""

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    @pytest.mark.parametrize(
        "seed, count, weighted, zero",
        # cells, cells with weighted draws, cells with a weight-zero draw
        [pytest.param(s, n, w, z, id=f"point_masses_{s}") for s, n, w, z in
         [(33, 4, 4, 4), (107, 4, 4, 0), (127, 15, 0, 0), (138, 6, 0, 0), (196, 2, 2, 1),
          (325, 3, 3, 2), (426, 2, 2, 0)]],
    )
    def test_equals_reference_draws(self, seed, count, weighted, zero, kwargs):
        cells = [
            (ctx, fixed)
            for ctx, fixed in _stage_cells(_point_mass_model(seed))
            if _is_coupled(ctx) and _has_evidence(ctx) and _has_positive_state(ctx, fixed)
        ]
        assert len(cells) == count
        kinds = collections.Counter()
        for cell_seed, (ctx, fixed) in enumerate(cells):
            sampler = SamplerConfig(seed=cell_seed, **kwargs)
            (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
            draws = _reference_draws(ctx, fixed, sampler)
            assert est == _reference_estimate(ctx, fixed, sampler), (ctx.stage, fixed)
            kinds["weighted" if draws[0][1] is not None else "constant"] += 1
            kinds["zero"] += any(w == 0.0 for _, w, _ in draws)
        assert (kinds["weighted"], kinds["zero"]) == (weighted, zero)


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
    """The number of draws in each block `_blocks` makes."""
    return [len(uniforms) for uniforms in _blocks(np.random.default_rng(0), cfg, n_free)]


class TestAncestralCells:
    """Coupled cells without evidence draw by logic sampling, a block at a
    time; the result must equal a per-draw loop."""

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_equal_reference(self, name, kwargs):
        cells = [c for c in _stage_cells(load_bundled(name)) if _is_coupled(c[0])]
        assert [ctx.stage for ctx, _ in cells] == [1] * 6 + [0]
        for seed, (ctx, fixed) in enumerate(cells):
            assert not _has_evidence(ctx)
            sampler = SamplerConfig(seed=seed, **kwargs)
            (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
            assert est == _reference_estimate(ctx, fixed, sampler), (ctx.stage, fixed)

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_generated_equal_reference(self, kwargs):
        compared = 0
        for seed in range(24):
            for ctx, fixed in _stage_cells(_point_mass_model(seed)):
                if not _is_coupled(ctx) or _has_evidence(ctx):
                    continue
                sampler = SamplerConfig(seed=seed, **kwargs)
                (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
                expected = _reference_estimate(ctx, fixed, sampler)
                assert est == expected, (seed, ctx.stage, fixed)
                compared += 1
        assert compared == 46

    @pytest.mark.parametrize("kwargs", COUPLED_CONFIGS)
    def test_child_listed_first_equals_reference(self, kwargs):
        ctx = terminal_stage_context(_child_listed_first())
        assert ctx.free_vars == ("Y", "X") and ctx.free_topological == ("X", "Y")
        sampler = SamplerConfig(seed=5, **kwargs)
        (est,) = estimate_expectation(ctx, [{}], ctx.value_factor, sampler)
        assert est == _reference_estimate(ctx, {}, sampler)

    @pytest.mark.parametrize(
        "name, blocks",
        [("wildcatter_irid", 5), ("wildcatter_deterministic_workaround", 5)],
    )
    def test_multi_block_terminal_equals_reference(self, name, blocks, monkeypatch):
        """The draws span several of the blocks `_blocks` makes, the last one
        short."""
        monkeypatch.setattr(gibbs, "_BLOCK_DRAWS", 4096)
        ctx, fixed = _stage_cells(load_bundled(name))[-1]
        sampler = SamplerConfig(seed=9, burn_in=16000, samples=20001)
        sizes = _block_sizes(sampler, len(ctx.free_vars))
        assert len(sizes) == blocks and sizes[-1] < sizes[0]
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert est == _reference_estimate(ctx, fixed, sampler)

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
        ((kept, weights),) = _block_draws([cell], Ones(), sampler)
        assert kept.tolist() == [12.0] * 40  # X = x1, Y = y2
        assert weights is None

    @pytest.mark.parametrize("seed", range(8))
    def test_wildcatter_terminal_value_within_4_se(self, wildcatter, seed):
        ctx, fixed = _stage_cells(wildcatter)[-1]
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, SamplerConfig(seed=seed))
        assert abs(est.mean - 334750.0) <= 4 * est.std_error


class TestBlockRows:
    """The blocks of `_blocks` hold exactly the draws after the burn-in."""

    def test_blocks_keep_every_sweep_after_the_burn_in(self, monkeypatch):
        for burn, samples, cap, n_free in itertools.product(
            (0, 1, 5, 37, 64), (1, 20, 129), (1, 2, 7, 64), (0, 2)
        ):
            monkeypatch.setattr(gibbs, "_BLOCK_DRAWS", cap)
            cfg = SamplerConfig(seed=3, burn_in=burn, samples=samples)
            rng = np.random.default_rng(cfg.seed)
            blocks = np.concatenate(list(_blocks(rng, cfg, n_free)))
            stream = np.random.default_rng(cfg.seed).random((burn + samples) * n_free)
            assert blocks.shape == (samples, n_free)
            assert np.array_equal(blocks.ravel(), stream[burn * n_free :]), (burn, samples, cap)
            # a cell without free variables spends no uniform
            after = np.random.default_rng(cfg.seed).random((burn + samples) * n_free + 1)[-1]
            assert rng.random() == after


def _is_weighted(ctx, fixed):
    """Whether the cell's draws carry weights (`_reference_draws`)."""
    sampler = SamplerConfig(seed=0, burn_in=0, samples=1)
    return _reference_draws(ctx, fixed, sampler)[0][1] is not None


def _invariance_cell(kind):
    """A positive cell of each kind of draw: i.i.d., logic sampling (two
    of them, stage 1 and the terminal value) and weighted."""
    if kind == "weighted":
        return next(
            (ctx, fixed)
            for ctx, fixed in _stage_cells(_point_mass_model(33))
            if _has_positive_state(ctx, fixed) and _is_weighted(ctx, fixed)
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
    cap on a block's draws changes no estimate, on any kind of draw."""

    CAPS = (1, 7, 64, 8192, 65536)

    @pytest.mark.parametrize("kind", ["iid", "logic_sampling", "terminal", "weighted"])
    def test_estimate_ignores_the_sweep_cap(self, monkeypatch, kind):
        ctx, fixed = _invariance_cell(kind)
        kinds = (_sites_are_full_conditionals(ctx), _has_evidence(ctx), _is_weighted(ctx, fixed))
        assert kinds == {
            "iid": (True, True, False),
            "logic_sampling": (False, False, False),
            "terminal": (False, False, False),
            "weighted": (False, True, True),
        }[kind]
        # more draws than the 8 192 cap, and a burn-in that is not a
        # multiple of any cap above 1
        sampler = SamplerConfig(seed=4, burn_in=6001, samples=8301)
        estimates, block_counts = [], []
        for cap in self.CAPS:
            monkeypatch.setattr(gibbs, "_BLOCK_DRAWS", cap)
            block_counts.append(len(_block_sizes(sampler, len(ctx.free_vars))))
            estimates += estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert block_counts == sorted(set(block_counts), reverse=True)
        assert estimates == [estimates[0]] * len(self.CAPS)


def _drawn_estimate(ctx, fixed, cfg):
    """The estimate `_block_draws` gives, drawn from the start of the seed's
    stream without the checks for empty cells."""
    cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
    ((values, weights),) = _block_draws([cell], np.random.default_rng(cfg.seed), cfg)
    if weights is None:
        return _batch_means_estimate(values)
    return _weighted_estimate(values, weights)


class TestEmptyCells:
    """`estimate_expectation` gives no estimate before drawing a uniform
    only where no state of the cell has a positive product; every other
    cell draws what `_block_draws` draws alone."""

    def test_early_exit_is_exact(self):
        counts = collections.Counter()
        for source in [*BUNDLED, *range(200)]:
            for index, (ctx, fixed) in enumerate(_stage_cells(certificate_model(source))):
                cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
                sampler = SamplerConfig(seed=index, burn_in=10, samples=200)
                if not _has_positive_state(ctx, fixed):
                    assert estimate_expectation(ctx, [fixed], ctx.value_factor, sampler) == [None]
                    counts["early" if cell.certainly_empty() else "late"] += 1
                    continue
                assert not cell.certainly_empty(), (source, ctx.stage, fixed)
                (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
                assert est == _drawn_estimate(ctx, fixed, sampler), (source, ctx.stage, fixed)
                counts["positive"] += 1
        # every empty cell here exits before drawing, among them a coupled
        # cell with evidence (`certificate_model(141)`, stage 2) whose factor
        # over its free `C0` alone is zero at both values of `C0`
        assert counts == {"early": 70, "positive": 2002}


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


class TestSupportSearch:
    """Where every draw of a configuration weighs zero,
    `_CompiledCell.has_positive_state` searches its states, at most
    `irid.model.MAX_CONFIGS` (10**7) of them: a positive one raises
    AllZeroSupport, and without one the configuration has no estimate.
    Draws that are all constant need no search, however many states."""

    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_constant_draws_need_no_search(self, n):
        """The one positive state of `_evidence_chain(n)` is all `x1`: each
        site's row is fixed to it, so every slot is constant."""
        ctx, fixed = _evidence_chain(n)
        assert _CompiledCell(ctx, fixed, ctx.value_factor).plan == (dict.fromkeys(range(n), 1), [])
        for sampler in (SamplerConfig(seed=0, burn_in=0, samples=1), SamplerConfig(seed=0)):
            (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
            assert est.mean == 2.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("block_uniforms", [65536, 3])
    def test_search_matches_a_state_by_state_search(self, block_uniforms, monkeypatch):
        """In chunks of one state or of all, on every cell of the bundled
        models and of models with point masses, some of them empty and some
        positive only past their first state, and on a cell whose last
        state is its one positive state."""
        monkeypatch.setattr(gibbs, "_BLOCK_UNIFORMS", block_uniforms)
        found = collections.Counter()
        for source in [*BUNDLED, *range(0, 90, 3)]:
            for ctx, fixed in _stage_cells(certificate_model(source)):
                cell = _CompiledCell(ctx, fixed, ctx.value_factor)
                positive = _positive_states(ctx, fixed)
                assert cell.has_positive_state() == any(positive), (source, ctx.stage, fixed)
                found["empty" if not any(positive) else "first" if positive[0] else "later"] += 1
        assert found == {"first": 287, "later": 68, "empty": 69}
        ctx, fixed = _all_roots_evidence(8)
        assert _positive_states(ctx, fixed).index(True) == 2**8 - 1
        assert _CompiledCell(ctx, fixed, ctx.value_factor).has_positive_state()

    def test_a_positive_cell_without_a_positive_draw_raises(self):
        """Evidence positive only where 16 fair roots are all `x1`: the one
        draw misses it, weighs zero and leaves nothing to average, but the
        search finds that state."""
        ctx, fixed = _all_roots_evidence(16)
        assert _CompiledCell(ctx, fixed, ctx.value_factor).has_positive_state()
        sampler = SamplerConfig(seed=0, burn_in=0, samples=1)
        with pytest.raises(AllZeroSupport):
            estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)

    def test_search_beyond_the_budget_raises(self):
        """The same evidence, with a chain of 8 more free variables below
        `X0`: the draw weighs zero, and the search would visit 2^24 states."""
        ctx, fixed = _all_roots_evidence(16, tail=8)
        sampler = SamplerConfig(seed=0, burn_in=0, samples=1)
        with pytest.raises(BudgetExceeded):
            estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)


def _all_roots_evidence(n, skip=0, tail=0):
    """A stage whose `n` fair free roots `X0..X{n-1}` all bear on `E`,
    observed at `e1`, which is possible only where every root but the first
    `skip` is `x1`; the value reads `X0`, or the last of a chain of `tail`
    fair free variables `Y0..` below it."""
    xs = [f"X{i}" for i in range(n)]
    ys = [f"Y{i}" for i in range(tail)]
    frame = Frame(("x0", "x1"))
    rows = {
        labels: {"e0": 0.0, "e1": 1.0} if set(labels[skip:]) == {"x1"} else {"e0": 1.0, "e1": 0.0}
        for labels in itertools.product(frame.labels, repeat=n)
    }
    fair = {"x0": 0.5, "x1": 0.5}
    read = [xs[0], *ys][-1]
    m = build_model(
        nodes=(
            *(NodeSpec(x, "chance", frame) for x in xs),
            *(NodeSpec(y, "chance", frame) for y in ys),
            NodeSpec("E", "chance", Frame(("e0", "e1"))),
            NodeSpec("D1", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            *(ArrowSpec(x, "E", "relevance") for x in xs),
            *(ArrowSpec(a, b, "relevance") for a, b in zip([xs[0], *ys], ys)),
            ArrowSpec("E", "D1", "informational"),
            ArrowSpec(read, "V", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
        ),
        cpts=(
            *(Cpt(x, (), {(): fair}) for x in xs),
            *(Cpt(y, (a,), {("x0",): fair, ("x1",): fair}) for a, y in zip([xs[0], *ys], ys)),
            Cpt("E", tuple(xs), rows),
        ),
        constraints=(),
        value_table=ValueTable(
            (read, "D1"),
            {("x0", "a"): 0.0, ("x0", "b"): 1.0, ("x1", "a"): 2.0, ("x1", "b"): 3.0},
        ),
    )
    ctx = build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)
    assert ctx.free_vars == (*xs, *ys)
    return ctx, {"E": "e1", "D1": "a"}


def _impossible_evidence_stage():
    """The stage of a decision that observes `E`, which reads the free `X`
    and `Y`, with `X -> Y`: `E = e1` is impossible where `X = x0`.  `Y`
    closes `E`, so its row given `X = x0` has no positive weight and a draw
    with `X = x0` weighs zero, while one with `X = x1` weighs the row's
    total, 0.3125."""
    m = build_model(
        nodes=(
            NodeSpec("X", "chance", Frame(("x0", "x1"))),
            NodeSpec("Y", "chance", Frame(("y0", "y1"))),
            NodeSpec("E", "chance", Frame(("e0", "e1"))),
            NodeSpec("D1", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            ArrowSpec("X", "Y", "relevance"),
            ArrowSpec("X", "E", "relevance"),
            ArrowSpec("Y", "E", "relevance"),
            ArrowSpec("E", "D1", "informational"),
            ArrowSpec("X", "V", "relevance"),
            ArrowSpec("Y", "V", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
        ),
        cpts=(
            Cpt("X", (), {(): {"x0": 0.5, "x1": 0.5}}),
            Cpt("Y", ("X",), {("x0",): {"y0": 0.5, "y1": 0.5}, ("x1",): {"y0": 0.25, "y1": 0.75}}),
            Cpt(
                "E",
                ("X", "Y"),
                {
                    ("x0", "y0"): {"e0": 1.0, "e1": 0.0},
                    ("x0", "y1"): {"e0": 1.0, "e1": 0.0},
                    ("x1", "y0"): {"e0": 0.5, "e1": 0.5},
                    ("x1", "y1"): {"e0": 0.75, "e1": 0.25},
                },
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
    assert ctx.free_vars == ("X", "Y")
    return ctx, {"E": "e1", "D1": "a"}


class TestWeightedDraws:
    def test_an_impossible_evidence_row_weighs_zero(self):
        ctx, fixed = _impossible_evidence_stage()
        sampler = SamplerConfig(seed=3, burn_in=5, samples=2000)
        states, weights = _drawn_states(ctx, fixed, sampler)
        assert set(weights[states[:, 0] == 0].tolist()) == {0.0}
        assert set(weights[states[:, 0] == 1].tolist()) == {0.3125}
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert est == _reference_estimate(ctx, fixed, sampler)
        # given E = e1, X = x1 and Y = y1 with probability 0.6: V = 1 + 2 * 0.6
        assert abs(est.mean - 2.2) <= 4 * est.std_error

    def test_a_site_of_2_to_the_30_rows_builds_only_the_rows_it_reads(self):
        ctx, fixed, exact = _shared_sensor_stage(30)
        cell = _CompiledCell(ctx, fixed, ctx.value_factor)
        (table,) = [table for slot, _, table in cell.draw if cell.free[slot] == "X"]
        assert table.rows == 2**30
        sampler = SamplerConfig(seed=0)
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert 0 < len(table) <= sampler.samples
        assert abs(est.mean - exact) <= 4 * est.std_error
        # the rows a block builds are those a whole table holds
        small = _shared_sensor_stage(6)
        for cap in (8192, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gibbs, "_BLOCK_DRAWS", cap)
                (est,) = estimate_expectation(small[0], [small[1]], small[0].value_factor, sampler)
            assert est == _reference_estimate(small[0], small[1], sampler)

    def test_one_draw_of_positive_weight_has_no_standard_error(self):
        """Evidence met only where `X1..X7` are all `x1`, and `X7` closes
        it, so a draw meets it where `X1..X6` are, one in 64: with one such
        draw the weighted mean is that draw's value, and the linearized
        draws are all zero, although `X0`, which the value reads, is fair
        given the evidence."""
        ctx, fixed = _all_roots_evidence(8, skip=1)
        sampler = SamplerConfig(seed=4, burn_in=0, samples=64)
        _, weights = _drawn_states(ctx, fixed, sampler)
        assert (weights > 0.0).sum() == 1
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
        assert est == _reference_estimate(ctx, fixed, sampler)
        assert est.mean in (0.0, 2.0) and est.std_error is None
        # at the default run length the draws meet the evidence often
        (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, SamplerConfig(seed=4))
        assert abs(est.mean - 1.0) <= 4 * est.std_error


def _shared_sensor_stage(k):
    """A stage whose decision observes sensors `E1..E{k}`, each reading its
    fair reliability root `R{i}` and the hidden `X`, listed after them, so
    `X` closes every sensor's table and its site has 2^k rows; and the
    exact expectation of `V`, 2 where `X = x1` and 0 where `X = x0`.  A
    reliable sensor reads `e1` with probability 0.6 where `X = x1` and 0.4
    where `X = x0`, an unreliable one with 0.5."""
    rs = [f"R{i}" for i in range(1, k + 1)]
    es = [f"E{i}" for i in range(1, k + 1)]
    sensor = {
        ("r0", "x0"): {"e0": 0.5, "e1": 0.5},
        ("r0", "x1"): {"e0": 0.5, "e1": 0.5},
        ("r1", "x0"): {"e0": 0.6, "e1": 0.4},
        ("r1", "x1"): {"e0": 0.4, "e1": 0.6},
    }
    m = build_model(
        nodes=(
            *(NodeSpec(r, "chance", Frame(("r0", "r1"))) for r in rs),
            NodeSpec("X", "chance", Frame(("x0", "x1"))),
            *(NodeSpec(e, "chance", Frame(("e0", "e1"))) for e in es),
            NodeSpec("D1", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            *(ArrowSpec(p, e, "relevance") for r, e in zip(rs, es) for p in (r, "X")),
            *(ArrowSpec(e, "D1", "informational") for e in es),
            ArrowSpec("X", "V", "relevance"),
            ArrowSpec("D1", "V", "relevance"),
        ),
        cpts=(
            *(Cpt(r, (), {(): {"r0": 0.5, "r1": 0.5}}) for r in rs),
            Cpt("X", (), {(): {"x0": 0.75, "x1": 0.25}}),
            *(Cpt(e, (r, "X"), sensor) for r, e in zip(rs, es)),
        ),
        constraints=(),
        value_table=ValueTable(
            ("X", "D1"),
            {("x0", "a"): 0.0, ("x0", "b"): 1.0, ("x1", "a"): 2.0, ("x1", "b"): 3.0},
        ),
    )
    ctx = build_stage_context(m, compute_partition(m), moralize(relevance_subgraph(m)), 1)
    assert set(ctx.free_vars) == {*rs, "X"} and ctx.free_topological[-1] == "X"
    # each sensor reads e1 with probability 0.5 * 0.5 + 0.5 * q(x)
    joint = {
        x: prior * (0.25 + 0.5 * q) ** k for x, prior, q in (("x0", 0.75, 0.4), ("x1", 0.25, 0.6))
    }
    exact = 2.0 * joint["x1"] / (joint["x0"] + joint["x1"])
    return ctx, {**dict.fromkeys(es, "e1"), "D1": "a"}, exact


CERTIFICATE_FAMILIES = {
    "certificate": lambda: map(certificate_model, range(300)),
    "point_masses": lambda: map(_point_mass_model, range(200)),
    "multisite": lambda: (multisite_model(k, np.random.default_rng(k)) for k in (2, 3, 4)),
}


class TestEvidenceCertificate:
    """Every positive cell of a coupled stage with evidence, which the
    single-site chain drew before the one draw rule, in the exact solves of
    three families: at two seeds, each estimate lies within 4 standard
    errors, plus 1e-9 relative, of the exact stage expectation.  (The chain
    reported wrong values, most with a standard error of 0, on point-mass
    models 47 and 140.)"""

    @pytest.mark.parametrize(
        "family, count", [("certificate", 92), ("point_masses", 78), ("multisite", 176)]
    )
    def test_estimates_cover_the_exact_values(self, family, count):
        cells = 0
        for index, model in enumerate(CERTIFICATE_FAMILIES[family]()):
            for ctx, fixed in _stage_cells(model):
                if not (_is_coupled(ctx) and _has_evidence(ctx)):
                    continue
                try:
                    exact = exact_stage_expectation(ctx, fixed)
                except ZeroNormalizer:
                    continue
                cells += 1
                for seed in (0, 1):
                    sampler = SamplerConfig(seed=seed, burn_in=500, samples=5000)
                    (est,) = estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)
                    assert est.std_error is not None, (index, ctx.stage, fixed, seed)
                    assert abs(est.mean - exact) <= 4 * est.std_error + 1e-9 * abs(exact), (
                        index, ctx.stage, fixed, seed, est, exact
                    )
        assert cells == count


def _probed_states(cell, sites, cfg):
    """The states the positivity check of `_block_draws` reads, every 64th
    from the first, drawn one at a time through `sites` with the uniforms of
    `default_rng(cfg.seed)` after the burn-in's."""
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
    """`_block_draws` checks that every 64th draw has a positive product of
    the probability factors exactly where it has a positive weight.  With
    one entry of one factor zeroed in a private copy of the cell's factor,
    it must raise exactly when a checked draw of positive weight reads that
    entry; a checked draw of weight zero reads a zero product already."""

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
            pytest.param(
                "impossible_evidence",
                1,
                SamplerConfig(seed=3, burn_in=5, samples=641),
                1,
                id="weighted_with_zeros",
            ),
        ],
    )
    def test_raises_iff_a_checked_draw_reads_a_zero(
        self, name, stage, sampler, blocks, monkeypatch
    ):
        monkeypatch.setattr(gibbs, "_BLOCK_DRAWS", 4096)
        if name == "impossible_evidence":
            ctx, fixed = _impossible_evidence_stage()
        else:
            ctx, fixed = next(
                (ctx, fixed)
                for ctx, fixed in _stage_cells(load_bundled(name))
                if ctx.stage == stage and _has_positive_state(ctx, fixed)
            )
        assert _is_coupled(ctx) == (stage < 2)
        assert len(_block_sizes(sampler, len(ctx.free_vars))) == blocks
        cell = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
        probed = _probed_states(cell, cell.draw, sampler)
        # the unchanged cell passes the check, zero weights included
        ((_, weights),) = _block_draws([cell], np.random.default_rng(sampler.seed), sampler)
        weights = np.ones(len(probed)) if weights is None else weights[::64]
        assert (weights == 0.0).any() == (name == "impossible_evidence")
        outcomes = collections.Counter()
        for index, factor in enumerate(cell.prob_factors):
            offsets = {
                factor.base + sum(stride * state[slot] for slot, stride in factor.free_pairs)
                for state in itertools.product(*(range(n) for n in cell.sizes))
            }
            for off in sorted(o for o in offsets if factor.flat[o] > 0.0):
                zeroed = _CompiledCell(ctx, fixed, value_factor=ctx.value_factor)
                # its tables bound before the zero: they hold the true rows
                zeroed.draw
                # zeroed in a private copy: the cell's factors share their
                # tables with every cell of the stage
                cf = copy.copy(zeroed.prob_factors[index])
                cf.flat = [0.0 if o == off else w for o, w in enumerate(cf.flat)]
                cf.array = np.array(cf.flat)
                zeroed.prob_factors[index] = cf
                assert factor.flat[off] > 0.0
                reads = any(
                    cf.base + sum(stride * st[slot] for slot, stride in cf.free_pairs) == off
                    for st, w in zip(probed, weights)
                    if w > 0.0
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

    @pytest.mark.parametrize("source", [*BUNDLED, "shared_table", 0, 127, 107])
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
                drawn = [fixed for fixed, est in zip(alternatives, shared) if est is not None]
                if len(drawn) > 1:
                    if any(_is_weighted(ctx, fixed) for fixed in drawn):
                        shared_draws["weighted"] += 1
                    else:
                        shared_draws["evidence" if _has_evidence(ctx) else "plain"] += 1
        # bundled cells draw together without evidence, generated ones with
        # evidence, and point masses 107 with weights
        expected = {0: "evidence", 127: "evidence", 107: "weighted"}.get(source, "plain")
        assert shared_draws[expected] > 0

    @pytest.mark.parametrize("kind", ["rare_evidence", "evidence_chain"])
    def test_every_configuration_draws_from_the_start(self, kind):
        """Configurations of rare or certain evidence, whose draws are
        constant in some slots and not in others: each draws from the start
        of the seed's stream, as `_block_draws` does alone, and equals its
        estimate alone."""
        if kind == "rare_evidence":
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
        shared = estimate_expectation(ctx, configs, ctx.value_factor, sampler)
        assert shared == [_drawn_estimate(ctx, fixed, sampler) for fixed in configs]
        assert shared == [
            estimate_expectation(ctx, [fixed], ctx.value_factor, sampler)[0] for fixed in configs
        ]


def _total_variation(ctx, fixed, sampler):
    """The total variation distance between the weighted shares of the
    draws and the normalized product of the probability factors over the
    cell's states."""
    frames = [ctx.cpt_of(v).frame_of(v).labels for v in ctx.free_vars]
    target = {}
    for labels in itertools.product(*frames):
        assignment = {**fixed, **dict(zip(ctx.free_vars, labels))}
        w = 1.0
        for f in ctx.probability_factors:
            w *= f.evaluate(assignment)
        target[labels] = w
    z = sum(target.values())
    shares = _shares(ctx, fixed, sampler)
    assert set(shares) <= {labels for labels, w in target.items() if w > 0.0}
    return 0.5 * sum(abs(shares.get(labels, 0.0) - w / z) for labels, w in target.items())


class TestKernelInvariance:
    """Weighted state frequencies match the normalized factor product."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_variation_small(self, seed):
        model = random_model(seed + 40, n_chance=(2, 3), n_decisions=(0, 0))
        ctx = terminal_stage_context(model)
        if not ctx.free_vars:
            pytest.skip("degenerate draw")
        assert _total_variation(ctx, {}, SamplerConfig(seed=seed, samples=100_000)) <= 0.02

    def test_weighted_cells_total_variation_small(self):
        cells = [
            (ctx, fixed)
            for source in (33, 107, 196, 325)
            for ctx, fixed in _stage_cells(_point_mass_model(source))
            if _has_positive_state(ctx, fixed) and _is_weighted(ctx, fixed)
        ]
        assert len(cells) == 13
        for seed, (ctx, fixed) in enumerate(cells):
            sampler = SamplerConfig(seed=seed, samples=100_000)
            assert _total_variation(ctx, fixed, sampler) <= 0.02, (ctx.stage, fixed)
