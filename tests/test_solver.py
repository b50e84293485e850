import itertools
import json

import numpy as np
import pytest

import irid.gibbs
from irid.data import BUNDLED, load_bundled
from irid.errors import InvalidModel, StageOutOfRange
from irid.gibbs import SamplerConfig, estimate_expectation
from irid.graph_ops import StageContext, absorb_decision, terminal_stage_context
from irid.model import (
    ArrowSpec,
    Cpt,
    Frame,
    NodeSpec,
    ValueTable,
    build_model,
)
from irid.modelfile import serialize_solution
from irid.oracle import exact_expectation, exact_stage_expectation, exhaustive_policy_search
from irid.solver import SolveOptions, solve

from model_gen import (
    chain_model,
    chain_tables,
    multisite_model,
    random_model,
    with_point_masses,
)

# backward induction on the budget-constrained wildcatter, done by hand:
# test2 is worth buying only with the big budget; with the small one the
# opportunity-loss payoffs make drilling untested the best move
WILDCATTER_EV = 334750.0
WILDCATTER_T = {("$1M",): "nt", ("$2M",): "t2"}
WILDCATTER_D = {
    ("$1M", "t1", "o"): "d",
    ("$1M", "t1", "c"): "d",
    ("$1M", "t1", "nr"): "d",
    ("$1M", "t2", "o"): "nd",
    ("$1M", "t2", "c"): "nd",
    ("$1M", "t2", "nr"): "nd",
    ("$1M", "nt", "o"): "d",
    ("$1M", "nt", "c"): "d",
    ("$1M", "nt", "nr"): "d",
    ("$2M", "t1", "o"): "d",
    ("$2M", "t1", "c"): "d",
    ("$2M", "t1", "nr"): "d",
    ("$2M", "t2", "o"): "nd",
    ("$2M", "t2", "c"): "d",
    ("$2M", "t2", "nr"): "d",
    ("$2M", "nt", "o"): "d",
    ("$2M", "nt", "c"): "d",
    ("$2M", "nt", "nr"): "d",
}


class TestSolveExact:
    def test_wildcatter_optimum(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        assert sol.expected_value == WILDCATTER_EV
        assert sol.policies["T"].table == WILDCATTER_T
        assert sol.policies["D"].table == WILDCATTER_D

    def test_alternate_test_accuracy_variant(self):
        # with the advanced test misreading dry wells a bit less often, the
        # big-budget plan is unchanged and the optimum drops to 325,250
        from irid.data import load_bundled

        m = load_bundled("wildcatter_irid_alt_probs")
        sol = solve(m, SolveOptions(backend="exact"))
        assert sol.expected_value == 325250.0
        assert sol.policies["T"].table == WILDCATTER_T

    def test_plain_payoff_variant(self):
        # without the opportunity-loss convention the cheap test becomes
        # worthwhile on the small budget
        from irid.data import load_bundled

        m = load_bundled("wildcatter_irid_payoff_values")
        sol = solve(m, SolveOptions(backend="exact"))
        assert sol.expected_value == 447750.0
        assert sol.policies["T"].table == {("$1M",): "t1", ("$2M",): "t2"}

    def test_matches_exhaustive_search(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        policies, value = exhaustive_policy_search(wildcatter)
        assert abs(sol.expected_value - value) <= 1e-9
        for d in wildcatter.decisions:
            assert sol.policies[d].table == policies[d].table

    def test_constraint_respected_everywhere(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        for d, pol in sol.policies.items():
            for cfg, alt in pol.table.items():
                allowed = wildcatter.admissible(d, dict(zip(pol.scope, cfg)))
                assert alt in allowed

    def test_budget_constraint_forces_not_drilling(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        for r in ("o", "c", "nr"):
            assert sol.policies["D"].table[("$1M", "t2", r)] == "nd"

    def test_single_decision_collapses_to_argmax(self, minimal_model):
        sol = solve(minimal_model, SolveOptions(backend="exact"))
        assert sol.expected_value == 1.0
        assert sol.policies["D"].table == {(): "d"}

    def test_zero_probability_cells_flagged(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        flagged = {
            d.config
            for d in sol.per_cell_diagnostics
            if d.stage == 2 and d.zero_probability
        }
        assert flagged  # e.g. a result without a test
        for cfg in flagged:
            m = dict(cfg)
            assert (m["T"] == "nt") != (m["R"] == "nr")
        for d in sol.per_cell_diagnostics:
            if d.zero_probability:
                assert d.value is None

    def test_diagnostics_cover_admissible_alternatives_only(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        for d in sol.per_cell_diagnostics:
            if d.stage == 2:
                cfg = dict(d.config)
                allowed = wildcatter.admissible("D", cfg)
                assert d.alternative in allowed

    def test_objective_override(self, minimal_model):
        sol = solve(
            minimal_model,
            SolveOptions(backend="exact", objective_override="minimize"),
        )
        assert sol.policies["D"].table == {(): "nd"}
        assert sol.expected_value == 0.0


class TestInformationalNullity:
    def test_budget_changes_nothing_when_informational(self, wildcatter_info_only):
        m = wildcatter_info_only
        sol = solve(m, SolveOptions(backend="exact"))

        # same model with the budget variable dropped entirely
        nodes = tuple(n for n in m.nodes if n.id != "B")
        arrows = tuple(a for a in m.arrows if "B" not in (a.source, a.target))
        cpts = tuple(c for c in m.cpts if c.child != "B")
        reduced = build_model(nodes, arrows, cpts, m.constraints, m.value, m.objective)
        sol_reduced = solve(reduced, SolveOptions(backend="exact"))

        assert sol.expected_value == pytest.approx(sol_reduced.expected_value, abs=1e-9)
        for b in m.frame("B").labels:
            assert sol.policies["T"].table[(b,)] == sol_reduced.policies["T"].table[()]
            for t in m.frame("T").labels:
                for r in m.frame("R").labels:
                    assert (
                        sol.policies["D"].table[(b, t, r)]
                        == sol_reduced.policies["D"].table[(t, r)]
                    )


def stage2_cell(solution, **config):
    """{alternative: (value, chosen)} of the stage-2 cell at `config`."""
    return {
        d.alternative: (d.value, d.chosen)
        for d in solution.per_cell_diagnostics
        if d.stage == 2 and dict(d.config) == config
    }


class TestOptimizeCell:
    """The per-cell choice, read from a solve's diagnostics."""

    def test_forced_cell_skips_inadmissible(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        cell = stage2_cell(sol, B="$1M", T="t2", R="c")
        assert list(cell) == ["nd"]
        value, chosen = cell["nd"]
        assert chosen
        assert value is not None

    def test_drilling_beats_not_drilling_untested(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        cell = stage2_cell(sol, B="$2M", T="nt", R="nr")
        assert cell["d"] == (250000.0, True)

    def test_minimize_direction(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact", objective_override="minimize"))
        cell = stage2_cell(sol, B="$2M", T="nt", R="nr")
        assert cell["nd"] == (-1200000.0, True)

    def test_exact_tie_breaks_to_frame_order(self):
        m = build_model(
            nodes=(
                NodeSpec("D1", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("D1", "V", "relevance"),),
            cpts=(),
            constraints=(),
            value_table=ValueTable(("D1",), {("a",): 5.0, ("b",): 5.0}),
        )
        sol = solve(m, SolveOptions(backend="exact"))
        assert sol.policies["D1"].table == {(): "a"}

    @pytest.mark.parametrize("objective", ["maximize", "minimize"])
    def test_designed_tie_over_free_variables_breaks_to_frame_order(self, objective):
        # a and b give X1 the same non-dyadic row in every cell and V the same
        # row, so their values tie by construction; X1 and X2 are summed out
        three = Frame(("x0", "x1", "x2"))
        x1_rows = {"c0": [0.1, 0.6, 0.3], "c1": [0.7, 0.2, 0.1]}
        x1_rows = {(c, d): dict(zip(three.labels, p)) for c, p in x1_rows.items()
                   for d in ("a", "b")}
        x2_rows = [[0.2, 0.5, 0.3], [0.9, 0.05, 0.05], [1 / 3, 1 / 3, 1 / 3]]
        v_row = [1.1, -7.3, 3.7]
        m = build_model(
            nodes=(
                NodeSpec("C0", "chance", Frame(("c0", "c1"))),
                NodeSpec("D", "decision", Frame(("a", "b"))),
                NodeSpec("X1", "chance", three),
                NodeSpec("X2", "chance", three),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("C0", "D", "informational"),
                ArrowSpec("C0", "X1", "relevance"),
                ArrowSpec("D", "X1", "relevance"),
                ArrowSpec("X1", "X2", "relevance"),
                ArrowSpec("D", "V", "relevance"),
                ArrowSpec("X2", "V", "relevance"),
            ),
            cpts=(
                Cpt("C0", (), {(): {"c0": 0.3, "c1": 0.7}}),
                Cpt("X1", ("C0", "D"), x1_rows),
                Cpt("X2", ("X1",), {
                    (x,): dict(zip(three.labels, p)) for x, p in zip(three.labels, x2_rows)
                }),
            ),
            constraints=(),
            value_table=ValueTable(("D", "X2"), {
                (d, x): v for d in ("a", "b") for x, v in zip(three.labels, v_row)
            }),
            objective=objective,
        )
        sol = solve(m, SolveOptions(backend="exact"))
        assert sol.policies["D"].table == {("c0",): "a", ("c1",): "a"}
        value = {(d.config, d.alternative): d.value for d in sol.per_cell_diagnostics}
        for c in ("c0", "c1"):
            assert value[((("C0", c),), "a")] == value[((("C0", c),), "b")]
        best, ev = exhaustive_policy_search(m)
        assert best["D"].table == sol.policies["D"].table
        assert sol.expected_value == pytest.approx(ev, rel=1e-12)


class TestLargeStages:
    def test_forty_variable_chain(self):
        # 2**40 free configurations per cell: beyond any enumeration budget
        p0, p1, steps, values = chain_tables(40, np.random.default_rng(40))
        sol = solve(chain_model(p0, p1, steps, values), SolveOptions(backend="exact"))
        ev = np.empty((2, 2))  # (C0, D)
        for c0 in range(2):
            for d in range(2):
                dist = p1[c0, d]
                for step in steps:
                    dist = dist @ step
                ev[c0, d] = dist @ values[d]
        expected = float(p0 @ ev.max(axis=1))
        assert sol.expected_value == pytest.approx(expected, rel=1e-12, abs=0.0)
        picks = {(f"v{c0}",): f"d{int(np.argmax(ev[c0]))}" for c0 in range(2)}
        assert sol.policies["D"].table == picks


class TestTerminalExpectedValue:
    def test_matches_oracle_after_absorbing_optimum(self, wildcatter):
        sol = solve(wildcatter, SolveOptions(backend="exact"))
        m = absorb_decision(wildcatter, sol.policies["D"])
        m = absorb_decision(m, sol.policies["T"])
        assert exact_stage_expectation(terminal_stage_context(m), {}) == sol.expected_value

    def test_requires_all_decisions_absorbed(self, wildcatter):
        with pytest.raises(StageOutOfRange):
            terminal_stage_context(wildcatter)

    def test_constant_value(self):
        m = build_model(
            nodes=(NodeSpec("X", "chance", Frame(("x0", "x1"))), NodeSpec("V", "value")),
            arrows=(ArrowSpec("X", "V", "relevance"),),
            cpts=(Cpt("X", (), {(): {"x0": 0.3, "x1": 0.7}}),),
            constraints=(),
            value_table=ValueTable(("X",), {("x0",): 9.0, ("x1",): 9.0}),
        )
        assert exact_stage_expectation(terminal_stage_context(m), {}) == 9.0


class TestArgmaxInvariance:
    def _transform(self, model, a, b):
        cells = {cfg: a * v + b for cfg, v in model.value.cells.items()}
        objective = model.objective if a > 0 else (
            "minimize" if model.objective == "maximize" else "maximize"
        )
        return build_model(
            model.nodes,
            model.arrows,
            model.cpts,
            model.constraints,
            ValueTable(model.value.parents, cells),
            objective,
        )

    def test_positive_affine_on_wildcatter(self, wildcatter):
        base = solve(wildcatter, SolveOptions(backend="exact"))
        scaled = solve(self._transform(wildcatter, 3.0, 10.0), SolveOptions(backend="exact"))
        for d in wildcatter.decisions:
            assert base.policies[d].table == scaled.policies[d].table

    def test_negation_with_flipped_objective_on_wildcatter(self, wildcatter):
        base = solve(wildcatter, SolveOptions(backend="exact"))
        flipped = solve(self._transform(wildcatter, -3.0, 7.0), SolveOptions(backend="exact"))
        for d in wildcatter.decisions:
            assert base.policies[d].table == flipped.policies[d].table

    @pytest.mark.parametrize("seed", range(20))
    def test_affine_invariance_on_random_models(self, seed):
        m = random_model(seed + 900, n_decisions=(1, 2))
        base = solve(m, SolveOptions(backend="exact"))
        scaled = solve(self._transform(m, 3.0, 10.0), SolveOptions(backend="exact"))
        flipped = solve(self._transform(m, -3.0, 7.0), SolveOptions(backend="exact"))
        for d in m.decisions:
            assert base.policies[d].table == scaled.policies[d].table
            assert base.policies[d].table == flipped.policies[d].table


class TestBackwardInductionCertificate:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_on_random_models(self, seed):
        m = random_model(seed + 1200, n_chance=(1, 5), n_decisions=(1, 2))
        sol = solve(m, SolveOptions(backend="exact"))
        _, value = exhaustive_policy_search(m)
        assert abs(sol.expected_value - value) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_three_decision_chains(self, seed):
        m = random_model(seed + 4000, n_chance=(1, 1), n_decisions=(3, 3))
        sol = solve(m, SolveOptions(backend="exact"))
        _, value = exhaustive_policy_search(m)
        assert abs(sol.expected_value - value) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_multisite_wildcatter(self, seed):
        """Two sites under a budget: constrained decisions whose constraint
        scopes grow with the earlier drills."""
        m = multisite_model(2, np.random.default_rng(seed))
        sol = solve(m, SolveOptions(backend="exact"))
        _, value = exhaustive_policy_search(m)
        assert abs(sol.expected_value - value) <= 1e-9 * abs(value)
        assert abs(exact_expectation(m, sol.policies) - value) <= 1e-9 * abs(value)
        # a budget of 1 forbids the second drill after the first
        assert m.admissible("D2", {"B": "1", "D1": "drill"}) == ("pass",)
        assert m.admissible("D2", {"B": "2", "D1": "drill"}) == ("drill", "pass")

    @pytest.mark.parametrize("seed", range(5))
    def test_barren_decision_still_gets_policy(self, seed):
        # graft an unused final decision onto a random model: it cannot reach
        # the value node, so it is barren, but the solution stays total
        base = random_model(seed + 2200, n_chance=(1, 3), n_decisions=(1, 1))
        d0 = base.decisions[0]
        nodes = base.nodes + (NodeSpec("DX", "decision", Frame(("u", "v"))),)
        arrows = base.arrows + tuple(
            ArrowSpec(p, "DX", "informational") for p in base.parents(d0)
        ) + (ArrowSpec(d0, "DX", "informational"),)
        m = build_model(nodes, arrows, base.cpts, base.constraints, base.value, base.objective)
        sol = solve(m, SolveOptions(backend="exact"))
        assert "DX" in sol.policies
        assert set(sol.policies) == set(m.decisions)
        _, value = exhaustive_policy_search(m)
        assert abs(sol.expected_value - value) <= 1e-9


class TestGibbsBackend:
    def test_policies_agree_with_exact(self, wildcatter):
        exact_sol = solve(wildcatter, SolveOptions(backend="exact"))
        gibbs_sol = solve(
            wildcatter,
            SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=42)),
        )
        for d in wildcatter.decisions:
            assert gibbs_sol.policies[d].table == exact_sol.policies[d].table
        # the terminal value is drawn by logic sampling, so the zeros the
        # absorbed budget puts into the tables split nothing and the estimate
        # covers the exact value
        se = gibbs_sol.expected_value_std_error
        assert abs(gibbs_sol.expected_value - exact_sol.expected_value) <= 4 * se

    @pytest.mark.parametrize("seed", range(4))
    def test_workaround_stage1_cell_covers_exact(self, wildcatter_workaround, seed):
        exact_sol = solve(wildcatter_workaround, SolveOptions(backend="exact"))
        gibbs_sol = solve(
            wildcatter_workaround,
            SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=seed)),
        )
        assert gibbs_sol.policies["T"].table == exact_sol.policies["T"].table
        (cell,) = [
            c
            for c in gibbs_sol.per_cell_diagnostics
            if c.stage == 1 and c.config == (("B", "$2M"),) and c.alternative == "t2"
        ]
        assert abs(cell.value - 419500.0) <= 4 * cell.std_error

    def test_zero_probability_flags_match_exact(self):
        zeros = 0
        for seed in range(200):
            m = random_model(
                seed + 3000, n_chance=(1, 5), n_decisions=(1, 3), allow_zeros=seed % 2 == 0
            )
            m = with_point_masses(m, np.random.default_rng(seed), share=0.6)
            sampler = SamplerConfig(seed=seed, burn_in=20, samples=200)
            flags = [
                [
                    (c.stage, c.config, c.alternative, c.zero_probability)
                    for c in sol.per_cell_diagnostics
                ]
                for sol in (solve(m), solve(m, SolveOptions(backend="gibbs", sampler=sampler)))
            ]
            assert flags[0] == flags[1], seed
            zeros += sum(flag for *_, flag in flags[0])
        assert zeros > 0

    def test_terminal_estimate_unbiased_when_chain_mixes(self):
        # no structural zeros anywhere: the terminal chain is irreducible and
        # the estimate must line up with the exact expectation
        m = random_model(987, n_chance=(3, 3), n_decisions=(1, 1), allow_zeros=False)
        exact_sol = solve(m, SolveOptions(backend="exact"))
        gibbs_sol = solve(
            m, SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=6))
        )
        tol = max(4 * gibbs_sol.expected_value_std_error, 1e-6)
        assert abs(gibbs_sol.expected_value - exact_sol.expected_value) <= tol

    def test_solution_reproducible(self, wildcatter):
        opts = SolveOptions(
            backend="gibbs", sampler=SamplerConfig(seed=9, burn_in=50, samples=400)
        )
        a = solve(wildcatter, opts)
        b = solve(wildcatter, opts)
        assert a.expected_value == b.expected_value
        assert a.per_cell_diagnostics == b.per_cell_diagnostics

    def test_one_sample_has_no_standard_error(self, wildcatter):
        """One kept sweep gives an estimate but no spread: its standard
        error is undefined (None), not 0, in the solution and its file."""
        one = SamplerConfig(seed=0, burn_in=0, samples=1)
        sol = solve(wildcatter, SolveOptions(backend="gibbs", sampler=one))
        assert sol.expected_value_std_error is None and sol.expected_value_n == 1
        valued = [d for d in sol.per_cell_diagnostics if d.value is not None]
        assert valued and all(d.std_error is None and d.n == 1 for d in valued)
        doc = json.loads(serialize_solution(sol))
        assert doc["expected_value_std_error"] is None
        assert all(d["std_error"] is None for d in doc["diagnostics"])
        two = SamplerConfig(seed=0, burn_in=0, samples=2)
        sol = solve(wildcatter, SolveOptions(backend="gibbs", sampler=two))
        assert sol.expected_value_std_error is not None
        assert all(d.std_error is not None for d in sol.per_cell_diagnostics if d.value is not None)

    def test_one_sampler_call_per_cell(self, wildcatter, monkeypatch):
        """The solver asks the sampler once per (stage, cell), with the cell's
        admissible alternatives in order, and once for the terminal value:
        positionally, with the context first and the sampler fourth, as the
        benchmark's tracer reads them.  Each call draws its own seed."""
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return estimate_expectation(*args, **kwargs)

        monkeypatch.setattr(irid.gibbs, "estimate_expectation", recording)
        sampler = SamplerConfig(seed=5, burn_in=10, samples=100)
        solve(wildcatter, SolveOptions(backend="gibbs", sampler=sampler))
        cells: dict[int, list[dict]] = {}
        for args, kwargs in calls:
            assert kwargs == {} and len(args) == 4
            ctx, configs, value_factor, cell_sampler = args
            assert isinstance(ctx, StageContext) and value_factor is ctx.value_factor
            assert isinstance(cell_sampler, SamplerConfig)
            assert (cell_sampler.burn_in, cell_sampler.samples) == (10, 100)
            assert isinstance(configs, list) and all(type(c) is dict for c in configs)
            if ctx.decision is None:
                assert configs == [{}]
            cell = {v: lab for v, lab in configs[0].items() if v != ctx.decision}
            assert set(cell) == ctx.dependency_set
            if ctx.decision is not None:
                alternatives = wildcatter.admissible(ctx.decision, cell)
                assert configs == [{**cell, ctx.decision: a} for a in alternatives]
            cells.setdefault(ctx.stage, []).append(cell)
        # every cell of stage 2 (over B, T and R) and of stage 1 (over B) once,
        # and the terminal value
        assert {stage: len(c) for stage, c in cells.items()} == {2: 18, 1: 2, 0: 1}
        for stage_cells in cells.values():
            deps = sorted(stage_cells[0])
            frames = [wildcatter.frames[v].labels for v in deps]
            expected = {tuple(zip(deps, labels)) for labels in itertools.product(*frames)}
            assert sorted(tuple(sorted(c.items())) for c in stage_cells) == sorted(expected)
        assert [args[0].stage for args, _ in calls][-1] == 0
        assert len({args[3].seed for args, _ in calls}) == len(calls)

    def test_default_sampler_returns_the_exact_policies(self):
        """Alternatives ranked on one stream tie where their exact values
        tie, and the tie goes to frame order as under the exact backend."""
        for name in BUNDLED:
            model = load_bundled(name)
            exact_sol = solve(model)
            for seed in range(20):
                sol = solve(model, SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=seed)))
                for d, pol in exact_sol.policies.items():
                    assert sol.policies[d].table == pol.table, (name, seed, d)


class TestSolveOptions:
    def test_gibbs_without_sampler_rejected(self):
        with pytest.raises(InvalidModel):
            SolveOptions(backend="gibbs")

    def test_exact_with_sampler_rejected(self):
        with pytest.raises(InvalidModel):
            SolveOptions(backend="exact", sampler=SamplerConfig(seed=1))

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidModel):
            SolveOptions(backend="magic")
