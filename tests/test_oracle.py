import numpy as np
import pytest

from irid import oracle
from irid.data import BUNDLED, load_bundled
from irid.errors import BudgetExceeded, ZeroNormalizer
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
    Constraint,
    Cpt,
    Frame,
    NodeSpec,
    Policy,
    ValueTable,
    build_model,
    iter_configs,
)
from irid.oracle import (
    EnumerationBudget,
    enumerate_stage_expectation,
    exact_expectation,
    exact_stage_expectation,
    exhaustive_policy_search,
)
from irid.solver import SolveOptions, solve

from conftest import constrained_constant_policy
from model_gen import (
    chain_model,
    chain_tables,
    random_model,
    random_policies,
    with_point_masses,
)


def stage2(wildcatter):
    part = compute_partition(wildcatter)
    moral = moralize(relevance_subgraph(wildcatter))
    return build_stage_context(wildcatter, part, moral, 2)


def last_stage(model):
    part = compute_partition(model)
    moral = moralize(relevance_subgraph(model))
    return build_stage_context(model, part, moral, part.stage_count)


def solver_evaluations(model):
    """Every (stage context, fixed configuration) the exact solver evaluates:
    each admissible alternative of each dependency cell, stage by stage with
    the solver's own policies absorbed in between, then the terminal value."""
    policies = solve(model, SolveOptions(backend="exact")).policies
    working = remove_barren(model)
    while working.decisions:
        ctx = last_stage(working)
        order = {v: i for i, v in enumerate(working.variables)}
        dep_vars = sorted(ctx.dependency_set, key=order.__getitem__)
        for cfg in iter_configs(dep_vars, working.frames):
            cell = dict(zip(dep_vars, cfg))
            for alt in working.admissible(ctx.decision, cell):
                yield ctx, {**cell, ctx.decision: alt}
        working = absorb_decision(working, policies[ctx.decision])
    yield terminal_stage_context(working), {}


def outcome(evaluate, ctx, fixed):
    try:
        return evaluate(ctx, fixed)
    except ZeroNormalizer:
        return None


def certify(model, rel):
    """Compare the elimination tables with the enumeration reference on every
    solver evaluation, to relative `rel` (0 asks for equality); returns
    (evaluations, zero-probability ones)."""
    evaluations = zeros = 0
    for ctx, fixed in solver_evaluations(model):
        table = outcome(exact_stage_expectation, ctx, fixed)
        reference = outcome(enumerate_stage_expectation, ctx, fixed)
        evaluations += 1
        assert (table is None) == (reference is None), (ctx.stage, fixed)
        if reference is None:
            zeros += 1
        else:
            assert abs(table - reference) <= rel * abs(reference), (ctx.stage, fixed)
    return evaluations, zeros


def observed_children_model(n):
    """D observes n one-valued children Y1..Yn of X; V over (D, X).  X's
    bucket multiplies P(X), every P(Yi | X) and V."""
    x, one = Frame(("x0", "x1")), Frame(("y",))
    ys = [f"Y{i}" for i in range(1, n + 1)]
    return build_model(
        nodes=(
            NodeSpec("X", "chance", x),
            *(NodeSpec(y, "chance", one) for y in ys),
            NodeSpec("D", "decision", Frame(("a", "b"))),
            NodeSpec("V", "value"),
        ),
        arrows=(
            *(ArrowSpec("X", y, "relevance") for y in ys),
            *(ArrowSpec(y, "D", "informational") for y in ys),
            ArrowSpec("D", "V", "relevance"),
            ArrowSpec("X", "V", "relevance"),
        ),
        cpts=(
            Cpt("X", (), {(): {"x0": 0.3, "x1": 0.7}}),
            *(Cpt(y, ("X",), {("x0",): {"y": 1.0}, ("x1",): {"y": 1.0}}) for y in ys),
        ),
        value_table=ValueTable(
            ("D", "X"),
            {("a", "x0"): 10.0, ("a", "x1"): 0.0, ("b", "x0"): 1.0, ("b", "x1"): 2.0},
        ),
    )


class TestExactExpectation:
    def test_no_test_and_drill(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "nt"),
            "D": constrained_constant_policy(wildcatter, "D", "d"),
        }
        assert exact_expectation(wildcatter, policies) == 250000.0

    def test_no_test_no_drill(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "nt"),
            "D": constrained_constant_policy(wildcatter, "D", "nd"),
        }
        assert exact_expectation(wildcatter, policies) == -1200000.0

    def test_constant_value(self):
        m = build_model(
            nodes=(
                NodeSpec("D", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("D", "V", "relevance"),),
            cpts=(),
            constraints=(),
            value_table=ValueTable(("D",), {("a",): 7.0, ("b",): 7.0}),
        )
        pol = Policy("D", (), {(): "b"})
        assert exact_expectation(m, {"D": pol}) == 7.0

    def test_budget(self, wildcatter, monkeypatch):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "nt"),
            "D": constrained_constant_policy(wildcatter, "D", "d"),
        }
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 10)
        with pytest.raises(BudgetExceeded):
            exact_expectation(wildcatter, policies)
        # the size is checked before any policy is read
        with pytest.raises(BudgetExceeded):
            exact_expectation(wildcatter, {})


class TestExactStageExpectation:
    def test_posterior_weighted_value(self, wildcatter):
        ctx = stage2(wildcatter)
        got = exact_stage_expectation(
            ctx, {"B": "$2M", "T": "t1", "R": "c", "D": "d"}
        )
        assert got == pytest.approx(846153.85, abs=0.01)

    def test_impossible_evidence(self, wildcatter):
        ctx = stage2(wildcatter)
        with pytest.raises(ZeroNormalizer):
            exact_stage_expectation(ctx, {"B": "$2M", "T": "nt", "R": "c", "D": "d"})

    def test_constant_value_slice(self, wildcatter_payoff):
        # with payoff-style values, not drilling after a test costs the test
        # price regardless of the oil, so the expectation is that constant
        ctx = stage2(wildcatter_payoff)
        got = exact_stage_expectation(
            ctx, {"B": "$2M", "T": "t1", "R": "c", "D": "nd"}
        )
        assert got == -50000.0

    def test_budget(self, wildcatter, monkeypatch):
        ctx = stage2(wildcatter)
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 1)
        with pytest.raises(BudgetExceeded):
            exact_stage_expectation(ctx, {"B": "$2M", "T": "t1", "R": "c", "D": "d"})

    def test_budget_bounds_the_largest_table(self, monkeypatch):
        ctx = last_stage(chain_model(*chain_tables(40, np.random.default_rng(0))))
        fixed = {"C0": "v1", "D": "d0"}
        with pytest.raises(BudgetExceeded):  # 2**40 free configurations
            enumerate_stage_expectation(ctx, fixed)
        # the output table, a (numerator, normalizer) pair per (C0, D), has 8
        # entries; the bucket that sums C1 out spans C0, D, C1 and either a
        # chain variable or the pair: 16 entries or more in any order
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 8)
        with pytest.raises(BudgetExceeded):
            exact_stage_expectation(ctx, fixed)
        monkeypatch.setattr(oracle, "MAX_CONFIGS", 16)
        value = exact_stage_expectation(ctx, fixed)
        monkeypatch.undo()
        assert value == exact_stage_expectation(ctx, fixed)

    def test_bucket_beyond_the_einsum_operand_limit(self):
        ctx = last_stage(observed_children_model(40))
        fixed = {f"Y{i}": "y" for i in range(1, 41)} | {"D": "b"}
        assert exact_stage_expectation(ctx, fixed) == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)
        assert exact_stage_expectation(ctx, fixed) == enumerate_stage_expectation(ctx, fixed)

    def test_table_beyond_the_einsum_subscripts_is_over_budget(self):
        ctx = last_stage(observed_children_model(60))
        fixed = {f"Y{i}": "y" for i in range(1, 61)} | {"D": "b"}
        with pytest.raises(BudgetExceeded):
            exact_stage_expectation(ctx, fixed)


class TestStageTablesCertificate:
    """The solver's exact path (bucket-elimination tables) against the
    per-cell enumeration it replaced."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_models(self, name):
        evaluations, zeros = certify(load_bundled(name), rel=1e-12)
        assert evaluations > zeros > 0

    def test_random_dyadic_models(self):
        # 201 models; every third has point-mass rows, whose zeros make some
        # conditioning events impossible (in 3 of these 67 models)
        evaluations = zeros = 0
        for seed in range(201):
            model = random_model(seed + 500, n_chance=(1, 7), n_decisions=(1, 3))
            if seed % 3 == 0:
                model = with_point_masses(model, np.random.default_rng(seed), share=0.6)
            n, z = certify(model, rel=0.0)
            evaluations += n
            zeros += z
        assert zeros > 0
        assert evaluations > 1000


class TestExhaustivePolicySearch:
    def test_wildcatter_matches_backward_induction(self, wildcatter):
        policies, value = exhaustive_policy_search(wildcatter)
        solution = solve(wildcatter, SolveOptions(backend="exact"))
        assert abs(value - solution.expected_value) <= 1e-9
        for d in wildcatter.decisions:
            assert policies[d].table == solution.policies[d].table

    def test_single_unconstrained_decision(self, minimal_model):
        policies, value = exhaustive_policy_search(minimal_model)
        assert value == 1.0
        assert policies["D"].table == {(): "d"}

    def test_constraints_leaving_single_policy(self):
        m = build_model(
            nodes=(
                NodeSpec("X", "chance", Frame(("x0", "x1"))),
                NodeSpec("D", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("X", "D", "relevance"),
                ArrowSpec("D", "V", "relevance"),
                ArrowSpec("X", "V", "relevance"),
            ),
            cpts=(Cpt("X", (), {(): {"x0": 0.5, "x1": 0.5}}),),
            constraints=(
                Constraint("D", ("X",), {("x0",): ("a",), ("x1",): ("b",)}),
            ),
            value_table=ValueTable(
                ("X", "D"),
                {
                    ("x0", "a"): 1.0,
                    ("x0", "b"): 100.0,
                    ("x1", "a"): 100.0,
                    ("x1", "b"): 2.0,
                },
            ),
        )
        policies, value = exhaustive_policy_search(m)
        assert policies["D"].table == {("x0",): "a", ("x1",): "b"}
        assert value == pytest.approx(1.5)

    def test_minimize_objective(self):
        m = build_model(
            nodes=(
                NodeSpec("D", "decision", Frame(("a", "b"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("D", "V", "relevance"),),
            cpts=(),
            constraints=(),
            value_table=ValueTable(("D",), {("a",): 5.0, ("b",): -2.0}),
            objective="minimize",
        )
        policies, value = exhaustive_policy_search(m)
        assert value == -2.0
        assert policies["D"].table == {(): "b"}

    def test_policy_budget(self, wildcatter):
        with pytest.raises(BudgetExceeded):
            exhaustive_policy_search(
                wildcatter, EnumerationBudget(max_policy_combinations=100)
            )

    @pytest.mark.parametrize("name", ["wildcatter", "wildcatter_workaround"])
    def test_dominates_random_policies(self, name, request):
        model = request.getfixturevalue(name)
        budget = EnumerationBudget(max_policy_combinations=10**7)
        _, best = exhaustive_policy_search(model, budget)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            policies = random_policies(model, rng)
            assert exact_expectation(model, policies) <= best + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_random_policies_on_random_models(self, seed):
        model = random_model(seed + 70, n_decisions=(1, 2))
        _, best = exhaustive_policy_search(model)
        rng = np.random.default_rng(seed)
        sign = 1.0 if model.objective == "maximize" else -1.0
        for _ in range(100):
            policies = random_policies(model, rng)
            assert sign * exact_expectation(model, policies) <= sign * best + 1e-9
