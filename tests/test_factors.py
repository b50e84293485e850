import numpy as np
import pytest

from irid.errors import AllZeroSupport, IncompleteConfig
from irid.factors import Factor
from irid.gibbs import _CompiledCell
from irid.graph_ops import (
    build_stage_context,
    compute_partition,
    moralize,
    relevance_subgraph,
    terminal_stage_context,
)
from irid.model import Frame

from model_gen import random_model


@pytest.fixture
def p_o(wildcatter):
    return wildcatter.cpt_factor("O")


@pytest.fixture
def p_r(wildcatter):
    return wildcatter.cpt_factor("R")


class TestEvaluate:
    def test_cpt_entry(self, p_r):
        assert p_r.evaluate({"T": "t1", "O": "w", "R": "c"}) == 0.8

    def test_one_hot_zero_at_unchosen(self, wildcatter):
        from conftest import constrained_constant_policy
        from irid.model import policy_to_conditional

        f = policy_to_conditional(
            wildcatter, constrained_constant_policy(wildcatter, "T", "t2")
        )
        assert f.evaluate({"B": "$1M", "T": "t1"}) == 0.0
        assert f.evaluate({"B": "$1M", "T": "t2"}) == 1.0

    def test_value_entry(self, wildcatter):
        v = wildcatter.value_factor
        assert v.evaluate({"O": "y", "T": "t2", "D": "d"}) == -1050000.0

    def test_extra_assignments_ignored(self, p_o):
        assert p_o.evaluate({"O": "w", "B": "$1M"}) == 0.6

    def test_incomplete_config(self, p_r):
        with pytest.raises(IncompleteConfig):
            p_r.evaluate({"T": "t1", "O": "w"})

    def test_restrict_then_evaluate_commutes(self, p_r):
        # the entry does not depend on the order the configuration lists
        total = {"T": "t2", "O": "y", "R": "o"}
        direct = p_r.evaluate(total)
        reordered = p_r.evaluate(dict(reversed(total.items())))
        assert direct == reordered == 0.95


def sampler_conditional(ctx, var, config):
    """The distribution the sampler draws `var` from at `config` (the other
    variables' values), read off its inverse-CDF row; raises AllZeroSupport
    where that row has no positive weight."""
    fixed = {v: lab for v, lab in config.items() if v not in ctx.free_vars}
    cell = _CompiledCell(ctx, fixed, ctx.value_factor)
    _, blanket, table = cell.sites[cell.free.index(var)]
    index = 0
    for s, radix in blanket:
        v = cell.free[s]
        index += radix * ctx.cpt_of(v).frame_of(v).index(config[v])
    support, cumulative, total = table[index]
    probs = np.zeros(table.size)
    probs[support[:-1]] = np.diff([0.0, *cumulative]) / total
    return probs


class TestFullConditional:
    """The sampler's full conditional of O in the drilling stage, where T and
    R are fixed: P(O) times P(R | T, O)."""

    @pytest.fixture
    def stage2(self, wildcatter):
        part = compute_partition(wildcatter)
        return build_stage_context(wildcatter, part, moralize(relevance_subgraph(wildcatter)), 2)

    def test_two_factor_posterior(self, stage2):
        state = {"T": "t1", "R": "c", "B": "$2M", "D": "d"}
        vec = sampler_conditional(stage2, "O", state)
        assert vec == pytest.approx([0.923077, 0.076923], abs=1e-6)

    def test_prior_only(self, stage2):
        # without a test the result is "no result" whatever O is
        state = {"T": "nt", "R": "nr", "B": "$1M", "D": "d"}
        assert sampler_conditional(stage2, "O", state).tolist() == [0.6, 0.4]

    def test_all_zero_support(self, stage2):
        with pytest.raises(AllZeroSupport):
            sampler_conditional(stage2, "O", {"T": "nt", "R": "c", "B": "$1M", "D": "d"})


def forward_sample(model, rng):
    """Positive-probability total configuration drawn from the joint."""
    state = {}
    for v in model.topological_order:
        if model.kind(v) != "chance":
            continue
        f = model.cpt_factor(v)
        row = f.values[tuple(fr.index(state[p]) for p, fr in zip(f.scope[:-1], f.frames))]
        labels = f.frames[-1].labels
        state[v] = labels[rng.choice(len(labels), p=row / row.sum())]
    return state


class TestAgainstBruteForce:
    """The sampler's full conditionals, products of the factors that hold a
    variable, must match the conditional of the explicit joint."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_joint_conditional(self, seed):
        model = random_model(
            seed, n_chance=(2, 6), n_decisions=(0, 0), allow_zeros=(seed % 2 == 0)
        )
        rng = np.random.default_rng(seed + 1000)
        factors = [model.cpt_factor(v) for v in model.chance_vars]
        state = forward_sample(model, rng)
        target = model.chance_vars[int(rng.integers(len(model.chance_vars)))]
        others = {v: lab for v, lab in state.items() if v != target}

        vec = sampler_conditional(terminal_stage_context(model), target, state)

        labels = model.frame(target).labels
        joint = np.array(
            [
                np.prod(
                    [f.evaluate({**others, target: lab}) for f in factors]
                )
                for lab in labels
            ]
        )
        assert joint.sum() > 0.0
        assert np.allclose(vec, joint / joint.sum(), atol=1e-12)


class TestFactorBasics:
    def test_shape_must_match_frames(self):
        with pytest.raises(ValueError):
            Factor(("A",), (Frame(("x", "y")),), np.ones(3))

    def test_values_are_immutable(self, p_o):
        with pytest.raises(ValueError):
            p_o.values[0] = 0.9

    def test_entries_must_be_finite(self):
        with pytest.raises(ValueError):
            Factor(("A",), (Frame(("x", "y")),), np.array([1.0, float("nan")]))
