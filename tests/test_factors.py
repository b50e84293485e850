import numpy as np
import pytest

from irid.errors import AllZeroSupport, IncompleteConfig, UnknownVariable, ValueNotInFrame
from irid.factors import Factor, full_conditional
from irid.model import Frame

from model_gen import random_model


@pytest.fixture
def p_o(wildcatter):
    return wildcatter.cpt_factor("O")


@pytest.fixture
def p_r(wildcatter):
    return wildcatter.cpt_factor("R")


class TestRestrict:
    def test_no_test_forces_no_result(self, p_r):
        f = p_r.restrict({"T": "nt"})
        assert f.scope == ("O", "R")
        for o in ("w", "y"):
            row = f.restrict({"O": o}).values
            assert row.tolist() == [0.0, 0.0, 1.0]

    def test_empty_config_is_identity(self, p_r):
        f = p_r.restrict({})
        assert f.scope == p_r.scope
        assert np.array_equal(f.values, p_r.values)

    def test_scalar_result(self, p_o):
        f = p_o.restrict({"O": "w"})
        assert f.scope == ()
        assert float(f.values) == 0.6

    def test_rejects_labels_outside_frame(self, p_o):
        with pytest.raises(ValueNotInFrame):
            p_o.restrict({"O": "damp"})

    def test_rejects_variables_outside_scope(self, p_o):
        with pytest.raises(UnknownVariable):
            p_o.restrict({"Z": "w"})


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
        total = {"T": "t2", "O": "y", "R": "o"}
        direct = p_r.evaluate(total)
        via_restrict = p_r.restrict({"T": "t2"}).evaluate(total)
        assert direct == via_restrict == 0.95


class TestFullConditional:
    def test_two_factor_posterior(self, p_o, p_r):
        state = {"T": "t1", "R": "c", "B": "$2M", "D": "d"}
        vec = full_conditional("O", state, [p_o, p_r])
        assert vec == pytest.approx([0.923077, 0.076923], abs=1e-6)

    def test_prior_only(self, p_o):
        assert full_conditional("O", {}, [p_o]).tolist() == [0.6, 0.4]

    def test_one_hot_factor_annihilates(self, p_o):
        hot = Factor.from_flat(("O",), (Frame(("w", "y")),), [0.0, 1.0])
        assert full_conditional("O", {}, [p_o, hot]).tolist() == [0.0, 1.0]

    def test_sums_to_one(self, p_o, p_r):
        for t in ("t1", "t2"):
            for r in ("o", "c"):
                vec = full_conditional("O", {"T": t, "R": r}, [p_o, p_r])
                assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_support(self, p_o, p_r):
        with pytest.raises(AllZeroSupport):
            full_conditional("O", {"T": "nt", "R": "c"}, [p_o, p_r])

    def test_no_factor_contains_target(self, p_o):
        with pytest.raises(UnknownVariable):
            full_conditional("R", {}, [p_o])


def forward_sample(model, rng):
    """Positive-probability total configuration drawn from the joint."""
    state = {}
    for v in model.topological_order:
        if model.kind(v) != "chance":
            continue
        row = model.cpt_factor(v).restrict({p: state[p] for p in model.parents(v)})
        labels = row.frames[0].labels
        state[v] = labels[rng.choice(len(labels), p=row.values / row.values.sum())]
    return state


class TestAgainstBruteForce:
    """Full conditionals must match the conditional of the explicit joint."""

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

        vec = full_conditional(target, others, factors)

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
            Factor.from_flat(("A",), (Frame(("x", "y")),), [1.0, float("nan")])
