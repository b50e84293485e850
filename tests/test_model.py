import ast

import numpy as np
import pytest

from irid.errors import (
    ArrowKindMismatch,
    CptParentsMismatch,
    CptRowNotNormalized,
    CycleDetected,
    DecisionsNotTotallyOrdered,
    DuplicateVariable,
    EmptyConstraintCell,
    IncompleteConfig,
    IncompletePolicy,
    MissingPolicy,
    MissingTableEntry,
    MultipleValueNodes,
    NoForgettingViolated,
    PolicyViolatesConstraint,
    UnknownDecision,
    ValueNodeNotSink,
    ValueNotInFrame,
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
    fix_policies,
    iter_configs,
    policy_to_conditional,
    topological_sort,
    validate_policy,
)

from conftest import constrained_constant_policy
from model_gen import random_model


def rebuild(model, nodes=None, arrows=None, cpts=None, constraints=None, value=None):
    return build_model(
        nodes if nodes is not None else model.nodes,
        arrows if arrows is not None else model.arrows,
        cpts if cpts is not None else model.cpts,
        constraints if constraints is not None else model.constraints,
        value if value is not None else model.value,
        model.objective,
    )


class TestBuildModel:
    def test_wildcatter_structure(self, wildcatter):
        m = wildcatter
        assert m.decisions == ("T", "D")
        assert set(m.chance_vars) == {"B", "O", "R"}
        assert m.value_var == "V"
        assert m.parents("D") == ("B", "T", "R")
        kinds = {(a.source, a.target): a.kind for a in m.arrows}
        assert kinds[("B", "D")] == "relevance"
        assert kinds[("T", "D")] == "relevance"
        assert kinds[("R", "D")] == "informational"
        assert kinds[("B", "T")] == "informational"
        assert kinds[("T", "R")] == "relevance"

    def test_minimal_model(self, minimal_model):
        assert minimal_model.decisions == ("D",)
        assert minimal_model.admissible("D", {}) == ("d", "nd")

    def test_empty_constraint_cell_rejected(self, wildcatter):
        con = wildcatter.constraint("D")
        cells = dict(con.cells)
        cells[("$1M", "t2")] = ()
        bad = Constraint("D", con.scope, cells)
        with pytest.raises(EmptyConstraintCell) as exc:
            rebuild(wildcatter, constraints=(wildcatter.constraint("T"), bad))
        assert exc.value.decision == "D"
        assert exc.value.config == ("$1M", "t2")


class TestTopologicalSort:
    @staticmethod
    def naive_order(model):
        """Repeatedly place the earliest node whose parents are all placed."""
        order = []
        while len(order) < len(model.variables):
            order.append(
                next(
                    v
                    for v in model.variables
                    if v not in order and all(p in order for p in model.parents(v))
                )
            )
        return tuple(order)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_naive_reference(self, seed):
        m = random_model(seed, n_chance=(1, 6), n_decisions=(0, 3), allow_zeros=seed % 2 == 0)
        assert m.topological_order == self.naive_order(m)

    def test_cycle_names_only_its_nodes(self, wildcatter):
        # D and V lie downstream of the cycle, not on it
        arrows = wildcatter.arrows + (ArrowSpec("R", "O", "relevance"),)
        with pytest.raises(CycleDetected) as exc:
            rebuild(wildcatter, arrows=arrows)
        assert str(exc.value) == "cycle through ['R', 'O']"

    @pytest.mark.parametrize("seed", range(50))
    def test_random_graphs(self, seed):
        """Either a valid order or a cycle of arrows that exist."""
        rng = np.random.default_rng(seed)
        nodes = [f"N{i}" for i in range(7)]
        edges = {(a, b) for a in nodes for b in nodes if a != b and rng.random() < 0.15}
        try:
            order = topological_sort(nodes, edges)
        except CycleDetected as e:
            cycle = ast.literal_eval(str(e).removeprefix("cycle through "))
            assert len(set(cycle)) == len(cycle) >= 2
            assert all((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        else:
            assert sorted(order) == sorted(nodes)
            assert all(order.index(a) < order.index(b) for a, b in edges)


class TestAdmissible:
    def test_budget_forces_not_drilling(self, wildcatter):
        assert wildcatter.admissible("D", {"B": "$1M", "T": "t2", "R": "c"}) == ("nd",)

    def test_big_budget_leaves_both(self, wildcatter):
        assert wildcatter.admissible("D", {"B": "$2M", "T": "t2", "R": "o"}) == ("d", "nd")

    def test_unconstrained_full_frame(self, wildcatter):
        assert wildcatter.admissible("T", {"B": "$1M"}) == ("t1", "t2", "nt")

    def test_unknown_decision(self, wildcatter):
        with pytest.raises(UnknownDecision):
            wildcatter.admissible("O", {})

    def test_incomplete_config(self, wildcatter):
        with pytest.raises(IncompleteConfig):
            wildcatter.admissible("D", {"B": "$1M"})

    def test_never_empty_over_all_configs(self, wildcatter):
        for d in wildcatter.decisions:
            scope = wildcatter.parents(d)
            for cfg in iter_configs(scope, wildcatter.frames):
                assert wildcatter.admissible(d, dict(zip(scope, cfg)))


class TestPolicyToConditional:
    def test_one_hot_on_chosen_alternative(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "d")
        f = policy_to_conditional(wildcatter, pol)
        assert f.scope == ("B", "T", "R", "D")
        cfg = {"B": "$2M", "T": "t2", "R": "c"}
        row = [f.evaluate({**cfg, "D": alt}) for alt in ("d", "nd")]
        assert row == [1.0, 0.0]

    def test_empty_scope_policy(self, minimal_model):
        pol = Policy("D", (), {(): "nd"})
        f = policy_to_conditional(minimal_model, pol)
        assert f.values.tolist() == [0.0, 1.0]

    def test_every_row_is_one_hot(self, wildcatter):
        for d in wildcatter.decisions:
            pol = constrained_constant_policy(wildcatter, d, wildcatter.frame(d).labels[-1])
            f = policy_to_conditional(wildcatter, pol)
            table = f.values.reshape(-1, len(wildcatter.frame(d)))
            assert np.array_equal(table.sum(axis=1), np.ones(len(table)))
            assert np.array_equal((table == 1.0).sum(axis=1), np.ones(len(table)))

    def test_constraint_violation_rejected(self, wildcatter):
        scope = wildcatter.parents("D")
        table = {cfg: "d" for cfg in iter_configs(scope, wildcatter.frames)}
        with pytest.raises(PolicyViolatesConstraint):
            policy_to_conditional(wildcatter, Policy("D", scope, table))


class TestValidatePolicy:
    @pytest.mark.parametrize("seed", range(100))
    def test_rejects_exactly_the_inadmissible_picks(self, seed):
        """A policy that picks from the whole frame is rejected iff some
        pick lies outside what `admissible` allows for its configuration."""
        model = random_model(seed + 500, n_chance=(1, 5), n_decisions=(1, 3))
        rng = np.random.default_rng(seed)
        for d in model.decisions:
            scope = model.parents(d)
            table, inadmissible = {}, False
            for cfg in iter_configs(scope, model.frames):
                table[cfg] = str(rng.choice(model.frame(d).labels))
                inadmissible |= table[cfg] not in model.admissible(d, dict(zip(scope, cfg)))
            if inadmissible:
                with pytest.raises(PolicyViolatesConstraint):
                    validate_policy(model, Policy(d, scope, table))
            else:
                validate_policy(model, Policy(d, scope, table))

    def test_unknown_decision(self, wildcatter):
        with pytest.raises(UnknownDecision):
            validate_policy(wildcatter, Policy("O", (), {(): "w"}))

    def test_scope_other_than_parents(self, wildcatter):
        scope = wildcatter.parents("T")
        table = {cfg: "nt" for cfg in iter_configs(scope, wildcatter.frames)}
        validate_policy(wildcatter, Policy("T", scope, table))
        with pytest.raises(IncompletePolicy):
            validate_policy(wildcatter, Policy("T", (), {(): "nt"}))

    def test_pick_outside_frame(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "nd")
        table = dict(pol.table)
        table[next(iter(table))] = "mystery"
        with pytest.raises(ValueNotInFrame):
            validate_policy(wildcatter, Policy("D", pol.scope, table))


class TestFixPolicies:
    def test_missing_policy(self, wildcatter):
        with pytest.raises(MissingPolicy):
            fix_policies(wildcatter, {"T": constrained_constant_policy(wildcatter, "T", "nt")})

    def test_joint_sums_to_one(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "t2"),
            "D": constrained_constant_policy(wildcatter, "D", "d"),
        }
        view = fix_policies(wildcatter, policies)
        total = sum(
            view.joint_probability(dict(zip(view.variables, cfg)))
            for cfg in iter_configs(view.variables, wildcatter.frames)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_classic_testing_policy_becomes_belief_network(self, wildcatter_info_only):
        # always buy the advanced test, drill only when it reports a closed
        # structure; with no budget constraint this is a valid policy pair
        m = wildcatter_info_only
        t_scope = m.parents("T")
        d_scope = m.parents("D")
        policies = {
            "T": Policy("T", t_scope, {cfg: "t2" for cfg in iter_configs(t_scope, m.frames)}),
            "D": Policy(
                "D",
                d_scope,
                {
                    cfg: "d" if dict(zip(d_scope, cfg))["T"] == "t2"
                    and dict(zip(d_scope, cfg))["R"] == "c"
                    else "nd"
                    for cfg in iter_configs(d_scope, m.frames)
                },
            ),
        }
        view = fix_policies(m, policies)
        total = sum(
            view.joint_probability(dict(zip(view.variables, cfg)))
            for cfg in iter_configs(view.variables, m.frames)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_conditionals_zero_other_branches(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "nt"),
            "D": constrained_constant_policy(wildcatter, "D", "nd"),
        }
        view = fix_policies(wildcatter, policies)
        for cfg in iter_configs(view.variables, wildcatter.frames):
            assign = dict(zip(view.variables, cfg))
            p = view.joint_probability(assign)
            if assign["T"] != "nt" or assign["D"] != "nd":
                assert p == 0.0


class TestCptInvariants:
    @pytest.mark.parametrize(
        "name",
        ["wildcatter", "wildcatter_info_only", "wildcatter_workaround", "wildcatter_payoff"],
    )
    def test_rows_normalized(self, name, request):
        m = request.getfixturevalue(name)
        for c in m.cpts:
            for cfg in iter_configs(c.parents, m.frames):
                row = c.rows[cfg]
                assert abs(sum(row.values()) - 1.0) <= 1e-9
                assert all(0.0 <= p <= 1.0 for p in row.values())


class TestValidationRejectsCorruption:
    """Every mutation that breaks an invariant raises its specific error."""

    def test_deleted_relevance_arrow(self, wildcatter):
        arrows = tuple(a for a in wildcatter.arrows if (a.source, a.target) != ("O", "R"))
        with pytest.raises(CptParentsMismatch):
            rebuild(wildcatter, arrows=arrows)

    def test_deleted_decision_chain_arrow(self, wildcatter):
        arrows = tuple(a for a in wildcatter.arrows if (a.source, a.target) != ("T", "D"))
        with pytest.raises(DecisionsNotTotallyOrdered):
            rebuild(wildcatter, arrows=arrows)

    def test_deleted_inherited_arrow(self, wildcatter):
        arrows = tuple(a for a in wildcatter.arrows if (a.source, a.target) != ("B", "D"))
        with pytest.raises(NoForgettingViolated):
            rebuild(wildcatter, arrows=arrows)

    def test_denormalized_row(self, wildcatter):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = wildcatter.cpt("R")
            rows = {k: dict(v) for k, v in c.rows.items()}
            key = list(rows)[rng.integers(len(rows))]
            lab = list(rows[key])[rng.integers(3)]
            rows[key][lab] += 0.03
            bad = Cpt("R", c.parents, rows)
            cpts = tuple(bad if x.child == "R" else x for x in wildcatter.cpts)
            with pytest.raises(CptRowNotNormalized) as exc:
                rebuild(wildcatter, cpts=cpts)
            assert exc.value.child == "R"
            assert exc.value.config == key

    def test_emptied_constraint_cell(self, wildcatter):
        rng = np.random.default_rng(11)
        con = wildcatter.constraint("D")
        for _ in range(5):
            cells = dict(con.cells)
            key = list(cells)[rng.integers(len(cells))]
            cells[key] = ()
            bad = Constraint("D", con.scope, cells)
            with pytest.raises(EmptyConstraintCell) as exc:
                rebuild(wildcatter, constraints=(wildcatter.constraint("T"), bad))
            assert exc.value.config == key

    def test_informational_arrow_into_chance(self, wildcatter):
        arrows = tuple(
            ArrowSpec(a.source, a.target, "informational")
            if (a.source, a.target) == ("O", "R")
            else a
            for a in wildcatter.arrows
        )
        with pytest.raises(ArrowKindMismatch):
            rebuild(wildcatter, arrows=arrows)

    def test_relevance_arrow_outside_scope(self, wildcatter):
        arrows = tuple(
            ArrowSpec(a.source, a.target, "relevance")
            if (a.source, a.target) == ("R", "D")
            else a
            for a in wildcatter.arrows
        )
        with pytest.raises(ArrowKindMismatch):
            rebuild(wildcatter, arrows=arrows)

    def test_added_cycle(self, wildcatter):
        arrows = wildcatter.arrows + (ArrowSpec("R", "O", "relevance"),)
        with pytest.raises(CycleDetected):
            rebuild(wildcatter, arrows=arrows)

    def test_value_with_outgoing_arrow(self, wildcatter):
        nodes = wildcatter.nodes + (NodeSpec("X", "chance", Frame(("a", "b"))),)
        arrows = wildcatter.arrows + (ArrowSpec("V", "X", "relevance"),)
        cpts = wildcatter.cpts + (Cpt("X", (), {(): {"a": 0.5, "b": 0.5}}),)
        with pytest.raises(ValueNodeNotSink):
            rebuild(wildcatter, nodes=nodes, arrows=arrows, cpts=cpts)

    def test_second_value_node(self, wildcatter):
        nodes = wildcatter.nodes + (NodeSpec("V2", "value"),)
        with pytest.raises(MultipleValueNodes):
            rebuild(wildcatter, nodes=nodes)

    def test_duplicate_node(self, wildcatter):
        nodes = wildcatter.nodes + (NodeSpec("B", "chance", Frame(("x",))),)
        with pytest.raises(DuplicateVariable):
            rebuild(wildcatter, nodes=nodes)

    def test_missing_cpt_row(self, wildcatter):
        c = wildcatter.cpt("R")
        rows = {k: v for k, v in c.rows.items() if k != ("t1", "w")}
        cpts = tuple(
            Cpt("R", c.parents, rows) if x.child == "R" else x for x in wildcatter.cpts
        )
        with pytest.raises(MissingTableEntry):
            rebuild(wildcatter, cpts=cpts)

    def test_missing_value_cell(self, wildcatter):
        cells = {k: v for k, v in wildcatter.value.cells.items() if k != ("w", "t1", "d")}
        with pytest.raises(MissingTableEntry):
            rebuild(wildcatter, value=ValueTable(wildcatter.value.parents, cells))

    def test_constraint_allowing_unknown_alternative(self, wildcatter):
        con = wildcatter.constraint("D")
        cells = dict(con.cells)
        cells[("$2M", "nt")] = ("d", "mystery")
        with pytest.raises(ValueNotInFrame):
            rebuild(
                wildcatter,
                constraints=(wildcatter.constraint("T"), Constraint("D", con.scope, cells)),
            )
