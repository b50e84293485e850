import ast
import itertools
import math
import sys

import numpy as np
import pytest

from irid.data import BUNDLED, load_bundled
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
    InvalidModel,
    MissingPolicy,
    MissingTableEntry,
    MultipleValueNodes,
    NoForgettingViolated,
    NonFiniteValue,
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
    iter_configs,
    policy_to_conditional,
    topological_sort,
    validate_policy,
)

from irid.oracle import exact_expectation

from conftest import constrained_constant_policy
from model_gen import random_model, random_policies


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

    def test_node_id_must_be_a_string(self):
        with pytest.raises(InvalidModel):
            NodeSpec(7, "chance", Frame(("a", "b")))

    def test_frame_rejects_a_bare_string(self):
        with pytest.raises(InvalidModel):
            Frame("abc")


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


    def test_entries_outside_the_scope(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "nd")
        validate_policy(wildcatter, pol)
        for extra in (("zz", "zz", "zz"), 5):
            with pytest.raises(IncompletePolicy, match="entries, its scope"):
                validate_policy(wildcatter, Policy("D", pol.scope, {**pol.table, extra: "nd"}))

    def test_table_is_kept_as_given(self, wildcatter):
        table = dict(constrained_constant_policy(wildcatter, "D", "nd").table)
        assert Policy("D", wildcatter.parents("D"), table).table is table

    @pytest.mark.parametrize("name", BUNDLED)
    def test_returns_the_chosen_frame_index(self, name):
        model = load_bundled(name)
        frames = model.frames
        for seed in range(5):
            for d, pol in random_policies(model, np.random.default_rng(seed)).items():
                choice = validate_policy(model, pol)
                assert choice.dtype == np.intp
                assert choice.shape == tuple(len(frames[v]) for v in pol.scope)
                labels = frames[d].labels
                for cfg in iter_configs(pol.scope, frames):
                    index = tuple(frames[v].index(lab) for v, lab in zip(pol.scope, cfg))
                    assert choice[index] == labels.index(pol.table[cfg])


def _with_value(model, value_of):
    """`model` with `value_of(assignment)` as its value at each
    configuration of the value node's parents."""
    parents = model.parents(model.value_var)
    cells = {
        cfg: float(value_of(dict(zip(parents, cfg))))
        for cfg in iter_configs(parents, model.frames)
    }
    return rebuild(model, value=ValueTable(parents, cells))


class TestPoliciesFixTheJoint:
    """`exact_expectation` multiplies the CPTs and the policies' zero-one
    conditionals into the joint: under an all-ones value table it reads the
    joint's total mass, under an indicator the mass of what it marks."""

    def test_missing_policy(self, wildcatter):
        with pytest.raises(MissingPolicy):
            exact_expectation(
                wildcatter, {"T": constrained_constant_policy(wildcatter, "T", "nt")}
            )

    def test_joint_sums_to_one(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "t2"),
            "D": constrained_constant_policy(wildcatter, "D", "d"),
        }
        ones = _with_value(wildcatter, lambda a: 1.0)
        assert exact_expectation(ones, policies) == pytest.approx(1.0, abs=1e-9)

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
        ones = _with_value(m, lambda a: 1.0)
        assert exact_expectation(ones, policies) == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_conditionals_zero_other_branches(self, wildcatter):
        policies = {
            "T": constrained_constant_policy(wildcatter, "T", "nt"),
            "D": constrained_constant_policy(wildcatter, "D", "nd"),
        }
        assert set(wildcatter.parents("V")) >= {"T", "D"}
        others = _with_value(wildcatter, lambda a: a["T"] != "nt" or a["D"] != "nd")
        assert exact_expectation(others, policies) == 0.0


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

    def test_unchained_decisions_name_the_pair_their_order_forces(self):
        # D3 -> C -> D2 puts D3 before D2 in every topological order, so the
        # decisions run D1, D3, D2 and the arrow D3 -> D2 is the one missing
        frame = Frame(("a", "b"))
        with pytest.raises(DecisionsNotTotallyOrdered, match="'D3' and 'D2'"):
            build_model(
                nodes=(
                    *(NodeSpec(d, "decision", frame) for d in ("D1", "D2", "D3")),
                    NodeSpec("C", "chance", frame),
                    NodeSpec("V", "value"),
                ),
                arrows=(
                    ArrowSpec("D1", "D3", "informational"),
                    ArrowSpec("D3", "C", "relevance"),
                    ArrowSpec("C", "D2", "informational"),
                    ArrowSpec("D2", "V", "relevance"),
                ),
                cpts=(Cpt("C", ("D3",), {(d,): {"a": 0.5, "b": 0.5} for d in "ab"}),),
                value_table=ValueTable(("D2",), {("a",): 1.0, ("b",): 2.0}),
            )

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

    @pytest.mark.parametrize("key", [5, "ab", ("$2M",), ("$2M", "nt", "d")], ids=repr)
    def test_constraint_key_that_is_no_configuration(self, wildcatter, key):
        con = wildcatter.constraint("D")
        assert len(con.scope) == 2
        cells = {**con.cells, key: ("nd",)}
        with pytest.raises(InvalidModel) as exc:
            rebuild(
                wildcatter,
                constraints=(wildcatter.constraint("T"), Constraint("D", con.scope, cells)),
            )
        assert type(exc.value) is InvalidModel
        assert str(exc.value) == f"constraint cell key {key!r} does not match scope of 'D'"

    @pytest.mark.parametrize(
        "row", [{"w": "x", "y": 0.5}, {"w": None, "y": 0.5}, {"w": "0.5", "y": "0.5"},
                {"w": True, "y": False}],
    )
    def test_cpt_entry_that_is_not_a_number(self, wildcatter, row):
        cpts = tuple(Cpt("O", (), {(): row}) if c.child == "O" else c for c in wildcatter.cpts)
        with pytest.raises(CptRowNotNormalized, match="'w'.* is not a number") as exc:
            rebuild(wildcatter, cpts=cpts)
        assert (exc.value.child, exc.value.config) == ("O", ())

    @pytest.mark.parametrize("entry", [None, "3", False])
    def test_value_entry_that_is_not_a_number(self, wildcatter, entry):
        cells = {**wildcatter.value.cells, ("w", "t1", "nd"): entry}
        with pytest.raises(InvalidModel, match=r"\('w', 't1', 'nd'\) is .*, not a number"):
            rebuild(wildcatter, value=ValueTable(wildcatter.value.parents, cells))

    def test_integers_beyond_the_doubles_are_infinite(self, wildcatter):
        cpts = tuple(
            Cpt("O", (), {(): {"w": 10**400, "y": 0.0}}) if c.child == "O" else c
            for c in wildcatter.cpts
        )
        with pytest.raises(CptRowNotNormalized, match="P=inf outside"):
            rebuild(wildcatter, cpts=cpts)
        cells = {**wildcatter.value.cells, ("w", "t1", "nd"): -(10**400)}
        with pytest.raises(NonFiniteValue, match="is -inf"):
            rebuild(wildcatter, value=ValueTable(wildcatter.value.parents, cells))

    def test_numpy_scalars_are_numbers(self, wildcatter):
        cpts = tuple(
            Cpt("O", (), {(): {"w": np.float32(0.5), "y": np.float64(0.5)}}) if c.child == "O"
            else c
            for c in wildcatter.cpts
        )
        cells = {cfg: np.int64(v) for cfg, v in wildcatter.value.cells.items()}
        model = rebuild(wildcatter, cpts=cpts, value=ValueTable(wildcatter.value.parents, cells))
        assert model.cpt("O").rows == {(): {"w": 0.5, "y": 0.5}}
        assert model.value == wildcatter.value

    def test_string_key_of_a_one_variable_constraint(self):
        frame = Frame(("a", "b"))
        nodes = (NodeSpec("A", "chance", frame), NodeSpec("D", "decision", frame),
                 NodeSpec("V", "value"))
        arrows = (ArrowSpec("A", "D", "relevance"), ArrowSpec("D", "V", "relevance"))
        cpts = (Cpt("A", (), {(): {"a": 0.5, "b": 0.5}}),)
        value = ValueTable(("D",), {("a",): 1.0, ("b",): 0.0})
        cells = {("a",): ("a",), ("b",): ("a", "b")}
        built = build_model(nodes, arrows, cpts, (Constraint("D", ("A",), cells),), value)
        assert built.constraint("D").cells == cells
        # a bare label is no configuration: keys are tuples, as in Cpt and ValueTable
        bare = Constraint("D", ("A",), {"a": ("a",), "b": ("a", "b")})
        with pytest.raises(MissingTableEntry) as exc:
            build_model(nodes, arrows, cpts, (bare,), value)
        assert exc.value.config == ("a",)


class TestTablesAreArrays:
    """A model holds its tables as arrays; `cpts` and `value` are label views
    of them, made on demand, and nothing on the solve path asks for them."""

    @pytest.mark.parametrize("seed", range(10))
    def test_views_give_back_the_tables_built_from(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(seed, n_decisions=(0, 3), allow_zeros=seed % 2 == 0)
        # the same tables with shuffled parents, rows and labels
        cpts = []
        for c in m.cpts:
            order = rng.permutation(len(c.parents))
            rows = [
                (tuple(cfg[i] for i in order), dict(sorted(row.items(), reverse=True)))
                for cfg, row in c.rows.items()
            ]
            rng.shuffle(rows)
            cpts.append(Cpt(c.child, tuple(c.parents[i] for i in order), dict(rows)))
        cells = list(m.value.cells.items())
        rng.shuffle(cells)
        shuffled = rebuild(m, cpts=cpts, value=ValueTable(m.value.parents, dict(cells)))
        assert shuffled.cpts == tuple(cpts)
        assert shuffled.value == ValueTable(m.value.parents, dict(cells))
        for c, s in zip(m.cpts, cpts):
            table = shuffled.cpt_factor(c.child)
            assert table.scope == s.parents + (c.child,)
            for cfg, row in s.rows.items():
                for lab, p in row.items():
                    assert table.evaluate({**dict(zip(s.parents, cfg)), c.child: lab}) == p

    def test_first_bad_row_in_rows_order_is_reported(self, wildcatter):
        c = wildcatter.cpt("R")
        first, second = list(c.rows)[:2]
        for order, expected in (((first, second), "sums to"), ((second, first), "outside")):
            rows = {k: dict(c.rows[k]) for k in (*order, *c.rows)}
            rows[first]["o"] += 0.01
            rows[second]["o"] = -0.5
            bad = tuple(Cpt("R", c.parents, rows) if x.child == "R" else x for x in wildcatter.cpts)
            with pytest.raises(CptRowNotNormalized, match=expected) as exc:
                rebuild(wildcatter, cpts=bad)
            assert exc.value.config == order[0]

    def test_an_earlier_table_error_wins_over_a_later_missing_table(self, wildcatter):
        # chance nodes come in model order B, O, R: a bad row of O is
        # reported although R has no CPT at all
        o = wildcatter.cpt("O")
        rows = {k: {**row, "w": 2.0} for k, row in o.rows.items()}
        cpts = (wildcatter.cpt("B"), Cpt("O", o.parents, rows))
        with pytest.raises(CptRowNotNormalized, match="outside"):
            rebuild(wildcatter, cpts=cpts)
        with pytest.raises(CptParentsMismatch, match="'R' has no CPT"):
            rebuild(wildcatter, cpts=(wildcatter.cpt("B"), o))

    def test_keys_must_be_label_tuples(self):
        # a one-parent table keyed by a bare label instead of a 1-tuple
        frame = Frame(("a", "b"))
        nodes = (NodeSpec("X", "chance", frame), NodeSpec("Y", "chance", frame), NodeSpec("V", "value"))
        arrows = (ArrowSpec("X", "Y", "relevance"), ArrowSpec("Y", "V", "relevance"))
        half = {"a": 0.5, "b": 0.5}
        x = Cpt("X", (), {(): half})
        y = Cpt("Y", ("X",), {("a",): half, ("b",): half})
        value = ValueTable(("Y",), {("a",): 1.0, ("b",): 2.0})
        build_model(nodes, arrows, (x, y), (), value)
        bare = Cpt("Y", ("X",), {**y.rows, "a": half})
        with pytest.raises(InvalidModel, match="CPT row key 'a' does not match parents of 'Y'"):
            build_model(nodes, arrows, (x, bare), (), value)
        with pytest.raises(MissingTableEntry):
            build_model(nodes, arrows, (x, Cpt("Y", ("X",), {"a": half, "b": half})), (), value)
        bare_value = ValueTable(("Y",), {**value.cells, "a": 1.0})
        with pytest.raises(InvalidModel, match="value cell key 'a' does not match value parents"):
            build_model(nodes, arrows, (x, y), (), bare_value)

    def test_solve_path_builds_no_label_view(self, monkeypatch):
        import irid.model
        from irid.data import BUNDLED, bundled_bytes
        from irid.gibbs import SamplerConfig
        from irid.graph_ops import absorb_decision
        from irid.modelfile import model_content_hash, parse_model, serialize_model
        from irid.modelfile import serialize_solution
        from irid.solver import SolveOptions, solve

        inputs = [bundled_bytes(name) for name in BUNDLED]
        inputs += [serialize_model(random_model(s, n_decisions=(0, 3))) for s in range(20)]

        def no_views(*args):
            raise AssertionError("a label view was built")

        def no_conditionals(*args):
            raise AssertionError("a zero-one conditional was built")

        monkeypatch.setattr(irid.model, "_label_view", no_views)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("irid") and hasattr(module, "policy_to_conditional"):
                monkeypatch.setattr(module, "policy_to_conditional", no_conditionals)
        gibbs = SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=3, burn_in=10, samples=50))
        for data in inputs:
            for options in (SolveOptions(), gibbs):
                serialize_solution(solve(parse_model(data), options))
            model = parse_model(data)
            model_content_hash(model)
            if model.decisions:
                d = model.decisions[-1]
                absorb_decision(model, d, constrained_constant_policy(model, d, "v0"))
        with pytest.raises(AssertionError, match="label view"):
            parse_model(inputs[0]).cpts
        model = parse_model(inputs[0])
        with pytest.raises(AssertionError, match="zero-one conditional"):
            exact_expectation(model, solve(model).policies)


def _reference_row_error(owner, scope, entries, frames, labels):
    """The first error in a CPT's rows (`labels` its child's frame) or in
    the value table's cells (`labels` None), by a plain row-by-row loop
    written apart from `build_model`."""
    section, what = ("value", "value table") if labels is None else ("cpt", f"CPT of {owner!r}")
    for cfg in itertools.product(*(frames[v].labels for v in scope)):
        if cfg not in entries:
            return MissingTableEntry(section, owner, cfg)
    for cfg, entry in entries.items():
        if len(cfg) != len(scope):
            if labels is None:
                return InvalidModel(f"value cell key {cfg!r} does not match value parents")
            return InvalidModel(f"CPT row key {cfg!r} does not match parents of {owner!r}")
        for v, lab in zip(scope, cfg):
            if lab not in frames[v]:
                return ValueNotInFrame(f"{lab!r} not in frame of {v!r} ({what})")
        if labels is None:
            if not math.isfinite(entry):
                return NonFiniteValue(f"value table entry at {cfg!r} is {float(entry)!r}")
            continue
        if set(entry) != set(labels):
            extra = set(entry) - set(labels)
            if extra:
                return ValueNotInFrame(
                    f"CPT row of {owner!r} mentions {sorted(extra)} outside the frame"
                )
            return CptRowNotNormalized(owner, cfg, "missing probabilities")
        total = 0.0
        for lab in labels:
            p = float(entry[lab])
            if not (0.0 <= p <= 1.0):
                return CptRowNotNormalized(owner, cfg, f"P={p!r} outside [0,1]")
            total += p
        if abs(total - 1.0) > 1e-9:
            return CptRowNotNormalized(owner, cfg, f"row sums to {total!r}")
    return None


def _corrupted(entries, rng, fill):
    """`entries` with one to three random faults: a dropped, misshapen or
    stray key, a bad number, or a shuffle; `fill` makes a fresh entry."""
    entries = {k: dict(e) if isinstance(e, dict) else e for k, e in entries.items()}
    for _ in range(int(rng.integers(1, 4))):
        keys = list(entries)
        if not keys:
            break
        key = keys[int(rng.integers(len(keys)))]
        fault = int(rng.integers(7))
        if fault == 0:
            del entries[key]
        elif fault == 1:
            entries[key + ("zz",)] = fill()
        elif fault == 2 and key:
            entries[key[:-1] + ("stray",)] = fill()
        elif fault == 3:
            items = list(entries.items())
            rng.shuffle(items)
            entries = dict(items)
        elif not isinstance(entries[key], dict):
            entries[key] = [math.nan, math.inf, -0.0, 7.0][int(rng.integers(4))]
        elif entries[key]:
            row = entries[key]
            lab = list(row)[int(rng.integers(len(row)))]
            if fault == 4:
                row[lab] = [-0.25, 1.5, math.nan, math.inf, -0.0][int(rng.integers(5))]
            elif fault == 5:
                row[lab] += [1e-10, 2e-9, -0.01][int(rng.integers(3))]
            elif rng.random() < 0.5:
                row["extra"] = 0.0
            else:
                del row[lab]
    return entries


def _reference_cell_error(con, frames):
    """The first error in a constraint's cells, by a plain loop written
    apart from `build_model`: missing cells row-major, then each cell in
    mapping order, its key and then its alternatives."""
    labels = frames[con.decision].labels
    for cfg in itertools.product(*(frames[v].labels for v in con.scope)):
        if cfg not in con.cells:
            return MissingTableEntry("constraint", con.decision, cfg)
    for cfg, allowed in con.cells.items():
        if type(cfg) is not tuple or len(cfg) != len(con.scope):
            return InvalidModel(
                f"constraint cell key {cfg!r} does not match scope of {con.decision!r}"
            )
        for v, lab in zip(con.scope, cfg):
            if lab not in frames[v]:
                return ValueNotInFrame(
                    f"{lab!r} not in frame of {v!r} (constraint of {con.decision!r})"
                )
        for alt in allowed:
            if alt not in labels:
                return ValueNotInFrame(
                    f"constraint of {con.decision!r} permits {alt!r} outside the frame"
                )
        if not set(allowed) & set(labels):
            return EmptyConstraintCell(con.decision, cfg)
    return None


class TestConstraintChecksMatchTheLoop:
    def test_corrupted_constraints(self):
        outcomes = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = random_model(seed, n_decisions=(1, 3))
            con = m.constraints[int(rng.integers(len(m.constraints)))]
            cells = dict(con.cells)
            for _ in range(int(rng.integers(1, 4))):
                key = list(cells)[int(rng.integers(len(cells)))]
                fault = int(rng.integers(6))
                if fault == 0:
                    del cells[key]
                elif fault == 1:
                    cells[key + ("zz",)] = cells[key]
                elif fault == 2 and key:
                    cells[key[:-1] + ("stray",)] = cells[key]
                elif fault == 3:
                    cells[key] = cells[key] + ("mystery",)
                elif fault == 4:
                    cells[key] = ()
                else:
                    items = list(cells.items())
                    rng.shuffle(items)
                    cells = dict(items)
                if not cells:
                    break
            bad = Constraint(con.decision, con.scope, cells)
            build = lambda: rebuild(  # noqa: E731
                m, constraints=tuple(bad if c is con else c for c in m.constraints)
            )
            expected = _reference_cell_error(bad, m.frames)
            if expected is None:
                build()
                outcomes.add("ok")
                continue
            with pytest.raises(type(expected)) as exc:
                build()
            assert type(exc.value) is type(expected)
            assert str(exc.value) == str(expected)
            outcomes.add(type(expected).__name__)
        assert len(outcomes) >= 5


class TestTableChecksMatchTheLoop:
    """The table checks raise what the reference loop below raises: the
    first bad entry in mapping order, and within a row its key, then its
    labels, then each probability in frame order, then the sum."""

    @pytest.mark.parametrize("block", range(4))
    def test_corrupted_tables(self, block):
        outcomes = set()
        for seed in range(block * 100, block * 100 + 100):
            rng = np.random.default_rng(seed)
            m = random_model(seed, n_decisions=(0, 3), allow_zeros=seed % 2 == 0)
            frames = m.frames
            target = int(rng.integers(len(m.cpts) + 1))
            if target < len(m.cpts):
                c = m.cpts[target]
                labels = frames[c.child].labels
                rows = _corrupted(c.rows, rng, lambda: dict.fromkeys(labels, 1 / len(labels)))
                bad = tuple(Cpt(c.child, c.parents, rows) if x is c else x for x in m.cpts)
                expected = _reference_row_error(c.child, c.parents, rows, frames, labels)
                build = lambda: rebuild(m, cpts=bad)  # noqa: E731
            else:
                cells = _corrupted(m.value.cells, rng, lambda: 1.0)
                expected = _reference_row_error(m.value_var, m.value.parents, cells, frames, None)
                build = lambda: rebuild(m, value=ValueTable(m.value.parents, cells))  # noqa: E731
            if expected is None:
                build()
                outcomes.add("ok")
                continue
            with pytest.raises(type(expected)) as exc:
                build()
            assert str(exc.value) == str(expected)
            outcomes.add(type(expected).__name__)
        assert len(outcomes) >= 4
