import itertools

import numpy as np
import pytest

import irid.solver
from irid.data import BUNDLED
from irid.errors import IncompletePolicy, NotLastDecision, StageOutOfRange
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
    Policy,
    ValueTable,
    build_model,
    iter_configs,
)
from irid.modelfile import parse_model, serialize_model
from irid.oracle import exact_expectation, exact_stage_expectation, exhaustive_policy_search

from conftest import constrained_constant_policy
from model_gen import certificate_model, random_model, random_policies


def stage_ctx(model, k=None):
    part = compute_partition(model)
    if k is None:
        k = part.stage_count
    moral = moralize(relevance_subgraph(model))
    return build_stage_context(model, part, moral, k)


def edges(parents):
    return {(p, c) for c, ps in parents.items() for p in ps}


def moral_edges(neighbours):
    return {frozenset((x, y)) for x, ys in neighbours.items() for y in ys}


def chain_model(extra_nodes=(), extra_arrows=(), extra_cpts=()):
    """X -> D1 -> V plus whatever the test grafts on."""
    nodes = (
        NodeSpec("X", "chance", Frame(("x0", "x1"))),
        NodeSpec("D1", "decision", Frame(("a", "b"))),
        NodeSpec("V", "value"),
    ) + tuple(extra_nodes)
    arrows = (
        ArrowSpec("X", "D1", "informational"),
        ArrowSpec("X", "V", "relevance"),
        ArrowSpec("D1", "V", "relevance"),
    ) + tuple(extra_arrows)
    cpts = (Cpt("X", (), {(): {"x0": 0.25, "x1": 0.75}}),) + tuple(extra_cpts)
    value = ValueTable(
        ("X", "D1"),
        {
            ("x0", "a"): 4.0,
            ("x0", "b"): 0.0,
            ("x1", "a"): 1.0,
            ("x1", "b"): 3.0,
        },
    )
    return build_model(nodes, arrows, cpts, (), value)


class TestRemoveBarren:
    def test_wildcatter_unchanged(self, wildcatter):
        assert remove_barren(wildcatter) is wildcatter

    def test_unused_observation_removed(self):
        m = chain_model(
            extra_nodes=(NodeSpec("L", "chance", Frame(("l0", "l1"))),),
            extra_arrows=(ArrowSpec("X", "L", "relevance"),),
            extra_cpts=(
                Cpt(
                    "L",
                    ("X",),
                    {("x0",): {"l0": 1.0, "l1": 0.0}, ("x1",): {"l0": 0.5, "l1": 0.5}},
                ),
            ),
        )
        reduced = remove_barren(m)
        assert "L" not in reduced.variables
        assert set(reduced.variables) == {"X", "D1", "V"}

    def test_chained_barren_nodes(self):
        m = chain_model(
            extra_nodes=(
                NodeSpec("P", "chance", Frame(("p0", "p1"))),
                NodeSpec("Q", "chance", Frame(("q0", "q1"))),
            ),
            extra_arrows=(ArrowSpec("P", "Q", "relevance"),),
            extra_cpts=(
                Cpt("P", (), {(): {"p0": 0.5, "p1": 0.5}}),
                Cpt("Q", ("P",), {("p0",): {"q0": 1.0, "q1": 0.0}, ("p1",): {"q0": 0.0, "q1": 1.0}}),
            ),
        )
        reduced = remove_barren(m)
        assert "P" not in reduced.variables and "Q" not in reduced.variables

    @pytest.mark.parametrize("seed", range(50))
    def test_preserves_optimum_and_surviving_policies(self, seed):
        m = random_model(seed, n_chance=(1, 5), n_decisions=(1, 2))
        reduced = remove_barren(m)
        pol_full, val_full = exhaustive_policy_search(m)
        pol_red, val_red = exhaustive_policy_search(reduced)
        assert val_red == pytest.approx(val_full, abs=1e-9)
        for d in reduced.decisions:
            assert pol_red[d].table == pol_full[d].table


class TestComputePartition:
    def test_wildcatter_blocks(self, wildcatter):
        part = compute_partition(wildcatter)
        assert part.decisions == ("T", "D")
        assert part.blocks == (
            frozenset({"B"}),
            frozenset({"T", "R"}),
            frozenset({"D", "O"}),
        )

    def test_decisions_only(self):
        m = build_model(
            nodes=(
                NodeSpec("D1", "decision", Frame(("a", "b"))),
                NodeSpec("D2", "decision", Frame(("c", "d"))),
                NodeSpec("V", "value"),
            ),
            arrows=(
                ArrowSpec("D1", "D2", "informational"),
                ArrowSpec("D1", "V", "relevance"),
                ArrowSpec("D2", "V", "relevance"),
            ),
            cpts=(),
            constraints=(),
            value_table=ValueTable(
                ("D1", "D2"),
                {cfg: 1.0 for cfg in itertools.product(("a", "b"), ("c", "d"))},
            ),
        )
        part = compute_partition(m)
        assert part.blocks == (frozenset(), frozenset({"D1"}), frozenset({"D2"}))

    def test_never_observed_lands_in_last_block(self, wildcatter):
        part = compute_partition(wildcatter)
        assert "O" in part.blocks[-1]

    @pytest.mark.parametrize("seed", range(20))
    def test_blocks_partition_non_value_variables(self, seed):
        m = random_model(seed + 300, n_decisions=(0, 2))
        part = compute_partition(m)
        union = set().union(*part.blocks) if part.blocks else set()
        assert union == set(m.variables) - {m.value_var}
        total = sum(len(b) for b in part.blocks)
        assert total == len(union)
        for i, d in enumerate(part.decisions):
            assert d in part.blocks[i + 1]


class TestRelevanceSubgraph:
    def test_wildcatter_arrows(self, wildcatter):
        g = relevance_subgraph(wildcatter)
        assert edges(g) == {
            ("O", "R"),
            ("T", "R"),
            ("B", "D"),
            ("T", "D"),
            ("O", "V"),
            ("T", "V"),
            ("D", "V"),
        }

    def test_unconstrained_decision_is_isolated_from_parents(self, wildcatter_info_only):
        g = relevance_subgraph(wildcatter_info_only)
        assert len(g["D"]) == 0
        assert len(g["T"]) == 0

    def test_pure_chance_network_unchanged(self):
        m = build_model(
            nodes=(
                NodeSpec("A", "chance", Frame(("0", "1"))),
                NodeSpec("B", "chance", Frame(("0", "1"))),
                NodeSpec("V", "value"),
            ),
            arrows=(ArrowSpec("A", "B", "relevance"), ArrowSpec("B", "V", "relevance")),
            cpts=(
                Cpt("A", (), {(): {"0": 0.5, "1": 0.5}}),
                Cpt("B", ("A",), {("0",): {"0": 1.0, "1": 0.0}, ("1",): {"0": 0.0, "1": 1.0}}),
            ),
            constraints=(),
            value_table=ValueTable(("B",), {("0",): 0.0, ("1",): 1.0}),
        )
        g = relevance_subgraph(m)
        assert edges(g) == {(a.source, a.target) for a in m.arrows}


class TestMoralize:
    def test_wildcatter_moral_edges(self, wildcatter):
        mg = moralize(relevance_subgraph(wildcatter))
        expected = {
            frozenset(e)
            for e in [
                ("O", "R"),
                ("T", "R"),
                ("O", "T"),
                ("B", "D"),
                ("T", "D"),
                ("B", "T"),
                ("O", "V"),
                ("T", "V"),
                ("D", "V"),
                ("O", "D"),
            ]
        }
        assert moral_edges(mg) == expected

    def test_single_arrow(self):
        g = {"X": (), "Y": ("X",)}
        assert moral_edges(moralize(g)) == {frozenset(("X", "Y"))}

    def test_collider_marries_parents(self):
        g = {"X": (), "Y": (), "Z": ("X", "Y")}
        assert moral_edges(moralize(g)) == {
            frozenset(("X", "Z")),
            frozenset(("Y", "Z")),
            frozenset(("X", "Y")),
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_edge_characterization(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        g = {v: [] for v in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    g[j].append(i)
        arrows = edges(g)
        mg = moralize(g)
        for x in range(n):
            for y in range(x + 1, n):
                direct = (x, y) in arrows or (y, x) in arrows
                co_parents = any(
                    (x, z) in arrows and (y, z) in arrows for z in range(n)
                )
                assert (y in mg[x]) == (direct or co_parents)


class TestBuildStageContext:
    def test_wildcatter_stage_two(self, wildcatter):
        ctx = stage_ctx(wildcatter)
        assert ctx.stage == 2
        assert ctx.decision == "D"
        assert ctx.gamma_prime == frozenset({"D", "O"})
        assert ctx.dependency_set == frozenset({"T", "R", "B"})
        tags = {(sf.role, sf.child) for sf in ctx.factors}
        assert tags == {
            ("chance", "O"),
            ("chance", "R"),
            ("decision", "D"),
            ("value", "V"),
        }
        assert set(ctx.value_factor.scope) == {"O", "T", "D"}
        placeholder = next(sf for sf in ctx.factors if sf.role == "decision")
        assert set(placeholder.factor.scope) == {"B", "T", "D"}
        assert np.all(placeholder.factor.values == 1.0)

    def test_block_member_disconnected_from_value_is_dropped(self):
        # U is never observed and childless, so it shares the last block with
        # D1 but has no moral path to V inside the block
        m = chain_model(
            extra_nodes=(NodeSpec("U", "chance", Frame(("u0", "u1"))),),
            extra_cpts=(Cpt("U", (), {(): {"u0": 0.5, "u1": 0.5}}),),
        )
        ctx = stage_ctx(m)
        part = compute_partition(m)
        assert "U" in part.blocks[1]
        assert ctx.gamma_prime == frozenset({"D1"})
        assert "U" not in ctx.gamma_prime

    def test_degenerate_block_with_decision_only(self):
        m = chain_model()
        ctx = stage_ctx(m)
        assert ctx.gamma_prime == frozenset({"D1"})
        # X is married to D1 through V, so the decision depends on it
        assert ctx.dependency_set == frozenset({"X"})
        tags = {(sf.role, sf.child) for sf in ctx.factors}
        assert tags == {("decision", "D1"), ("value", "V")}

    def test_stage_out_of_range(self, wildcatter):
        part = compute_partition(wildcatter)
        moral = moralize(relevance_subgraph(wildcatter))
        with pytest.raises(StageOutOfRange):
            build_stage_context(wildcatter, part, moral, 3)
        with pytest.raises(StageOutOfRange):
            build_stage_context(wildcatter, part, moral, 0)
        with pytest.raises(StageOutOfRange):
            build_stage_context(wildcatter, part, moral, 1)  # not the last stage


class TestAbsorbDecision:
    def test_wildcatter_rewires_value_parents(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "d")
        absorbed = absorb_decision(wildcatter, "D", pol)
        assert "D" not in absorbed.variables
        assert set(absorbed.parents("V")) == {"O", "T", "R", "B"}
        assert absorbed.decisions == ("T",)

    def test_constant_policy_restricts_value_table(self, minimal_model):
        pol = Policy("D", (), {(): "d"})
        absorbed = absorb_decision(minimal_model, "D", pol)
        assert absorbed.value.parents == ()
        assert absorbed.value.cells[()] == 1.0

    def test_absorbed_value_entries_follow_policy(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "d")
        absorbed = absorb_decision(wildcatter, "D", pol)
        v_old = wildcatter.value
        v_new = absorbed.value
        for cfg in iter_configs(v_new.parents, absorbed.frames):
            assign = dict(zip(v_new.parents, cfg))
            chosen = pol.choice(assign)
            key = tuple(
                {**assign, "D": chosen}[p] for p in v_old.parents
            )
            assert v_new.cells[cfg] == v_old.cells[key]

    def test_incomplete_policy(self, wildcatter):
        scope = wildcatter.parents("D")
        table = {
            cfg: "nd" for cfg in itertools.islice(iter_configs(scope, wildcatter.frames), 5)
        }
        with pytest.raises(IncompletePolicy):
            absorb_decision(wildcatter, "D", Policy("D", scope, table))

    def test_only_last_decision_can_be_absorbed(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "T", "nt")
        with pytest.raises(NotLastDecision):
            absorb_decision(wildcatter, "T", pol)

    def test_zero_one_conditional_not_kept(self, wildcatter):
        pol = constrained_constant_policy(wildcatter, "D", "nd")
        absorbed = absorb_decision(wildcatter, "D", pol)
        ctx = stage_ctx(absorbed)
        # the next stage sees only chance conditionals, the current
        # placeholder, and the value table
        roles = {sf.role for sf in ctx.factors}
        assert roles <= {"chance", "decision", "value"}
        assert all(sf.child != "D" for sf in ctx.factors)

    def test_preserves_expectation_on_wildcatter(self, wildcatter):
        rng = np.random.default_rng(3)
        for _ in range(5):
            policies = random_policies(wildcatter, rng)
            direct = exact_expectation(wildcatter, policies)
            m = absorb_decision(wildcatter, "D", policies["D"])
            m = absorb_decision(m, "T", policies["T"])
            composed = exact_stage_expectation(terminal_stage_context(m), {})
            assert composed == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_preserves_expectation_on_random_models(self, seed):
        m = random_model(seed + 600, n_chance=(1, 4), n_decisions=(1, 2))
        rng = np.random.default_rng(seed)
        policies = random_policies(m, rng)
        direct = exact_expectation(m, policies)
        reduced = m
        for d in reversed(reduced.decisions):
            reduced = absorb_decision(reduced, d, policies[d])
        composed = exact_stage_expectation(terminal_stage_context(reduced), {})
        assert composed == pytest.approx(direct, abs=1e-9)


def record_derived_models(monkeypatch):
    """A list to which the solver appends every model its `remove_barren`
    and `absorb_decision` return."""
    derived = []

    def recording(fn):
        def wrapper(*args):
            derived.append(fn(*args))
            return derived[-1]

        return wrapper

    for name in ("remove_barren", "absorb_decision"):
        monkeypatch.setattr(irid.solver, name, recording(getattr(irid.solver, name)))
    return derived


def assert_same_table(derived, rebuilt):
    assert derived.scope == rebuilt.scope
    assert derived.values.flags.c_contiguous
    assert derived.values.dtype == rebuilt.values.dtype
    assert np.array_equal(derived.values, rebuilt.values)


class TestDerivedModelCertificate:
    """Models derived without checks (barren-node removal, absorption) equal
    what `build_model` makes of their parts, and so do the table factors they
    carry over from their parents or compose from them."""

    @pytest.mark.parametrize("source", [*BUNDLED, *range(200)])
    def test_solver_chain_matches_build_model(self, source, monkeypatch):
        derived = record_derived_models(monkeypatch)
        model = certificate_model(source)
        irid.solver.solve(model)
        assert len(derived) == 1 + len(derived[0].decisions)
        for m in derived:
            rebuilt = build_model(m.nodes, m.arrows, m.cpts, m.constraints, m.value, m.objective)
            for field in (
                "nodes", "arrows", "cpts", "constraints", "value", "objective",
                "decisions", "topological_order",
            ):
                assert getattr(m, field) == getattr(rebuilt, field), field
            for v in m.chance_vars:
                assert_same_table(m.cpt_factor(v), rebuilt.cpt_factor(v))
            for d in m.decisions:
                assert_same_table(m._table(d), rebuilt._table(d))
            assert_same_table(m.value_factor, rebuilt.value_factor)


def with_barren_chains(model, rng):
    """`model` with one to three chains of binary chance nodes grafted on.
    A chain starts at no parent or at a random non-value node, and each of
    its nodes may take a second parent from the model; no chain reaches the
    value node, so every grafted node is barren."""
    base = [v for v in model.variables if v != model.value_var]
    frame = Frame(("b0", "b1"))
    nodes, arrows, cpts = list(model.nodes), list(model.arrows), list(model.cpts)
    for c in range(int(rng.integers(1, 4))):
        previous = str(rng.choice(base)) if rng.random() < 0.7 else None
        for i in range(int(rng.integers(1, 4))):
            node = f"B{c}_{i}"
            parents = [previous] if previous else []
            if rng.random() < 0.3:
                extra = str(rng.choice(base))
                parents += [extra] if extra not in parents else []
            nodes.append(NodeSpec(node, "chance", frame))
            arrows += [ArrowSpec(p, node, "relevance") for p in parents]
            frames = [model.frame(p) if p in model.variables else frame for p in parents]
            rows = {cfg: {"b0": 0.5, "b1": 0.5} for cfg in itertools.product(*frames)}
            cpts.append(Cpt(node, tuple(parents), rows))
            previous = node
    return build_model(nodes, arrows, cpts, model.constraints, model.value, model.objective)


def rule_models(seed):
    """Parsed random and certificate models, and random models with barren
    chains, for checking the structural rules against their definitions."""
    rng = np.random.default_rng(seed)
    return [
        random_model(seed + 900, n_decisions=(0, 3)),
        certificate_model(seed),
        with_barren_chains(random_model(seed + 1900, n_decisions=(1, 3)), rng),
    ]


def survivors_of_repeated_deletion(model):
    """Delete childless non-value nodes until none is left."""
    alive = set(model.variables)
    while True:
        barren = {
            v for v in alive if v != model.value_var and alive.isdisjoint(model.children(v))
        }
        if not barren:
            return alive
        alive -= barren


def blocks_by_first_new_observation(model):
    """Block 0 holds what the first decision observes; block i what decision
    i + 1 observes and decision i does not, for the first such i; the last
    block everything else, with decision i in block i."""
    decisions = model.decisions
    k = len(decisions)
    observed_by = {d: set(model.parents(d)) for d in decisions}
    blocks = [set() for _ in range(k + 1)]
    for i, d in enumerate(decisions):
        blocks[i + 1].add(d)
    for v in model.chance_vars:
        if k == 0 or v in observed_by[decisions[0]]:
            blocks[0].add(v)
            continue
        placed = False
        for i in range(1, k):
            if v in observed_by[decisions[i]] and v not in observed_by[decisions[i - 1]]:
                blocks[i].add(v)
                placed = True
                break
        if not placed:
            blocks[k].add(v)
    return tuple(frozenset(b) for b in blocks)


class TestRulesMatchTheirDefinitions:
    """`remove_barren`, `compute_partition` and the parent and child maps
    against the definitions they compute."""

    @pytest.mark.parametrize("seed", range(40))
    def test_remove_barren_keeps_what_repeated_deletion_keeps(self, seed):
        removed = 0
        for m in rule_models(seed):
            kept = set(remove_barren(m).variables)
            assert kept == survivors_of_repeated_deletion(m)
            removed += len(m.variables) - len(kept)
        assert removed

    @pytest.mark.parametrize("seed", range(40))
    def test_compute_partition_matches_the_first_new_observation(self, seed):
        for m in rule_models(seed):
            for model in (m, remove_barren(m)):
                assert compute_partition(model).blocks == blocks_by_first_new_observation(model)

    @pytest.mark.parametrize("seed", range(20))
    def test_parents_and_children_in_model_order(self, seed, monkeypatch):
        derived = record_derived_models(monkeypatch)
        parsed = [parse_model(serialize_model(m)) for m in rule_models(seed)]
        for m in parsed:
            irid.solver.solve(m)
        assert len(derived) > len(parsed)
        for model in [*parsed, *derived]:
            position = {v: i for i, v in enumerate(model.variables)}
            for v in model.variables:
                parents = [a.source for a in model.arrows if a.target == v]
                children = [a.target for a in model.arrows if a.source == v]
                assert model.parents(v) == tuple(sorted(parents, key=position.get))
                assert model.children(v) == tuple(sorted(children, key=position.get))
