"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s or in
captured output) and enforces its stated runtime budget where one exists.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from irid.cli import run_cli
from irid.data import bundled_bytes
from irid.errors import ZeroNormalizer
from irid.gibbs import SamplerConfig, estimate_expectation
from irid.graph_ops import (
    absorb_decision,
    build_stage_context,
    compute_partition,
    moralize,
    relevance_subgraph,
    remove_barren,
    terminal_stage_context,
)
from irid.model import build_model, iter_configs, policy_to_conditional
from irid.oracle import (
    EnumerationBudget,
    exact_expectation,
    exact_stage_expectation,
    exhaustive_policy_search,
)
from irid.solver import SolveOptions, solve

from conftest import constrained_constant_policy
from model_gen import random_model, random_policies


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {num:2d} PASS  {description}  ({elapsed:.2f}s)")


def stage2_ctx(model):
    part = compute_partition(model)
    return build_stage_context(model, part, moralize(relevance_subgraph(model)), 2)


def stage2_cells(model):
    """Reachable (dependency configuration, alternative) pairs with their
    exact conditional expectations."""
    ctx = stage2_ctx(model)
    order = {v: i for i, v in enumerate(model.variables)}
    dep_vars = tuple(sorted(ctx.dependency_set, key=order.__getitem__))
    cells = []
    for cfg in iter_configs(dep_vars, model.frames):
        cfg_map = dict(zip(dep_vars, cfg))
        for alt in model.admissible(ctx.decision, cfg_map):
            fixed = dict(cfg_map)
            fixed[ctx.decision] = alt
            try:
                exact = exact_stage_expectation(ctx, fixed)
            except ZeroNormalizer:
                continue
            cells.append((fixed, exact))
    return ctx, cells


def test_criterion_01_structural_reproduction(wildcatter):
    with criterion(1, "stage partition and stage-2 working set match the walkthrough"):
        start = time.perf_counter()
        part = compute_partition(wildcatter)
        assert part.blocks == (
            frozenset({"B"}),
            frozenset({"T", "R"}),
            frozenset({"D", "O"}),
        )
        ctx = build_stage_context(
            wildcatter, part, moralize(relevance_subgraph(wildcatter)), 2
        )
        assert ctx.dependency_set == frozenset({"T", "R", "B"})
        tags = {(sf.role, sf.child) for sf in ctx.factors if sf.role != "value"}
        assert tags == {("chance", "R"), ("decision", "D"), ("chance", "O")}
        assert ctx.value_factor is not None
        assert set(ctx.value_factor.scope) == {"O", "T", "D"}
        assert time.perf_counter() - start < 1.0


def test_criterion_02_exact_matches_oracle(wildcatter):
    with criterion(2, "backward induction equals exhaustive policy search"):
        start = time.perf_counter()
        solution = solve(wildcatter, SolveOptions(backend="exact"))
        policies, value = exhaustive_policy_search(wildcatter)
        assert abs(solution.expected_value - value) <= 1e-9
        for d in wildcatter.decisions:
            assert solution.policies[d].table == policies[d].table
        assert time.perf_counter() - start < 5.0


def test_criterion_03_constraint_enforcement(wildcatter):
    with criterion(3, "small budget after the costly test forces not drilling"):
        solution = solve(wildcatter, SolveOptions(backend="exact"))
        for r in wildcatter.frame("R").labels:
            assert solution.policies["D"].table[("$1M", "t2", r)] == "nd"


def test_criterion_04_informational_nullity(wildcatter_info_only):
    with criterion(4, "informational-only budget never affects the decisions"):
        start = time.perf_counter()
        m = wildcatter_info_only
        sol = solve(m, SolveOptions(backend="exact"))
        nodes = tuple(n for n in m.nodes if n.id != "B")
        arrows = tuple(a for a in m.arrows if "B" not in (a.source, a.target))
        cpts = tuple(c for c in m.cpts if c.child != "B")
        reduced = build_model(nodes, arrows, cpts, m.constraints, m.value, m.objective)
        sol_reduced = solve(reduced, SolveOptions(backend="exact"))
        for b in m.frame("B").labels:
            assert sol.policies["T"].table[(b,)] == sol_reduced.policies["T"].table[()]
            for t in m.frame("T").labels:
                for r in m.frame("R").labels:
                    assert (
                        sol.policies["D"].table[(b, t, r)]
                        == sol_reduced.policies["D"].table[(t, r)]
                    )
        assert time.perf_counter() - start < 5.0


def test_criterion_05_encoding_equivalence(wildcatter, wildcatter_workaround):
    with criterion(5, "deterministic-node workaround and constraint encoding agree"):
        budget = EnumerationBudget(max_policy_combinations=10**7)
        _, v_irid = exhaustive_policy_search(wildcatter, budget)
        _, v_workaround = exhaustive_policy_search(wildcatter_workaround, budget)
        assert abs(v_irid - v_workaround) <= 1e-9


def test_criterion_06_gibbs_statistical_accuracy(wildcatter):
    with criterion(6, "every stage-2 cell within 3 standard errors in >=95/100 runs"):
        start = time.perf_counter()
        ctx, cells = stage2_cells(wildcatter)
        assert len(cells) == 18
        runs = 100
        hits = np.zeros(len(cells), dtype=int)
        for run in range(runs):
            for idx, (fixed, exact) in enumerate(cells):
                seed = int(
                    np.random.SeedSequence(entropy=run, spawn_key=(idx,)).generate_state(
                        1, np.uint64
                    )[0]
                )
                (est,) = estimate_expectation(
                    ctx, [fixed], ctx.value_factor, SamplerConfig(seed=seed)
                )
                assert est.n == 20000
                if abs(est.mean - exact) <= 3 * est.std_error:
                    hits[idx] += 1
        elapsed = time.perf_counter() - start
        assert hits.min() >= 95, f"per-cell hit counts {hits.tolist()}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_07_gibbs_policy_agreement(tmp_path, capsys):
    with criterion(7, "compare exits 0 (full policy agreement) in >=95/100 seeds"):
        path = tmp_path / "wildcatter_irid.json"
        path.write_bytes(bundled_bytes("wildcatter_irid"))
        agreements = 0
        for seed in range(100):
            code = run_cli(["compare", str(path), "--seed", str(seed)])
            capsys.readouterr()  # keep the log small
            if code == 0:
                agreements += 1
        assert agreements >= 95, f"{agreements}/100 seeds agreed"


def test_criterion_08_random_model_certificate():
    with criterion(8, "backward induction matches exhaustive search on 50 random models"):
        start = time.perf_counter()
        for seed in range(50):
            m = random_model(
                seed + 10_000, n_chance=(1, 5), n_decisions=(1, 2),
                allow_zeros=(seed % 3 == 0),
            )
            solution = solve(m, SolveOptions(backend="exact"))
            _, value = exhaustive_policy_search(m)
            assert abs(solution.expected_value - value) <= 1e-9, f"seed {seed}"
        assert time.perf_counter() - start < 60.0


def test_criterion_09_invariant_suites(wildcatter):
    with criterion(9, "normalization, one-hot, moralization, preservation, invariance"):
        # conditional probability rows normalize
        for c in wildcatter.cpts:
            for cfg in iter_configs(c.parents, wildcatter.frames):
                assert abs(sum(c.rows[cfg].values()) - 1.0) <= 1e-9

        # policy conditionals are one-hot per row
        for d in wildcatter.decisions:
            pol = constrained_constant_policy(wildcatter, d, wildcatter.frame(d).labels[0])
            table = policy_to_conditional(wildcatter, pol).values.reshape(
                -1, len(wildcatter.frame(d))
            )
            assert np.array_equal(table.sum(axis=1), np.ones(len(table)))
            assert np.array_equal((table == 1.0).sum(axis=1), np.ones(len(table)))

        # moral edge iff parent-child or co-parents
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = {v: [] for v in range(6)}
            for i in range(6):
                for j in range(i + 1, 6):
                    if rng.random() < 0.35:
                        g[j].append(i)
            arrows = {(p, c) for c, ps in g.items() for p in ps}
            mg = moralize(g)
            for x in range(6):
                for y in range(x + 1, 6):
                    expected = (
                        (x, y) in arrows
                        or (y, x) in arrows
                        or any((x, z) in arrows and (y, z) in arrows for z in range(6))
                    )
                    assert (y in mg[x]) == expected

        # removing barren nodes preserves the optimum (50 random models)
        for seed in range(50):
            m = random_model(seed + 20_000, n_chance=(1, 5), n_decisions=(1, 2))
            _, v_full = exhaustive_policy_search(m)
            _, v_red = exhaustive_policy_search(remove_barren(m))
            assert abs(v_full - v_red) <= 1e-9

        # absorbing a fixed decision function preserves the expectation
        for seed in range(20):
            m = random_model(seed + 30_000, n_chance=(1, 4), n_decisions=(1, 2))
            policies = random_policies(m, np.random.default_rng(seed))
            direct = exact_expectation(m, policies)
            reduced = m
            for d in reversed(reduced.decisions):
                reduced = absorb_decision(reduced, d, policies[d])
            composed = exact_stage_expectation(terminal_stage_context(reduced), {})
            assert abs(composed - direct) <= 1e-9

        # positive affine value transforms leave the chosen policies alone
        from irid.model import ValueTable

        for seed in range(20):
            m = random_model(seed + 40_000, n_decisions=(1, 2))
            base = solve(m, SolveOptions(backend="exact"))
            cells = {cfg: 3.0 * v + 10.0 for cfg, v in m.value.cells.items()}
            scaled_model = build_model(
                m.nodes, m.arrows, m.cpts, m.constraints,
                ValueTable(m.value.parents, cells), m.objective,
            )
            scaled = solve(scaled_model, SolveOptions(backend="exact"))
            neg_cells = {cfg: -3.0 * v + 7.0 for cfg, v in m.value.cells.items()}
            flipped_model = build_model(
                m.nodes, m.arrows, m.cpts, m.constraints,
                ValueTable(m.value.parents, neg_cells),
                "minimize" if m.objective == "maximize" else "maximize",
            )
            flipped = solve(flipped_model, SolveOptions(backend="exact"))
            for d in m.decisions:
                assert base.policies[d].table == scaled.policies[d].table
                assert base.policies[d].table == flipped.policies[d].table


def test_criterion_10_spot_values(wildcatter):
    with criterion(10, "hand-computed expectations reproduce exactly"):
        nt = constrained_constant_policy(wildcatter, "T", "nt")
        drill = constrained_constant_policy(wildcatter, "D", "d")
        hold = constrained_constant_policy(wildcatter, "D", "nd")
        assert exact_expectation(wildcatter, {"T": nt, "D": drill}) == 250000.0
        assert exact_expectation(wildcatter, {"T": nt, "D": hold}) == -1200000.0
