"""Backward dynamic programming over decision stages.

Stages are solved last decision first.  For each configuration of the
variables the stage's decision depends on, `_evaluate` gives the conditional
expectation of the value node for every admissible alternative: exactly
(`oracle.exact_stage_expectation`), or by Gibbs sampling
(`gibbs.estimate_expectation`) with a seed derived from (stage, cell,
alternative).  The best alternative is chosen (ties to frame order), and the
solved decision function is absorbed into the diagram before the next stage.
After the first decision is absorbed, `_evaluate` on the remaining
chance-only network gives the terminal expected value.

Cells whose conditioning event has probability zero cannot be ranked: Eq-style
conditional expectations are undefined there.  They still get a deterministic
choice (first admissible alternative) and are flagged in the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import gibbs, oracle
from .errors import InvalidModel, NoPositiveState, ZeroNormalizer
from .gibbs import SamplerConfig
from .graph_ops import (
    StageContext,
    build_stage_context,
    compute_partition,
    absorb_decision,
    moralize,
    relevance_subgraph,
    remove_barren,
    terminal_stage_context,
)
from .model import MAXIMIZE, OBJECTIVES, IridModel, Policy, iter_configs

BACKEND_EXACT = "exact"
BACKEND_GIBBS = "gibbs"


@dataclass(frozen=True)
class SolveOptions:
    backend: str = BACKEND_EXACT
    sampler: SamplerConfig | None = None
    objective_override: str | None = None
    common_random_numbers: bool = False

    def __post_init__(self):
        if self.backend not in (BACKEND_EXACT, BACKEND_GIBBS):
            raise InvalidModel(f"unknown backend {self.backend!r}")
        if (self.sampler is not None) != (self.backend == BACKEND_GIBBS):
            raise InvalidModel("a sampler configuration is required iff backend='gibbs'")
        if self.objective_override is not None and self.objective_override not in OBJECTIVES:
            raise InvalidModel(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True, slots=True)
class CellDiagnostic:
    """One evaluated (stage, predecessor configuration, alternative)."""

    stage: int
    decision: str
    config: tuple[tuple[str, str], ...]
    alternative: str
    value: float | None
    std_error: float | None
    n: int | None
    chosen: bool
    zero_probability: bool


@dataclass(frozen=True)
class Solution:
    policies: dict[str, Policy]
    expected_value: float
    per_cell_diagnostics: tuple[CellDiagnostic, ...]
    backend_used: str
    objective: str
    sampler: SamplerConfig | None
    model_hash: str
    expected_value_std_error: float | None = None
    expected_value_n: int | None = None


def _cell_seed(sampler: SamplerConfig, crn: bool, key: tuple[int, int, int]) -> int:
    """Seed of one (stage, cell, alternative): cells are independent and
    reproducible in any evaluation order.  With common random numbers the
    alternatives of a cell share a stream, which sharpens their comparison at
    the cost of coupling them."""
    stage, cell_index, alt_index = key
    ss = np.random.SeedSequence(
        entropy=sampler.seed & ((1 << 64) - 1),
        spawn_key=(stage, cell_index, 0 if crn else alt_index),
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _evaluate(
    ctx: StageContext,
    fixed: Mapping[str, str],
    options: SolveOptions,
    key: tuple[int, int, int] = (0, 0, 0),
) -> tuple[float, float | None, int | None]:
    """(value, standard error, sample count) of the value node's conditional
    expectation at `fixed`; the exact backend reports no error or count."""
    if options.backend == BACKEND_EXACT:
        return oracle.exact_stage_expectation(ctx, fixed), None, None
    sampler = options.sampler
    cfg = replace(sampler, seed=_cell_seed(sampler, options.common_random_numbers, key))
    est = gibbs.estimate_expectation(ctx, fixed, ctx.value_factor, cfg)
    return est.mean, est.std_error, est.n


def solve(model: IridModel, options: SolveOptions = SolveOptions()) -> Solution:
    """Optimize every decision by backward induction and return the policies,
    the terminal expected value, and per-cell diagnostics."""
    from .modelfile import model_content_hash

    objective = options.objective_override or model.objective
    original_decisions = model.decisions

    working = remove_barren(model)

    policies: dict[str, Policy] = {}
    # decisions dropped as barren cannot influence the value node: give them
    # the first admissible alternative per cell so the solution stays total
    for d in original_decisions:
        if d not in working.variables:
            con = model.constraint(d)
            first = {cfg: allowed[0] for cfg, allowed in con.cells.items()}
            policies[d] = _materialize_policy(model, d, con.scope, first)

    diagnostics: list[CellDiagnostic] = []
    while working.decisions:
        partition = compute_partition(working)
        stage = partition.stage_count
        moral = moralize(relevance_subgraph(working))
        ctx = build_stage_context(working, partition, moral, stage)
        decision = ctx.decision
        order = {v: i for i, v in enumerate(working.variables)}
        dep_vars = tuple(sorted(ctx.dependency_set, key=order.__getitem__))

        choices: dict[tuple[str, ...], str] = {}
        for cell_index, dep_cfg in enumerate(iter_configs(dep_vars, working.frames)):
            cfg_map = dict(zip(dep_vars, dep_cfg))
            adm = working.admissible(decision, cfg_map)
            # (alternative, value, SE, n); value None where the alternative's
            # conditioning event has probability zero
            results = []
            for alt_index, a in enumerate(adm):
                try:
                    v, se, n = _evaluate(
                        ctx, {**cfg_map, decision: a}, options, (stage, cell_index, alt_index)
                    )
                except (ZeroNormalizer, NoPositiveState):
                    v = se = n = None
                results.append((a, v, se, n))
            # max and min keep the first of equal values: ties go to frame order
            ranked = [r for r in results if r[1] is not None]
            pick = max if objective == MAXIMIZE else min
            alt = pick(ranked, key=lambda r: r[1])[0] if ranked else adm[0]
            config = tuple(zip(dep_vars, dep_cfg))
            for a, v, se, n in results:
                diagnostics.append(
                    CellDiagnostic(
                        stage=stage,
                        decision=decision,
                        config=config,
                        alternative=a,
                        value=v,
                        std_error=se,
                        n=n,
                        chosen=a == alt,
                        zero_probability=not ranked,
                    )
                )
            choices[dep_cfg] = alt

        policies[decision] = _materialize_policy(working, decision, dep_vars, choices)
        working = absorb_decision(working, decision, policies[decision])

    ev, ev_se, ev_n = _evaluate(terminal_stage_context(working), {}, options)
    ordered_policies = {d: policies[d] for d in original_decisions}
    return Solution(
        policies=ordered_policies,
        expected_value=ev,
        per_cell_diagnostics=tuple(diagnostics),
        backend_used=options.backend,
        objective=objective,
        sampler=options.sampler,
        model_hash=model_content_hash(model),
        expected_value_std_error=ev_se,
        expected_value_n=ev_n,
    )


def _materialize_policy(
    model: IridModel,
    decision: str,
    dep_vars: tuple[str, ...],
    choices: Mapping[tuple[str, ...], str],
) -> Policy:
    """Extend per-dependency-set choices to the decision's full parent scope.

    The choice only ranges over the dependency set; other parents get the same
    alternative replicated, which keeps the zero-one conditional well defined
    over all parents.
    """
    scope = model.parents(decision)
    dep_pos = [scope.index(v) for v in dep_vars]
    table = {}
    for cfg in iter_configs(scope, model.frames):
        key = tuple(cfg[i] for i in dep_pos)
        table[cfg] = choices[key]
    return Policy(decision=decision, scope=scope, table=table)
