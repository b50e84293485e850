"""Backward dynamic programming over decision stages.

Stages are solved last decision first.  For each configuration of the
variables the stage's decision depends on, `_evaluate` gives the conditional
expectation of the value node for every admissible alternative: exactly
(`oracle.exact_stage_expectation`, one call per alternative), or by Gibbs
sampling (`gibbs.estimate_expectation`, one call per cell) with one seed per
(stage, cell): its alternatives are ranked on common random numbers, as the
exact backend ranks them on one table, so an exact tie stays a tie, and
they share the uniforms and the site draws they have in common.  The best
alternative is chosen (ties to frame order), and the solved decision
function is absorbed into the diagram before the next stage.  After the
first decision is absorbed, `_evaluate` on the remaining chance-only network
gives the terminal expected value.

Cells whose conditioning event has probability zero cannot be ranked: Eq-style
conditional expectations are undefined there.  They still get a deterministic
choice (first admissible alternative) and are flagged in the diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import gibbs, oracle
from .errors import InvalidModel, ZeroNormalizer
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

    def __post_init__(self):
        if self.backend not in (BACKEND_EXACT, BACKEND_GIBBS):
            raise InvalidModel(f"unknown backend {self.backend!r}")
        if (self.sampler is not None) != (self.backend == BACKEND_GIBBS):
            raise InvalidModel("a sampler configuration is required iff backend='gibbs'")
        if self.objective_override is not None and self.objective_override not in OBJECTIVES:
            raise InvalidModel(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True, slots=True)
class CellDiagnostic:
    """One evaluated (stage, predecessor configuration, alternative).

    `value` is None where the alternative's conditioning event has
    probability zero.  `std_error` and `n` are None for an exact value;
    `std_error` is None too for a sampled value of fewer than two samples,
    whose spread is undefined."""

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


def _cell_sampler(options: SolveOptions, stage: int, cell: int) -> SamplerConfig | None:
    """The sampler of every alternative of one (stage, cell), or None for the
    exact backend.  Cells and stages draw independent streams, reproducible
    in any evaluation order; the terminal value is cell 0 of stage 0."""
    if options.sampler is None:
        return None
    ss = np.random.SeedSequence(entropy=options.sampler.seed, spawn_key=(stage, cell, 0))
    return replace(options.sampler, seed=int(ss.generate_state(1, np.uint64)[0]))


def _evaluate(
    ctx: StageContext, fixed_configs: list[dict[str, str]], sampler: SamplerConfig | None
) -> list[tuple[float, float | None, int | None] | None]:
    """(value, standard error, sample count) of the value node's conditional
    expectation at each of `fixed_configs`, or None where its conditioning
    event has probability zero: by one Gibbs sampling call with `sampler`,
    or exactly, one call per configuration, with no error or count, when it
    is None."""
    if sampler is None:
        results = []
        for fixed in fixed_configs:
            try:
                results.append((oracle.exact_stage_expectation(ctx, fixed), None, None))
            except ZeroNormalizer:
                results.append(None)
        return results
    estimates = gibbs.estimate_expectation(ctx, fixed_configs, ctx.value_factor, sampler)
    return [None if est is None else (est.mean, est.std_error, est.n) for est in estimates]


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
        dep_vars = tuple(v for v in working.variables if v in ctx.dependency_set)

        choices: dict[tuple[str, ...], str] = {}
        # every cell's config is built from one set of (variable, label)
        # pairs, which the diagnostics share instead of holding copies
        pairs = [[(v, label) for label in working.frames[v].labels] for v in dep_vars]
        for cell_index, config in enumerate(itertools.product(*pairs)):
            dep_cfg = tuple(label for _, label in config)
            cfg_map = dict(config)
            adm = working.admissible(decision, cfg_map)
            evaluated = _evaluate(
                ctx,
                [{**cfg_map, decision: a} for a in adm],
                _cell_sampler(options, stage, cell_index),
            )
            # (alternative, value, SE, n); value None where the alternative's
            # conditioning event has probability zero
            results = [(a, *(r or (None, None, None))) for a, r in zip(adm, evaluated)]
            # max and min keep the first of equal values: ties go to frame order
            ranked = [r for r in results if r[1] is not None]
            pick = max if objective == MAXIMIZE else min
            alt = pick(ranked, key=lambda r: r[1])[0] if ranked else adm[0]
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
        working = absorb_decision(working, policies[decision])

    # the terminal event is certain, so it has a value
    ((ev, ev_se, ev_n),) = _evaluate(
        terminal_stage_context(working), [{}], _cell_sampler(options, 0, 0)
    )
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
