"""Exact stage evaluation, and brute-force ground truth at desk scale.

`exact_stage_expectation` is the solver's exact backend.  For each stage
context it builds two tables once, by bucket elimination of the stage's free
variables (Dechter 1996; Jensen, Jensen & Dittmer 1994): the normalizer, the
sum over the free variables of the product of the probability factors, and
the numerator, the same sum with the value factor multiplied in.  Both range
over the stage's non-free variables; a call reads one entry of each and
divides.  It keeps the name, signature and module of the per-cell
enumeration it replaced because the benchmark's tracer wraps
`irid.oracle.exact_stage_expectation` to time and count stage evaluations.

The rest is deliberately naive and shares no code with it: `exact_expectation`
sums the full joint under given policies, `enumerate_stage_expectation`
enumerates a stage's free configurations for one cell, and
`exhaustive_policy_search` evaluates every constraint-respecting deterministic
policy combination.  The three walk their configurations through one loop,
`_walk`.  The solver's backward dynamic program, the elimination tables and
the Gibbs estimates are validated against these references.

One bound, `irid.model.MAX_CONFIGS`, turns accidental large inputs into
BudgetExceeded instead of long silences: it caps the configurations an
enumeration visits (the full joint, a stage's free configurations) and the
entries of the largest table elimination builds.  Each size is checked
before the table or enumeration it sizes is begun.  `EnumerationBudget`
holds the one limit that varies by caller, the policy combinations
`exhaustive_policy_search` may enumerate.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import BudgetExceeded, IncompleteConfig, InvalidModel, MissingPolicy, ZeroNormalizer
from .factors import Factor
from .graph_ops import StageContext
from .model import CHANCE, MAX_CONFIGS, Frame, IridModel, Policy, iter_configs, policy_to_conditional


@dataclass(frozen=True)
class EnumerationBudget:
    """The policy combinations `exhaustive_policy_search` may enumerate
    before it raises BudgetExceeded.  Table and enumeration sizes have one
    fixed bound, `irid.model.MAX_CONFIGS`."""

    max_policy_combinations: int = 10**6

    def __post_init__(self):
        if self.max_policy_combinations <= 0:
            raise InvalidModel("budgets must be positive")


DEFAULT_BUDGET = EnumerationBudget()


def _check_walk(variables: Sequence[str], frames: Mapping[str, Frame], what: str) -> None:
    """Raise BudgetExceeded when the configurations of `variables` number
    more than MAX_CONFIGS."""
    n = math.prod(len(frames[v]) for v in variables)
    if n > MAX_CONFIGS:
        raise BudgetExceeded(f"{n} {what} configurations exceed {MAX_CONFIGS}")


def _walk(
    variables: Sequence[str],
    frames: Mapping[str, Frame],
    factors: Sequence[Factor],
    base: Mapping[str, str],
) -> Iterator[tuple[dict, float]]:
    """Each configuration of `variables` in row-major order, as an
    assignment that extends `base`, with the product of `factors` there,
    multiplied in order; one whose product is zero is skipped at its first
    zero factor."""
    for cfg in iter_configs(variables, frames):
        assign = dict(base)
        assign.update(zip(variables, cfg))
        p = 1.0
        for f in factors:
            p *= f.evaluate(assign)
            if p == 0.0:
                break
        else:
            yield assign, p


def exact_expectation(model: IridModel, policies: Mapping[str, Policy]) -> float:
    """Expected value of the value node under the given policies, by full
    enumeration of the joint distribution (chance conditionals times the
    zero-one policy conditionals, multiplied in model order).  Raises
    MissingPolicy for a decision `policies` leaves out."""
    variables = tuple(v for v in model.variables if v != model.value_var)
    _check_walk(variables, model.frames, "joint")
    conditionals = []
    for v in variables:
        if model.kind(v) == CHANCE:
            conditionals.append(model.cpt_factor(v))
        elif v in policies:
            conditionals.append(policy_to_conditional(model, policies[v]))
        else:
            raise MissingPolicy(v)
    value_factor = model.value_factor
    total = 0.0
    for assign, p in _walk(variables, model.frames, conditionals, {}):
        total += p * value_factor.evaluate(assign)
    return total


#: einsum subscripts: one letter per variable of a single contraction
_SUBSCRIPTS = string.ascii_letters
#: operands per einsum call (numpy 1.x takes 32 arrays, the output included)
_MAX_OPERANDS = 31

#: a factor or elimination message: its scope, as variable numbers, and its
#: table over that scope
_Term = tuple[tuple[int, ...], np.ndarray]


@dataclass(frozen=True)
class _StageTables:
    """Numerator and normalizer of one stage over its non-free variables."""

    outer: tuple[tuple[str, Frame], ...]  # table axes, in order
    numerator: np.ndarray
    normalizer: np.ndarray


def exact_stage_expectation(stage_context: StageContext, fixed_config: Mapping[str, str]) -> float:
    """Exact counterpart of the Gibbs estimate: normalize the product of the
    stage's probability factors over the free variables and average the value
    factor under those weights, at the non-free assignment `fixed_config`.

    The first call on a context eliminates the free variables into its
    numerator and normalizer tables and keeps them in `stage_context.cache`;
    every call reads one entry of each.  Raises BudgetExceeded when the
    largest table would exceed MAX_CONFIGS entries, ZeroNormalizer when the
    assignment has probability zero and IncompleteConfig when it leaves a
    non-free factor variable out.
    """
    ctx = stage_context
    tables = ctx.cache.get("exact")
    if tables is None:
        tables = ctx.cache["exact"] = _eliminate(ctx)
    try:
        index = tuple(frame.index(fixed_config[v]) for v, frame in tables.outer)
    except KeyError as missing:
        raise IncompleteConfig(f"no value for {missing.args[0]!r}") from None
    normalizer = tables.normalizer[index]
    if normalizer == 0.0:
        raise ZeroNormalizer("the conditioning event has probability zero")
    return float(tables.numerator[index] / normalizer)


def _eliminate(ctx: StageContext) -> _StageTables:
    """Sum the free variables out of the product of the stage's factors, one
    bucket at a time.

    The value factor enters stacked on ones along a two-entry pair axis
    (entry 0 the value, entry 1 one), so the product sums to the numerator
    and the normalizer at once.  Each step takes the free variable whose
    bucket, the terms holding it, spans the fewest entries (ties to
    `free_vars` order), multiplies the bucket and sums the variable out in
    one einsum; the message replaces the bucket.  The output table is
    checked against MAX_CONFIGS before anything is built, and each bucket
    before it is multiplied.  Variables are numbered in the order the
    factors first name them, the pair axis last, and a bucket's size is
    recomputed only when a step changes its variable's neighbours.
    """
    value_factor = ctx.value_factor
    if value_factor is None:
        raise InvalidModel("stage context has no value factor")
    prob = ctx.probability_factors
    frames: dict[str, Frame] = {}
    for f in (*prob, value_factor):
        frames.update(zip(f.scope, f.frames))
    free = set(ctx.free_vars)
    outer = tuple((v, fr) for v, fr in frames.items() if v not in free)
    number = {v: i for i, v in enumerate(frames)}
    sizes = [len(fr.labels) for fr in frames.values()]
    pair = len(sizes)
    sizes.append(2)
    out = tuple(number[v] for v, _ in outer) + (pair,)
    _check_table(math.prod([sizes[v] for v in out]))

    paired = np.empty(value_factor.values.shape + (2,))
    paired[..., 0] = value_factor.values
    paired[..., 1] = 1.0
    terms: list[_Term] = [(tuple(map(number.__getitem__, f.scope)), f.values) for f in prob]
    terms.append((tuple(map(number.__getitem__, value_factor.scope)) + (pair,), paired))
    # interaction graph: a bucket spans its variable and that one's neighbours
    near = [set() for _ in sizes]
    for scope, _ in terms:
        for v in scope:
            near[v].update(scope)
    order = list(map(number.__getitem__, ctx.free_vars))
    entries = {x: math.prod([sizes[v] for v in near[x]]) for x in order}
    while order:
        x = min(order, key=entries.__getitem__)  # the first of the smallest
        order.remove(x)
        _check_table(entries.pop(x))
        merged = near[x]
        merged.discard(x)
        for v in merged:
            near[v] |= merged
            near[v].discard(x)
            if v in entries:
                entries[v] = math.prod([sizes[u] for u in near[v]])
        bucket, rest = [], []
        for term in terms:
            (bucket if x in term[0] else rest).append(term)
        names = dict.fromkeys(v for s, _ in bucket for v in s)
        scope = tuple(v for v in names if v != x)
        rest.append((scope, _contract(bucket, scope, names)))
        terms = rest

    table = _contract(terms, out)
    return _StageTables(outer, table[..., 0], table[..., 1])


def _check_table(entries: int) -> None:
    if entries > MAX_CONFIGS:
        raise BudgetExceeded(f"a {entries}-entry table exceeds {MAX_CONFIGS}")


def _contract(terms: list[_Term], out: tuple, names: dict | None = None) -> np.ndarray:
    """Multiply the terms and sum every variable not in `out`; `names`, if
    given, holds the terms' variables in the order they first appear."""
    while len(terms) > _MAX_OPERANDS:  # the merged head keeps its variables' order
        head = terms[:_MAX_OPERANDS]
        scope = tuple(dict.fromkeys(v for s, _ in head for v in s))
        terms = [(scope, _contract(head, scope))] + terms[_MAX_OPERANDS:]
    if names is None:
        names = dict.fromkeys(v for s, _ in terms for v in s)
    if len(names) > len(_SUBSCRIPTS):
        raise BudgetExceeded(f"a table over more than {len(_SUBSCRIPTS)} variables")
    letters = dict(zip(names, _SUBSCRIPTS))
    spec = ",".join("".join([letters[v] for v in s]) for s, _ in terms)
    spec += "->" + "".join([letters[v] for v in out])
    return np.einsum(spec, *[a for _, a in terms], optimize=False)


def enumerate_stage_expectation(stage_context: StageContext, fixed_config: Mapping[str, str]) -> float:
    """Exact counterpart of the Gibbs estimate: normalize the product of the
    stage's probability factors over the free variables and average the value
    factor under those weights."""
    ctx = stage_context
    value_factor = ctx.value_factor
    if value_factor is None:
        raise InvalidModel("stage context has no value factor")
    frames = {v: ctx.cpt_of(v).frame_of(v) for v in ctx.free_vars}
    _check_walk(ctx.free_vars, frames, "free")
    normalizer = 0.0
    weighted = 0.0
    for assign, w in _walk(ctx.free_vars, frames, ctx.probability_factors, fixed_config):
        normalizer += w
        weighted += w * value_factor.evaluate(assign)
    if normalizer == 0.0:
        raise ZeroNormalizer("the conditioning event has probability zero")
    return weighted / normalizer


# --------------------------------------------------------------------------
# exhaustive policy search


def exhaustive_policy_search(
    model: IridModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[dict[str, Policy], float]:
    """Globally optimal policies by enumerating every admissible combination.

    Each decision's policy space is the product, over configurations of its
    full parent set, of the admissible alternatives there.  Every combination
    is evaluated exactly; ties go to the combination that enumerates first
    (cells row-major, alternatives in frame order, decisions in their temporal
    order).
    """
    decisions = model.decisions
    if not decisions:
        return {}, exact_expectation(model, {})

    variables = [v for v in model.variables if v != model.value_var]
    _check_walk(variables, model.frames, "joint")

    scopes = {d: model.parents(d) for d in decisions}
    cells = {d: list(iter_configs(scopes[d], model.frames)) for d in decisions}
    admissible_idx: dict[str, list[list[int]]] = {}
    for d in decisions:
        frame = model.frame(d)
        admissible_idx[d] = [
            [frame.index(a) for a in model.admissible(d, dict(zip(scopes[d], cfg)))]
            for cfg in cells[d]
        ]
    combos = 1
    for d in decisions:
        for adm in admissible_idx[d]:
            combos *= len(adm)
            if combos > budget.max_policy_combinations:
                raise BudgetExceeded(
                    f"policy combinations exceed {budget.max_policy_combinations}"
                )

    # tabulate the joint once: chance-only probability, value, and for every
    # decision the cell index and the alternative each configuration demands
    chance_factors = [model.cpt_factor(v) for v in model.chance_vars]
    value_factor = model.value_factor
    cell_pos = {d: {cfg: i for i, cfg in enumerate(cells[d])} for d in decisions}

    probs: list[float] = []
    values: list[float] = []
    cell_ids: dict[str, list[int]] = {d: [] for d in decisions}
    alt_ids: dict[str, list[int]] = {d: [] for d in decisions}
    dec_frames = {d: model.frame(d) for d in decisions}
    for assign, p in _walk(variables, model.frames, chance_factors, {}):
        probs.append(p)
        values.append(value_factor.evaluate(assign))
        for d in decisions:
            key = tuple(assign[v] for v in scopes[d])
            cell_ids[d].append(cell_pos[d][key])
            alt_ids[d].append(dec_frames[d].index(assign[d]))

    w = np.asarray(probs, dtype=float) * np.asarray(values, dtype=float)
    cid = {d: np.asarray(cell_ids[d], dtype=np.intp) for d in decisions}
    aid = {d: np.asarray(alt_ids[d], dtype=np.intp) for d in decisions}

    maximize = model.objective == "maximize"
    best: dict = {"value": None, "choices": None}

    def better(candidate: float, incumbent: float | None) -> bool:
        if incumbent is None:
            return True
        return candidate > incumbent if maximize else candidate < incumbent

    def recurse(level: int, mask: np.ndarray, chosen: tuple[tuple[int, ...], ...]):
        d = decisions[level]
        n_cells = len(cells[d])
        if level == len(decisions) - 1:
            # per-cell partial sums; every configuration falls in exactly one
            # cell, so a policy's expectation is the sum of its cell picks
            sums = [
                {a: 0.0 for a in adm} for adm in admissible_idx[d]
            ]
            c_arr = cid[d][mask]
            a_arr = aid[d][mask]
            w_arr = w[mask]
            for c, a, wv in zip(c_arr.tolist(), a_arr.tolist(), w_arr.tolist()):
                slot = sums[c]
                if a in slot:
                    slot[a] += wv
            ev = np.zeros((), dtype=float)
            for c in range(n_cells):
                table = np.array([sums[c][a] for a in admissible_idx[d][c]])
                ev = ev[..., None] + table
            flat = ev.ravel()
            pick = int(np.argmax(flat) if maximize else np.argmin(flat))
            candidate = float(flat[pick])
            if better(candidate, best["value"]):
                per_cell = np.unravel_index(pick, ev.shape) if ev.shape else ()
                choice = tuple(
                    admissible_idx[d][c][j] for c, j in enumerate(per_cell)
                )
                best["value"] = candidate
                best["choices"] = chosen + (choice,)
            return
        for combo in itertools.product(*admissible_idx[d]):
            choice_per_cell = np.asarray(combo, dtype=np.intp)
            sub = mask & (choice_per_cell[cid[d]] == aid[d])
            recurse(level + 1, sub, chosen + (tuple(combo),))

    recurse(0, np.ones(len(w), dtype=bool), ())

    policies: dict[str, Policy] = {}
    for d, choice in zip(decisions, best["choices"]):
        frame = dec_frames[d]
        table = {
            cfg: frame.labels[choice[i]] for i, cfg in enumerate(cells[d])
        }
        policies[d] = Policy(decision=d, scope=scopes[d], table=table)
    return policies, float(best["value"])
