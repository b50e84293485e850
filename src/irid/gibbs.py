"""Single-site Gibbs sampler over a stage's factor set.

For a fixed configuration of the variables the stage's decision depends on
(and a fixed decision alternative), the chain sweeps the free variables in
model order, resampling each from its full conditional given everything else.
Averaging the value table over the visited states estimates the conditional
expectation of the value node for that cell.

Zeros in the tables are handled by support restriction, not smoothing: a full
conditional never proposes a zero-probability value, and initialization
forward-samples a positive-probability state (raising NoPositiveState when the
fixed configuration admits none).  Support restriction does not repair
reducibility: if table zeros split the positive support into disconnected
components, a single chain explores only the component it starts in and
reports a small standard error around a wrong value.  Substituting solved
decisions into the tables puts such zeros in, so this happens in stage cells
of the bundled models as well as in the terminal, nothing-fixed chain:
fixing the decision's dependency set does not keep a chain connected.  The
exact backend does not have this failure.

Each variable's full conditionals are tabulated per cell, one inverse-CDF
row per state of the other free variables it shares a factor with, so an
update is an index computation and a bisection.

Reproducibility is strict: a given seed yields a bit-identical estimate.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import AllZeroSupport, IncompleteConfig, InvalidModel, NoPositiveState
from .factors import Factor
from .graph_ops import ROLE_VALUE, StageContext

#: forward-sampling attempts before falling back to exhaustive search
_INIT_ATTEMPTS = 100

#: number of batches for the batch-means standard error
_BATCHES = 20


@dataclass(frozen=True)
class SamplerConfig:
    """Run-length knobs.  `samples` sweeps are run after `burn_in`; every
    `thinning`-th one contributes to the estimate."""

    seed: int
    burn_in: int = 1000
    samples: int = 20000
    thinning: int = 1

    def __post_init__(self):
        if self.burn_in < 0:
            raise InvalidModel("burn_in must be >= 0")
        if self.samples < 1:
            raise InvalidModel("samples must be >= 1")
        if self.thinning < 1:
            raise InvalidModel("thinning must be >= 1")
        if self.samples // self.thinning < 1:
            raise InvalidModel("samples // thinning must be >= 1")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class ChainState:
    """Current assignment of the free variables plus the fixed conditioning
    configuration.  The product of the probability factors at
    assignment | fixed is strictly positive."""

    assignment: Mapping[str, str]
    fixed: Mapping[str, str]
    _cell: "_CompiledCell" = field(repr=False, compare=False)
    _ints: tuple[int, ...] = field(repr=False, compare=False)


class _CompiledFactor:
    """A factor flattened to a list with integer strides, with the fixed
    variables' contribution folded into a constant offset."""

    __slots__ = ("flat", "free_pairs", "base")

    def __init__(self, factor: Factor, slot_of: dict[str, int], fixed_ints: dict[int, int]):
        arr = factor.values
        strides = [s // arr.itemsize for s in arr.strides]
        self.flat = arr.ravel().tolist()
        base = 0
        free_pairs: list[tuple[int, int]] = []
        for var, stride in zip(factor.scope, strides):
            if var not in slot_of:
                raise IncompleteConfig(f"factor variable {var!r} is neither free nor fixed")
            slot = slot_of[var]
            if slot in fixed_ints:
                base += stride * fixed_ints[slot]
            else:
                free_pairs.append((slot, stride))
        self.base = base
        self.free_pairs = tuple(free_pairs)

    def value_at(self, state: list[int]) -> float:
        off = self.base
        for slot, stride in self.free_pairs:
            off += stride * state[slot]
        return self.flat[off]


def _cdf(weights: list[float]) -> tuple[list[int], list[float], float]:
    """Inverse-CDF table of one draw restricted to the positive weights.

    Returns the positive support with its last value repeated once, the
    running sums of the positive weights and the total of all weights, each
    summed in list order.  `support[bisect_right(cumulative, u * total)]` is
    then the first positive value whose running sum exceeds `u * total`, or
    the last positive value when rounding leaves `u * total` past every sum.
    """
    total = 0.0
    for w in weights:
        total += w
    if total <= 0.0:
        raise AllZeroSupport("all candidate values have factor product zero")
    support: list[int] = []
    cumulative: list[float] = []
    acc = 0.0
    for j, w in enumerate(weights):
        if w > 0.0:
            acc += w
            support.append(j)
            cumulative.append(acc)
    support.append(support[-1])
    return support, cumulative, total


class _SiteTable(dict):
    """The full conditionals of one free variable, as `_cdf` rows keyed by
    the mixed-radix index of the state of its free Markov blanket: the other
    free slots of its probability factors (fixed variables are already in
    the factors' base offsets).

    A row is built the first time a chain visits its blanket state, so the
    table holds no more rows than the chain has visited, and a blanket state
    whose weights are all zero raises AllZeroSupport only when visited."""

    __slots__ = ("slot", "size", "factors", "blanket")

    def __init__(
        self,
        slot: int,
        factors: list[tuple[_CompiledFactor, int]],
        sizes: tuple[int, ...],
    ):
        super().__init__()
        self.slot = slot
        self.size = sizes[slot]
        self.factors = factors
        others = sorted({s for cf, _ in factors for s, _ in cf.free_pairs if s != slot})
        radix = 1
        blanket = []
        for s in others:
            blanket.append((s, radix, sizes[s]))
            radix *= sizes[s]
        self.blanket = tuple(blanket)

    def weights(self, state: Mapping[int, int]) -> list[float]:
        """Weights of every value of the variable given `state[s]` for each
        blanket slot `s`: the product of its factors, in stage factor order."""
        slot, size = self.slot, self.size
        weights: list[float] | None = None
        for cf, stride in self.factors:
            off = cf.base
            for s, st in cf.free_pairs:
                if s != slot:
                    off += st * state[s]
            flat = cf.flat
            if weights is None:
                weights = [flat[off + stride * j] for j in range(size)]
            else:
                for j in range(size):
                    weights[j] *= flat[off + stride * j]
        if weights is None:
            # no probability factor contains the variable: uniform over frame
            weights = [1.0] * size
        return weights

    def __missing__(self, index: int) -> tuple[list[int], list[float], float]:
        row = _cdf(self.weights({s: index // r % n for s, r, n in self.blanket}))
        self[index] = row
        return row


class _CompiledCell:
    """Stage factors compiled against one fixed configuration."""

    def __init__(
        self,
        ctx: StageContext,
        fixed_config: Mapping[str, str],
        value_factor: Factor | None = None,
    ):
        self.ctx = ctx
        needed = set(ctx.dependency_set)
        if ctx.decision is not None:
            needed.add(ctx.decision)
        missing = needed - set(fixed_config)
        if missing:
            raise IncompleteConfig(f"fixed configuration misses {sorted(missing)}")

        self.free = ctx.free_vars
        self.frames = tuple(ctx.cpt_of(v).frame_of(v) for v in self.free)
        self.sizes = tuple(len(f) for f in self.frames)
        slot_of = {v: i for i, v in enumerate(self.free)}
        fixed_ints: dict[int, int] = {}
        next_slot = len(self.free)
        self.fixed_labels: dict[str, str] = {}
        for var, lab in fixed_config.items():
            if var in slot_of:
                raise IncompleteConfig(f"{var!r} is free in this stage, cannot be fixed")
            slot_of[var] = next_slot
            self.fixed_labels[var] = lab
            next_slot += 1

        # resolve fixed labels to indices lazily per factor scope (frames live
        # on the factors themselves)
        prob = []
        per_var: list[list[tuple[_CompiledFactor, int]]] = [[] for _ in self.free]
        for f in [sf.factor for sf in ctx.factors if sf.role != ROLE_VALUE]:
            cf = self._compile(f, slot_of)
            prob.append(cf)
            for var, stride in zip(f.scope, self._strides(f)):
                if var in slot_of and slot_of[var] < len(self.free):
                    per_var[slot_of[var]].append((cf, stride))
        self.prob_factors = prob
        tables = [_SiteTable(slot, factors, self.sizes) for slot, factors in enumerate(per_var)]
        self.sites = tuple((t.slot, t, t.blanket) for t in tables)
        # no probability factor couples two free sites: every site's full
        # conditional is fixed by the cell, so successive sweeps are i.i.d.
        self.iid = all(len(cf.free_pairs) <= 1 for cf in prob)

        # the free variables' own conditionals, for forward initialization
        self.cpt_for = []
        for i, v in enumerate(self.free):
            f = ctx.cpt_of(v)
            cf = self._compile(f, slot_of)
            stride = dict(zip(f.scope, self._strides(f)))[v]
            self.cpt_for.append((cf, stride))

        self.value = None
        if value_factor is not None:
            self.value = self._compile(value_factor, slot_of)
        self.topo_slots = tuple(slot_of[v] for v in ctx.free_topological)
        self._slot_of = slot_of

    @staticmethod
    def _strides(factor: Factor) -> list[int]:
        arr = factor.values
        return [s // arr.itemsize for s in arr.strides]

    def _compile(self, factor: Factor, slot_of: dict[str, int]) -> _CompiledFactor:
        fixed_ints = {}
        for var, fr in zip(factor.scope, factor.frames):
            slot = slot_of.get(var)
            if slot is None:
                raise IncompleteConfig(f"factor variable {var!r} is neither free nor fixed")
            if slot >= len(self.free):
                fixed_ints[slot] = fr.index(self.fixed_labels[var])
        return _CompiledFactor(factor, slot_of, fixed_ints)

    # -- core moves --------------------------------------------------------

    def run(
        self, state: list[int], uniforms: list[float], keep: Sequence[bool], kept: list[float]
    ) -> None:
        """One scan over the free variables in model order per entry of
        `keep`, consuming one uniform per variable; after each scan whose
        entry is true, appends the value factor at the state to `kept`.

        Each variable draws from the row of its table for the current state
        of its blanket, the way `_cdf` describes."""
        sites = self.sites
        value = self.value
        uniforms = iter(uniforms)
        for keep_this in keep:
            # zip stops at the end of `sites` before taking a uniform
            for (slot, rows, blanket), u in zip(sites, uniforms):
                index = 0
                for s, radix, _ in blanket:
                    index += radix * state[s]
                support, cumulative, total = rows[index]
                state[slot] = support[bisect_right(cumulative, u * total)]
            if keep_this:
                if __debug__ and len(kept) % 64 == 0 and self.product_at(state) <= 0.0:
                    raise AllZeroSupport("chain reached a zero-probability state")
                off = value.base
                for s, stride in value.free_pairs:
                    off += stride * state[s]
                kept.append(value.flat[off])

    def product_at(self, state: list[int]) -> float:
        p = 1.0
        for cf in self.prob_factors:
            p *= cf.value_at(state)
            if p == 0.0:
                return 0.0
        return p

    def forward_sample(self, uniforms: list[float]) -> list[int]:
        state = [0] * len(self.free)
        for slot in self.topo_slots:
            cf, stride = self.cpt_for[slot]
            off = cf.base
            for s, st in cf.free_pairs:
                if s != slot:
                    off += st * state[s]
            flat = cf.flat
            support, cumulative, total = _cdf(
                [flat[off + stride * j] for j in range(self.sizes[slot])]
            )
            state[slot] = support[bisect_right(cumulative, uniforms[slot] * total)]
        return state

    def initial_state(self, rng: np.random.Generator) -> list[int]:
        n = len(self.free)
        if n == 0:
            if self.product_at([]) <= 0.0:
                raise NoPositiveState("fixed configuration has zero factor product")
            return []
        for _ in range(_INIT_ATTEMPTS):
            state = self.forward_sample(rng.random(n).tolist())
            if self.product_at(state) > 0.0:
                return state
        for combo in itertools.product(*(range(s) for s in self.sizes)):
            state = list(combo)
            if self.product_at(state) > 0.0:
                return state
        raise NoPositiveState(
            "no positive-probability completion of the fixed configuration exists"
        )

    def labels(self, state: list[int]) -> dict[str, str]:
        return {
            v: fr.labels[state[i]] for i, (v, fr) in enumerate(zip(self.free, self.frames))
        }

    def value_at(self, state: list[int]) -> float:
        if self.value is None:
            raise InvalidModel("cell compiled without a value factor")
        return self.value.value_at(state)


# --------------------------------------------------------------------------
# public operations


def init_state(
    stage_context: StageContext,
    fixed_config: Mapping[str, str],
    rng: np.random.Generator,
) -> ChainState:
    """Forward-sample the free variables (topological order, zero-probability
    values excluded) into a state with positive factor product."""
    cell = _CompiledCell(stage_context, fixed_config)
    ints = cell.initial_state(rng)
    return ChainState(
        assignment=cell.labels(ints),
        fixed=dict(fixed_config),
        _cell=cell,
        _ints=tuple(ints),
    )


def sweep(
    state: ChainState, stage_context: StageContext, rng: np.random.Generator
) -> ChainState:
    """Resample every free variable once, in model order, from its full
    conditional given all other current values."""
    cell = state._cell
    ints = list(state._ints)
    n = len(cell.free)
    if n:
        cell.run(ints, rng.random(n).tolist(), (False,), [])
    return ChainState(
        assignment=cell.labels(ints), fixed=state.fixed, _cell=cell, _ints=tuple(ints)
    )


def estimate_expectation(
    stage_context: StageContext,
    fixed_config: Mapping[str, str],
    value_factor: Factor,
    sampler_config: SamplerConfig,
) -> Estimate:
    """Estimate the conditional expectation of the value factor.

    Runs `burn_in` discard sweeps, then `samples` sweeps keeping every
    `thinning`-th state; the value factor is evaluated at each kept state
    composed with the fixed configuration.  The standard error comes from
    batch means over 20 equal batches.  When no probability factor holds two
    free sites the sweeps are i.i.d.; they are then computed a block at a
    time, with the same result as sweeping.
    """
    cell = _CompiledCell(stage_context, fixed_config, value_factor=value_factor)
    rng = np.random.default_rng(sampler_config.seed)
    state = cell.initial_state(rng)
    n_free = len(cell.free)
    cfg = sampler_config

    if n_free and cell.iid:
        kept = _iid_chain(cell, rng, cfg)
    elif n_free:
        # uniforms are drawn in exact-size blocks, so the stream matches a
        # chain driven by repeated single sweeps with the same seed
        burn, thin = cfg.burn_in, cfg.thinning
        total = burn + cfg.samples
        block_sweeps = max(1, 65536 // n_free)
        values: list[float] = []
        done = 0
        while done < total:
            count = min(block_sweeps, total - done)
            keep = [
                i > burn and (i - burn) % thin == 0 for i in range(done + 1, done + count + 1)
            ]
            cell.run(state, rng.random(count * n_free).tolist(), keep, values)
            done += count
        kept = np.array(values)
    else:
        kept = np.full(cfg.samples // cfg.thinning, cell.value_at(state))
    mean = float(kept.mean())
    return Estimate(mean=mean, std_error=_batch_means_se(kept), n=len(kept))


def _iid_chain(cell: _CompiledCell, rng: np.random.Generator, cfg: SamplerConfig) -> np.ndarray:
    """The kept values of the sweep chain of an i.i.d. cell, one block of
    uniforms at a time.

    Each sweep draws every site from the single row of its table, so a block
    maps the very uniforms the sweeps would consume through those rows, for
    the kept sweeps only."""
    n_free = len(cell.free)
    rows = [
        (np.array(support), np.array(cumulative), site_total)
        for support, cumulative, site_total in (table[0] for _, table, _ in cell.sites)
    ]
    value = cell.value
    flat = np.array(value.flat)
    burn, thin = cfg.burn_in, cfg.thinning
    total = burn + cfg.samples
    kept = np.empty(cfg.samples // thin, dtype=float)
    block_sweeps = max(1, 65536 // n_free)
    done = k = 0
    while done < total:
        count = min(block_sweeps, total - done)
        uniforms = rng.random(count * n_free).reshape(count, n_free)
        i = np.arange(done + 1, done + count + 1)
        uniforms = uniforms[(i > burn) & ((i - burn) % thin == 0)]
        states = np.empty(uniforms.shape, dtype=np.intp)
        for slot, (support, cumulative, site_total) in enumerate(rows):
            pos = np.searchsorted(cumulative, uniforms[:, slot] * site_total, side="right")
            states[:, slot] = support[pos]
        off = np.full(len(states), value.base, dtype=np.intp)
        for slot, stride in value.free_pairs:
            off += stride * states[:, slot]
        m = len(states)
        kept[k : k + m] = flat[off]
        if __debug__:
            for j in range(-k % 64, m, 64):
                if cell.product_at(states[j].tolist()) <= 0.0:
                    raise AllZeroSupport("chain reached a zero-probability state")
        k += m
        done += count
    assert k == len(kept)
    return kept


def _batch_means_se(values: np.ndarray) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    b = min(_BATCHES, n)
    m = n // b
    batch_means = values[: b * m].reshape(b, m).mean(axis=1)
    return float(batch_means.std(ddof=1) / math.sqrt(b))
