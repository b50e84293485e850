"""Gibbs sampler over a stage's factor set.

For a fixed configuration of the variables the stage's decision depends on
(and a fixed decision alternative), the chain sweeps the free variables in
model order, resampling each from its full conditional given everything else.
Averaging the value table over the visited states estimates the conditional
expectation of the value node for that cell.

Zeros in the tables are handled by support restriction, not smoothing: a full
conditional never proposes a zero-probability value, and initialization
forward-samples a positive-probability state (raising NoPositiveState when the
fixed configuration admits none).  Where no state can be positive without a
search (a factor is zero at every state of its free variables, or an i.i.d.
cell has a site whose weights are all zero), the estimate raises
NoPositiveState before it draws a uniform.  Every other cell draws its
initial state first, so its seeded stream does not depend on this check.

Two kinds of cell need no chain, and their sweeps are drawn i.i.d., a block
of uniforms at a time in numpy, through inverse-CDF rows:

- i.i.d. cells, where no probability factor holds two free variables: every
  full conditional is fixed by the cell, so the block result is bit-identical
  to sweeping;
- cells without evidence, where no chance factor whose child is fixed holds a
  free variable (the terminal, nothing-fixed value always; decision
  placeholders are all ones): the free variables given the fixed ones follow
  the product of their own conditionals, which logic sampling draws exactly,
  in topological order, one sweep's uniforms per draw.

Run without -O, the block draw checks every 64th kept state for a positive
product of the probability factors, in numpy, as the chain checks its kept
states.

Only coupled cells with evidence run the single-site chain, and there support
restriction does not repair reducibility: if table zeros split the positive
support into disconnected components, the chain explores only the component
it starts in and reports a small standard error around a wrong value.  The
exact backend does not have this failure.

One kind of table, `_SiteTable`, serves every draw: one variable's
inverse-CDF rows, one per state of the other free variables its factors
hold, so a draw is an index computation and a bisection.  A cell has one
table per variable over its full conditionals, which the chain and i.i.d.
cells read, and one over its own conditional, which forward initialization
and logic sampling read in topological order.  The chain and the block
draws take their uniforms from one block loop, `_blocks`.  A block holds at
most 8 192 sweeps and 65 536 uniforms: at 8 192 rows a block draw's per-site
numpy temporaries take 64 KiB each, so they stay in cache and under glibc's
128 KiB mmap threshold instead of being page-faulted in fresh every block.
Blocks are drawn at their exact size, so the caps change no estimate.

Reproducibility is strict: a given seed yields a bit-identical estimate.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import AllZeroSupport, IncompleteConfig, InvalidModel, NoPositiveState
from .factors import Factor
from .graph_ops import ROLE_CHANCE, ROLE_VALUE, StageContext

#: forward-sampling attempts before falling back to exhaustive search
_INIT_ATTEMPTS = 100

#: number of batches for the batch-means standard error
_BATCHES = 20

#: caps on one block of `_blocks`, in uniforms and in sweeps (module
#: docstring: the sweep cap keeps the block draws' temporaries in cache)
_BLOCK_UNIFORMS = 65536
_BLOCK_SWEEPS = 8192

#: one variable's draw: (slot, row parents as (slot, radix) pairs, rows); it
#: takes the `_cdf` row `rows[sum(radix * state[s] for s, radix in parents)]`
_Site = tuple[
    int, tuple[tuple[int, int], ...], "_SiteTable | list[tuple[list[int], list[float], float]]"
]


@dataclass(frozen=True)
class SamplerConfig:
    """Run-length knobs.  `samples` sweeps are run after `burn_in`; every
    `thinning`-th one contributes to the estimate.  Cells whose sweeps are
    i.i.d. draw and drop the burn-in and thinned-out sweeps' uniforms all the
    same, so the estimate keeps `samples // thinning` draws and its place in
    the seeded stream."""

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

    def __init__(self, factor: Factor, slot_of: dict[str, int], fixed: Mapping[str, str]):
        arr = factor.values
        self.flat = arr.ravel().tolist()
        base = 0
        free_pairs: list[tuple[int, int]] = []
        for var, frame, stride in zip(factor.scope, factor.frames, arr.strides):
            stride //= arr.itemsize
            if var in slot_of:
                free_pairs.append((slot_of[var], stride))
            elif var in fixed:
                base += stride * frame.index(fixed[var])
            else:
                raise IncompleteConfig(f"factor variable {var!r} is neither free nor fixed")
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
    """The `_cdf` rows of one free variable's draws from the product of the
    factors it is given, keyed by the mixed-radix index of the state of its
    blanket: the other free slots of those factors (fixed variables are
    already in the factors' base offsets).  Over the stage's probability
    factors the rows are the variable's full conditionals; over its own
    conditional alone, they are keyed by its free parents.

    A row is built the first time a draw reads it, so the table holds no
    more rows than have been read, and a blanket state whose weights are all
    zero raises AllZeroSupport only when read."""

    __slots__ = ("slot", "size", "sizes", "factors", "blanket")

    def __init__(self, slot: int, factors: list[_CompiledFactor], sizes: tuple[int, ...]):
        super().__init__()
        self.slot = slot
        self.size = sizes[slot]
        self.sizes = sizes
        self.factors = [(cf, dict(cf.free_pairs)[slot]) for cf in factors]
        others = sorted({s for cf in factors for s, _ in cf.free_pairs if s != slot})
        radix = 1
        blanket = []
        for s in others:
            blanket.append((s, radix))
            radix *= sizes[s]
        self.blanket = tuple(blanket)

    def weights(self, state: Mapping[int, int]) -> list[float]:
        """Weights of every value of the variable given `state[s]` for each
        blanket slot `s`: the product of its factors, in the order given."""
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
        sizes = self.sizes
        row = _cdf(self.weights({s: index // r % sizes[s] for s, r in self.blanket}))
        self[index] = row
        return row

    def site(self) -> _Site:
        return self.slot, self.blanket, self


class _CompiledCell:
    """Stage factors compiled against one fixed configuration."""

    def __init__(
        self,
        ctx: StageContext,
        fixed_config: Mapping[str, str],
        value_factor: Factor | None = None,
    ):
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
        for var in fixed_config:
            if var in slot_of:
                raise IncompleteConfig(f"{var!r} is free in this stage, cannot be fixed")

        prob = []
        per_var: list[list[_CompiledFactor]] = [[] for _ in self.free]
        # each free variable's own conditional, compiled once with the rest
        own: dict[str, _CompiledFactor] = {}
        for sf in ctx.factors:
            if sf.role == ROLE_VALUE:
                continue
            cf = _CompiledFactor(sf.factor, slot_of, fixed_config)
            prob.append(cf)
            for slot, _ in cf.free_pairs:
                per_var[slot].append(cf)
            if sf.role == ROLE_CHANCE and sf.child in slot_of:
                own.setdefault(sf.child, cf)
        self.prob_factors = prob
        # the full conditionals, in model order, for the chain and i.i.d.
        # cells; the own conditionals, in topological order, for forward
        # initialization and logic sampling
        self.sites = tuple(
            _SiteTable(slot, factors, self.sizes).site() for slot, factors in enumerate(per_var)
        )
        self.own = tuple(
            _SiteTable(slot_of[v], [own[v]], self.sizes).site() for v in ctx.free_topological
        )
        # no probability factor couples two free sites: every site's full
        # conditional is fixed by the cell, so successive sweeps are i.i.d.
        self.iid = all(len(cf.free_pairs) <= 1 for cf in prob)
        # a chance factor with a fixed child that holds a free variable is
        # evidence on the free variables; without any, they follow the
        # product of their own conditionals
        free = set(self.free)
        self.evidence = any(
            sf.role == ROLE_CHANCE
            and sf.child not in free
            and not free.isdisjoint(sf.factor.scope)
            for sf in ctx.factors
        )

        self.value = None
        if value_factor is not None:
            self.value = _CompiledFactor(value_factor, slot_of, fixed_config)

    def block_sites(self) -> list[_Site] | None:
        """The sites of a cell whose sweeps are i.i.d. draws, in the order a
        draw visits them, with every row built; None for a coupled cell with
        evidence.

        An i.i.d. cell's sites are its full conditionals, each with one row
        and no row parents.  A cell without evidence draws by logic sampling:
        its sites are its own conditionals, in topological order, with one
        row per state of their free parents."""
        if self.iid:
            tables = self.sites
        elif self.evidence:
            return None
        else:
            tables = self.own
        sizes = self.sizes
        return [
            (slot, parents, [rows[i] for i in range(math.prod(sizes[s] for s, _ in parents))])
            for slot, parents, rows in tables
        ]

    # -- core moves --------------------------------------------------------

    def run(
        self,
        state: list[int],
        sites: Sequence[_Site],
        uniform_rows: Sequence[Sequence[float]],
        keep: range = range(0),
        kept: list[float] | None = None,
    ) -> None:
        """One scan over `sites` per row of `uniform_rows`: each site draws
        its slot from the row of its rows that the state of its row parents
        selects, the way `_cdf` describes, with the uniform at its slot's
        column.  After each scan whose row index is in `keep`, appends the
        value factor at the state to `kept`.

        Over `sites`, a scan is a chain sweep; over `own`, from an all-zero
        state, it is a forward sample."""
        value = self.value
        # a flag per row, set by slice: cheaper per scan than `i in keep`
        flags = [False] * len(uniform_rows)
        flags[keep.start : keep.stop : keep.step] = [True] * len(keep)
        for uniforms, keep_this in zip(uniform_rows, flags):
            for slot, parents, rows in sites:
                index = 0
                for s, radix in parents:
                    index += radix * state[s]
                support, cumulative, total = rows[index]
                state[slot] = support[bisect_right(cumulative, uniforms[slot] * total)]
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

    def certainly_empty(self) -> bool:
        """Whether no state has a positive factor product, in the cases this
        shows without a search: a factor is zero at every state of its free
        variables, or, in an i.i.d. cell, some site's weights are all zero.
        False does not promise a positive state."""
        sizes = self.sizes
        for cf in self.prob_factors:
            offsets = [cf.base]
            for slot, stride in cf.free_pairs:
                offsets = [off + stride * j for off in offsets for j in range(sizes[slot])]
            if not any(cf.flat[off] > 0.0 for off in offsets):
                return True
        # an i.i.d. cell's product is the constant factors times one weight
        # per site, and a site's blanket is empty
        return self.iid and any(
            not any(w > 0.0 for w in table.weights({})) for _, _, table in self.sites
        )

    def initial_state(self, rng: np.random.Generator) -> list[int]:
        n = len(self.free)
        if n == 0:
            if self.product_at([]) <= 0.0:
                raise NoPositiveState("fixed configuration has zero factor product")
            return []
        for _ in range(_INIT_ATTEMPTS):
            state = [0] * n
            self.run(state, self.own, [rng.random(n).tolist()])
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
        cell.run(ints, cell.sites, [rng.random(n).tolist()])
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
    batch means over 20 equal batches.  When the sweeps are i.i.d. draws
    (`_CompiledCell.block_sites`) they are computed a block at a time; an
    i.i.d. cell then gives the same result as sweeping, and a cell without
    evidence draws each kept state exactly, by logic sampling.  A cell that
    `_CompiledCell.certainly_empty` shows has no positive state raises
    NoPositiveState before drawing anything.
    """
    cell = _CompiledCell(stage_context, fixed_config, value_factor=value_factor)
    n_free = len(cell.free)
    if n_free and cell.certainly_empty():
        raise NoPositiveState(
            "no positive-probability completion of the fixed configuration exists"
        )
    rng = np.random.default_rng(sampler_config.seed)
    state = cell.initial_state(rng)
    cfg = sampler_config
    sites = cell.block_sites() if n_free else None

    if sites is not None:
        kept = _iid_chain(cell, rng, cfg, sites)
    elif n_free:
        values: list[float] = []
        for uniforms, keep in _blocks(rng, cfg, n_free):
            cell.run(state, cell.sites, uniforms.tolist(), range(len(uniforms))[keep], values)
        kept = np.array(values)
    else:
        kept = np.full(cfg.samples // cfg.thinning, cell.value_at(state))
    mean = float(kept.mean())
    return Estimate(mean=mean, std_error=_batch_means_se(kept), n=len(kept))


def _blocks(
    rng: np.random.Generator, cfg: SamplerConfig, n_free: int
) -> Iterator[tuple[np.ndarray, slice]]:
    """The uniforms of the `burn_in + samples` sweeps, a block at a time, one
    row per sweep and one column per slot, each with the `_kept_rows` slice
    of its kept sweeps.  A block holds at most 8 192 sweeps, so that the
    per-site temporaries of `_iid_chain` (8 bytes a row) stay in cache and
    are not page-faulted in fresh, and at most 65 536 uniforms, but at
    least one sweep.  A block is drawn at its exact size, so the stream, and
    every estimate, is that of single sweeps with the same seed, whatever
    the caps."""
    burn, total = cfg.burn_in, cfg.burn_in + cfg.samples
    block_sweeps = max(1, min(_BLOCK_SWEEPS, _BLOCK_UNIFORMS // n_free))
    done = 0
    while done < total:
        count = min(block_sweeps, total - done)
        uniforms = rng.random(count * n_free).reshape(count, n_free)
        yield uniforms, _kept_rows(done, burn, cfg.thinning)
        done += count


def _iid_chain(
    cell: _CompiledCell,
    rng: np.random.Generator,
    cfg: SamplerConfig,
    sites: list[_Site],
) -> np.ndarray:
    """The kept values of a cell whose sweeps are i.i.d. draws through the
    rows of `sites` (`_CompiledCell.block_sites`), one block of `_blocks` at
    a time.  Every array it makes per block and site has one entry per kept
    sweep of the block, at most 8 192, which keeps them in cache.

    The uniforms of burn-in and thinned-out sweeps are dropped.  Each site,
    in order, maps its slot's column through the row its row parents select,
    as `support[bisect_right(cumulative, u * total)]` does."""
    tables = []
    for slot, parents, rows in sites:
        # rows padded to one width with +inf running sums, so the count of
        # running sums <= u * total is the bisection and stays inside the
        # row's own support
        width = max(len(cumulative) for _, cumulative, _ in rows)
        cumulative = np.full((len(rows), width), np.inf)
        support = np.zeros((len(rows), width + 1), dtype=np.intp)
        for r, (sup, cum, _) in enumerate(rows):
            cumulative[r, : len(cum)] = cum
            support[r, : len(sup)] = sup
        totals = np.array([row_total for _, _, row_total in rows])
        tables.append((slot, parents, cumulative, support, totals))
    value = cell.value
    flat = np.array(value.flat)
    if __debug__:
        probe = [(np.array(cf.flat), cf.base, cf.free_pairs) for cf in cell.prob_factors]
    kept = np.empty(cfg.samples // cfg.thinning, dtype=float)
    k = 0
    for uniforms, keep in _blocks(rng, cfg, len(cell.free)):
        uniforms = uniforms[keep]
        states = np.empty(uniforms.shape, dtype=np.intp)
        for slot, parents, cumulative, support, totals in tables:
            row = 0
            for s, radix in parents:
                row = row + radix * states[:, s]
            target = uniforms[:, slot] * totals[row]
            pos = np.zeros(len(target), dtype=np.intp)
            for column in cumulative.T:
                pos += column[row] <= target
            states[:, slot] = support[row, pos]
        off = np.full(len(states), value.base, dtype=np.intp)
        for slot, stride in value.free_pairs:
            off += stride * states[:, slot]
        m = len(states)
        kept[k : k + m] = flat[off]
        if __debug__:
            # every 64th kept draw, as the chain checks its kept states: the
            # product of the probability factors in factor order
            rows = states[-k % 64 :: 64]
            product = np.ones(len(rows))
            for factor_flat, base, free_pairs in probe:
                off = np.full(len(rows), base, dtype=np.intp)
                for slot, stride in free_pairs:
                    off += stride * rows[:, slot]
                product *= factor_flat[off]
            if (product <= 0.0).any():
                raise AllZeroSupport("chain reached a zero-probability state")
        k += m
    assert k == len(kept)
    return kept


def _kept_rows(done: int, burn: int, thin: int) -> slice:
    """The rows of a block of sweeps `done + 1, done + 2, ...` whose sweep
    `i` is kept: `i > burn` and `(i - burn) % thin == 0`."""
    first = burn + thin * max(1, -((burn - done - 1) // thin))
    return slice(first - done - 1, None, thin)


def _batch_means_se(values: np.ndarray) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    b = min(_BATCHES, n)
    m = n // b
    batch_means = values[: b * m].reshape(b, m).mean(axis=1)
    return float(batch_means.std(ddof=1) / math.sqrt(b))
