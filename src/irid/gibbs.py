"""Gibbs sampler over a stage's factor set.

For a fixed configuration of the variables the stage's decision depends on
(and a fixed decision alternative), the chain sweeps the free variables in
model order, resampling each from its full conditional given everything else.
Averaging the value table over the visited states estimates the conditional
expectation of the value node for that cell.

`estimate_expectation` is the one way in; the rest of the module is private.
One call estimates every admissible alternative of one cell, on common
random numbers: each alternative's configuration draws its initial state
from the cell's seed, and those whose generator then stands at the same
place (in the bundled models, all of a cell's) draw the rest of their
sweeps from one shared stream.  Block-drawn alternatives skip the burn-in
uniforms by advancing the generator, and draw each site they share (the
same table, fixed part of the row and row parents' draws) once per block;
chain alternatives each run their own state over the shared uniform rows.
Every estimate is bit-identical to that of its configuration alone.

Zeros in the tables are handled by support restriction, not smoothing: a full
conditional never proposes a zero-probability value, and initialization
forward-samples a positive-probability state.  After 100 failed attempts it
searches the cell's states in row-major order, a chunk at a time in numpy,
but raises BudgetExceeded instead when they number more than
`irid.model.MAX_CONFIGS` (10**7), the bound of every enumeration; where
none is positive, the configuration gets no estimate.  Where no state can be
positive without a search (a factor is zero at every state of its free
variables, which covers a zero product in a cell without free variables, or
an i.i.d. cell has a site whose weights are all zero), it gets none before
it draws a uniform.  Every other configuration draws its initial state
first, so its seeded stream does not depend on this check.

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
states, once all blocks are drawn.

Only coupled cells with evidence run the single-site chain, and there support
restriction does not repair reducibility: if table zeros split the positive
support into disconnected components, the chain explores only the component
it starts in and reports a small standard error around a wrong value.  The
exact backend does not have this failure.

A stage is compiled once per `StageContext`, in its `cache["gibbs"]`, so it
is freed with the context (`_CompiledStage`): each factor flattened once,
with integer strides for its free slots and its fixed variables, the free
slots and their sizes, and the `iid` and `evidence` flags, which depend on
the stage alone.  A cell (`_CompiledCell`) adds only the base offsets its
fixed configuration selects in the flattened factors.

One kind of table, `_SiteTable`, serves every draw: one variable's
inverse-CDF rows, one per state of the other free variables its factors
hold, so a draw is an index computation and a bisection.  A cell has one
table per variable over its full conditionals, which the chain and i.i.d.
cells read, and one over its own conditional, which forward initialization
and logic sampling read in topological order.  The stage keeps every table
it builds, keyed by the variable and the factors' base offsets, so cells
and alternatives whose factors sit at the same offsets share its rows and
their flat numpy form (`_SiteTable.arrays`), in which a block draw takes
each value with one 1-D `take` from the flattened supports.  Value factors
are compiled once per factor passed in.  The chain and the block
draws take their uniforms from one block loop, `_blocks`.  A block holds at
most 8 192 sweeps and 65 536 uniforms: at 8 192 rows a block draw's per-site
numpy temporaries take 64 KiB each, so they stay in cache and under glibc's
128 KiB mmap threshold instead of being page-faulted in fresh every block.
Blocks are drawn at their exact size, so the caps change no estimate.

A value factor with an entry of magnitude 2**500 or more has its means and
standard errors computed on its kept values times 2**-600 and divided back,
so that they stay finite for any finite values.  The scaling is exact for
every value of magnitude 2**-422 or more, or zero; only a smaller one in
such a factor loses bits.

Reproducibility is strict: a given seed yields a bit-identical estimate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import AllZeroSupport, BudgetExceeded, IncompleteConfig, InvalidModel, NoPositiveState
from .factors import Factor
from .graph_ops import StageContext
from .model import CHANCE, MAX_CONFIGS, VALUE

#: forward-sampling attempts before falling back to exhaustive search
_INIT_ATTEMPTS = 100

_NO_POSITIVE_STATE = "no positive-probability completion of the fixed configuration exists"

#: number of batches for the batch-means standard error
_BATCHES = 20

#: a value factor with an entry of at least `_LARGE` in magnitude has its
#: means and standard errors computed on its kept values times `_SCALE`
#: (module docstring); no other factor changes its arithmetic
_LARGE = 2.0**500
_SCALE = 2.0**-600

#: caps on one block of `_blocks`, in uniforms and in sweeps (module
#: docstring: the sweep cap keeps the block draws' temporaries in cache)
_BLOCK_UNIFORMS = 65536
_BLOCK_SWEEPS = 8192

#: one variable's draw: (slot, row parents as (slot, radix) pairs, rows); it
#: takes the `_cdf` row `rows[sum(radix * state[s] for s, radix in parents)]`
_Site = tuple[int, tuple[tuple[int, int], ...], "_SiteTable"]


@dataclass(frozen=True)
class SamplerConfig:
    """Run-length knobs.  `samples` sweeps are run after `burn_in`, and every
    one of them contributes to the estimate.  Cells whose sweeps are i.i.d.
    draw and drop the burn-in sweeps' uniforms all the same, so the estimate
    keeps its place in the seeded stream.  Each field is an integer, numpy
    integers included and `bool` not, kept as an `int`: `seed` in
    [0, 2**64), `burn_in` at least 0 and `samples` at least 1."""

    seed: int
    burn_in: int = 1000
    samples: int = 20000

    def __post_init__(self):
        for name, low, high, domain in (
            ("seed", 0, 2**64, "in [0, 2**64)"),
            ("burn_in", 0, math.inf, ">= 0"),
            ("samples", 1, math.inf, ">= 1"),
        ):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer and low <= int(value) < high):
                raise InvalidModel(f"{name} must be an integer {domain}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class Estimate:
    """A sampled conditional expectation: the mean of `n` kept sweeps and
    its batch-means standard error, None (undefined) for fewer than two."""

    mean: float
    std_error: float | None
    n: int


class _CompiledFactor:
    """A factor flattened once per stage, as a list for scalar reads and as
    an array for block reads, with integer strides for its free slots and
    for the variables a cell fixes.  `at` gives a copy that shares the
    tables, with one cell's fixed variables folded into its offset `base`."""

    __slots__ = ("flat", "array", "free_pairs", "fixed_strides", "base")

    def __init__(self, factor: Factor, slot_of: Mapping[str, int]):
        arr = factor.values
        self.array = arr.ravel()
        self.flat = self.array.tolist()
        free_pairs: list[tuple[int, int]] = []
        fixed_strides = []
        for var, frame, stride in zip(factor.scope, factor.frames, arr.strides):
            stride //= arr.itemsize
            if var in slot_of:
                free_pairs.append((slot_of[var], stride))
            else:
                fixed_strides.append((var, frame, stride))
        self.free_pairs = tuple(free_pairs)
        self.fixed_strides = tuple(fixed_strides)
        self.base = 0

    def at(self, fixed: Mapping[str, str]) -> _CompiledFactor:
        base = 0
        for var, frame, stride in self.fixed_strides:
            if var not in fixed:
                raise IncompleteConfig(f"factor variable {var!r} is neither free nor fixed")
            base += stride * frame.index(fixed[var])
        bound = object.__new__(_CompiledFactor)
        bound.flat, bound.array, bound.free_pairs = self.flat, self.array, self.free_pairs
        bound.fixed_strides, bound.base = self.fixed_strides, base
        return bound

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
    zero raises AllZeroSupport only when read.  `arrays` builds every row,
    for block draws."""

    __slots__ = ("slot", "size", "sizes", "factors", "blanket", "_arrays")

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
        self._arrays = None

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
        return weights

    def __missing__(self, index: int) -> tuple[list[int], list[float], float]:
        sizes = self.sizes
        row = _cdf(self.weights({s: index // r % sizes[s] for s, r in self.blanket}))
        self[index] = row
        return row

    def site(self) -> _Site:
        return self.slot, self.blanket, self

    def arrays(self) -> tuple[int, np.ndarray, list[np.ndarray], np.ndarray]:
        """Every row in flat form, built once: (width, support, thresholds,
        totals).  Row `r` holds its positive support at `support[r * width:]`,
        padded with its last value to the widest row's `width`; threshold
        `j` holds each row's `j`-th running sum, or +inf past the row's
        last-but-one.  A draw's position is then the count of its row's
        thresholds at most `u * total`, as `_cdf` describes: the last running
        sum is never compared, because a position past it reads the repeated
        last value, which the last position already holds."""
        if self._arrays is None:
            rows = [self[i] for i in range(math.prod(self.sizes[s] for s, _ in self.blanket))]
            width = max(len(cumulative) for _, cumulative, _ in rows)
            support = np.array(
                [sup[:-1] + sup[-1:] * (width - len(sup) + 1) for sup, _, _ in rows],
                dtype=np.intp,
            ).ravel()
            thresholds = [
                np.array([cum[j] if j < len(cum) - 1 else np.inf for _, cum, _ in rows])
                for j in range(width - 1)
            ]
            totals = np.array([total for _, _, total in rows])
            self._arrays = width, support, thresholds, totals
        return self._arrays


class _CompiledStage:
    """What a cell's compilation takes from its stage alone, built once per
    `StageContext` and kept in its `cache["gibbs"]`, so it is freed with the
    context: the free slots and their sizes, each factor flattened, the
    `iid` and `evidence` flags of every cell, and the site tables and value
    factors that cells share.

    A site table is shared by every cell whose factors for it have the same
    base offsets, so a row is built once per stage; value factors are
    compiled once per factor passed in."""

    def __init__(self, ctx: StageContext):
        self.free = ctx.free_vars
        self.sizes = tuple(len(ctx.cpt_of(v).frame_of(v)) for v in self.free)
        self.slot_of = slot_of = {v: i for i, v in enumerate(self.free)}
        self.needed = set(ctx.dependency_set)
        if ctx.decision is not None:
            self.needed.add(ctx.decision)

        prob: list[_CompiledFactor] = []
        per_var: list[list[int]] = [[] for _ in self.free]
        # the index of each free variable's own conditional
        own: dict[str, int] = {}
        for sf in ctx.factors:
            if sf.role == VALUE:
                continue
            cf = _CompiledFactor(sf.factor, slot_of)
            for slot, _ in cf.free_pairs:
                per_var[slot].append(len(prob))
            if sf.role == CHANCE and sf.child in slot_of:
                own.setdefault(sf.child, len(prob))
            prob.append(cf)
        self.prob = tuple(prob)
        # the factors of each slot's full conditional, in model order, for
        # the chain and i.i.d. cells; each slot's own conditional, in
        # topological order, for forward initialization and logic sampling
        self.full = tuple(enumerate(map(tuple, per_var)))
        self.own = tuple((slot_of[v], (own[v],)) for v in ctx.free_topological)
        # no probability factor couples two free sites: every site's full
        # conditional is fixed by the cell, so successive sweeps are i.i.d.
        self.iid = all(len(cf.free_pairs) <= 1 for cf in prob)
        # a chance factor with a fixed child that holds a free variable is
        # evidence on the free variables; without any, they follow the
        # product of their own conditionals
        free = set(self.free)
        self.evidence = any(
            sf.role == CHANCE
            and sf.child not in free
            and not free.isdisjoint(sf.factor.scope)
            for sf in ctx.factors
        )
        # the sweeps are i.i.d. draws, made a block at a time
        self.block = self.iid or not self.evidence
        self.values: dict[Factor, tuple[_CompiledFactor, float]] = {}
        self.tables: dict[tuple, _SiteTable] = {}

    def value(self, factor: Factor) -> tuple[_CompiledFactor, float]:
        """The compiled value factor, and the scale of its means and errors."""
        entry = self.values.get(factor)
        if entry is None:
            scale = _SCALE if np.abs(factor.values).max() >= _LARGE else 1.0
            entry = self.values[factor] = (_CompiledFactor(factor, self.slot_of), scale)
        return entry

    def sites(
        self, plan: Sequence[tuple[int, tuple[int, ...]]], factors: list[_CompiledFactor]
    ) -> tuple[_Site, ...]:
        """One cell's sites for `plan`, pairs of a slot and the indices of
        the factors its table multiplies, over the cell's bound `factors`.
        A table is built once per slot, factors and base offsets, and shared
        by every cell that asks for it."""
        sites = []
        for slot, indices in plan:
            key = (slot, indices, tuple(factors[i].base for i in indices))
            table = self.tables.get(key)
            if table is None:
                table = self.tables[key] = _SiteTable(
                    slot, [factors[i] for i in indices], self.sizes
                )
            sites.append(table.site())
        return tuple(sites)


class _CompiledCell:
    """A stage's compiled factors bound to one fixed configuration: base
    offsets, and the stage's site tables for those offsets."""

    def __init__(self, ctx: StageContext, fixed_config: Mapping[str, str], value_factor: Factor):
        stage = ctx.cache.get("gibbs")
        if stage is None:
            stage = ctx.cache["gibbs"] = _CompiledStage(ctx)
        missing = stage.needed - set(fixed_config)
        if missing:
            raise IncompleteConfig(f"fixed configuration misses {sorted(missing)}")
        for var in fixed_config:
            if var in stage.slot_of:
                raise IncompleteConfig(f"{var!r} is free in this stage, cannot be fixed")

        self.stage = stage
        self.free, self.sizes = stage.free, stage.sizes
        self.iid, self.evidence = stage.iid, stage.evidence
        self.prob_factors = [cf.at(fixed_config) for cf in stage.prob]
        value, self.scale = stage.value(value_factor)
        self.value = value.at(fixed_config)

    # built on first read, so a cell that `certainly_empty` rejects binds none
    @cached_property
    def sites(self) -> tuple[_Site, ...]:
        return self.stage.sites(self.stage.full, self.prob_factors)

    @cached_property
    def own(self) -> tuple[_Site, ...]:
        return self.stage.sites(self.stage.own, self.prob_factors)

    def block_sites(self) -> list[_Site]:
        """The sites of a cell whose sweeps are i.i.d. draws (`stage.block`),
        in the order a draw visits them, with every row built.

        An i.i.d. cell's sites are its full conditionals, each with one row
        and no row parents.  A cell without evidence draws by logic sampling:
        its sites are its own conditionals, in topological order, with one
        row per state of their free parents."""
        sites = self.sites if self.iid else self.own
        for _, _, table in sites:
            table.arrays()
        return list(sites)

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

    def products(self, columns: Sequence, n: int) -> np.ndarray:
        """The product of the probability factors, in factor order, at each
        of `n` states given by `columns[slot]`, an array of the slot's value
        in each state or one value for all: `product_at` in numpy, with the
        same sign."""
        product = np.ones(n)
        for cf in self.prob_factors:
            off = cf.base
            for slot, stride in cf.free_pairs:
                off = off + stride * columns[slot]
            product *= cf.array.take(off)
        return product

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
        """The first of 100 forward samples with a positive factor product,
        else the first such state in row-major order (module docstring)."""
        n = len(self.free)
        for _ in range(_INIT_ATTEMPTS):
            state = [0] * n
            self.run(state, self.own, [rng.random(n).tolist()])
            if self.product_at(state) > 0.0:
                return state
        configs = math.prod(self.sizes)
        if configs > MAX_CONFIGS:
            raise BudgetExceeded(f"initial-state search: {configs} states exceed {MAX_CONFIGS}")
        chunk = max(1, _BLOCK_UNIFORMS // max(n, 1))
        for start in range(0, configs, chunk):
            # the states numbered start, start + 1, ... in row-major order
            index = np.arange(start, min(start + chunk, configs))
            states = np.empty((len(index), n), dtype=np.intp)
            for slot in reversed(range(n)):
                index, states[:, slot] = np.divmod(index, self.sizes[slot])
            positive = np.flatnonzero(self.products(states.T, len(states)) > 0.0)
            if len(positive):
                return states[positive[0]].tolist()
        raise NoPositiveState(_NO_POSITIVE_STATE)


def estimate_expectation(
    stage_context: StageContext,
    fixed_configs: Sequence[Mapping[str, str]],
    value_factor: Factor,
    sampler_config: SamplerConfig,
) -> list[Estimate | None]:
    """Estimate the conditional expectation of the value factor at each of
    `fixed_configs`, the admissible alternatives of one cell (`[{}]` for the
    terminal value), all from the one stream of `sampler_config.seed`.

    Each configuration runs `burn_in` discard sweeps, then keeps the
    `samples` sweeps that follow; the value factor is evaluated at each kept
    state composed with the configuration.  The standard error comes from
    batch means over 20 equal batches.  Returns one Estimate per
    configuration, in order, or None where it has no positive state:
    `_CompiledCell.certainly_empty` shows it before anything is drawn, or
    `initial_state` finds none.

    Every entry is bit-identical to the same configuration estimated alone:
    each configuration draws its initial state from the seed, and those
    whose generator then stands at the same place share the uniforms that
    follow.  In block-drawn cells (`_block_draws`) they skip the burn-in
    uniforms without drawing them and share the draws of the sites they
    have in common; chain cells run each state over the shared rows.
    """
    cells = [_CompiledCell(stage_context, fixed, value_factor) for fixed in fixed_configs]
    rng = np.random.default_rng(sampler_config.seed)
    start = rng.bit_generator.state
    # (index, cell, initial state) of each drawn configuration, grouped by
    # the generator's state after its initialization
    groups: dict[int, tuple[dict, list[tuple[int, _CompiledCell, list[int]]]]] = {}
    for i, cell in enumerate(cells):
        if cell.certainly_empty():
            continue
        rng.bit_generator.state = start
        try:
            state = cell.initial_state(rng)
        except NoPositiveState:
            continue
        place = rng.bit_generator.state
        groups.setdefault(place["state"]["state"], (place, []))[1].append((i, cell, state))

    cfg = sampler_config
    estimates: list[Estimate | None] = [None] * len(cells)
    for place, members in groups.values():
        rng.bit_generator.state = place
        stage = members[0][1].stage
        if not stage.free:
            kept = [np.full(cfg.samples, cell.value.value_at(state)) for _, cell, state in members]
        elif stage.block:
            kept = _block_draws([cell for _, cell, _ in members], rng, cfg)
        else:
            values: list[list[float]] = [[] for _ in members]
            for uniforms, keep in _blocks(rng, cfg, len(stage.free)):
                rows = uniforms.tolist()
                kept_rows = range(len(rows))[keep]
                for (_, cell, state), vals in zip(members, values):
                    cell.run(state, cell.sites, rows, kept_rows, vals)
            kept = [np.array(vals) for vals in values]
        for (i, cell, _), sample in zip(members, kept):
            scale = cell.scale
            if scale != 1.0:
                sample = sample * scale
            # numpy's mean, in its operation order, without its Python wrapper's cost
            mean = float(np.add.reduce(sample)) / cfg.samples / scale
            se = _batch_means_se(sample)
            se = se if se is None else se / scale
            # every n is the one `samples` int, not an int object per estimate
            estimates[i] = Estimate(mean=mean, std_error=se, n=cfg.samples)
    return estimates


def _blocks(
    rng: np.random.Generator, cfg: SamplerConfig, n_free: int
) -> Iterator[tuple[np.ndarray, slice]]:
    """The uniforms of the `burn_in + samples` sweeps, a block at a time, one
    row per sweep and one column per slot, each with the slice of its kept
    rows, those past the burn-in.  A block holds at most 8 192 sweeps, so
    that the per-site temporaries of `_block_draws` (8 bytes a row) stay in
    cache and are not page-faulted in fresh, and at most 65 536 uniforms,
    but at least one sweep.  A block is drawn at its exact size, so the
    stream, and every estimate, is that of single sweeps with the same seed,
    whatever the caps."""
    total = cfg.burn_in + cfg.samples
    block_sweeps = max(1, min(_BLOCK_SWEEPS, _BLOCK_UNIFORMS // n_free))
    done = 0
    while done < total:
        count = min(block_sweeps, total - done)
        uniforms = rng.random(count * n_free).reshape(count, n_free)
        yield uniforms, slice(max(cfg.burn_in - done, 0), None)
        done += count


def _block_draws(
    cells: Sequence[_CompiledCell], rng: np.random.Generator, cfg: SamplerConfig
) -> list[np.ndarray]:
    """The kept values of each of `cells`, configurations of one stage whose
    sweeps are i.i.d. draws through the rows of their `block_sites`, from
    the uniforms of one `rng`, a block of `_blocks` at a time.  Every array
    it makes per block and site has one entry per sweep of the block, at
    most 8 192, which keeps them in cache.

    The burn-in sweeps are skipped by advancing the generator past their
    uniforms, which is exact: PCG64 spends one step per double.  Each site,
    in order, maps its slot's column through the row its row parents select,
    as `support[bisect_right(cumulative, u * total)]` does, in the flat form
    of `_SiteTable.arrays`: a position counted against the row's thresholds,
    then one `take`.  A site whose row a cell fixes to one positive value is
    a constant.  The other sites are drawn once for every cell with the same
    table, fixed part of the row and row parents' draws.  When a cell's
    value factor reads exactly one drawn site, it is read through that
    site's support by position, and the site's values are taken only if a
    later site reads them as row parents."""
    n_free = len(cells[0].free)
    # the distinct draws: (slot, row parents as (draw, radix) pairs, the part
    # of the row index the constant ones fix, and the flat form of its table)
    draws: list[tuple] = []
    index_of: dict[tuple, int] = {}
    # per cell: its constant slots' values and the draw of each drawn slot
    plans: list[tuple[dict[int, int], dict[int, int]]] = []
    for cell in cells:
        const: dict[int, int] = {}
        drawn: dict[int, int] = {}
        for slot, parents, table in cell.block_sites():
            row = 0
            varying = []
            for s, radix in parents:
                if s in const:
                    row += radix * const[s]
                else:
                    varying.append((drawn[s], radix))
            if not varying and len(table[row][1]) == 1:
                const[slot] = table[row][0][0]
                continue
            key = (id(table), row, tuple(varying))
            if key not in index_of:
                index_of[key] = len(draws)
                draws.append((slot, varying, row, *table.arrays()))
            drawn[slot] = index_of[key]
        plans.append((const, drawn))
    taken = {p for draw in draws for p, _ in draw[1]}

    # per cell, how its value factor reads the draws: (lookup table, draw,
    # None) through one draw's positions, else (flat values, base offset,
    # (draw, stride) pairs) through the drawn values
    readers = []
    for cell, (const, drawn) in zip(cells, plans):
        value = cell.value
        base = value.base
        reads = []
        for s, stride in value.free_pairs:
            if s in const:
                base += stride * const[s]
            else:
                reads.append((drawn[s], stride))
        if len(reads) == 1:
            (d, stride), = reads
            readers.append((value.array.take(base + stride * draws[d][4]), d, None))
        else:
            taken.update(d for d, _ in reads)
            readers.append((value.array, base, reads))

    kept = [np.empty(cfg.samples, dtype=float) for _ in cells]
    probed: list[list[np.ndarray]] = [[] for _ in draws]
    rng.bit_generator.advance(cfg.burn_in * n_free)
    k = 0
    for uniforms, _ in _blocks(rng, replace(cfg, burn_in=0), n_free):
        m = len(uniforms)
        states: dict[int, np.ndarray] = {}
        positions = []
        for d, (slot, varying, row, width, support, thresholds, totals) in enumerate(draws):
            for p, radix in varying:
                row = row + radix * states[p]
            target = uniforms[:, slot] * totals.take(row)
            pos = row * width
            for column in thresholds:
                pos += column.take(row) <= target
            positions.append(pos)
            if d in taken:
                states[d] = support.take(pos)
        for values, (array, at, reads) in zip(kept, readers):
            if reads is None:
                values[k : k + m] = array.take(positions[at])
            else:
                for d, stride in reads:
                    at = at + stride * states[d]
                values[k : k + m] = array.take(at)
        if __debug__:
            # every 64th kept draw, as the chain checks its kept states, in
            # copies: a view would keep the block's positions alive
            for d, pos in enumerate(positions):
                probed[d].append(pos[-k % 64 :: 64].copy())
        k += m
    assert k == cfg.samples
    if __debug__:
        probes = [draw[4].take(np.concatenate(p)) for draw, p in zip(draws, probed)]
        for cell, (const, drawn) in zip(cells, plans):
            columns = [const[s] if s in const else probes[drawn[s]] for s in range(n_free)]
            if (cell.products(columns, -(-k // 64)) <= 0.0).any():
                raise AllZeroSupport("chain reached a zero-probability state")
    return kept


def _batch_means_se(values: np.ndarray) -> float | None:
    """Standard error of the mean of `values` by batch means; None for
    fewer than two values, from which no spread can be estimated."""
    n = len(values)
    if n < 2:
        return None
    b = min(_BATCHES, n)
    m = n // b
    batch_means = np.add.reduce(values[: b * m].reshape(b, m), axis=1) / m
    deviations = batch_means - float(np.add.reduce(batch_means)) / b
    variance = float(np.add.reduce(deviations * deviations)) / (b - 1)
    return math.sqrt(variance) / math.sqrt(b)
