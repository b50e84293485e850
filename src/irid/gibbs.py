"""Sampler over a stage's factor set (the `gibbs` backend).

For a fixed configuration of the variables the stage's decision depends on
(and a fixed decision alternative), every cell takes one kind of draw.  The
free variables are drawn in topological order, each from its site: its own
conditional times the evidence tables it closes, in the stage's factor
order.  An evidence table is a chance table whose child is fixed and which
holds a free variable; a variable closes it when it is the table's last
free variable in topological order, so every other free variable the table
holds is drawn before it.  A site's row, one per state of its row parents
(the other free variables its tables hold), is an inverse-CDF row over the
product of its tables.

Each draw is weighted by the totals of the rows it read at the sites that
hold an evidence table and have a drawn row parent: every other site's row
total is the same in every draw of the cell, and cancels.  The estimate is
sum(w * V) / sum(w) (likelihood weighting; Fung & Chang, Shachter & Peot,
UAI 1989), and its standard error is the batch-means error of the
linearized draws w * (V - mean) / mean(w), or None where Kish's effective
sample size sum(w)**2 / sum(w**2) is below the 20 batches: with so few
draws carrying the weight, that error can read 0 around a wrong value.  A
cell without a weighted site has constant weights, and gets the plain mean
of its values and their batch-means error.  Without evidence (the terminal
value always) a site is the variable's own conditional, so the draws are
logic sampling (Henrion 1988); in an i.i.d. cell, where no probability
factor holds two free variables, a site is the variable's full
conditional, with one row.  Both draw exactly, with constant weights.  No
Markov chain is run: the backend keeps the name `gibbs` so that files stay
compatible, and `burn_in` only advances each cell's stream, as a change of
seed would, with no statistical effect.

`estimate_expectation` is the one way in; the rest of the module is private.
One call estimates every admissible alternative of one cell, on common
random numbers (Glasserman & Yao 1992): every alternative's configuration
draws from the start of the seed's one stream.  They skip the burn-in
uniforms by advancing the generator, and draw each site they share (the
same table, fixed part of the row and row parents' draws) once per block.
Every estimate is bit-identical to that of its configuration alone.

Zeros in the tables are handled by support restriction, not smoothing: a row
never draws a zero-weight value, and a row whose weights are all zero has
total zero, so a draw that reads it weighs zero.  A slot is constant where
its site's row parents are all constant (or it has none) and the row they
fix has one positive value.  A configuration gets no estimate, before it
draws a uniform, where a factor is zero at every state of its free
variables (which covers a zero product in a cell without free variables)
or a site whose row the constants fix has no positive value: no state of
it is positive.  Where every draw of a configuration weighs zero, its
states are searched in row-major order, a chunk at a time in numpy: where
none is positive, it gets no estimate, and where one is, the call raises
AllZeroSupport.  More than `irid.model.MAX_CONFIGS` (10**7) states, the
bound of every enumeration, raise BudgetExceeded instead.

Run without -O, the draws check every 64th kept draw, in numpy, once all
blocks are drawn: its product of the probability factors must be positive
exactly where its weight is.

A stage is compiled once per `StageContext`, in its `cache["gibbs"]`, so it
is freed with the context (`_CompiledStage`): each factor flattened once,
with integer strides for its free slots and its fixed variables, the free
slots and their sizes, and the factors of each site, which depend on the
stage alone.  A cell (`_CompiledCell`) adds only the base offsets its fixed
configuration selects in the flattened factors.

One kind of table, `_SiteTable`, serves every draw: one variable's
inverse-CDF rows, one per state of its row parents, so a draw is an index
computation and a bisection.  A cell has one table per variable over its
site, in topological order.  The stage keeps every table it builds, keyed
by the variable and the factors' base offsets, so cells and alternatives
whose factors sit at the same offsets share its rows and their flat numpy
form (`_SiteTable.arrays`), in which a block draw takes each value with one
1-D `take` from the flattened supports; a table with more rows than a block
has draws builds per block only the rows it reads.  Value factors are
compiled once per factor passed in.  The draws take their uniforms from
one block loop, `_blocks`.  A block holds at most 8 192 draws and 65 536
uniforms: at 8 192 rows a block draw's per-site numpy temporaries take 64
KiB each, so they stay in cache and under glibc's 128 KiB mmap threshold
instead of being page-faulted in fresh every block.  Blocks are drawn at
their exact size, so the caps change no estimate.

A value factor with an entry of magnitude 2**500 or more has its means and
standard errors computed on its kept values times 2**-600 and divided back,
so that they stay finite for any finite values.  The scaling is exact for
every value of magnitude 2**-422 or more, or zero; only a smaller one in
such a factor loses bits.

Reproducibility is strict: a given seed yields a bit-identical estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import AllZeroSupport, BudgetExceeded, IncompleteConfig, InvalidModel
from .factors import Factor
from .graph_ops import StageContext
from .model import CHANCE, MAX_CONFIGS, VALUE

#: number of batches for the batch-means standard error
_BATCHES = 20

#: a value factor with an entry of at least `_LARGE` in magnitude has its
#: means and standard errors computed on its kept values times `_SCALE`
#: (module docstring); no other factor changes its arithmetic
_LARGE = 2.0**500
_SCALE = 2.0**-600

#: caps on one block of `_blocks`, in uniforms and in draws (module
#: docstring: the draw cap keeps the block draws' temporaries in cache)
_BLOCK_UNIFORMS = 65536
_BLOCK_DRAWS = 8192

#: one variable's draw: (slot, row parents as (slot, radix) pairs, rows); it
#: takes the `_cdf` row `rows[sum(radix * state[s] for s, radix in parents)]`
_Site = tuple[int, tuple[tuple[int, int], ...], "_SiteTable"]


@dataclass(frozen=True)
class SamplerConfig:
    """Run-length knobs.  Each cell makes `samples` draws, and every one of
    them contributes to the estimate; `burn_in` only advances the cell's
    stream past that many draws' uniforms first, with no statistical
    effect.  Each field is an integer,
    numpy integers included and `bool` not, kept as an `int`: `seed` in
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
    """A sampled conditional expectation: the weighted mean of `n` draws and
    its batch-means standard error, None (undefined) for fewer than two
    draws, or an effective sample size below 20 (`estimate_expectation`)."""

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


def _cdf(weights: list[float]) -> tuple[list[int], list[float], float]:
    """Inverse-CDF table of one draw restricted to the positive weights.

    Returns the positive support with its last value repeated once, the
    running sums of the positive weights and the total of all weights, each
    summed in list order.  `support[bisect_right(cumulative, u * total)]` is
    then the first positive value whose running sum exceeds `u * total`, or
    the last positive value when rounding leaves `u * total` past every sum.
    Where no weight is positive, the support is `[0]`, with no sums and
    total 0: a draw from it takes value 0 and weighs zero.
    """
    total = 0.0
    for w in weights:
        total += w
    support: list[int] = []
    cumulative: list[float] = []
    acc = 0.0
    for j, w in enumerate(weights):
        if w > 0.0:
            acc += w
            support.append(j)
            cumulative.append(acc)
    support.append(support[-1] if support else 0)
    return support, cumulative, total


class _SiteTable(dict):
    """The `_cdf` rows of one free variable's draws from the product of the
    factors it is given, keyed by the mixed-radix index of the state of its
    blanket, its row parents: the other free slots of those factors (fixed
    variables are already in the factors' base offsets).

    A row is built the first time it is read, so the table holds no more
    rows than have been read."""

    __slots__ = ("slot", "size", "sizes", "factors", "blanket", "rows", "_arrays")

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
        self.rows = radix
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

    def arrays(self) -> tuple[int, np.ndarray, list[np.ndarray], np.ndarray]:
        """Every row in the form of `_flat`, built once."""
        if self._arrays is None:
            self._arrays = _flat([self[i] for i in range(self.rows)])
        return self._arrays


def _flat(rows: list[tuple]) -> tuple[int, np.ndarray, list[np.ndarray], np.ndarray]:
    """`_cdf` rows in flat form: (width, support, thresholds, totals).  Row
    `r` holds its positive support at `support[r * width:]`, padded with its
    last value to the widest row's `width`, at least 1; threshold `j` holds
    each row's `j`-th running sum, or +inf past the row's last-but-one.  A
    draw's position is then the count of its row's thresholds at most
    `u * total`, as `_cdf` describes: the last running sum is never
    compared, because a position past it reads the repeated last value,
    which the last position already holds."""
    width = max(1, *(len(cumulative) for _, cumulative, _ in rows))
    support = np.array(
        [sup[:-1] + sup[-1:] * (width - len(sup) + 1) for sup, _, _ in rows], dtype=np.intp
    ).ravel()
    thresholds = [
        np.array([cum[j] if j < len(cum) - 1 else np.inf for _, cum, _ in rows])
        for j in range(width - 1)
    ]
    totals = np.array([total for _, _, total in rows])
    return width, support, thresholds, totals


class _CompiledStage:
    """What a cell's compilation takes from its stage alone, built once per
    `StageContext` and kept in its `cache["gibbs"]`, so it is freed with the
    context: the free slots and their sizes, each factor flattened, the
    plan of the draws' sites, and the site tables and value factors that
    cells share.

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

        order = [slot_of[v] for v in ctx.free_topological]
        rank = {slot: i for i, slot in enumerate(order)}
        prob: list[_CompiledFactor] = []
        # per slot, in topological order, the indices of the chance factors
        # whose last free slot it is: its own conditional (its parents come
        # before it) and the evidence tables it closes; decision
        # placeholders are all ones and join no site
        site: dict[int, list[int]] = {slot: [] for slot in order}
        for sf in ctx.factors:
            if sf.role == VALUE:
                continue
            cf = _CompiledFactor(sf.factor, slot_of)
            if sf.role == CHANCE and cf.free_pairs:
                site[max((s for s, _ in cf.free_pairs), key=rank.__getitem__)].append(len(prob))
            prob.append(cf)
        self.prob = tuple(prob)
        # each slot with the indices of the factors its table multiplies, in
        # topological order
        self.draw = tuple((slot, tuple(indices)) for slot, indices in site.items())
        self.values: dict[Factor, tuple[_CompiledFactor, float]] = {}
        self.tables: dict[tuple, _SiteTable] = {}

    def value(self, factor: Factor) -> tuple[_CompiledFactor, float]:
        """The compiled value factor, and the scale of its means and errors."""
        entry = self.values.get(factor)
        if entry is None:
            scale = _SCALE if np.abs(factor.values).max() >= _LARGE else 1.0
            entry = self.values[factor] = (_CompiledFactor(factor, self.slot_of), scale)
        return entry

    def bind(self, factors: list[_CompiledFactor]) -> tuple[_Site, ...]:
        """One cell's sites, over the cell's bound `factors`.  A table is
        built once per slot, factors and base offsets, and shared by every
        cell that asks for it."""
        sites = []
        for slot, indices in self.draw:
            key = (slot, indices, tuple(factors[i].base for i in indices))
            table = self.tables.get(key)
            if table is None:
                table = self.tables[key] = _SiteTable(
                    slot, [factors[i] for i in indices], self.sizes
                )
            sites.append((slot, table.blanket, table))
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
        self.prob_factors = [cf.at(fixed_config) for cf in stage.prob]
        value, self.scale = stage.value(value_factor)
        self.value = value.at(fixed_config)

    # built on first read, so a cell that `certainly_empty` rejects by its
    # factors alone binds none
    @cached_property
    def draw(self) -> tuple[_Site, ...]:
        return self.stage.bind(self.prob_factors)

    @cached_property
    def plan(self) -> tuple[dict[int, int], list[tuple]] | None:
        """The constant slots with their values, and the other sites as
        (slot, the part of its row index the constants fix, its row parents
        that are not constant as (slot, radix) pairs, table), in topological
        order; None where a site whose row the constants fix has no positive
        value.  A site's row is fixed where its row parents are all constant
        (or it has none), and its slot is then constant where that row has
        one positive value."""
        const: dict[int, int] = {}
        sites = []
        for slot, parents, table in self.draw:
            row = 0
            varying = []
            for s, radix in parents:
                if s in const:
                    row += radix * const[s]
                else:
                    varying.append((s, radix))
            if not varying:
                support, cumulative, _ = table[row]
                if not cumulative:
                    return None
                if len(cumulative) == 1:
                    const[slot] = support[0]
                    continue
            sites.append((slot, row, varying, table))
        return const, sites

    def products(self, columns: Sequence, n: int) -> np.ndarray:
        """The product of the probability factors, in factor order, at each
        of `n` states given by `columns[slot]`, an array of the slot's value
        in each state or one value for all."""
        product = np.ones(n)
        for cf in self.prob_factors:
            off = cf.base
            for slot, stride in cf.free_pairs:
                off = off + stride * columns[slot]
            product *= cf.array.take(off)
        return product

    def certainly_empty(self) -> bool:
        """Whether no state has a positive factor product, in the cases this
        shows before anything is drawn: a factor is zero at every state of
        its free variables, or a site whose row the cell fixes has no
        positive value (`plan` is None).  The second is a proof by induction
        in topological order: in a positive state each constant slot takes
        the one value of positive weight in its fixed row, so the state
        reads every fixed row, and in that site's row every value of its
        slot makes one of its factors zero.  False does not promise a
        positive state."""
        sizes = self.sizes
        for cf in self.prob_factors:
            offsets = [cf.base]
            for slot, stride in cf.free_pairs:
                offsets = [off + stride * j for off in offsets for j in range(sizes[slot])]
            if not any(cf.flat[off] > 0.0 for off in offsets):
                return True
        return self.plan is None

    def has_positive_state(self) -> bool:
        """Whether some state has a positive factor product, searched in
        row-major order, a chunk of states at a time in numpy; raises
        BudgetExceeded where the states number more than
        `irid.model.MAX_CONFIGS`."""
        n = len(self.free)
        configs = math.prod(self.sizes)
        if configs > MAX_CONFIGS:
            raise BudgetExceeded(f"support search: {configs} states exceed {MAX_CONFIGS}")
        chunk = max(1, _BLOCK_UNIFORMS // max(n, 1))
        for start in range(0, configs, chunk):
            # the states numbered start, start + 1, ... in row-major order
            index = np.arange(start, min(start + chunk, configs))
            states = np.empty((n, len(index)), dtype=np.intp)
            for slot in reversed(range(n)):
                index, states[slot] = np.divmod(index, self.sizes[slot])
            if (self.products(states, states.shape[1]) > 0.0).any():
                return True
        return False


def estimate_expectation(
    stage_context: StageContext,
    fixed_configs: Sequence[Mapping[str, str]],
    value_factor: Factor,
    sampler_config: SamplerConfig,
) -> list[Estimate | None]:
    """Estimate the conditional expectation of the value factor at each of
    `fixed_configs`, the admissible alternatives of one cell (`[{}]` for the
    terminal value), all from the one stream of `sampler_config.seed`.

    Every configuration draws from the start of that stream: it advances
    past `burn_in` draws' uniforms, then makes `samples` draws (module
    docstring); the value factor is evaluated at each drawn state composed
    with the configuration.  The estimate is the weighted mean sum(w * V) /
    sum(w), and its standard error the batch-means error, over 20 equal
    batches, of w * (V - mean) / mean(w), or None where the effective sample
    size is below 20; where the weights are constant, the plain mean and the
    batch-means error of V.  Returns one Estimate per configuration, in
    order, or None where it has no positive state:
    `_CompiledCell.certainly_empty` shows it before anything is drawn, or,
    where every draw weighs zero, `_CompiledCell.has_positive_state` finds
    none.  Where that search finds one, raises AllZeroSupport.

    Every entry is bit-identical to the same configuration estimated alone:
    the configurations share the uniforms and the draws of the sites they
    have in common (`_block_draws`).
    """
    cells = [_CompiledCell(stage_context, fixed, value_factor) for fixed in fixed_configs]
    estimates: list[Estimate | None] = [None] * len(cells)
    drawn = [(i, cell) for i, cell in enumerate(cells) if not cell.certainly_empty()]
    if not drawn:
        return estimates
    rng = np.random.default_rng(sampler_config.seed)
    n = sampler_config.samples
    results = _block_draws([cell for _, cell in drawn], rng, sampler_config)
    for (i, cell), (values, weights) in zip(drawn, results):
        scale = cell.scale
        if scale != 1.0:
            values = values * scale
        if weights is None:
            # numpy's mean, in its operation order, without its Python
            # wrapper's cost
            mean = float(np.add.reduce(values)) / n
            se = _batch_means_se(values)
        else:
            total = float(np.add.reduce(weights))
            if not total > 0.0:
                if cell.has_positive_state():
                    raise AllZeroSupport("no draw of a positive configuration has positive weight")
                continue
            mean = float(np.add.reduce(weights * values)) / total
            # Kish's effective sample size, on weights scaled to at most 1
            scaled = weights / weights.max()
            ess = float(np.add.reduce(scaled)) ** 2 / float(np.add.reduce(scaled * scaled))
            linearized = weights * (values - mean) / (total / n)
            se = _batch_means_se(linearized) if ess >= _BATCHES else None
        se = se if se is None else se / scale
        # every n is the one `samples` int, not an int object per estimate
        estimates[i] = Estimate(mean=mean / scale, std_error=se, n=n)
    return estimates


def _blocks(rng: np.random.Generator, cfg: SamplerConfig, n_free: int) -> Iterator[np.ndarray]:
    """The uniforms of the `samples` draws, a block at a time, one row per
    draw and one column per slot, after advancing `rng` past the uniforms of
    `burn_in` draws, which is exact: PCG64 spends one step per double.  A
    block holds at most 8 192 draws, so that the per-site temporaries of
    `_block_draws` (8 bytes a row) stay in cache and are not page-faulted in
    fresh, and at most 65 536 uniforms, but at least one draw.  A block is
    drawn at its exact size, so the stream, and every estimate, is that of
    single draws with the same seed, whatever the caps."""
    rng.bit_generator.advance(cfg.burn_in * n_free)
    block = max(1, min(_BLOCK_DRAWS, _BLOCK_UNIFORMS // max(n_free, 1)))
    for done in range(0, cfg.samples, block):
        count = min(block, cfg.samples - done)
        yield rng.random(count * n_free).reshape(count, n_free)


def _block_draws(
    cells: Sequence[_CompiledCell], rng: np.random.Generator, cfg: SamplerConfig
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The values of the draws of each of `cells`, configurations of one
    stage, through the rows of their `draw` sites, with their weights, or
    None where those are constant, from the uniforms of one `rng`, a block
    of `_blocks` at a time.  Every array it makes per block and site has one
    entry per draw of the block, at most 8 192, which keeps them in cache.

    Each site, in order, maps its slot's column through the row its row
    parents select, as `support[bisect_right(cumulative, u * total)]` does,
    in the flat form of `_SiteTable.arrays`: a position counted against the
    row's thresholds, then one `take`; a table with more rows than a block
    has draws gets the rows the block reads.  A cell's constant slots
    (`_CompiledCell.plan`) draw nothing; its other sites are drawn once for
    every cell with the same table, fixed part of the row and row parents'
    draws.
    A drawn site that holds an evidence table, so more than one factor, and
    has a drawn row parent weighs its draws by their rows' totals; a cell's
    weights are the product of its weighing sites' totals, in site order.
    When a cell's value factor reads exactly one drawn site, it is read
    through that site's support by position, and the site's values are
    taken only if a later site reads them as row parents.  A cell without
    free variables reads its value once per block."""
    n_free = len(cells[0].free)
    # the distinct draws: (slot, row parents as (draw, radix) pairs, the part
    # of the row index the constant ones fix, the table and its flat form,
    # None where each block builds the rows it reads)
    draws: list[tuple] = []
    index_of: dict[tuple, int] = {}
    # per cell: its constant slots' values, the draw of each drawn slot and
    # its weighing draws
    plans: list[tuple[dict[int, int], dict[int, int], list[int]]] = []
    for cell in cells:
        const, sites = cell.plan
        drawn: dict[int, int] = {}
        weighing: list[int] = []
        for slot, row, parents, table in sites:
            varying = tuple((drawn[s], radix) for s, radix in parents)
            key = (id(table), row, varying)
            if key not in index_of:
                index_of[key] = len(draws)
                flat = table.arrays() if table.rows <= _BLOCK_DRAWS else None
                draws.append((slot, varying, row, table, flat))
            drawn[slot] = index_of[key]
            if varying and len(table.factors) > 1:
                weighing.append(drawn[slot])
        plans.append((const, drawn, weighing))
    taken = {p for draw in draws for p, _ in draw[1]}
    taken.update(d for d, draw in enumerate(draws) if draw[4] is None)
    weighed = {d for _, _, weighing in plans for d in weighing}

    # per cell, how its value factor reads the draws: (lookup table, draw,
    # None) through one draw's positions, else (flat values, base offset,
    # (draw, stride) pairs) through the drawn values
    readers = []
    for cell, (const, drawn, _) in zip(cells, plans):
        value = cell.value
        base = value.base
        reads = []
        for s, stride in value.free_pairs:
            if s in const:
                base += stride * const[s]
            else:
                reads.append((drawn[s], stride))
        if len(reads) == 1 and draws[reads[0][0]][4] is not None:
            (d, stride), = reads
            readers.append((value.array.take(base + stride * draws[d][4][1]), d, None))
        else:
            taken.update(d for d, _ in reads)
            readers.append((value.array, base, reads))

    kept = [np.empty(cfg.samples, dtype=float) for _ in cells]
    weights = [np.empty(cfg.samples, dtype=float) if plan[2] else None for plan in plans]
    probed: list[list[np.ndarray]] = [[] for _ in draws]
    k = 0
    for uniforms in _blocks(rng, cfg, n_free):
        m = len(uniforms)
        states: dict[int, np.ndarray] = {}
        totals_of: dict[int, np.ndarray] = {}
        positions = []
        for d, (slot, varying, row, table, flat) in enumerate(draws):
            for p, radix in varying:
                row = row + radix * states[p]
            if flat is None:
                indices, row = np.unique(row, return_inverse=True)
                flat = _flat([table[i] for i in indices.tolist()])
            width, support, thresholds, totals = flat
            total = totals.take(row)
            target = uniforms[:, slot] * total
            pos = row * width
            for column in thresholds:
                pos += column.take(row) <= target
            positions.append(pos)
            if d in taken:
                states[d] = support.take(pos)
            if d in weighed:
                totals_of[d] = total
            if __debug__:
                probed[d].append(support.take(pos[-k % 64 :: 64]))
        for values, w, (array, at, reads), (_, _, weighing) in zip(kept, weights, readers, plans):
            if reads is None:
                values[k : k + m] = array.take(positions[at])
            else:
                for d, stride in reads:
                    at = at + stride * states[d]
                values[k : k + m] = array.take(at)
            if weighing:
                product = totals_of[weighing[0]]
                for d in weighing[1:]:
                    product = product * totals_of[d]
                w[k : k + m] = product
        k += m
    assert k == cfg.samples
    if __debug__:
        probes = [np.concatenate(p) for p in probed]
        for cell, (const, drawn, _), w in zip(cells, plans, weights):
            columns = [const[s] if s in const else probes[drawn[s]] for s in range(n_free)]
            positive = cell.products(columns, -(-k // 64)) > 0.0
            if not (positive if w is None else positive == (w[::64] > 0.0)).all():
                raise AllZeroSupport("a checked draw's factor product and weight disagree in sign")
    return list(zip(kept, weights))


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
