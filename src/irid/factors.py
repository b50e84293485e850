"""Dense table algebra over finite variables.

A Factor is a real-valued table over an ordered scope of variables, stored
row-major in frame order.  Factors carry chance conditionals, zero-one policy
conditionals, value tables, and the Gibbs full conditionals built from them.
All operations are pure; factors are immutable and safe to share.

Tables here are desk-scale (tens of entries), so everything is plain dense
double arithmetic: no sparsity, no log-space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import AllZeroSupport, IncompleteConfig, UnknownVariable, ValueNotInFrame

if TYPE_CHECKING:  # pragma: no cover
    from .model import Frame

Config = Mapping[str, str]


@dataclass(frozen=True, eq=False)
class Factor:
    """Real-valued table over an ordered scope of finite variables."""

    scope: tuple[str, ...]
    frames: tuple["Frame", ...]
    values: np.ndarray  # shape == tuple(len(f) for f in frames)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        expect = tuple(len(f) for f in self.frames)
        if arr.shape != expect:
            raise ValueError(f"table shape {arr.shape} != frame sizes {expect}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("factor entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.scope) != len(self.frames):
            raise ValueError("scope and frames differ in length")
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"scope repeats a variable: {self.scope}")

    @classmethod
    def from_flat(
        cls, scope: Sequence[str], frames: Sequence["Frame"], flat: Iterable[float]
    ) -> "Factor":
        """Build from a row-major flat list (last scope variable varies fastest)."""
        shape = tuple(len(f) for f in frames)
        arr = np.asarray(list(flat), dtype=float).reshape(shape)
        return cls(tuple(scope), tuple(frames), arr)

    def frame_of(self, var: str) -> "Frame":
        try:
            return self.frames[self.scope.index(var)]
        except ValueError:
            raise UnknownVariable(f"{var!r} not in factor scope {self.scope}") from None

    def restrict(self, config: Config) -> "Factor":
        """Slice the table at the assignments in `config`.

        `config` may only mention scope variables; the result ranges over the
        remaining ones (possibly a scalar factor with empty scope).
        """
        for v in config:
            if v not in self.scope:
                raise UnknownVariable(f"restrict: {v!r} not in scope {self.scope}")
        index = []
        keep_scope = []
        keep_frames = []
        for v, fr in zip(self.scope, self.frames):
            if v in config:
                index.append(fr.index(config[v]))
            else:
                index.append(slice(None))
                keep_scope.append(v)
                keep_frames.append(fr)
        sliced = self.values[tuple(index)]
        return Factor(tuple(keep_scope), tuple(keep_frames), np.asarray(sliced, dtype=float))

    def evaluate(self, config: Config) -> float:
        """Entry at a total configuration; extra assignments are ignored."""
        index = []
        for v, fr in zip(self.scope, self.frames):
            if v not in config:
                raise IncompleteConfig(f"evaluate: no value for {v!r}")
            index.append(fr.index(config[v]))
        return float(self.values[tuple(index)])


def full_conditional(
    target_var: str, state: Config, factors: Iterable[Factor]
) -> np.ndarray:
    """Distribution of one variable given all others, for Gibbs updates.

    Proportional to the product, over the factors whose scope contains
    `target_var`, of the factor evaluated at `state` with the target replaced
    by each candidate value.  Normalized over the positive support; raises
    AllZeroSupport when every candidate has product zero (the chain state
    contradicts the factors).
    """
    relevant = [f for f in factors if target_var in f.scope]
    if not relevant:
        raise UnknownVariable(f"no factor contains {target_var!r}")
    frame = relevant[0].frame_of(target_var)
    vec = np.ones(len(frame), dtype=float)
    for f in relevant:
        others = {}
        for v in f.scope:
            if v == target_var:
                continue
            if v not in state:
                raise IncompleteConfig(f"full_conditional: no value for {v!r}")
            others[v] = state[v]
        sliced = f.restrict(others)
        if sliced.frame_of(target_var) is not frame and sliced.frames[0].labels != frame.labels:
            raise ValueNotInFrame(
                f"factors disagree on the frame of {target_var!r}"
            )
        vec *= sliced.values
    if np.any(vec < 0):
        raise ValueError("full_conditional applied to a negative-valued factor")
    total = vec.sum()
    if total == 0.0:
        raise AllZeroSupport(f"all candidate values of {target_var!r} have product zero")
    return vec / total
