"""Dense table algebra over finite variables.

A Factor is a real-valued table over an ordered scope of variables, stored
row-major in frame order.  Factors carry chance conditionals, zero-one policy
conditionals and value tables.  All operations are pure; factors are immutable
and safe to share.

Tables here are desk-scale (tens of entries), so everything is plain dense
double arithmetic: no sparsity, no log-space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import IncompleteConfig, UnknownVariable

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
    def trusted(
        cls, scope: tuple[str, ...], frames: tuple["Frame", ...], values: np.ndarray
    ) -> "Factor":
        """Wrap parts that already pass the constructor's checks: distinct
        variables, and a finite, C-contiguous float array of the frames'
        shape that no one else holds.  `values` is frozen in place, not copied.
        """
        values.flags.writeable = False
        factor = object.__new__(cls)
        vars(factor).update(scope=scope, frames=frames, values=values)
        return factor

    def frame_of(self, var: str) -> "Frame":
        try:
            return self.frames[self.scope.index(var)]
        except ValueError:
            raise UnknownVariable(f"{var!r} not in factor scope {self.scope}") from None

    def evaluate(self, config: Config) -> float:
        """Entry at a total configuration; extra assignments are ignored."""
        index = []
        for v, fr in zip(self.scope, self.frames):
            if v not in config:
                raise IncompleteConfig(f"evaluate: no value for {v!r}")
            index.append(fr.index(config[v]))
        return float(self.values[tuple(index)])

