"""Threshold quantizer mapping real observations to a finite alphabet.

A quantizer with strictly increasing thresholds c_1 < ... < c_{m-1} maps
x to 0 when x < c_1, to i when c_i <= x < c_{i+1}, and to m-1 when
x >= c_{m-1}.  Values exactly equal to a threshold fall in the upper cell.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite

import numpy as np


@dataclass(frozen=True)
class Quantizer:
    """Piecewise-constant quantizer over half-open threshold cells.

    Immutable and safe for concurrent read-only use.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        thr = tuple(float(c) for c in self.thresholds)
        if len(thr) < 1:
            raise ValueError("need at least one threshold (alphabet size >= 2)")
        for c in thr:
            if not isfinite(c):
                raise ValueError("thresholds must be finite")
        for a, b in zip(thr, thr[1:]):
            if not a < b:
                raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", thr)

    @property
    def alphabet_size(self) -> int:
        return len(self.thresholds) + 1

    def __call__(self, x: float) -> int:
        return bisect_right(self.thresholds, x)

    def code(self, series) -> np.ndarray:
        """Symbols of a whole series at once; elementwise equal to calling the quantizer."""
        return np.searchsorted(self.thresholds, series, side="right")
