"""Evidence-driven choice of quantizer thresholds and leaf-model order.

Every candidate (thresholds, order) pair is fitted on the training series
and scored by its log evidence; the candidate with the highest evidence
wins.  Ties break toward the smaller order, then lexicographically smaller
thresholds, so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .fit import fit_series
from .quantizer import Quantizer


@dataclass(frozen=True)
class SelectionGrid:
    """Candidate orders and candidate threshold tuples (each strictly increasing)."""

    orders: tuple[int, ...]
    thresholds: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.orders or not self.thresholds:
            raise ValueError("candidate sets must be nonempty")
        for thr in self.thresholds:
            if any(not a < b for a, b in zip(thr, thr[1:])):
                raise ValueError(f"thresholds {thr} not strictly increasing")


def percentile_threshold_grid(
    train: Sequence[float], m: int, points: int = 17
) -> tuple[tuple[float, ...], ...]:
    """Threshold candidates from evenly spaced percentiles of the training data.

    Grid points span the 10th to 90th percentile; for alphabets larger than
    two, candidates are all strictly increasing (m-1)-tuples of grid points.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if points < m - 1:
        raise ValueError("grid too small for the alphabet")
    qs = np.linspace(10.0, 90.0, points)
    values = np.percentile(np.asarray(train, dtype=float), qs)
    grid = sorted(set(float(v) for v in values))
    if m == 2:
        return tuple((v,) for v in grid)
    return tuple(combinations(grid, m - 1))


def candidate_grid(train: Sequence[float], m: int, thresholds: Optional[Sequence[tuple[float, ...]]] = None,
                   order: Optional[int] = None, max_order: int = 5, points: int = 17) -> SelectionGrid:
    """The given threshold tuples (else the percentile grid) by the given order (else 1..max_order).

    Every candidate must have m - 1 thresholds, so that all cells share one alphabet.
    """
    if thresholds is None:
        thresholds = percentile_threshold_grid(train, m, points)
    for thr in thresholds:
        if len(thr) != m - 1:
            raise ValueError(f"threshold candidate {list(thr)} needs exactly {m - 1} value(s) for alphabet size {m}")
    orders = tuple(range(1, max_order + 1)) if order is None else (order,)
    return SelectionGrid(orders=orders, thresholds=tuple(thresholds))


@dataclass(frozen=True)
class EvidenceCell:
    thresholds: tuple[float, ...]
    order: int
    log_evidence: float
    error: Optional[str] = None


@dataclass(frozen=True)
class SelectionResult:
    thresholds: tuple[float, ...]
    order: int
    log_evidence: float
    table: tuple[EvidenceCell, ...]


def select_hyperparams(
    train: Sequence[float],
    grid: SelectionGrid,
    model_factory: Callable[[int], object],
    depth: int,
    beta: Optional[float] = None,
) -> SelectionResult:
    """Fit every grid candidate on the training series and keep the argmax.

    `model_factory(order)` must return a fresh leaf model of that order.
    Candidates that fail numerically are recorded with -inf evidence; if all
    fail a RuntimeError is raised.
    """
    cells: list[EvidenceCell] = []
    best: Optional[EvidenceCell] = None
    for order in sorted(grid.orders):
        for thr in sorted(grid.thresholds):
            try:
                fitted = fit_series(train, model_factory(order), Quantizer(thr), depth, beta)
                cell = EvidenceCell(thr, order, fitted.log_evidence())
            except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:  # numerical failure, keep going
                cell = EvidenceCell(thr, order, float("-inf"), error=str(exc))
            cells.append(cell)
            if cell.error is None and (best is None or cell.log_evidence > best.log_evidence):
                best = cell
    if best is None:
        raise RuntimeError(f"every grid candidate failed numerically; the first: {cells[0].error}")
    return SelectionResult(best.thresholds, best.order, best.log_evidence, tuple(cells))
