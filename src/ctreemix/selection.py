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

from .fit import _ingest, _sweep, check_training_length
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
        for name, values in (("threshold candidate", [list(thr) for thr in self.thresholds]),
                             ("order", list(self.orders))):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} {value} is given more than once")


def percentile_threshold_grid(
    train: Sequence[float], m: int, points: int = 17
) -> tuple[tuple[float, ...], ...]:
    """Threshold candidates from evenly spaced percentiles of the training data.

    Grid points span the 10th to 90th percentile; for alphabets larger than
    two, candidates are all strictly increasing (m-1)-tuples of grid points.
    Fewer than m - 1 points, or fewer than m - 1 distinct percentile values
    (a series with many repeated values), raise a ValueError.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if points < m - 1:
        raise ValueError(f"--grid-points {points} gives fewer percentile points than the {m - 1} "
                         f"threshold(s) that --alphabet {m} needs; raise --grid-points")
    qs = np.linspace(10.0, 90.0, points)
    values = np.percentile(np.asarray(train, dtype=float), qs)
    grid = sorted(set(float(v) for v in values))
    if len(grid) < m - 1:
        raise ValueError(f"the training series gave {len(grid)} distinct percentile value(s), fewer than the {m - 1} "
                         f"threshold(s) that --alphabet {m} needs; give them with --thresholds or "
                         "--threshold-candidates")
    if m == 2:
        return tuple((v,) for v in grid)
    return tuple(combinations(grid, m - 1))


def candidate_grid(train: Sequence[float], m: int, thresholds: Optional[Sequence[tuple[float, ...]]] = None,
                   order: Optional[int] = None, max_order: int = 5, points: int = 17) -> SelectionGrid:
    """The given threshold tuples (else the percentile grid) by the given order (else 1..max_order).

    Every candidate must have m - 1 thresholds, so that all cells share one alphabet, and a searched
    order needs max_order >= 1.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if order is None and max_order < 1:
        raise ValueError(f"--max-order {max_order} is below 1, so no order is left to search")
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
    Every cell scores the samples after the first init = max(depth, largest
    order), so each cell equals a separate fit of order p on
    train[init - max(depth, p):].  A series of at most init samples, which
    would leave none to score, fails ``check_training_length`` before any
    fit.  The training series is ingested once per threshold set, at the
    largest order; each order is then scored on that trie with its store
    narrowed to the order's lags, which gives the same sums, bit for bit.
    A failure of one candidate, thresholds that ``Quantizer`` rejects (in
    every cell of that set) or a cell's sweep failing numerically, is
    recorded with -inf evidence; if all cells fail a RuntimeError is
    raised.  A bad series, depth, beta or order fails the whole run with its
    own ValueError; the length rule is checked first, so a series that is
    too short fails it even when depth, beta or order is bad too.  The
    table lists the orders in increasing order, each over the sorted
    thresholds.
    """
    largest = max(grid.orders)
    check_training_length(len(train), depth, grid.orders)
    orders, thresholds = sorted(grid.orders), sorted(grid.thresholds)
    cells: dict[tuple[tuple[float, ...], int], EvidenceCell] = {}
    for thr in thresholds:
        try:
            quantizer = Quantizer(thr)
        except ValueError as exc:
            cells.update(((thr, order), EvidenceCell(thr, order, float("-inf"), error=str(exc)))
                         for order in orders)
            continue
        ingested = _ingest(train, model_factory(largest), quantizer, depth, beta).trie
        for order in orders:
            try:
                # the ingested trie scores its own order; a narrowed one is dropped once swept
                cells[thr, order] = EvidenceCell(thr, order, _sweep(
                    ingested if order == largest else ingested._narrowed(model_factory(order), order)))
            except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
                cells[thr, order] = EvidenceCell(thr, order, float("-inf"), error=str(exc))
        del ingested  # before the next threshold set's ingest
    table = tuple(cells[thr, order] for order in orders for thr in thresholds)
    # max keeps the first of equal cells, and the table's order is the tie rule
    best = max((cell for cell in table if cell.error is None), key=lambda cell: cell.log_evidence, default=None)
    if best is None:
        raise RuntimeError(f"every grid candidate failed; the first: {table[0].error}")
    return SelectionResult(best.thresholds, best.order, best.log_evidence, table)
