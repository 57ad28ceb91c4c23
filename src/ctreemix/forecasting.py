"""Sequential one-step-ahead evaluation over a train/test split.

The model is fitted on the training prefix.  At every test index the
current MAP tree and MAP (or plug-in ML) leaf parameters produce a Gaussian
predictive; its mean, variance, realised value, squared error and log
density are recorded, and the realised value is then absorbed into the
model before moving on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Optional, Sequence

import numpy as np

from ._num import LOG_2PI
from .ar import ArHyperParams, ArModel
from .arch import ArchConfig, ArchModel
from .fit import fit_series
from .quantizer import Quantizer
from .tree import TreeModel


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to fit one model: leaf family, tree and prior knobs."""

    kind: str  # "ar" | "arch"
    thresholds: tuple[float, ...]
    order: int
    depth: int = 10
    beta: Optional[float] = None
    intercept: bool = False
    tau: float = 1.0
    lam: float = 1.0
    fisher_iters: int = 10

    def __post_init__(self):
        if self.kind not in ("ar", "arch"):
            raise ValueError("kind must be 'ar' or 'arch'")

    def make_model(self, order: Optional[int] = None):
        p = self.order if order is None else order
        if self.kind == "ar":
            return ArModel(ArHyperParams(order=p, intercept=self.intercept, tau=self.tau, lam=self.lam))
        return ArchModel(ArchConfig(order=p, fisher_iters=self.fisher_iters))

    def quantizer(self) -> Quantizer:
        return Quantizer(self.thresholds)


@dataclass(frozen=True)
class ForecastRecord:
    index: int
    mean: float
    variance: float
    realised: float
    squared_error: float
    log_density: float


@dataclass
class EvalReport:
    mse: float
    cumulative_log_loss: float
    records: list[ForecastRecord]
    thresholds: tuple[float, ...]
    order: int
    map_tree: TreeModel
    map_posterior: float
    log_evidence: float
    train_len: int
    leaf_params: dict = field(default_factory=dict)


def resolve_train_len(n: int, train_frac: Optional[float], train_len: Optional[int],
                      test_last: Optional[int]) -> int:
    """Training-prefix length from exactly one of the three conventions."""
    given = [v is not None for v in (train_frac, train_len, test_last)]
    if sum(given) > 1:
        raise ValueError("give at most one of train_frac / train_len / test_last")
    if test_last is not None:
        out = n - test_last
    elif train_len is not None:
        out = train_len
    else:
        out = int(n * (0.5 if train_frac is None else train_frac))
    if not 0 < out < n:
        raise ValueError(f"split leaves no usable train/test data (train={out}, n={n})")
    return out


def gaussian_log_density(x: float, mean: float, var: float) -> float:
    return -0.5 * (LOG_2PI + log(var)) - (x - mean) ** 2 / (2.0 * var)


def rolling_forecast(
    series: Sequence[float],
    config: RunConfig,
    train_frac: Optional[float] = None,
    train_len: Optional[int] = None,
    test_last: Optional[int] = None,
) -> EvalReport:
    """Fit on the training prefix, then walk the test set one step at a time."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    split = resolve_train_len(n, train_frac, train_len, test_last)
    fitted = fit_series(series[:split], config.make_model(), config.quantizer(),
                        config.depth, config.beta)
    records: list[ForecastRecord] = []
    for i in range(split, n):
        mean, var = fitted.predict_next()
        mean, var = float(mean), float(var)
        x = float(series[i])
        err2 = (x - mean) ** 2
        records.append(ForecastRecord(i, mean, var, x, err2, gaussian_log_density(x, mean, var)))
        fitted.update(x)
    mse = float(np.mean([r.squared_error for r in records]))
    cll = -float(np.sum([r.log_density for r in records]))
    return EvalReport(
        mse=mse,
        cumulative_log_loss=cll,
        records=records,
        thresholds=config.thresholds,
        order=config.order,
        map_tree=fitted.map_tree(),
        map_posterior=fitted.map_posterior(),
        log_evidence=fitted.log_evidence(),
        train_len=split,
        leaf_params={"".join(map(str, k)): v for k, v in fitted.leaf_parameters().items()},
    )
