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
from .io import _NUMBER, _doc_field
from .quantizer import Quantizer
from .tree import TreeModel, check_labelled_alphabet, context_label, default_beta


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to fit one model: leaf family, tree and prior knobs."""

    kind: str  # "ar" | "arch"
    thresholds: tuple[float, ...]
    order: int
    depth: int = 10
    beta: Optional[float] = None
    intercept: bool = False  # ar only
    tau: float = 1.0  # ar only
    lam: float = 1.0  # ar only
    fisher_iters: int = 10  # arch only

    def __post_init__(self):
        if self.kind not in ("ar", "arch"):
            raise ValueError("kind must be 'ar' or 'arch'")
        if self.intercept and self.kind != "ar":
            raise ValueError("an intercept applies to ar leaves only")
        if (self.tau, self.lam) != (RunConfig.tau, RunConfig.lam) and self.kind != "ar":
            raise ValueError("tau and lam apply to ar leaves only")
        if self.fisher_iters != RunConfig.fisher_iters and self.kind != "arch":
            raise ValueError("fisher_iters applies to arch leaves only")

    def make_model(self, order: Optional[int] = None):
        p = self.order if order is None else order
        if self.kind == "ar":
            return ArModel(ArHyperParams(order=p, intercept=self.intercept, tau=self.tau, lam=self.lam))
        return ArchModel(ArchConfig(order=p, fisher_iters=self.fisher_iters))

    def quantizer(self) -> Quantizer:
        return Quantizer(self.thresholds)

    def to_document(self) -> dict:
        """The config fields of a fit document; the other family's knobs are null."""
        ar = self.kind == "ar"
        m = len(self.thresholds) + 1
        return {
            "model": self.kind,
            "quantizer": {"thresholds": [float(c) for c in self.thresholds], "alphabet_size": m},
            "depth": self.depth,
            "beta": float(default_beta(m) if self.beta is None else self.beta),
            "order": self.order,
            "intercept": bool(self.intercept),
            "prior": {"tau": float(self.tau), "lam": float(self.lam)} if ar else None,
            "fisher_iters": None if ar else self.fisher_iters,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "RunConfig":
        """Inverse of to_document (a None beta comes back as its value); ValueError names a bad field."""
        if not isinstance(doc, dict):
            raise ValueError("model document is not a JSON object")
        kind = _doc_field(doc, "model", (str,))
        if kind not in ("ar", "arch"):
            raise ValueError(f"model document field 'model' is malformed: {kind!r}")
        thresholds = _doc_field(doc, "quantizer.thresholds", (list,), _NUMBER)
        if kind == "ar":
            family = {"tau": float(_doc_field(doc, "prior.tau", _NUMBER)),
                      "lam": float(_doc_field(doc, "prior.lam", _NUMBER))}
        else:
            family = {"fisher_iters": _doc_field(doc, "fisher_iters")}
        return cls(kind=kind, thresholds=tuple(float(v) for v in thresholds),
                   order=_doc_field(doc, "order"), depth=_doc_field(doc, "depth"),
                   beta=float(_doc_field(doc, "beta", _NUMBER)),
                   intercept=_doc_field(doc, "intercept", (bool,)), **family)


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


def gaussian_log_density(x: float, mean: float, var: float) -> float:
    return -0.5 * (LOG_2PI + log(var)) - (x - mean) ** 2 / (2.0 * var)


def rolling_forecast(
    series: Sequence[float],
    config: RunConfig,
    train_len: Optional[int] = None,
) -> EvalReport:
    """Fit on the first train_len samples (default: half), then walk the rest one step at a time.

    The report labels each leaf with ``context_label``, so an alphabet above 10 is rejected first.
    """
    check_labelled_alphabet(len(config.thresholds) + 1)
    series = np.asarray(series, dtype=float)
    n = len(series)
    split = n // 2 if train_len is None else train_len
    if not 0 < split < n:
        raise ValueError(f"train_len leaves no usable train/test data (train={split}, n={n})")
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
    tree = fitted.map_tree()
    return EvalReport(
        mse=mse,
        cumulative_log_loss=cll,
        records=records,
        thresholds=config.thresholds,
        order=config.order,
        map_tree=tree,
        map_posterior=fitted.posterior_of(tree),
        log_evidence=fitted.log_evidence(),
        train_len=split,
        leaf_params={context_label(k): v for k, v in fitted.leaf_parameters(tree).items()},
    )
