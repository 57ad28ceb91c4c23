"""Sequential one-step-ahead evaluation over a train/test split.

The model is fitted on the training prefix.  At every test index the
current MAP tree and MAP (or plug-in ML) leaf parameters produce a Gaussian
predictive; its mean, variance, realised value, squared error and log
density are recorded, and the realised value is then absorbed into the
model before moving on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import log
from typing import Optional, Sequence, Union

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
    """Everything needed to fit one model: the leaf parameters, whose class is the family, and the tree knobs."""

    leaf: Union[ArHyperParams, ArchConfig]
    thresholds: tuple[float, ...]
    depth: int = 10
    beta: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.leaf, (ArHyperParams, ArchConfig)):
            raise TypeError("leaf must be an ArHyperParams or an ArchConfig")

    def make_model(self, order: Optional[int] = None):
        leaf = self.leaf if order is None else replace(self.leaf, order=order)
        return ArModel(leaf) if isinstance(leaf, ArHyperParams) else ArchModel(leaf)

    def quantizer(self) -> Quantizer:
        return Quantizer(self.thresholds)

    def to_document(self) -> dict:
        """The config fields of a fit document; the other family's knobs are null."""
        leaf, ar = self.leaf, isinstance(self.leaf, ArHyperParams)
        m = len(self.thresholds) + 1
        return {
            "model": "ar" if ar else "arch",
            "quantizer": {"thresholds": [float(c) for c in self.thresholds], "alphabet_size": m},
            "depth": self.depth,
            "beta": float(default_beta(m) if self.beta is None else self.beta),
            "order": leaf.order,
            "intercept": ar and bool(leaf.intercept),
            "prior": {"tau": float(leaf.tau), "lam": float(leaf.lam)} if ar else None,
            "fisher_iters": None if ar else leaf.fisher_iters,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "RunConfig":
        """Inverse of to_document (a None beta comes back as its value); ValueError names a bad field."""
        if not isinstance(doc, dict):
            raise ValueError("model document is not a JSON object")
        kind = _doc_field(doc, "model", (str,))
        if kind not in ("ar", "arch"):
            raise ValueError(f"model document field 'model' is malformed: {kind!r}")
        thresholds = tuple(float(v) for v in _doc_field(doc, "quantizer.thresholds", (list,), _NUMBER))
        family = ((float(_doc_field(doc, "prior.tau", _NUMBER)), float(_doc_field(doc, "prior.lam", _NUMBER)))
                  if kind == "ar" else (_doc_field(doc, "fisher_iters"),))
        order, depth = _doc_field(doc, "order"), _doc_field(doc, "depth")
        beta, intercept = float(_doc_field(doc, "beta", _NUMBER)), _doc_field(doc, "intercept", (bool,))
        if kind == "arch" and intercept:
            raise ValueError("an intercept applies to ar leaves only")
        leaf = ArHyperParams(order, intercept, *family) if kind == "ar" else ArchConfig(order, *family)
        return cls(leaf, thresholds, depth, beta)


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
        order=config.leaf.order,
        map_tree=tree,
        map_posterior=fitted.posterior_of(tree),
        log_evidence=fitted.log_evidence(),
        train_len=split,
        leaf_params={context_label(k): v for k, v in fitted.leaf_parameters(tree).items()},
    )
