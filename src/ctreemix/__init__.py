"""Context-tree mixture models for real-valued time series.

A variable-memory mixture model: recent samples are quantized into a
discrete context, a context tree maps each context to a state, and a
per-state leaf model (conjugate AR, or ARCH fitted by Fisher scoring)
generates the next value.  The package computes the exact evidence with
trees and parameters integrated out, identifies the posterior-mode tree,
draws exact posterior tree samples, selects thresholds and orders by
evidence, and evaluates sequential one-step forecasts.
"""

from .ar import (
    ArHyperParams,
    ArModel,
    ArPosterior,
    log_pe_ar,
    posterior_ar,
)
from .arch import ArchConfig, ArchModel, ArchNodeState
from .fit import FittedModel, fit_series
from .forecasting import EvalReport, ForecastRecord, RunConfig, rolling_forecast
from .io import TransformSpec, apply_transform, ingest_csv, model_document
from .quantizer import Quantizer
from .selection import SelectionGrid, select_hyperparams
from .simulate import ArLeaf, ArchLeaf, GenerativeSpec, builtin_specs, generate
from .tree import ContextTrie, TreeModel

__version__ = "0.1.0"

__all__ = [
    "ArHyperParams", "ArModel", "ArPosterior",
    "log_pe_ar", "posterior_ar",
    "ArchConfig", "ArchModel", "ArchNodeState",
    "FittedModel", "fit_series",
    "EvalReport", "ForecastRecord", "RunConfig", "rolling_forecast",
    "TransformSpec", "apply_transform", "ingest_csv", "model_document",
    "Quantizer",
    "SelectionGrid", "select_hyperparams",
    "ArLeaf", "ArchLeaf", "GenerativeSpec", "builtin_specs", "generate",
    "ContextTrie", "TreeModel",
]
