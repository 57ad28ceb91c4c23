"""Fitting a context-tree mixture to a series and updating it online.

The first max(depth, order) samples of the input are consumed as the
initial conditioning segment and never scored; every later sample is routed
through the trie, all of them in one columnar pass.  After the initial fit
the model can absorb one sample at a time, refreshing only the D+1 affected
nodes, which reproduces a from-scratch refit exactly for the conjugate AR
leaves.
"""

from __future__ import annotations

from collections import deque
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from .quantizer import Quantizer
from .tree import ContextTrie, TreeModel


class FittedModel:
    """A fitted trie plus the rolling history needed to predict and update."""

    def __init__(self, model, quantizer: Quantizer, depth: int, beta: Optional[float] = None):
        self.model = model
        self.quantizer = quantizer
        self.depth = depth
        self.trie = ContextTrie(model, quantizer.alphabet_size, depth, beta)
        self.beta = self.trie.beta
        self.init_len = max(depth, model.order)
        self._history: deque[float] = deque(maxlen=model.order)  # the lags of the next sample
        self._symbols: deque[int] = deque(maxlen=depth)  # its context, each sample quantized once
        self._steps_since_fit = 0

    # -- state derived from the rolling history ------------------------------

    def current_context(self) -> tuple[int, ...]:
        return tuple(reversed(self._symbols))

    def current_lags(self) -> tuple[float, ...]:
        h = self._history
        return tuple(h[-1 - d] for d in range(self.model.order))

    # -- fitting and sequential updates --------------------------------------

    def update(self, x: float) -> None:
        """Absorb one new sample and refresh the evidence and the MAP decisions."""
        x = float(x)
        if not isfinite(x):
            raise ValueError("series contains non-finite values")
        path = self.trie.observe(x, self.current_context(), self.current_lags())
        self._history.append(x)
        self._symbols.append(self.quantizer(x))
        self._steps_since_fit += 1
        self.model.refresh(self.trie, path, self._steps_since_fit)

    # -- queries --------------------------------------------------------------

    @property
    def num_scored(self) -> int:
        return self.trie.num_obs

    def log_evidence(self) -> float:
        return self.trie.log_evidence()

    def map_tree(self) -> TreeModel:
        return self.trie.map_tree()

    def map_posterior(self) -> float:
        return self.trie.posterior_of(self.map_tree())

    def posterior_of(self, tree: TreeModel) -> float:
        return self.trie.posterior_of(tree)

    def sample_trees(self, k: int, rng: np.random.Generator) -> list[TreeModel]:
        return self.trie.sample_trees(k, rng)

    def predict_next(self) -> tuple[float, float]:
        """One-step predictive mean and variance from the MAP tree and parameters."""
        node = self.trie.map_node(self.current_context())
        if node is None:  # a context never observed: the pooled root statistics may stand in
            return self.model.predict_from_state(None, self.current_lags(), self.trie.root.state)
        return self.model.predict_from_state(node.state, self.current_lags())  # a node holds data

    def leaf_parameters(self, tree: Optional[TreeModel] = None) -> dict[tuple[int, ...], dict]:
        """MAP parameter document for every leaf of the given (default MAP) tree."""
        if tree is None:
            tree = self.map_tree()
        root = self.trie.root.state
        return {leaf: self.model.leaf_param_doc(self._state(leaf), root) for leaf in tree.leaves}

    def _state(self, context: tuple[int, ...]):
        """The statistics of a context's node, or None if it was never observed."""
        node = self.trie.walk(context)
        return node.state if node is not None else None


def fit_series(
    series: Sequence[float],
    model,
    quantizer: Quantizer,
    depth: int,
    beta: Optional[float] = None,
) -> FittedModel:
    """Fit a context-tree mixture on a full series and run the sweeps."""
    fitted = _ingest(series, model, quantizer, depth, beta)
    _sweep(fitted.trie)
    return fitted


def check_training_length(n: int, depth: int, orders: Sequence[int]) -> None:
    """Reject a training series of n samples that the initial segment, max(depth, largest order), would
    consume whole: it would score no sample and report a log evidence of 0.0 over nothing."""
    init = max(depth, *orders)
    if n <= init:
        raise ValueError(f"training series of length {n} is {'shorter' if n < init else 'no longer'} than the "
                         f"initial segment of {init} samples (max of depth and largest order), so none is scored")


def _ingest(series: Sequence[float], model, quantizer: Quantizer, depth: int, beta: Optional[float]) -> FittedModel:
    """A model whose trie holds every sample after the initial segment, not yet swept."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains non-finite values")
    fitted = FittedModel(model, quantizer, depth, beta)
    n, init = len(series), fitted.init_len
    if n < init:
        raise ValueError(f"series of length {n} is shorter than the initial segment of {init} samples")
    # Sample i's context is (sym[i-1], ..., sym[i-depth]) and its lags are
    # (series[i-1], ..., series[i-order]); column d of either is a shifted slice.
    symbols = quantizer.code(series)
    contexts = [symbols[init - 1 - d : n - 1 - d] for d in range(depth)]
    lags = np.empty((n - init, model.order))
    for k in range(model.order):
        lags[:, k] = series[init - 1 - k : n - 1 - k]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite evidence is raised by _sweep
        fitted.trie.observe_all(contexts, series[init:], lags)
    fitted._history.extend(series[n - model.order :].tolist())
    fitted._symbols.extend(symbols[n - depth :].tolist())
    return fitted


def _sweep(trie: ContextTrie) -> float:
    """Run the trie's full sweep and return its log evidence, raising a ValueError if that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        trie.full_sweep()
    log_evidence = trie.log_evidence()
    if not isfinite(log_evidence):
        raise ValueError(f"log evidence is {log_evidence}: the series overflows float64 in the fit; rescale it")
    return log_evidence
