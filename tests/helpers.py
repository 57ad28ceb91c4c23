"""Shared test oracles: exhaustive tree enumeration and brute-force scoring.

Everything here recomputes quantities from first principles (explicit
enumeration, direct context matching) so the recursive implementations can
be checked against an independent path.
"""

from __future__ import annotations

from itertools import product
from math import log

import numpy as np

from ctreemix import (
    ArHyperParams, ArModel, ArLeaf, ArSufficientStats, FittedModel, GenerativeSpec, Quantizer,
    TreeModel, generate,
)
from ctreemix._num import LOG_2PI
from ctreemix.tree import log_prior


def enumerate_leaf_sets(m: int, depth: int) -> list[tuple[tuple[int, ...], ...]]:
    """All proper m-ary trees of depth <= depth, as sorted leaf tuples."""
    if depth == 0:
        return [((),)]
    smaller = enumerate_leaf_sets(m, depth - 1)
    out = [((),)]
    for combo in product(smaller, repeat=m):
        leaves = tuple(sorted((j,) + leaf for j, sub in enumerate(combo) for leaf in sub))
        out.append(leaves)
    return out


def enumerate_trees(m: int, depth: int) -> list[TreeModel]:
    return [TreeModel(m, leaves) for leaves in enumerate_leaf_sets(m, depth)]


def brute_force_leaf_stats(series, model, quantizer: Quantizer, depth: int, tree: TreeModel):
    """Recompute per-leaf statistics by direct context matching."""
    init_len = max(depth, model.order)
    states = {leaf: model.new_state() for leaf in tree.leaves}
    for i in range(init_len, len(series)):
        context = tuple(quantizer(series[i - 1 - d]) for d in range(depth))
        leaf = tree.state_of(context)
        lags = tuple(series[i - 1 - d] for d in range(model.order))
        model.observe([states[leaf]], float(series[i]), lags)
    return states


def brute_force_log_joint(series, model, quantizer: Quantizer, depth: int,
                          beta: float, tree: TreeModel) -> float:
    """log prior(T) + sum over leaves of log P_e, all recomputed directly."""
    states = brute_force_leaf_stats(series, model, quantizer, depth, tree)
    total = log_prior(tree, beta, depth)
    for leaf in tree.leaves:
        total += model.log_pe([states[leaf]])[0]
    return total


def brute_force_log_evidence(series, model, quantizer: Quantizer, depth: int,
                             beta: float) -> tuple[float, dict]:
    """Exhaustive evidence: log-sum-exp over every tree of the joint score."""
    joints = {}
    for tree in enumerate_trees(quantizer.alphabet_size, depth):
        joints[tree.leaves] = brute_force_log_joint(series, model, quantizer, depth, beta, tree)
    values = np.array(list(joints.values()))
    peak = values.max()
    return float(peak + np.log(np.exp(values - peak).sum())), joints


def log_pe_ar_known_variance(
    stats: ArSufficientStats, sigma2: float, mu0: np.ndarray, sigma0: np.ndarray
) -> float:
    """Log marginal likelihood when the noise variance is a known constant.

    The coefficient prior here is N(mu0, sigma0) with a fixed covariance;
    integrating this quantity against an inverse-gamma prior on sigma2
    (after scaling sigma0 by sigma2) recovers ``log_pe_ar``, which is
    how it serves as an independent cross-check.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    n = stats.count
    if n == 0:
        return 0.0
    mu0 = np.asarray(mu0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    q = stats.dim
    s2 = np.array(stats.s2)
    s3 = np.array(stats.s3)
    prec0 = np.linalg.inv(sigma0)
    a = s3 + sigma2 * prec0
    b = s2 + sigma2 * (prec0 @ mu0)
    sol = np.linalg.solve(a, b)
    e = stats.s1 + sigma2 * float(mu0 @ prec0 @ mu0) - float(b @ sol)
    # det(I + sigma0 s3 / sigma2) = det(sigma0) det(s3 + sigma2 prec0) / sigma2^q
    logdet = (
        float(np.linalg.slogdet(sigma0)[1])
        + float(np.linalg.slogdet(a)[1])
        - q * log(sigma2)
    )
    return -0.5 * (n * (LOG_2PI + log(sigma2)) + logdet) - e / (2.0 * sigma2)


def tree_from_doc(doc: dict, m: int) -> TreeModel:
    """The tree a nested tree document describes: the contexts of its nodes without children."""
    leaves: list[tuple[int, ...]] = []

    def rec(node: dict):
        if "children" in node:
            for child in node["children"]:
                rec(child)
        else:
            leaves.append(tuple(node["context"]))

    rec(doc)
    return TreeModel(m, tuple(leaves))


def random_mixture_series(seed: int, n: int = 30) -> np.ndarray:
    """A small dataset from a randomly parameterised two-regime AR generator."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-0.6, 0.6, size=4)
    spec = GenerativeSpec(
        kind="ar",
        tree=TreeModel(2, ((0,), (1,))),
        quantizer=Quantizer((0.0,)),
        leaf_params={
            (0,): ArLeaf(phi=(float(phi[0]), float(phi[1])), sigma2=float(rng.uniform(0.05, 0.5))),
            (1,): ArLeaf(phi=(float(phi[2]), float(phi[3])), sigma2=float(rng.uniform(0.05, 0.5))),
        },
        burn_in=50,
    )
    return generate(spec, n, seed=seed + 1000)


def small_ar_model(order: int = 1, intercept: bool = False) -> ArModel:
    return ArModel(ArHyperParams(order=order, intercept=intercept))


def per_sample_fit(series, model, quantizer: Quantizer, depth: int, beta=None) -> FittedModel:
    """Reference fit that routes each scored sample through ContextTrie.observe in turn."""
    series = [float(v) for v in series]
    fitted = FittedModel(model, quantizer, depth, beta)
    for i in range(fitted.init_len, len(series)):
        context = tuple(quantizer(series[i - 1 - d]) for d in range(depth))
        lags = tuple(series[i - 1 - k] for k in range(model.order))
        fitted.trie.observe(series[i], context, lags)
    fitted._history.extend(series[len(series) - model.order:])
    fitted._symbols.extend(quantizer(v) for v in series[len(series) - depth:])
    fitted.trie.full_sweep()
    return fitted


def trie_contents(trie) -> dict:
    """Every node's context mapped to its statistics, as plain Python values."""
    out = {}
    for context, node in trie.nodes():
        st = node.state
        if isinstance(st, ArSufficientStats):
            out[context] = (st.count, st.s1, st.s2.tolist(), st.s3.tolist())
        else:
            out[context] = (st.xs.tolist(), st.zs.tolist())
    return out
