"""Shared test oracles: exhaustive tree enumeration and brute-force scoring.

Everything here recomputes quantities from first principles (explicit
enumeration, direct context matching) so the recursive implementations can
be checked against an independent path.
"""

from __future__ import annotations

import logging
from itertools import product
from math import erf, exp, log, log1p, sqrt

import numpy as np

from ctreemix import (
    ArHyperParams, ArModel, ArLeaf, ArchModel, ArchNodeState, FittedModel, GenerativeSpec,
    Quantizer, TreeModel, generate,
)
from ctreemix._num import LOG_2PI, log_add
from ctreemix.ar import _ArColumns, _ArRows
from ctreemix.arch import ALPHA0_FLOOR, _DAMP, _Stack, initial_theta
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
    """Recompute per-leaf statistics by direct context matching, each leaf a one-node batch of a store of its own."""
    init_len = max(depth, model.order)
    states = {leaf: model.new_states(1).take([0]) for leaf in tree.leaves}
    for i in range(init_len, len(series)):
        context = tuple(quantizer(series[i - 1 - d]) for d in range(depth))
        leaf = tree.state_of(context)
        lags = tuple(series[i - 1 - d] for d in range(model.order))
        model.observe(states[leaf], float(series[i]), lags)
    return states


def brute_force_log_joint(series, model, quantizer: Quantizer, depth: int,
                          beta: float, tree: TreeModel) -> float:
    """log prior(T) + sum over leaves of log P_e, all recomputed directly."""
    states = brute_force_leaf_stats(series, model, quantizer, depth, tree)
    total = log_prior(tree, beta, depth)
    for leaf in tree.leaves:
        total += model.log_pe(states[leaf])[0]
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


def ar_sums(rows: _ArRows) -> tuple[int, float, np.ndarray, np.ndarray]:
    """The count, s1, s2 (q,) and s3 (q, q) of the first node of a batch of AR rows, read with ``_ArColumns.unpack``."""
    count, s1, s2, s3 = _ArColumns.unpack(rows.cols.sums[rows.ids[:1]], rows.cols.q)
    return int(count[0]), float(s1[0]), s2[0], s3[0]


def log_pe_ar_known_variance(
    stats: _ArRows, sigma2: float, mu0: np.ndarray, sigma0: np.ndarray
) -> float:
    """Log marginal likelihood when the noise variance is a known constant.

    The coefficient prior here is N(mu0, sigma0) with a fixed covariance;
    integrating this quantity against an inverse-gamma prior on sigma2
    (after scaling sigma0 by sigma2) recovers ``log_pe_ar``, which is
    how it serves as an independent cross-check.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    n, s1, s2, s3 = ar_sums(stats)
    if n == 0:
        return 0.0
    mu0 = np.asarray(mu0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    q = len(s2)
    prec0 = np.linalg.inv(sigma0)
    a = s3 + sigma2 * prec0
    b = s2 + sigma2 * (prec0 @ mu0)
    sol = np.linalg.solve(a, b)
    e = s1 + sigma2 * float(mu0 @ prec0 @ mu0) - float(b @ sol)
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
        if isinstance(st, _ArRows):
            count, s1, s2, s3 = ar_sums(st)
            out[context] = (count, s1, s2.tolist(), s3.tolist())
        else:
            out[context] = (st.xs.tolist(), st.zs.tolist())
    return out


def scalar_sweep(trie) -> dict[tuple[int, ...], tuple[float, float, float, bool]]:
    """(log_pe, log_pw, log_pm, leaf_wins) of every context of a swept trie, one node at a time.

    Each node's log_pe is its state scored alone; the combine is the
    scalar recursion the library ran per node before its trie became
    columnar: children in order 0..m-1 from 0.0, a never-observed child
    adding nothing to the weighted sum and the prior of the bare node to
    the maximised one, and log_add for the mixture.
    """
    nodes = dict(trie.nodes())
    log_beta, log_1mbeta = log(trie.beta), log1p(-trie.beta)
    out: dict[tuple[int, ...], tuple[float, float, float, bool]] = {}
    for context in sorted(nodes, key=len, reverse=True):  # children before parents
        state = nodes[context].state  # AR: node i alone over a copy of its row, so the trie keeps its fit
        log_pe = trie.model.log_pe(state if isinstance(state, _ArRows) else [state])[0]
        if len(context) == trie.depth:
            out[context] = (log_pe, log_pe, log_pe, True)
            continue
        missing = log_beta if len(context) + 1 < trie.depth else 0.0
        sum_w = sum_m = 0.0
        for j in range(trie.m):
            child = out.get(context + (j,))
            if child is None:
                sum_m += missing
            else:
                sum_w += child[1]
                sum_m += child[2]
        split = log_pe + log_beta
        second = log_1mbeta + sum_m
        leaf_wins = split >= second  # tie -> prune
        out[context] = (log_pe, log_add(split, log_1mbeta + sum_w), split if leaf_wins else second, leaf_wins)
    return out


def reference_sample_tree(trie, rng) -> TreeModel:
    """One posterior draw by the top-down loop the trie's sampler ran before it shared one grower.

    Each examined context below depth D is a leaf when one ``rng.random()``
    falls below beta * P_e / P_w (beta for a context never observed), the
    node values read through ``walk``; else its children 0..m-1 are pushed,
    so the last is examined first.  Equal generator states give equal draws.
    """
    log_beta = log(trie.beta)
    leaves: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == trie.depth:
            leaves.append(prefix)
            continue
        node = trie.walk(prefix)
        p_leaf = trie.beta if node is None else exp(min(0.0, log_beta + node.log_pe - node.log_pw))
        if rng.random() < p_leaf:
            leaves.append(prefix)
        else:
            for j in range(trie.m):
                stack.append(prefix + (j,))
    return TreeModel(trie.m, tuple(leaves))


# -- one ARCH state at any theta, through the library's batched kernel --


def arch_loglik(state: ArchNodeState, theta: np.ndarray) -> float:
    """Gaussian log likelihood of the node's data under coefficient vector theta."""
    if state.count == 0:
        return 0.0
    stack = _Stack([state])
    return stack.loglik(stack.sigma2(np.asarray(theta, dtype=float)[None]))[0]


def arch_score_and_info(state: ArchNodeState, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and expected information at theta.

    score = 1/2 sum (1/sigma_i^2)(x_i^2/sigma_i^2 - 1) z_{i-1}
    info  = 1/2 sum (1/sigma_i^4) z_{i-1} z_{i-1}'
    """
    score, info = _Stack([state]).score_and_info(np.asarray(theta, dtype=float)[None])
    return score[0], info[0]


# -- scalar ARCH oracle: one node at a time, as the library fitted nodes before its batched kernel --

logger = logging.getLogger("ctreemix.arch")


def scalar_project_feasible(theta: np.ndarray) -> np.ndarray:
    """Clamp into the prior support: alpha_0 >= floor, alpha_j in [0, 1]."""
    out = np.clip(theta, 0.0, 1.0)
    out[0] = max(theta[0], ALPHA0_FLOOR)
    return out


def scalar_loglik(state: ArchNodeState, theta: np.ndarray) -> float:
    """Gaussian log likelihood of the node's data under coefficient vector theta."""
    n = state.count
    if n == 0:
        return 0.0
    sigma2 = state.zs @ theta
    if np.any(sigma2 <= 0.0):
        raise ValueError("theta yields non-positive conditional variance")
    return -0.5 * n * LOG_2PI - 0.5 * float(np.sum(np.log(sigma2) + state.xs * state.xs / sigma2))


def scalar_score_and_info(state: ArchNodeState, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and expected information at theta.

    score = 1/2 sum (1/sigma_i^2)(x_i^2/sigma_i^2 - 1) z_{i-1}
    info  = 1/2 sum (1/sigma_i^4) z_{i-1} z_{i-1}'
    """
    z = state.zs
    sigma2 = z @ theta
    if np.any(sigma2 <= 0.0):
        raise ValueError("theta yields non-positive conditional variance")
    w = (state.xs * state.xs / sigma2 - 1.0) / sigma2
    score = 0.5 * (z.T @ w)
    zw = z / sigma2[:, None]
    info = 0.5 * (zw.T @ zw)
    return score, info


def scalar_solve_damped(info: np.ndarray, vec: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(info, vec)
    except np.linalg.LinAlgError:
        damp = _DAMP * max(1.0, float(np.trace(info)) / info.shape[0])
        return np.linalg.solve(info + damp * np.eye(info.shape[0]), vec)


def scalar_held_coords(theta: list[float], score: list[float]) -> list[int]:
    """Coordinates on a bound of the prior box whose score points out of it."""
    held = [0] if theta[0] <= ALPHA0_FLOOR and score[0] <= 0.0 else []
    for j in range(1, len(theta)):
        if (theta[j] <= 0.0 and score[j] <= 0.0) or (theta[j] >= 1.0 and score[j] >= 0.0):
            held.append(j)
    return held


def scalar_fisher_scoring(
    state: ArchNodeState,
    init: np.ndarray,
    iters: int,
) -> np.ndarray:
    """Run `iters` projected scoring updates towards the box-constrained MLE.

    A coordinate on a bound of the prior box whose score points out of the
    box is held there: its score is zeroed and its row and column of the
    information become those of the identity, so the step info^{-1} score
    solves the free coordinates' own system.  (Solving the full system lets
    the held coordinates bend the step of the free ones, and the iterate
    stops short of the maximum.)  Each step is then projected into the box;
    singular information matrices fall back to a damped solve.  If the score
    norm on the free coordinates, which vanishes at the constrained maximum,
    stops decreasing over the last three iterations, the state is flagged as
    non-converged (diagnostic only).
    """
    theta = scalar_project_feasible(np.asarray(init, dtype=float).copy())
    if state.count == 0 or iters == 0:
        return theta
    grad_norms: list[float] = []
    for _ in range(iters):
        score, info = scalar_score_and_info(state, theta)
        for j in scalar_held_coords(theta.tolist(), score.tolist()):
            score[j] = 0.0
            info[j, :] = 0.0
            info[:, j] = 0.0
            info[j, j] = 1.0
        theta = scalar_project_feasible(theta + scalar_solve_damped(info, score))
        grad_norms.append(float(np.linalg.norm(score)))
    state.nonconverged = (
        len(grad_norms) >= 4
        and grad_norms[-1] >= grad_norms[-4]
        and grad_norms[-1] > 1e-5 * max(1, state.count)
    )
    if state.nonconverged:
        logger.debug("fisher scoring not converging: n=%d grad=%.3g", state.count, grad_norms[-1])
    return theta


def scalar_gauss_cdf(x: float) -> float:
    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


def scalar_log_pe_arch_laplace(state: ArchNodeState, theta_hat: np.ndarray) -> float:
    """Laplace approximation of the node's log marginal likelihood at theta_hat.

    Uses the standard form with the inverse determinant of the expected
    information; the prior contributes -log(alpha_0) (uniform coordinates
    contribute nothing on their support).  Because the maximiser frequently
    sits on the edge of the prior support (lag coefficients clamp at 0),
    the Gaussian mass falling outside the feasible box is removed via
    per-coordinate truncation factors; at interior optima these factors are
    1 and the plain formula is recovered.  Each call sets ``state.flagged``
    afresh: a node is flagged if it has fewer than p + 2 observations or a
    singular information matrix, which is then damped.
    """
    n = state.count
    if n == 0:
        return 0.0
    q = theta_hat.shape[0]
    _, info = scalar_score_and_info(state, theta_hat)
    state.flagged = n < q + 1
    sign, logdet = np.linalg.slogdet(info)
    if sign <= 0 or not np.isfinite(logdet):
        state.flagged = True
        damp = _DAMP * max(1.0, float(np.trace(info)) / q)
        info = info + damp * np.eye(q)
        sign, logdet = np.linalg.slogdet(info)
    # Mass of the Laplace Gaussian inside the support box, coordinatewise.
    se = np.sqrt(np.maximum(np.diag(np.linalg.inv(info)), 0.0))
    log_box = 0.0
    for j in range(q):
        if se[j] <= 0.0:
            continue
        hi = 1.0 if (j > 0 and theta_hat[j] + 40.0 * se[j] > 1.0) else None
        lo = 0.0
        upper = 1.0 if hi is None else scalar_gauss_cdf((hi - theta_hat[j]) / se[j])
        mass = upper - scalar_gauss_cdf((lo - theta_hat[j]) / se[j])
        log_box += log(max(mass, 1e-12))
    return (
        0.5 * q * LOG_2PI
        - 0.5 * logdet
        + scalar_loglik(state, theta_hat)
        - log(theta_hat[0])
        + log_box
    )


class ScalarArchModel(ArchModel):
    """An ArchModel that fits its states one at a time through the scalar oracle above."""

    def fit_states(self, states, warm=False, iters=None):
        for state in states:
            if state.count == 0:
                state.theta = None
                state.log_pe_cached = 0.0
                continue
            init = state.theta if warm and state.theta is not None else initial_theta(state, self.cfg.order)
            state.theta = scalar_fisher_scoring(state, init, self.cfg.fisher_iters if iters is None else iters)
            state.log_pe_cached = scalar_log_pe_arch_laplace(state, state.theta)
