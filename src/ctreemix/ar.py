"""Conjugate Gaussian AR leaf model.

Each state carries an AR(p) model x_i = phi' xt_{i-1} + e_i with
e_i ~ N(0, sigma2), an inverse-gamma prior on sigma2 and a conditional
Gaussian prior N(mu0, sigma2 * Sigma0) on the coefficients.  The marginal
likelihood of a node's data is then available in closed form from the
running sums

    s1 = sum x_i^2,   s2 = sum x_i xt_{i-1},   s3 = sum xt_{i-1} xt_{i-1}',

as

    P_e = C^{-1} Gamma(tau + n/2) lam^tau / (Gamma(tau) (lam + d/2)^{tau + n/2}),
    C   = sqrt((2 pi)^n det(I + Sigma0 s3)),
    d   = s1 + mu0' Sigma0^{-1} mu0 - b' (s3 + Sigma0^{-1})^{-1} b,
    b   = s2 + Sigma0^{-1} mu0,

with n the node count.  When an intercept is requested the design vector
xt is prepended with a constant 1 and every dimension below is p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log
from typing import Optional, Sequence

import numpy as np

from ._num import LOG_2PI, chol_logdet, chol_lower, chol_solve, dot


@dataclass(frozen=True)
class ArHyperParams:
    """Prior constants for the conjugate AR leaf model.

    tau, lam are the inverse-gamma shape/scale of the noise-variance prior;
    mu0 and sigma0 are the coefficient prior location and scale (dimension
    order + 1 when intercept is set).  Defaults: mu0 = 0, sigma0 = I,
    tau = lam = 1.
    """

    order: int
    intercept: bool = False
    tau: float = 1.0
    lam: float = 1.0
    mu0: Optional[np.ndarray] = None
    sigma0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if self.tau <= 0 or self.lam <= 0:
            raise ValueError("tau and lam must be positive")
        q = self.dim
        mu0 = np.zeros(q) if self.mu0 is None else np.asarray(self.mu0, dtype=float)
        sigma0 = np.eye(q) if self.sigma0 is None else np.asarray(self.sigma0, dtype=float)
        if mu0.shape != (q,):
            raise ValueError(f"mu0 must have length {q}")
        if sigma0.shape != (q, q) or not np.allclose(sigma0, sigma0.T):
            raise ValueError(f"sigma0 must be a symmetric {q}x{q} matrix")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "sigma0", sigma0)
        # Derived prior quantities, stored as plain lists for the hot path.
        low0 = np.linalg.cholesky(sigma0)  # raises if not PD
        prec0 = np.linalg.inv(sigma0)
        prec0 = 0.5 * (prec0 + prec0.T)
        object.__setattr__(self, "_prec0", [list(map(float, row)) for row in prec0])
        object.__setattr__(self, "_prec0_mu0", list(map(float, prec0 @ mu0)))
        object.__setattr__(self, "_mu0_prec0_mu0", float(mu0 @ prec0 @ mu0))
        object.__setattr__(self, "_logdet_sigma0", float(2.0 * np.log(np.diag(low0)).sum()))

    @property
    def dim(self) -> int:
        """Design-vector dimension: order, plus one for the intercept."""
        return self.order + (1 if self.intercept else 0)

    def design(self, lags: Sequence[float]) -> tuple[float, ...]:
        """Design vector for given raw lags (most recent first)."""
        lagp = tuple(lags[: self.order])
        return (1.0,) + lagp if self.intercept else lagp


class ArSufficientStats:
    """Running sums for one node; updated a single observation at a time."""

    __slots__ = ("count", "s1", "s2", "s3")

    def __init__(self, dim: int):
        self.count = 0
        self.s1 = 0.0
        self.s2 = [0.0] * dim
        self.s3 = [[0.0] * dim for _ in range(dim)]

    @property
    def dim(self) -> int:
        return len(self.s2)

    @classmethod
    def from_sums(cls, count: int, s1: float, s2: list[float], s3: list[list[float]]) -> "ArSufficientStats":
        """Statistics holding the given sums (the lists are kept, not copied)."""
        out = cls.__new__(cls)
        out.count, out.s1, out.s2, out.s3 = count, s1, s2, s3
        return out

    def copy(self) -> "ArSufficientStats":
        return ArSufficientStats.from_sums(self.count, self.s1, list(self.s2), [list(row) for row in self.s3])


def update_stats(stats: ArSufficientStats, x: float, design: Sequence[float]) -> None:
    """Accumulate one observation x with its design vector."""
    stats.count += 1
    stats.s1 += x * x
    s2 = stats.s2
    s3 = stats.s3
    q = len(s2)
    for a in range(q):
        da = design[a]
        s2[a] += x * da
        row = s3[a]
        for b in range(q):
            row[b] += da * design[b]


def _posterior_core(stats: ArSufficientStats, hp: ArHyperParams):
    """Cholesky of (s3 + prec0), solution of the location system, and d."""
    q = stats.dim
    prec0 = hp._prec0
    a = [[stats.s3[i][j] + prec0[i][j] for j in range(q)] for i in range(q)]
    b = [stats.s2[i] + hp._prec0_mu0[i] for i in range(q)]
    low = chol_lower(a)
    loc = chol_solve(low, b)
    d = stats.s1 + hp._mu0_prec0_mu0 - dot(b, loc)
    if d < 0.0:  # roundoff guard; d is a residual quadratic form
        d = 0.0
    return low, loc, d


def log_pe_ar(stats: ArSufficientStats, hp: ArHyperParams) -> float:
    """Log marginal likelihood of the node's data, parameters integrated out."""
    n = stats.count
    if n == 0:
        return 0.0
    low, _, d = _posterior_core(stats, hp)
    logdet = hp._logdet_sigma0 + chol_logdet(low)  # log det(I + Sigma0 s3)
    return (
        -0.5 * (n * LOG_2PI + logdet)
        + lgamma(hp.tau + 0.5 * n)
        + hp.tau * log(hp.lam)
        - lgamma(hp.tau)
        - (hp.tau + 0.5 * n) * log(hp.lam + 0.5 * d)
    )


@dataclass(frozen=True)
class ArPosterior:
    """Posterior of one leaf: t-distributed coefficients, inverse-gamma variance."""

    mean: np.ndarray       # location of the coefficient posterior (also its MAP)
    scale: np.ndarray      # scale matrix of the t distribution
    df: float              # degrees of freedom, 2 tau + n
    ig_shape: float        # tau + n/2
    ig_scale: float        # lam + d/2

    @property
    def map_phi(self) -> np.ndarray:
        return self.mean

    @property
    def map_sigma2(self) -> float:
        # mode of Inv-Gamma(ig_shape, ig_scale) = ig_scale / (ig_shape + 1)
        return self.ig_scale / (self.ig_shape + 1.0)


def posterior_ar(stats: ArSufficientStats, hp: ArHyperParams) -> ArPosterior:
    """Exact coefficient/variance posterior for one node."""
    n = stats.count
    low, loc, d = _posterior_core(stats, hp)
    q = stats.dim
    # (s3 + prec0)^{-1} from the Cholesky factor, column by column.
    inv_a = np.empty((q, q))
    for j in range(q):
        e = [0.0] * q
        e[j] = 1.0
        inv_a[:, j] = chol_solve(low, e)
    inv_a = 0.5 * (inv_a + inv_a.T)
    df = 2.0 * hp.tau + n
    scale = ((2.0 * hp.lam + d) / df) * inv_a
    return ArPosterior(
        mean=np.array(loc),
        scale=scale,
        df=df,
        ig_shape=hp.tau + 0.5 * n,
        ig_scale=hp.lam + 0.5 * d,
    )


class ArModel:
    """Leaf-model adapter driving the context trie with conjugate AR states."""

    def __init__(self, hp: ArHyperParams):
        self.hp = hp

    @property
    def order(self) -> int:
        return self.hp.order

    def new_state(self) -> ArSufficientStats:
        return ArSufficientStats(self.hp.dim)

    def observe(self, state: ArSufficientStats, x: float, lags: Sequence[float]) -> None:
        update_stats(state, x, self.hp.design(lags))

    def observe_batch(self, inverse: np.ndarray, x: np.ndarray, lags: np.ndarray) -> list[ArSufficientStats]:
        """One state per index 0..K-1 of inverse, holding the sums of the rows mapped to it.

        np.bincount adds its weights in input order starting from 0.0, as
        update_stats does one sample at a time, and each product is the
        same float64 product, so every sum is bit-identical to the loop.
        """
        design = lags[:, : self.hp.order]
        if self.hp.intercept:
            design = np.column_stack([np.ones(len(x)), design])
        q = design.shape[1]
        counts = np.bincount(inverse)
        k = len(counts)
        s2 = np.empty((k, q))
        s3 = np.empty((k, q, q))
        for a in range(q):
            col = design[:, a]
            s2[:, a] = np.bincount(inverse, x * col, k)
            for b in range(a, q):
                s3[:, a, b] = s3[:, b, a] = np.bincount(inverse, col * design[:, b], k)
        s1 = np.bincount(inverse, x * x, k)
        return list(map(ArSufficientStats.from_sums, counts.tolist(), s1.tolist(), s2.tolist(), s3.tolist()))

    def refresh(self, trie, path, context: tuple[int, ...], step: int) -> None:
        trie.refresh_path(context)

    def log_pe(self, state: ArSufficientStats) -> float:
        return log_pe_ar(state, self.hp)

    def map_params(self, state: Optional[ArSufficientStats]) -> tuple[np.ndarray, float]:
        """MAP coefficients and noise variance; prior mode for empty states."""
        if state is None:
            state = self.new_state()
        # The ArPosterior fields map_phi and map_sigma2, without its scale matrix.
        _, loc, d = _posterior_core(state, self.hp)
        return np.array(loc), (self.hp.lam + 0.5 * d) / (self.hp.tau + 0.5 * state.count + 1.0)

    def predict_from_state(
        self,
        state: Optional[ArSufficientStats],
        lags: Sequence[float],
        root_state: Optional[ArSufficientStats] = None,
    ) -> tuple[float, float]:
        """Plug-in one-step predictive mean and variance at the MAP parameters."""
        phi, sigma2 = self.map_params(state)
        return dot(phi, self.hp.design(lags)), sigma2

    def leaf_param_doc(self, state: Optional[ArSufficientStats], root_state=None) -> dict:
        phi, sigma2 = self.map_params(state)
        return {
            "phi": [float(v) for v in phi],
            "sigma2": float(sigma2),
            "count": 0 if state is None else state.count,
        }
