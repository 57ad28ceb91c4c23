"""Conjugate Gaussian AR leaf model.

Each state carries an AR(p) model x_i = phi' xt_{i-1} + e_i with
e_i ~ N(0, sigma2), an inverse-gamma prior IG(tau, lam) on sigma2 and a
conditional Gaussian prior N(0, sigma2 I) on the coefficients.  The
marginal likelihood of a node's data is then available in closed form from
the running sums

    s1 = sum x_i^2,   s2 = sum x_i xt_{i-1},   s3 = sum xt_{i-1} xt_{i-1}',

as

    P_e = C^{-1} Gamma(tau + n/2) lam^tau / (Gamma(tau) (lam + d/2)^{tau + n/2}),
    C   = sqrt((2 pi)^n det(I + s3)),
    d   = s1 - s2' (s3 + I)^{-1} s2,

with n the node count.  When an intercept is requested the design vector
xt is prepended with a constant 1 and every dimension below is p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import lgamma, log
from typing import Optional, Sequence

import numpy as np

from ._num import LOG_2PI


@dataclass(frozen=True)
class ArHyperParams:
    """Prior constants for the conjugate AR leaf model.

    tau, lam are the inverse-gamma shape/scale of the noise-variance prior;
    the coefficients have the prior N(0, sigma2 I) (dimension order + 1 when
    intercept is set).  Defaults: tau = lam = 1.
    """

    order: int
    intercept: bool = False
    tau: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if self.tau <= 0 or self.lam <= 0:
            raise ValueError("tau and lam must be positive")

    @property
    def dim(self) -> int:
        """Design-vector dimension: order, plus one for the intercept."""
        return self.order + (1 if self.intercept else 0)

    def design(self, lags: Sequence[float]) -> tuple[float, ...]:
        """Design vector for given raw lags (most recent first)."""
        lagp = tuple(lags[: self.order])
        return (1.0,) + lagp if self.intercept else lagp


class ArSufficientStats:
    """A node's count, s1 (a float), s2 (an array (q,)) and s3 (an array (q, q)).

    The arrays may be row views of arrays shared by the nodes of one depth;
    a node only ever adds to its own rows.  ``loc`` and ``resid`` hold the
    posterior location (s3 + I)^{-1} s2 and the residual d that
    ``log_pe_ar`` solved when it last scored the state, or None when the
    sums changed since (``ArModel.observe`` clears them).
    """

    __slots__ = ("count", "s1", "s2", "s3", "loc", "resid")

    def __init__(self, dim: int):
        self.count = 0
        self.s1 = 0.0
        self.s2 = np.zeros(dim)
        self.s3 = np.zeros((dim, dim))
        self.loc = self.resid = None

    @property
    def dim(self) -> int:
        return len(self.s2)

    @classmethod
    def from_sums(cls, count: int, s1: float, s2: np.ndarray, s3: np.ndarray) -> "ArSufficientStats":
        """Statistics holding the given sums (the arrays are kept, not copied)."""
        out = cls.__new__(cls)
        out.count, out.s1, out.s2, out.s3 = count, s1, s2, s3
        out.loc = out.resid = None
        return out


@cache
def _identity(q: int) -> np.ndarray:
    """The q x q identity, the coefficient prior's precision; built once per dimension (read only)."""
    return np.eye(q)


def _posterior_core(states: Sequence[ArSufficientStats]):
    """The stack a = s3 + I, the solutions loc of a loc = s2, and d = s1 - s2' loc; one row per state.

    LAPACK solves each matrix of a stack on its own and every other step is
    elementwise, so a state's row does not depend on the other states.  loc
    is read only: states keep its rows.
    """
    a = np.array([st.s3 for st in states])
    a += _identity(a.shape[1])
    b = np.array([st.s2 for st in states])
    loc = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    loc.flags.writeable = False
    b_loc = b[:, 0] * loc[:, 0]
    for i in range(1, b.shape[1]):  # column by column: the same summation order for any batch
        b_loc += b[:, i] * loc[:, i]
    d = np.array([st.s1 for st in states]) - b_loc
    return a, loc, np.maximum(d, 0.0)  # roundoff guard; d is a residual quadratic form


def log_pe_ar(states: Sequence[ArSufficientStats], hp: ArHyperParams) -> list[float]:
    """Log marginal likelihood of each state's data, parameters integrated out.

    One call scores a whole batch with one stacked Cholesky factorisation
    and one stacked solve; each value is bit-identical to scoring its state
    alone.  Each state keeps its posterior location and residual for
    ``posterior_ar``.  Raises np.linalg.LinAlgError if a matrix s3 + I is
    not numerically positive definite.
    """
    a, loc, d = _posterior_core(states)
    diag = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2).tolist()
    tau, lam = hp.tau, hp.lam
    prior = tau * log(lam) - lgamma(tau)
    out = []
    for st, low_diag, loc_k, d_k in zip(states, diag, loc, d.tolist()):
        st.loc, st.resid = loc_k, d_k
        n = st.count
        if n == 0:
            out.append(0.0)
            continue
        logdet = 2.0 * sum(map(log, low_diag))  # log det(I + s3)
        out.append(
            -0.5 * (n * LOG_2PI + logdet)
            + lgamma(tau + 0.5 * n)
            + prior
            - (tau + 0.5 * n) * log(lam + 0.5 * d_k)
        )
    return out


@dataclass(frozen=True)
class ArPosterior:
    """Posterior of one leaf: coefficients N(mean, sigma2 (s3 + I)^{-1}), variance IG(ig_shape, ig_scale)."""

    mean: np.ndarray       # location of the coefficient posterior (also its MAP), (s3 + I)^{-1} s2
    ig_shape: float        # tau + n/2
    ig_scale: float        # lam + d/2

    @property
    def map_sigma2(self) -> float:
        # mode of Inv-Gamma(ig_shape, ig_scale) = ig_scale / (ig_shape + 1)
        return self.ig_scale / (self.ig_shape + 1.0)


def posterior_ar(stats: ArSufficientStats, hp: ArHyperParams) -> ArPosterior:
    """Exact coefficient/variance posterior for one node.

    Reads the location and residual its last scoring kept; solves only a
    state not scored since its sums last changed.
    """
    loc, resid = stats.loc, stats.resid
    if loc is None:
        _, locs, d = _posterior_core([stats])
        loc, resid = locs[0], float(d[0])
    return ArPosterior(mean=loc, ig_shape=hp.tau + 0.5 * stats.count, ig_scale=hp.lam + 0.5 * resid)


class ArModel:
    """Leaf-model adapter driving the context trie with conjugate AR states."""

    def __init__(self, hp: ArHyperParams):
        self.hp = hp

    @property
    def order(self) -> int:
        return self.hp.order

    def new_state(self) -> ArSufficientStats:
        return ArSufficientStats(self.hp.dim)

    def observe(self, states: Sequence[ArSufficientStats], x: float, lags: Sequence[float]) -> None:
        """Add one sample to each state, in place.

        The terms are the float64 products observe_batch sums, so adding
        them continues its in-order sums bit for bit.  Clears each state's
        kept posterior.
        """
        design = np.array(self.hp.design(lags))
        xx, xd, dd = x * x, x * design, np.multiply.outer(design, design)
        for st in states:
            st.count += 1
            st.s1 += xx
            st.s2 += xd
            st.s3 += dd
            st.loc = st.resid = None

    def observe_batch(self, inverse: np.ndarray, x: np.ndarray, lags: np.ndarray) -> list[ArSufficientStats]:
        """One state per index 0..K-1 of inverse, holding the sums of the rows mapped to it.

        np.bincount adds its weights in input order starting from 0.0, as
        observe does one sample at a time, and each product is the same
        float64 product, so every sum is bit-identical to the loop.  State k
        holds the row views s2[k] and s3[k] of the depth's arrays.
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
        return list(map(ArSufficientStats.from_sums, map(int, counts), map(float, s1), s2, s3))

    def refresh(self, trie, path, step: int) -> None:
        trie.refresh_path(path)

    def log_pe(self, states: Sequence[ArSufficientStats]) -> list[float]:
        return log_pe_ar(states, self.hp)

    def predict_from_state(
        self,
        state: Optional[ArSufficientStats],
        lags: Sequence[float],
        root_state: Optional[ArSufficientStats] = None,
    ) -> tuple[float, float]:
        """Plug-in one-step predictive mean and variance at the MAP parameters; prior mode for empty states."""
        post = posterior_ar(self.new_state() if state is None else state, self.hp)
        return float(np.dot(post.mean, self.hp.design(lags))), post.map_sigma2

    def leaf_param_doc(self, state: Optional[ArSufficientStats], root_state=None) -> dict:
        post = posterior_ar(self.new_state() if state is None else state, self.hp)
        return {
            "phi": [float(v) for v in post.mean],
            "sigma2": float(post.map_sigma2),
            "count": 0 if state is None else state.count,
        }
