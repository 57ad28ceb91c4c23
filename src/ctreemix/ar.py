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
from math import inf, lgamma, log
from typing import Sequence

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
        if not (0 < self.tau < inf and 0 < self.lam < inf):
            raise ValueError("tau and lam must be positive and finite")

    @property
    def dim(self) -> int:
        """Design-vector dimension: order, plus one for the intercept."""
        return self.order + (1 if self.intercept else 0)

    def design(self, lags: Sequence[float]) -> tuple[float, ...]:
        """Design vector for given raw lags (most recent first)."""
        lagp = tuple(lags[: self.order])
        return (1.0,) + lagp if self.intercept else lagp


class _ArColumns:
    """The sums of AR nodes, one row per node id, in arrays that double when full.

    This is the only form of an AR node's statistics.  Row k of ``sums``
    holds node k's count (a float64, exact below 2^53), s1, s2 (q values)
    and s3 (q * q values, row by row), so that a sample adds one row to
    each node of its path.  ``loc`` (N, q) and ``resid`` (N,) hold the
    posterior each node's last scoring solved, resid NaN while the sums
    changed since.  With ``intercept``, design column 0 is the constant
    and the lags follow.  ``take(ids)`` is the batch that ``observe``,
    ``log_pe_ar`` and ``posterior_ar`` read and write; ``store[i]`` is
    node i alone, over a copy of its row.
    """

    __slots__ = ("n", "q", "intercept", "sums", "loc", "resid")

    def __init__(self, sums: np.ndarray, q: int, intercept: bool = False):
        self.n, self.q, self.intercept, self.sums = len(sums), q, intercept, sums
        self.loc = np.zeros((self.n, q))
        self.resid = np.full(self.n, np.nan)

    @staticmethod
    def unpack(sums: np.ndarray, q: int):
        """Views of the count, s1, s2 and s3 in rows of sums: (K,), (K,), (K, q) and (K, q, q)."""
        return sums[:, 0], sums[:, 1], sums[:, 2:2 + q], sums[:, 2 + q:].reshape(-1, q, q)

    def __getitem__(self, i: int) -> "_ArRows":
        """Node i alone, as a batch over a copy of its sums; IndexError outside 0..n-1."""
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range 0..{self.n - 1}")
        return _ArColumns(self.sums[[i]], self.q, self.intercept).take([0])

    def take(self, ids) -> "_ArRows":
        return _ArRows(self, np.asarray(ids, dtype=np.intp))

    def copy_fit(self, ids, sources) -> None:
        """Give each node of ids the kept posterior of the node at the same place in sources."""
        sources = np.asarray(sources, dtype=np.intp)
        self.loc[ids], self.resid[ids] = self.loc[sources], self.resid[sources]

    def narrow(self, order: int) -> "_ArColumns":
        """The same nodes' sums over the first ``order`` lags, without a kept posterior.

        The design of a lower order is the leading block of this one, so
        count, s1, s2[:q] and the leading q x q block of s3 are the sums that
        observing at that order makes, bit for bit.
        """
        q, width = order + self.intercept, self.q
        s3 = [2 + width + a * width + b for a in range(q) for b in range(q)]
        return _ArColumns(self.sums[:self.n, [0, 1, *range(2, 2 + q), *s3]], q, self.intercept)

    def extend(self, other: "_ArColumns") -> None:
        """Append the rows of other after the last row, doubling the arrays when full."""
        n, k = self.n, other.n
        if n + k > len(self.sums):
            cap = max(n + k, 2 * len(self.sums))
            for name in ("sums", "loc", "resid"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:])
                new[:n] = old[:n]
                setattr(self, name, new)
        self.sums[n:n + k], self.loc[n:n + k], self.resid[n:n + k] = other.sums, other.loc, other.resid
        self.n = n + k


class _ArRows:
    """A batch of a trie's AR nodes: rows ids of one _ArColumns."""

    __slots__ = ("cols", "ids")

    def __init__(self, cols: _ArColumns, ids: np.ndarray):
        self.cols, self.ids = cols, ids

    def __len__(self) -> int:
        return len(self.ids)


def _posterior_core(rows: _ArRows):
    """Factor each node's s3 + I = L L' and solve with the factor; one column per node.

    Returns the counts n (K,), the diagonal of each L (q, K), the
    locations loc = (s3 + I)^{-1} s2 (K, q) and the residuals
    d = s1 - s2' loc = s1 - |L^{-1} s2|^2 (K,).  The rows are gathered once, transposed, so that each sum is a
    contiguous (K,) column; the factor, the forward substitution and the
    back substitution then run one column of L at a time, each step one
    numpy ufunc (sqrt, multiply, subtract, divide) over all K nodes.  A
    node's values are IEEE operations on its own sums in a fixed order, so
    they do not depend on the rest of the batch.  Raises
    np.linalg.LinAlgError on a pivot <= 0; a NaN pivot (a series that
    overflows float64) goes through to a NaN evidence.  The columns keep
    loc and d as the nodes' posteriors.
    """
    cols, ids, q = rows.cols, rows.ids, rows.cols.q
    sums = cols.sums.take(ids, axis=0).T.copy()
    n, s1, y = sums[0], sums[1], sums[2:2 + q]
    low = sums[2 + q:].reshape(q, q, -1)  # a = s3 + I; below its diagonal L overwrites it, column by column
    pivots = sums[2 + q::q + 1]  # the diagonal of a: after the loop, each column's pivot
    pivots += 1.0
    diag = np.empty((q, len(ids)))
    with np.errstate(invalid="ignore"):  # the square root of a pivot <= 0 is raised below
        for j in range(q):
            np.sqrt(low[j, j], out=diag[j])
            if j + 1 < q:
                col = low[j + 1:, j]
                col /= diag[j]
                low[j + 1:, j + 1:] -= col[:, None] * col  # of this block, only the lower triangle is read
    if np.count_nonzero(pivots <= 0.0):
        raise np.linalg.LinAlgError("s3 + I is not positive definite")
    for i in range(q):  # y = L^{-1} s2, in place over s2
        y[i] /= diag[i]
        if i + 1 < q:
            y[i + 1:] -= low[i + 1:, i] * y[i]
    squares = y * y
    norm = squares[0]
    for i in range(1, q):
        norm += squares[i]
    d = np.maximum(s1 - norm, 0.0)  # roundoff guard; d is a residual quadratic form
    for i in reversed(range(q)):  # loc = L'^{-1} y, in place over y
        y[i] /= diag[i]
        if i:
            y[:i] -= low[i, :i] * y[i]
    loc = y.T.copy()
    cols.loc[ids], cols.resid[ids] = loc, d
    return n, diag, loc, d


_LGAMMA: dict[float, np.ndarray] = {}


def _lgamma_halves(tau: float, counts: np.ndarray) -> np.ndarray:
    """lgamma(tau + n/2) for each count n, read from a table of math.lgamma values kept per tau.

    The table is rebuilt, at least twice as long, when a count outgrows it.
    """
    try:
        return _LGAMMA[tau][counts]
    except (KeyError, IndexError):  # a new tau, or a count larger than any before
        size = max(int(counts.max(initial=0)) + 1, 2 * len(_LGAMMA.get(tau, ())), 64)
        table = _LGAMMA[tau] = np.fromiter((lgamma(tau + 0.5 * i) for i in range(size)), float, size)
        return table[counts]


def log_pe_ar(states: _ArRows, hp: ArHyperParams) -> list[float]:
    """Log marginal likelihood of each state's data, parameters integrated out.

    ``states`` is a batch of a store's nodes, ``store.take(ids)`` or
    ``store[i]``.  One call scores the whole batch with no loop per node:
    ``_posterior_core`` factors every s3 + I, log det(I + s3) is twice the
    sum of np.log of the factor's diagonal in column order, lgamma comes
    from a table of math.lgamma values, and the rest is one array
    expression.  Each value is bit-identical to scoring its state alone.
    The rows keep their posterior location and residual in the store's
    columns.  Raises np.linalg.LinAlgError if a matrix s3 + I is not
    numerically positive definite.
    """
    n, diag, loc, d = _posterior_core(states)
    logs = np.log(diag)
    half_logdet = logs[0]  # log det(I + s3) / 2
    for j in range(1, len(logs)):
        half_logdet = half_logdet + logs[j]
    tau, lam = hp.tau, hp.lam
    prior = tau * log(lam) - lgamma(tau)
    lgammas = _lgamma_halves(tau, n.astype(np.intp))
    half_n = 0.5 * n
    out = -(half_n * LOG_2PI + half_logdet) + lgammas + prior - (tau + half_n) * np.log(lam + 0.5 * d)
    out[n == 0.0] = 0.0
    return out.tolist()


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


def posterior_ar(stats: _ArRows, hp: ArHyperParams) -> ArPosterior:
    """Exact coefficient/variance posterior of a one-node batch, solved from its sums.

    The single-state reference for the posterior a trie keeps per node:
    the same kernel on ``store[i]``, node i's copied row, so the two agree
    bit for bit.  The mean is read only, as the frozen ArPosterior's other
    fields are.  ValueError for a batch of more than one node.
    """
    if len(stats) != 1:
        raise ValueError(f"posterior_ar takes one node, not {len(stats)}")
    n, _, loc, d = _posterior_core(stats)
    loc.flags.writeable = False
    return ArPosterior(mean=loc[0], ig_shape=hp.tau + 0.5 * n.item(0), ig_scale=hp.lam + 0.5 * d.item(0))


class ArModel:
    """Leaf-model adapter driving the context trie with conjugate AR states."""

    def __init__(self, hp: ArHyperParams):
        self.hp = hp

    @property
    def order(self) -> int:
        return self.hp.order

    def new_states(self, k: int) -> _ArColumns:
        q = self.hp.dim
        return _ArColumns(np.zeros((k, 2 + q + q * q)), q, self.hp.intercept)

    def observe(self, states: _ArRows, x: float, lags: Sequence[float]) -> None:
        """Add one sample to each node of a batch, ``store.take(ids)``, in place.

        The row (1, x*x, x*d, d d') is built from Python floats, the
        float64 products observe_batch sums, so adding it continues its
        in-order sums bit for bit.  Marks the rows stale (resid NaN).
        """
        design = self.hp.design(lags)
        row = [1.0, x * x, *[x * v for v in design], *[a * b for a in design for b in design]]
        states.cols.sums[states.ids] += row
        states.cols.resid[states.ids] = np.nan

    def observe_batch(self, labels: np.ndarray, x: np.ndarray, lags: np.ndarray) -> _ArColumns:
        """The columns of nodes 0..K-1, node k holding the sums of the samples i with k in labels[:, i].

        One np.bincount per sum covers every row of labels; it adds its
        weights in input order starting from 0.0, as observe does one
        sample at a time, and each product is the same float64 product, so
        every sum is bit-identical to the loop.
        """
        design = lags[:, : self.hp.order]
        if self.hp.intercept:
            design = np.column_stack([np.ones(len(x)), design])
        q = design.shape[1]
        flat, reps = labels.ravel(), labels.shape[0]
        counts = np.bincount(flat)
        k = len(counts)

        def sums(weights):
            return np.bincount(flat, np.tile(weights, reps), k)

        out = np.empty((k, 2 + q + q * q))
        count, s1, s2, s3 = _ArColumns.unpack(out, q)
        count[:], s1[:] = counts, sums(x * x)
        for a in range(q):
            col = design[:, a]
            s2[:, a] = sums(x * col)
            for b in range(a, q):
                s3[:, a, b] = s3[:, b, a] = sums(col * design[:, b])
        return _ArColumns(out, q, self.hp.intercept)

    def refresh(self, trie, path, step: int) -> None:
        trie.refresh_path(path)

    def log_pe(self, states) -> list[float]:
        return log_pe_ar(states, self.hp)

    def predict(self, cols: _ArColumns, i: int, lags: Sequence[float]) -> tuple[float, float]:
        """Plug-in one-step predictive (mean, variance) at node i's MAP parameters, as ``_read`` reads them."""
        loc, sigma2, _ = self._read(cols, i)
        return float(np.dot(loc, self.hp.design(lags))), sigma2

    def leaf_param_doc(self, cols: _ArColumns, i: int) -> dict:
        """Node i's MAP coefficients, noise variance and count, read as ``predict`` reads them."""
        loc, sigma2, count = self._read(cols, i)
        return {"phi": loc.tolist(), "sigma2": sigma2, "count": count}

    def _read(self, cols: _ArColumns, i: int) -> tuple[np.ndarray, float, int]:
        """Node i's kept posterior location, MAP noise variance and count, read in place.

        The variance is the mode of IG(tau + n/2, lam + resid/2); with the
        location, the values ``posterior_ar`` gives on a copy of the node's
        state, bit for bit.  A row whose sums changed since its last
        scoring is solved in place first.  At i = -1, a context never
        observed, the posterior is the prior: loc 0, resid 0.0 and count 0.
        """
        hp = self.hp
        loc, resid, count = ((np.zeros(hp.dim), 0.0, 0) if i < 0 else
                             (cols.loc[i], cols.resid.item(i), int(cols.sums.item(i, 0))))
        if resid != resid:  # stale: the solve writes the row's loc in place
            resid = _posterior_core(cols.take([i]))[3].item(0)
        return loc, (hp.lam + 0.5 * resid) / (hp.tau + 0.5 * count + 1.0), count
