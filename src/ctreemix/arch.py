"""ARCH leaf model fitted by Fisher scoring, with Laplace-approximated evidence.

Each state carries an ARCH(p) model x_i ~ N(0, sigma_i^2) with
sigma_i^2 = theta' z_{i-1} and z_{i-1} = (1, x_{i-1}^2, ..., x_{i-p}^2).
The priors are non-informative: 1/alpha_0 on the level and U(0, 1) on each
lag coefficient, so no hyperparameters need tuning.  The node marginal
likelihood has no closed form; it is approximated at the in-node maximum
likelihood estimate theta_hat by the Laplace method,

    log P_e ~= (p+1)/2 log(2 pi) - 1/2 log det(I_hat)
               + L(theta_hat) + log prior(theta_hat),

with I_hat the expected information.  Unlike the AR case, the scoring
iterations need repeated passes over a node's data, so each state retains
its rows as arrays: the observations xs, shape (n,), and the design rows
z_{i-1} as zs, shape (n, p+1).

A stack of states is fitted in lockstep by one kernel (``_Stack``): the
elementwise work runs once over the concatenated rows of the stack, the
small linear algebra runs as stacked LAPACK calls, and each reduction over
a node's rows stays one numpy call on that node's rows alone.  A node's
fit is therefore bit-identical whether it is fitted alone, in its context
path or with its whole depth, which keeps online updates aligned with cold
refits.  ``ArchModel.fit_states`` (and ``fit_state``, a stack of one) is
the one way to fit; ``_Stack`` over one state evaluates it at any theta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import erf, log, sqrt
from typing import Optional, Sequence

import numpy as np

from ._num import LOG_2PI

logger = logging.getLogger(__name__)

ALPHA0_FLOOR = 1e-8
_DAMP = 1e-8

# Online refit policy: cheap warm steps most of the time, a periodic full
# refresh to stay aligned with batch refits.
WARM_ITERS = 2
FULL_REFRESH_EVERY = 50


@dataclass(frozen=True)
class ArchConfig:
    """Order and fitting controls for the ARCH leaf model."""

    order: int = 5
    fisher_iters: int = 10

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("ARCH order must be >= 0")
        if self.fisher_iters < 0:
            raise ValueError("fisher_iters must be >= 0")


class ArchNodeState:
    """A node's rows, xs (n,) and zs (n, p+1), plus the cached fit.

    The arrays are never written in place: ``add`` builds new ones, so a
    state may hold views of arrays shared with other states.
    """

    __slots__ = ("xs", "zs", "theta", "log_pe_cached", "flagged", "nonconverged")

    def __init__(self, xs: Optional[np.ndarray] = None, zs: Optional[np.ndarray] = None):
        self.xs = np.empty(0) if xs is None else xs
        self.zs = np.empty((0, 0)) if zs is None else zs
        self.theta: Optional[np.ndarray] = None
        self.log_pe_cached: Optional[float] = None  # None: the fit is stale
        self.flagged = False        # too few observations for a trustworthy fit
        self.nonconverged = False

    @property
    def count(self) -> int:
        return len(self.xs)

    def add(self, x: float, z: Sequence[float]) -> None:
        """Append one observation x with design row z; a float array z is kept, not copied."""
        row = np.asarray(z, dtype=float).reshape(1, -1)
        self.zs = np.vstack((self.zs, row)) if self.count else row
        self.xs = np.append(self.xs, x)
        self.log_pe_cached = None


class _ArchStates(list):
    """The states of a trie's ARCH nodes, indexed by node id."""

    def __getitem__(self, i: int) -> ArchNodeState:
        """Node i's state; IndexError outside 0..n-1, so that the id -1 of a context never observed fails."""
        if not 0 <= i < len(self):
            raise IndexError(f"node id {i} out of range 0..{len(self) - 1}")
        return list.__getitem__(self, i)

    def take(self, ids) -> list[ArchNodeState]:
        get = list.__getitem__
        return [get(self, i) for i in ids]

    def copy_fit(self, ids, sources) -> None:
        """Give each node of ids the fit of the node at the same place in sources (theta is shared, never
        written in place)."""
        for i, j in zip(ids, sources):
            dst, src = self[i], self[j]
            dst.theta, dst.log_pe_cached, dst.flagged, dst.nonconverged = (
                src.theta, src.log_pe_cached, src.flagged, src.nonconverged)

    def narrow(self, order: int) -> "_ArchStates":
        """The same nodes' rows over the first ``order`` lags, unfitted: a contiguous copy of each design's
        leading order + 1 columns (the constant, then the squared lags), as BLAS sums a strided view's
        products in another order."""
        return _ArchStates(ArchNodeState(state.xs, np.ascontiguousarray(state.zs[:, :order + 1])) for state in self)


def project_feasible(theta: np.ndarray) -> np.ndarray:
    """Clamp into the prior support: alpha_0 >= floor, alpha_j in [0, 1].

    theta is one coefficient vector or a stack of them, one per row.
    """
    out = np.clip(theta, 0.0, 1.0)
    out[..., 0] = np.maximum(theta[..., 0], ALPHA0_FLOOR)
    return out


def _damped(info: np.ndarray) -> np.ndarray:
    """A singular information matrix plus the identity scaled by _DAMP and its mean diagonal (at least 1)."""
    q = info.shape[0]
    return info + _DAMP * max(1.0, float(np.trace(info)) / q) * np.eye(q)


def _solve_damped(info: np.ndarray, vec: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(info, vec)
    except np.linalg.LinAlgError:
        return np.linalg.solve(_damped(info), vec)


def _held_coords(theta: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Mask, per state and coordinate, of the bounds of the prior box whose score points out of it."""
    held = (theta <= 0.0) & (score <= 0.0) | (theta >= 1.0) & (score >= 0.0)
    held[:, 0] = (theta[:, 0] <= ALPHA0_FLOOR) & (score[:, 0] <= 0.0)
    return held


def _gauss_cdf(x: float) -> float:
    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


class _Stack:
    """The rows of K non-empty states of one design width q, fitted in lockstep.

    Elementwise work runs once over the concatenated rows.  Each reduction
    over a node's rows (z_k theta_k, z_k' w_k, zw_k' zw_k and the sum of the
    log-likelihood terms) stays one numpy call on node k's rows: a batched
    reduction (einsum, reduceat) sums in another order, and nodes that do
    not converge amplify the last-bit differences into visible ones.
    """

    def __init__(self, states: Sequence[ArchNodeState]):
        self.states = states
        ends = np.cumsum([state.count for state in states]).tolist()
        self.spans = list(zip([0] + ends[:-1], ends))
        self.z = np.concatenate([state.zs for state in states])
        xs = np.concatenate([state.xs for state in states])
        self.xx = xs * xs

    def sigma2(self, theta: np.ndarray) -> np.ndarray:
        """The conditional variance of every row, under its state's row of theta (K, q)."""
        sigma2 = np.concatenate([state.zs @ t for state, t in zip(self.states, theta)])
        if np.any(sigma2 <= 0.0):
            raise ValueError("theta yields non-positive conditional variance")
        return sigma2

    def info(self, sigma2: np.ndarray) -> np.ndarray:
        """Expected information per state, (K, q, q): 1/2 sum (1/sigma_i^4) z_{i-1} z_{i-1}'."""
        zw = self.z / sigma2[:, None]
        return 0.5 * np.array([zw[a:b].T @ zw[a:b] for a, b in self.spans])

    def score_and_info(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score per state, (K, q): 1/2 sum (1/sigma_i^2)(x_i^2/sigma_i^2 - 1) z_{i-1}; and the information."""
        sigma2 = self.sigma2(theta)
        w = (self.xx / sigma2 - 1.0) / sigma2
        score = 0.5 * np.array([state.zs.T @ w[a:b] for state, (a, b) in zip(self.states, self.spans)])
        return score, self.info(sigma2)

    def loglik(self, sigma2: np.ndarray) -> list[float]:
        """Gaussian log likelihood of each state's rows at the given conditional variances."""
        terms = np.log(sigma2) + self.xx / sigma2
        return [-0.5 * (b - a) * LOG_2PI - 0.5 * float(np.sum(terms[a:b])) for a, b in self.spans]

    def scoring(self, theta: np.ndarray, iters: int) -> np.ndarray:
        """Run `iters` projected scoring updates of every state from a feasible theta (K, q).

        A coordinate on a bound of the prior box whose score points out of
        the box is held there: its score is zeroed and its row and column of
        the information become those of the identity, so the step
        info^{-1} score solves the free coordinates' own system.  (Solving
        the full system lets the held coordinates bend the step of the free
        ones, and the iterate stops short of the maximum.)  Each step is then
        projected into the box.  The stack is solved in one call; if any
        information matrix is singular, each state falls back to its own
        damped solve.  A state whose free-coordinate score norm, which
        vanishes at the constrained maximum, did not decrease over the last
        three iterations is flagged as non-converged (diagnostic only).
        """
        norms = []  # per state, at the 4th-last and the last iteration
        for it in range(iters):
            score, info = self.score_and_info(theta)
            held = _held_coords(theta, score)
            if held.any():
                score[held] = 0.0
                info[held[:, :, None] | held[:, None, :]] = 0.0
                k, j = np.nonzero(held)
                info[k, j, j] = 1.0
            try:
                step = np.linalg.solve(info, score[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.array([_solve_damped(a, s) for a, s in zip(info, score)])
            theta = project_feasible(theta + step)
            if iters >= 4 and iters - it in (4, 1):
                norms.append([float(np.linalg.norm(s)) for s in score])
        for k, state in enumerate(self.states):
            state.nonconverged = (
                iters >= 4
                and norms[1][k] >= norms[0][k]
                and norms[1][k] > 1e-5 * max(1, state.count)
            )
            if state.nonconverged:
                logger.debug("fisher scoring not converging: n=%d grad=%.3g", state.count, norms[1][k])
        return theta

    def laplace(self, theta_hat: np.ndarray) -> list[float]:
        """Laplace approximation of each state's log marginal likelihood at its row of theta_hat.

        Uses the standard form with the inverse determinant of the expected
        information; the prior contributes -log(alpha_0) (uniform coordinates
        contribute nothing on their support).  Because the maximiser
        frequently sits on the edge of the prior support (lag coefficients
        clamp at 0), the Gaussian mass falling outside the feasible box is
        removed via per-coordinate truncation factors; at interior optima
        these factors are 1 and the plain formula is recovered.  Each call
        sets every state's ``flagged`` afresh: a state is flagged if it has
        fewer than p + 2 observations or a singular information matrix,
        which is then damped.
        """
        q = theta_hat.shape[1]
        sigma2 = self.sigma2(theta_hat)
        info = self.info(sigma2)
        sign, logdet = np.linalg.slogdet(info)
        singular = ((sign <= 0) | ~np.isfinite(logdet)).tolist()
        for k in np.flatnonzero(singular).tolist():
            info[k] = _damped(info[k])
            _, logdet[k] = np.linalg.slogdet(info[k])
        logdet = logdet.tolist()
        # Mass of the Laplace Gaussian inside the support box, coordinatewise.
        se = np.sqrt(np.maximum(np.diagonal(np.linalg.inv(info), axis1=1, axis2=2), 0.0)).tolist()
        values = []
        for k, (state, loglik) in enumerate(zip(self.states, self.loglik(sigma2))):
            state.flagged = state.count < q + 1 or singular[k]
            th, s = theta_hat[k].tolist(), se[k]
            log_box = 0.0
            for j in range(q):
                if s[j] <= 0.0:
                    continue
                hi = 1.0 if (j > 0 and th[j] + 40.0 * s[j] > 1.0) else None
                lo = 0.0
                upper = 1.0 if hi is None else _gauss_cdf((hi - th[j]) / s[j])
                mass = upper - _gauss_cdf((lo - th[j]) / s[j])
                log_box += log(max(mass, 1e-12))
            values.append(0.5 * q * LOG_2PI - 0.5 * logdet[k] + loglik - log(th[0]) + log_box)
        return values


def initial_theta(state: ArchNodeState, order: int) -> np.ndarray:
    """Feasible scale-aware starting point: sample variance level, small lags."""
    theta = np.full(order + 1, 0.05)
    theta[0] = max(float(np.var(state.xs)) if state.count else 1.0, ALPHA0_FLOOR)
    return theta


class ArchModel:
    """Leaf-model adapter driving the context trie with ARCH states."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg

    @property
    def order(self) -> int:
        return self.cfg.order

    def new_states(self, k: int) -> "_ArchStates":
        return _ArchStates(ArchNodeState() for _ in range(k))

    def design(self, lags: Sequence[float]) -> tuple[float, ...]:
        return (1.0,) + tuple(v * v for v in lags[: self.cfg.order])

    def observe(self, states: Sequence[ArchNodeState], x: float, lags: Sequence[float]) -> None:
        z = np.array(self.design(lags))  # one row array, shared by the path's states
        for state in states:
            state.add(x, z)

    def observe_batch(self, labels: np.ndarray, x: np.ndarray, lags: np.ndarray) -> "_ArchStates":
        """The states of nodes 0..K-1, node k holding the rows i with k in labels[:, i].

        A stable sort groups the rows per state in their original order, so
        each state holds what observe would have appended one at a time.
        """
        flat = labels.ravel()
        rows = np.argsort(flat, kind="stable") % len(x)
        sq = lags[rows, : self.cfg.order]
        z = np.column_stack([np.ones(len(rows)), sq * sq])
        xs = x[rows]
        ends = np.cumsum(np.bincount(flat)).tolist()
        return _ArchStates(ArchNodeState(xs[a:b], z[a:b]) for a, b in zip([0] + ends, ends))

    def fit_states(self, states: Sequence[ArchNodeState], warm: bool = False, iters: Optional[int] = None) -> None:
        """(Re)fit every state's MLE and cache its approximate log marginal, the non-empty ones in one stack.

        A warm fit starts from a state's last fit where it has one; a cold
        fit, or a state never fitted, starts from ``initial_theta``.
        """
        if iters is None:
            iters = self.cfg.fisher_iters
        stack = []
        for state in states:
            if state.count:
                stack.append(state)
            else:
                state.theta = None
                state.log_pe_cached = 0.0
        if not stack:
            return
        init = np.array([
            state.theta if warm and state.theta is not None else initial_theta(state, self.cfg.order)
            for state in stack
        ])
        rows = _Stack(stack)
        theta = project_feasible(init)
        if iters:
            theta = rows.scoring(theta, iters)
        for state, t, value in zip(stack, theta, rows.laplace(theta)):
            state.theta, state.log_pe_cached = t, value

    def fit_state(self, state: ArchNodeState, warm: bool = False, iters: Optional[int] = None) -> None:
        """(Re)fit one node's MLE and cache its approximate log marginal."""
        self.fit_states([state], warm, iters)

    def refresh(self, trie, path, step: int) -> None:
        """Warm-refit the path's nodes and refresh the path; every FULL_REFRESH_EVERY-th step, refit all nodes cold."""
        if step % FULL_REFRESH_EVERY == 0:
            for state in trie.states:
                state.log_pe_cached = None
            trie.full_sweep()
        else:
            self.fit_states(trie.states.take(path), warm=True, iters=WARM_ITERS)
            trie.refresh_path(path)

    def log_pe(self, states: Sequence[ArchNodeState]) -> list[float]:
        """Each state's cached log marginal, refitting the stale states cold in one stack."""
        self.fit_states([state for state in states if state.log_pe_cached is None])
        return [state.log_pe_cached for state in states]

    def predict(self, states: Sequence[ArchNodeState], i: int, lags: Sequence[float]) -> tuple[float, float]:
        """Zero-mean Gaussian predictive with plug-in variance theta' z at node i's MAP coefficients."""
        theta = self._theta(states, i)
        if theta is None:
            raise RuntimeError("no fitted coefficients available for prediction")
        return 0.0, float(np.dot(theta, self.design(lags)))

    def leaf_param_doc(self, states: Sequence[ArchNodeState], i: int) -> dict:
        """Node i's coefficients and count; a node without data shows the pooled root fit with count 0."""
        theta = self._theta(states, i)
        return {"alpha": None if theta is None else theta.tolist(), "count": states[i].count if i >= 0 else 0}

    def _theta(self, states: Sequence[ArchNodeState], i: int) -> Optional[np.ndarray]:
        """Node i's MAP coefficients, refitting a stale fit; for a node without data (i = -1, a context never
        observed, among them) the pooled fit of the root, states[0]; None if the root holds no data either."""
        for state in (states[i], states[0]) if i >= 0 else (states[0],):
            if state.count:
                self.log_pe([state])  # refits a stale state
                return state.theta
        return None
