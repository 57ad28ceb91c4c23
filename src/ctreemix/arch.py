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
        row = np.array([z], dtype=float)
        self.zs = np.vstack((self.zs, row)) if self.count else row
        self.xs = np.append(self.xs, x)
        self.log_pe_cached = None


def project_feasible(theta: np.ndarray) -> np.ndarray:
    """Clamp into the prior support: alpha_0 >= floor, alpha_j in [0, 1]."""
    out = np.clip(theta, 0.0, 1.0)
    out[0] = max(theta[0], ALPHA0_FLOOR)
    return out


def arch_loglik(state: ArchNodeState, theta: np.ndarray) -> float:
    """Gaussian log likelihood of the node's data under coefficient vector theta."""
    n = state.count
    if n == 0:
        return 0.0
    sigma2 = state.zs @ theta
    if np.any(sigma2 <= 0.0):
        raise ValueError("theta yields non-positive conditional variance")
    return -0.5 * n * LOG_2PI - 0.5 * float(np.sum(np.log(sigma2) + state.xs * state.xs / sigma2))


def arch_score_and_info(state: ArchNodeState, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _solve_damped(info: np.ndarray, vec: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(info, vec)
    except np.linalg.LinAlgError:
        damp = _DAMP * max(1.0, float(np.trace(info)) / info.shape[0])
        return np.linalg.solve(info + damp * np.eye(info.shape[0]), vec)


def initial_theta(state: ArchNodeState, order: int) -> np.ndarray:
    """Feasible scale-aware starting point: sample variance level, small lags."""
    theta = np.full(order + 1, 0.05)
    theta[0] = max(float(np.var(state.xs)) if state.count else 1.0, ALPHA0_FLOOR)
    return theta


def _held_coords(theta: list[float], score: list[float]) -> list[int]:
    """Coordinates on a bound of the prior box whose score points out of it."""
    held = [0] if theta[0] <= ALPHA0_FLOOR and score[0] <= 0.0 else []
    for j in range(1, len(theta)):
        if (theta[j] <= 0.0 and score[j] <= 0.0) or (theta[j] >= 1.0 and score[j] >= 0.0):
            held.append(j)
    return held


def fisher_scoring(
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
    theta = project_feasible(np.asarray(init, dtype=float).copy())
    if state.count == 0 or iters == 0:
        return theta
    grad_norms: list[float] = []
    for _ in range(iters):
        score, info = arch_score_and_info(state, theta)
        for j in _held_coords(theta.tolist(), score.tolist()):
            score[j] = 0.0
            info[j, :] = 0.0
            info[:, j] = 0.0
            info[j, j] = 1.0
        theta = project_feasible(theta + _solve_damped(info, score))
        grad_norms.append(float(np.linalg.norm(score)))
    state.nonconverged = (
        len(grad_norms) >= 4
        and grad_norms[-1] >= grad_norms[-4]
        and grad_norms[-1] > 1e-5 * max(1, state.count)
    )
    if state.nonconverged:
        logger.debug("fisher scoring not converging: n=%d grad=%.3g", state.count, grad_norms[-1])
    return theta


def _gauss_cdf(x: float) -> float:
    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


def log_pe_arch_laplace(state: ArchNodeState, theta_hat: np.ndarray) -> float:
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
    _, info = arch_score_and_info(state, theta_hat)
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
        upper = 1.0 if hi is None else _gauss_cdf((hi - theta_hat[j]) / se[j])
        mass = upper - _gauss_cdf((lo - theta_hat[j]) / se[j])
        log_box += log(max(mass, 1e-12))
    return (
        0.5 * q * LOG_2PI
        - 0.5 * logdet
        + arch_loglik(state, theta_hat)
        - log(theta_hat[0])
        + log_box
    )


class ArchModel:
    """Leaf-model adapter driving the context trie with ARCH states."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg

    @property
    def order(self) -> int:
        return self.cfg.order

    def new_state(self) -> ArchNodeState:
        return ArchNodeState()

    def design(self, lags: Sequence[float]) -> tuple[float, ...]:
        return (1.0,) + tuple(v * v for v in lags[: self.cfg.order])

    def observe(self, states: Sequence[ArchNodeState], x: float, lags: Sequence[float]) -> None:
        z = self.design(lags)
        for state in states:
            state.add(x, z)

    def observe_batch(self, inverse: np.ndarray, x: np.ndarray, lags: np.ndarray) -> list[ArchNodeState]:
        """One state per index 0..K-1 of inverse, holding the rows mapped to it.

        A stable sort groups the rows per state in their original order, so
        each state holds what observe would have appended one at a time.
        """
        rows = np.argsort(inverse, kind="stable")
        sq = lags[rows, : self.cfg.order]
        z = np.column_stack([np.ones(len(rows)), sq * sq])
        xs = x[rows]
        ends = np.cumsum(np.bincount(inverse)).tolist()
        return [ArchNodeState(xs[a:b], z[a:b]) for a, b in zip([0] + ends, ends)]

    def fit_state(self, state: ArchNodeState, warm: bool = False, iters: Optional[int] = None) -> None:
        """(Re)fit the node MLE and cache its approximate log marginal."""
        if state.count == 0:
            state.theta = None
            state.log_pe_cached = 0.0
            return
        if iters is None:
            iters = self.cfg.fisher_iters
        if warm and state.theta is not None:
            init = state.theta
        else:
            init = initial_theta(state, self.cfg.order)
        state.theta = fisher_scoring(state, init, iters)
        state.log_pe_cached = log_pe_arch_laplace(state, state.theta)

    def refresh(self, trie, path, step: int) -> None:
        """Warm-refit the path's nodes and refresh the path; every FULL_REFRESH_EVERY-th step, refit all nodes cold."""
        if step % FULL_REFRESH_EVERY == 0:
            for _, node in trie.nodes():
                node.state.log_pe_cached = None
            trie.full_sweep()
        else:
            for node in path:
                self.fit_state(node.state, warm=True, iters=WARM_ITERS)
            trie.refresh_path(path)

    def log_pe(self, states: Sequence[ArchNodeState]) -> list[float]:
        """Each state's cached log marginal, refitting stale states one at a time."""
        for state in states:
            if state.log_pe_cached is None:
                self.fit_state(state)
        return [state.log_pe_cached for state in states]

    def map_params(self, state: Optional[ArchNodeState]) -> Optional[np.ndarray]:
        if state is None or state.count == 0:
            return None
        self.log_pe([state])  # refits a stale state
        return state.theta

    def predict_from_state(
        self,
        state: Optional[ArchNodeState],
        lags: Sequence[float],
        root_state: Optional[ArchNodeState] = None,
    ) -> tuple[float, float]:
        """Zero-mean Gaussian predictive with plug-in variance theta' z at the MAP coefficients."""
        theta = self.map_params(state)
        if theta is None:
            theta = self.map_params(root_state)  # pooled fallback
        if theta is None:
            raise RuntimeError("no fitted coefficients available for prediction")
        return 0.0, float(np.dot(theta, self.design(lags)))

    def leaf_param_doc(self, state: Optional[ArchNodeState], root_state: Optional[ArchNodeState] = None) -> dict:
        """The leaf's coefficients and count; a leaf without data shows the pooled root fit with count 0."""
        theta = self.map_params(state)
        count = 0 if state is None else state.count
        if theta is None:
            theta = self.map_params(root_state)  # pooled fallback, as in predict_from_state
        return {"alpha": None if theta is None else [float(v) for v in theta], "count": count}
