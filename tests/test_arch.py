"""ARCH leaf model: likelihood identities, scoring oracle, Laplace accuracy."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from ctreemix import (
    ArchConfig,
    ArchModel,
    ArchNodeState,
    arch_loglik,
    arch_score_and_info,
    fisher_scoring,
    log_pe_arch_laplace,
)
from ctreemix.arch import initial_theta, project_feasible


def simulate_arch_node(n, alpha, seed, p=None):
    """Observations from a single ARCH process, packed into one node state."""
    alpha = np.asarray(alpha, dtype=float)
    p = len(alpha) - 1 if p is None else p
    rng = np.random.default_rng(seed)
    xs = [0.1] * max(p, 1)
    for _ in range(n):
        z = [1.0] + [xs[-1 - k] ** 2 for k in range(p)]
        xs.append(rng.normal(0.0, math.sqrt(float(np.dot(alpha, z[: len(alpha)])))))
    state = ArchNodeState()
    for i in range(max(p, 1), len(xs)):
        state.add(xs[i], tuple([1.0] + [xs[i - 1 - k] ** 2 for k in range(p)]))
    return state


def random_feasible_theta(rng, p):
    theta = rng.uniform(0.0, 0.6, size=p + 1)
    theta[0] = rng.uniform(0.05, 0.5)
    return theta


class TestLoglik:
    def test_single_zero_observation(self):
        st = ArchNodeState()
        st.add(0.0, (1.0,))
        assert arch_loglik(st, np.array([1.0])) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_reduces_to_iid_gaussian(self):
        st = simulate_arch_node(50, (0.3, 0.2), seed=0)
        theta = np.array([0.4, 0.0])
        x = np.array(st.xs)
        expect = float(np.sum(stats.norm.logpdf(x, 0.0, math.sqrt(0.4))))
        assert arch_loglik(st, theta) == pytest.approx(expect, rel=1e-12)

    def test_matches_per_point_densities(self):
        st = simulate_arch_node(30, (0.2, 0.3, 0.1), seed=1)
        theta = np.array([0.15, 0.25, 0.2])
        expect = 0.0
        for x, z in zip(st.xs, st.zs):
            expect += float(stats.norm.logpdf(x, 0.0, math.sqrt(float(np.dot(theta, z)))))
        assert arch_loglik(st, theta) == pytest.approx(expect, rel=1e-12)

    def test_rejects_infeasible_variance(self):
        st = simulate_arch_node(10, (0.3, 0.2), seed=2)
        with pytest.raises(ValueError):
            arch_loglik(st, np.array([-1.0, 0.0]))

    def test_permutation_invariance(self):
        st = simulate_arch_node(25, (0.2, 0.3), seed=3)
        perm = np.random.default_rng(0).permutation(st.count)
        shuffled = ArchNodeState()
        for k in perm:
            shuffled.add(st.xs[k], st.zs[k])
        theta = np.array([0.25, 0.2])
        assert arch_loglik(shuffled, theta) == pytest.approx(arch_loglik(st, theta), rel=1e-12)
        model = ArchModel(ArchConfig(order=1, fisher_iters=50))
        assert model.log_pe([shuffled])[0] == pytest.approx(model.log_pe([st])[0], rel=1e-9)


class TestScoreAndInfo:
    def test_gradient_matches_finite_differences(self):
        st = simulate_arch_node(40, (0.2, 0.25, 0.15), seed=4)
        rng = np.random.default_rng(5)
        for _ in range(15):
            theta = random_feasible_theta(rng, 2)
            score, _ = arch_score_and_info(st, theta)
            h = 1e-5
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (arch_loglik(st, theta + e) - arch_loglik(st, theta - e)) / (2 * h)
                assert abs(score[j] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_info_symmetric_positive_definite(self):
        st = simulate_arch_node(40, (0.2, 0.25, 0.15), seed=6)
        theta = np.array([0.2, 0.2, 0.2])
        _, info = arch_score_and_info(st, theta)
        assert np.allclose(info, info.T)
        assert np.linalg.eigvalsh(info).min() > 0

    def test_score_small_at_mle(self):
        st = simulate_arch_node(2000, (0.15, 0.3), seed=7)
        theta = fisher_scoring(st, initial_theta(st, 1), 200)
        score, _ = arch_score_and_info(st, theta)
        assert np.linalg.norm(score) < 1e-6 * st.count


class TestFisherScoring:
    def test_zero_iterations_returns_init(self):
        st = simulate_arch_node(30, (0.3, 0.2), seed=8)
        init = np.array([0.4, 0.1])
        assert np.array_equal(fisher_scoring(st, init, 0), init)

    def test_projection(self):
        out = project_feasible(np.array([-0.5, 1.7, -0.2]))
        assert out[0] == pytest.approx(1e-8)
        assert out[1] == 1.0 and out[2] == 0.0

    def test_recovers_generator_coefficients(self):
        # sampling error of the MLE at n=5000 is ~0.02 per lag coefficient
        st = simulate_arch_node(5000, (0.10, 0.20, 0.20), seed=20)
        theta = fisher_scoring(st, initial_theta(st, 2), 60)
        assert np.abs(theta - np.array([0.10, 0.20, 0.20])).max() < 0.03

    # interior optima, and optima with the last lag on its bound at 0
    @pytest.mark.parametrize("alpha, seed", [
        *(pytest.param((0.12, 0.25, 0.18), 100 + k, id=str(k)) for k in range(3)),
        *(pytest.param((0.12, 0.25, 0.0), s, id=f"bound-{s}") for s in range(100, 106)),
    ])
    def test_matches_box_constrained_optimiser(self, alpha, seed):
        st = simulate_arch_node(3000, alpha, seed=seed)
        theta = fisher_scoring(st, initial_theta(st, 2), 200)
        res = optimize.minimize(
            lambda t: -arch_loglik(st, t),
            initial_theta(st, 2),
            jac=lambda t: -arch_score_and_info(st, t)[0],
            method="L-BFGS-B",
            bounds=[(1e-8, None), (0.0, 1.0), (0.0, 1.0)],
            options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 500},
        )
        assert np.abs(theta - res.x).max() < 1e-3
        assert arch_loglik(st, theta) >= -res.fun - 1e-6
        assert not st.nonconverged


class TestLaplace:
    def test_empty_node_is_zero(self):
        model = ArchModel(ArchConfig(order=2))
        assert model.log_pe([ArchNodeState()])[0] == 0.0

    def test_variance_only_matches_closed_form(self):
        # with no lag terms the marginal is an inverse-gamma integral
        st = simulate_arch_node(40, (0.3,), seed=10, p=0)
        model = ArchModel(ArchConfig(order=0, fisher_iters=100))
        got = model.log_pe([st])[0]
        s = float(np.sum(np.square(st.xs)))
        n = st.count
        exact = -0.5 * n * math.log(2 * math.pi) + math.lgamma(n / 2) - (n / 2) * math.log(s / 2)
        assert abs(got - exact) < 0.02

    def test_underpopulated_node_flagged(self):
        st = simulate_arch_node(2, (0.3, 0.2, 0.1), seed=11)
        model = ArchModel(ArchConfig(order=2, fisher_iters=10))
        value = model.log_pe([st])[0]
        assert math.isfinite(value)
        assert st.flagged

    def test_flag_clears_once_node_has_data(self):
        st = simulate_arch_node(2, (0.3, 0.2, 0.1), seed=11)
        model = ArchModel(ArchConfig(order=2, fisher_iters=10))
        model.log_pe([st])
        assert st.flagged
        extra = simulate_arch_node(200, (0.3, 0.2, 0.1), seed=12)
        for k in range(extra.count):
            st.add(extra.xs[k], extra.zs[k])
        model.log_pe([st])
        assert st.count == 202 and not st.flagged

    def test_warm_refit_tracks_cold_refit(self):
        # online policy: two warm steps per update, full refresh periodically
        st = simulate_arch_node(400, (0.2, 0.25), seed=12)
        extra = simulate_arch_node(120, (0.2, 0.25), seed=13)
        model = ArchModel(ArchConfig(order=1, fisher_iters=10))
        model.fit_state(st)
        for k in range(extra.count):
            st.add(extra.xs[k], extra.zs[k])
            model.fit_state(st, warm=True, iters=2)
            if (k + 1) % 50 == 0:
                warm = st.theta.copy()
                model.fit_state(st)  # cold, full iteration budget
                assert np.abs(warm - st.theta).max() < 1e-3


def state_fitted_at(theta):
    """A one-row state whose cached fit is theta, so predictions use theta as given."""
    st = ArchNodeState(np.zeros(1), np.ones((1, len(theta))))
    st.theta, st.log_pe_cached = np.asarray(theta, dtype=float), 0.0
    return st


class TestPredictive:
    def test_dot_product_variance(self):
        model = ArchModel(ArchConfig(order=1))
        mean, var = model.predict_from_state(state_fitted_at([0.1, 0.2]), (2.0,))  # z = (1, 4)
        assert mean == 0.0 and var == pytest.approx(0.9)

    def test_constant_variance_leaf_matches_gaussian_nll(self):
        model = ArchModel(ArchConfig(order=0))
        y = 0.8
        _, var = model.predict_from_state(state_fitted_at([0.37]), ())
        log_density = -0.5 * (math.log(2 * math.pi) + math.log(var)) - y * y / (2 * var)
        assert log_density == pytest.approx(float(stats.norm.logpdf(y, 0.0, math.sqrt(0.37))), rel=1e-12)

    def test_pooled_fallback_for_empty_leaf(self):
        root = simulate_arch_node(300, (0.2, 0.25), seed=14)
        model = ArchModel(ArchConfig(order=1, fisher_iters=30))
        mean, var = model.predict_from_state(None, (1.5,), root_state=root)
        assert mean == 0.0
        assert var == pytest.approx(float(root.theta @ np.array([1.0, 2.25])))

    def test_empty_leaf_documents_pooled_fit(self):
        root = simulate_arch_node(300, (0.2, 0.25), seed=14)
        model = ArchModel(ArchConfig(order=1, fisher_iters=30))
        pooled = model.leaf_param_doc(root)
        assert pooled["count"] == 300 and pooled["alpha"] is not None
        for empty in (None, ArchNodeState()):
            assert model.leaf_param_doc(empty, root) == {"alpha": pooled["alpha"], "count": 0}
