"""ARCH leaf model: likelihood identities, scoring oracle, Laplace accuracy."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from ctreemix import (
    ArchConfig,
    ArchModel,
    ArchNodeState,
    Quantizer,
    builtin_specs,
    fit_series,
    generate,
)
from ctreemix import arch
from ctreemix.arch import ALPHA0_FLOOR, initial_theta, project_feasible

from helpers import (
    ScalarArchModel, arch_loglik, arch_score_and_info, scalar_fisher_scoring, scalar_log_pe_arch_laplace,
    scalar_loglik, scalar_score_and_info,
)


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


@pytest.mark.parametrize("knobs, match", [
    ({"order": -1}, "^ARCH order must be >= 0$"),
    ({"fisher_iters": -1}, "^fisher_iters must be >= 0$"),
], ids=["order", "fisher-iters"])
def test_config_guards(knobs, match):
    with pytest.raises(ValueError, match=match):
        ArchConfig(**knobs)


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
        ArchModel(ArchConfig(order=1, fisher_iters=200)).fit_state(st)
        score, _ = arch_score_and_info(st, st.theta)
        assert np.linalg.norm(score) < 1e-6 * st.count


class TestFisherScoring:
    def test_zero_iterations_returns_init(self):
        st = simulate_arch_node(30, (0.3, 0.2), seed=8)
        init = np.array([0.4, 0.1])
        st.theta = init
        ArchModel(ArchConfig(order=1)).fit_state(st, warm=True, iters=0)
        assert np.array_equal(st.theta, init)

    def test_projection(self):
        out = project_feasible(np.array([-0.5, 1.7, -0.2]))
        assert out[0] == pytest.approx(1e-8)
        assert out[1] == 1.0 and out[2] == 0.0

    def test_recovers_generator_coefficients(self):
        # sampling error of the MLE at n=5000 is ~0.02 per lag coefficient
        st = simulate_arch_node(5000, (0.10, 0.20, 0.20), seed=20)
        ArchModel(ArchConfig(order=2, fisher_iters=60)).fit_state(st)
        assert np.abs(st.theta - np.array([0.10, 0.20, 0.20])).max() < 0.03

    # interior optima, and optima with the last lag on its bound at 0
    @pytest.mark.parametrize("alpha, seed", [
        *(pytest.param((0.12, 0.25, 0.18), 100 + k, id=str(k)) for k in range(3)),
        *(pytest.param((0.12, 0.25, 0.0), s, id=f"bound-{s}") for s in range(100, 106)),
    ])
    def test_matches_box_constrained_optimiser(self, alpha, seed):
        st = simulate_arch_node(3000, alpha, seed=seed)
        ArchModel(ArchConfig(order=2, fisher_iters=200)).fit_state(st)
        theta = st.theta
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
        assert arch_loglik(ArchNodeState(), np.array([0.1, 0.2, 0.3])) == 0.0

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
        mean, var = model.predict([state_fitted_at([0.1, 0.2])], 0, (2.0,))  # z = (1, 4)
        assert mean == 0.0 and var == pytest.approx(0.9)

    def test_constant_variance_leaf_matches_gaussian_nll(self):
        model = ArchModel(ArchConfig(order=0))
        y = 0.8
        _, var = model.predict([state_fitted_at([0.37])], 0, ())
        log_density = -0.5 * (math.log(2 * math.pi) + math.log(var)) - y * y / (2 * var)
        assert log_density == pytest.approx(float(stats.norm.logpdf(y, 0.0, math.sqrt(0.37))), rel=1e-12)

    def test_pooled_fallback_for_empty_leaf(self):
        root = simulate_arch_node(300, (0.2, 0.25), seed=14)
        model = ArchModel(ArchConfig(order=1, fisher_iters=30))
        for states, i in (([root], -1), ([root, ArchNodeState()], 1)):  # never observed, observed without data
            mean, var = model.predict(states, i, (1.5,))
            assert mean == 0.0
            assert var == pytest.approx(float(root.theta @ np.array([1.0, 2.25])))

    def test_no_fitted_coefficients_after_a_fit_of_the_initial_segment(self):
        # not even the root holds a row to fit, so there is no pooled fit to fall back on
        series = generate(builtin_specs()["arch_sim"].spec, 10, seed=1)[:3]
        fitted = fit_series(series, ArchModel(ArchConfig(order=2)), Quantizer((0.0,)), 3)
        assert fitted.num_scored == 0
        with pytest.raises(RuntimeError, match="^no fitted coefficients available for prediction$"):
            fitted.predict_next()

    def test_empty_leaf_documents_pooled_fit(self):
        root = simulate_arch_node(300, (0.2, 0.25), seed=14)
        model = ArchModel(ArchConfig(order=1, fisher_iters=30))
        pooled = model.leaf_param_doc([root], 0)
        assert pooled["count"] == 300 and pooled["alpha"] is not None
        for states, i in (([root], -1), ([root, ArchNodeState()], 1)):
            assert model.leaf_param_doc(states, i) == {"alpha": pooled["alpha"], "count": 0}


def rows_state(alpha, seed, n=100):
    """A node whose lag terms are drawn directly, z = (1, u, v) with u, v ~ U(0, 3), and x ~ N(0, alpha' z)."""
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 3.0, size=(2, n))
    z = np.column_stack([np.ones(n), u, v])
    return ArchNodeState(rng.normal(size=n) * np.sqrt(z @ np.asarray(alpha, dtype=float)), z)


def kernel_states():
    """Order-2 states, one per branch of the fitting kernel, keyed by the branch."""
    rng = np.random.default_rng(5)
    u = rng.uniform(0.2, 2.0, size=40)
    return {
        "interior": simulate_arch_node(200, (0.12, 0.25, 0.18), seed=1),
        "lag-held-at-0": rows_state((0.3, 0.4, 0.0), seed=2),
        "lag-held-at-1": rows_state((0.05, 2.0, 0.1), seed=3),
        "alpha0-at-floor": rows_state((0.0, 0.8, 0.4), seed=3),
        "empty": ArchNodeState(),
        # two equal lag columns: a singular information matrix
        "singular": ArchNodeState(rng.normal(size=40) * np.sqrt(0.1 + 0.6 * u), np.column_stack([np.ones(40), u, u])),
        "underpopulated": simulate_arch_node(2, (0.3, 0.2, 0.1), seed=11),
        "nonconverged": simulate_arch_node(30, (0.2, 0.5, 0.3), seed=8),
    }


def fit_fields(states):
    return {
        key: (None if st.theta is None else st.theta.tolist(), st.log_pe_cached, st.flagged, st.nonconverged)
        for key, st in states.items()
    }


class TestBatchKernel:
    CFG = ArchConfig(order=2, fisher_iters=10)

    def test_cases_reach_their_branches(self, monkeypatch):
        fallbacks = []
        solve_damped = arch._solve_damped
        monkeypatch.setattr(arch, "_solve_damped", lambda a, b: fallbacks.append(1) or solve_damped(a, b))
        states = kernel_states()
        for key, st in states.items():
            fallbacks.clear()
            ArchModel(self.CFG).fit_state(st)
            assert bool(fallbacks) == (key in ("singular", "underpopulated")), key
        assert states["lag-held-at-0"].theta[2] == 0.0
        assert states["lag-held-at-1"].theta[1] == 1.0
        assert states["alpha0-at-floor"].theta[0] == ALPHA0_FLOOR
        assert states["empty"].theta is None and states["empty"].log_pe_cached == 0.0
        assert states["singular"].flagged and states["underpopulated"].flagged
        assert [key for key, st in states.items() if st.nonconverged] == ["nonconverged"]

    @pytest.mark.parametrize("iters", [0, 2, 10])
    def test_alone_in_a_batch_and_scalar_oracle_agree(self, iters):
        alone, batch, oracle = kernel_states(), kernel_states(), kernel_states()
        model = ArchModel(ArchConfig(order=2, fisher_iters=iters))
        for st in alone.values():
            model.fit_state(st)
        model.fit_states(list(batch.values())[::-1])
        ScalarArchModel(model.cfg).fit_states(list(oracle.values()))
        assert fit_fields(alone) == fit_fields(batch) == fit_fields(oracle)
        # a warm refit continues from each state's own fit
        for st in alone.values():
            model.fit_state(st, warm=True, iters=2)
        model.fit_states(list(batch.values()), warm=True, iters=2)
        ScalarArchModel(model.cfg).fit_states(list(oracle.values()), warm=True, iters=2)
        assert fit_fields(alone) == fit_fields(batch) == fit_fields(oracle)

    @pytest.mark.parametrize("key", [k for k in kernel_states() if k != "empty"])
    def test_single_state_functions_match_scalar_oracle(self, key):
        st, ref = kernel_states()[key], kernel_states()[key]
        ArchModel(self.CFG).fit_state(st)
        theta = st.theta
        assert theta.tolist() == scalar_fisher_scoring(ref, initial_theta(ref, 2), 10).tolist()
        assert st.nonconverged == ref.nonconverged
        assert st.log_pe_cached == scalar_log_pe_arch_laplace(ref, theta)
        assert st.flagged == ref.flagged
        assert arch_loglik(st, theta) == scalar_loglik(ref, theta)
        for got, want in zip(arch_score_and_info(st, theta), scalar_score_and_info(ref, theta)):
            assert got.tolist() == want.tolist()


def batch_states(order=3):
    """Three states from one observe_batch, all views of its shared arrays: the root (12 rows), and nodes
    1 and 2 holding the even and the odd rows."""
    rng = np.random.default_rng(4)
    x, lags = rng.normal(size=12), rng.normal(size=(12, order))
    labels = np.array([[0] * 12, [1, 2] * 6])
    return ArchModel(ArchConfig(order=order)).observe_batch(labels, x, lags)


def row_bytes(states):
    return [(st.xs.tobytes(), st.zs.tobytes()) for st in states]


class TestRowBuffers:
    """A state writes only buffers it owns, and rows it has handed out never change."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_appending_to_one_batch_state_leaves_the_others(self, k):
        states = batch_states()
        assert all(st.xs.base is states[0].xs.base for st in states)  # the precondition: one shared array
        before = row_bytes(states)
        states[k].add(7.0, (1.0, 2.0, 3.0, 4.0))
        for j, (st, rows) in enumerate(zip(states, before)):
            if j != k:
                assert row_bytes([st]) == [rows], f"state {j} changed when state {k} appended"
        xs, zs = before[k]
        assert states[k].xs.tobytes() == xs + np.float64(7.0).tobytes(), f"state {k}'s xs"
        assert states[k].zs.tobytes() == zs + np.array([1.0, 2.0, 3.0, 4.0]).tobytes(), f"state {k}'s zs"

    def test_arrays_handed_out_keep_their_rows_across_a_doubling(self):
        st = ArchNodeState()
        taken = []
        for k in range(40):  # the buffer doubles at 8, 16 and 32 rows
            if k in (5, 8, 13):
                taken.append((k, st.xs, st.zs, st.xs.tobytes(), st.zs.tobytes()))
            st.add(float(k), (1.0, k * k))
        assert st.xs.tolist() == [float(k) for k in range(40)]
        for k, xs, zs, xs_bytes, zs_bytes in taken:
            assert (xs.tobytes(), zs.tobytes()) == (xs_bytes, zs_bytes), f"the state's rows taken at {k}"
            assert st.xs[:k].tobytes() == xs_bytes and st.zs[:k].tobytes() == zs_bytes

    def test_narrowed_states_and_their_source_keep_each_others_rows(self):
        source = batch_states()
        source[1].add(5.0, (1.0, 0.5, 0.25, 0.125))  # node 1 now owns its buffers, node 2 still borrows
        narrowed = source.narrow(1)
        assert narrowed[1].xs.base is source[1].xs.base and narrowed[2].xs.base is source[2].xs.base
        for k in (1, 2):
            before = row_bytes([source[k], narrowed[k]])
            source[k].add(6.0, (1.0, 2.0, 3.0, 4.0))
            assert row_bytes([narrowed[k]]) == before[1:], f"narrowed state {k} after its source appended"
            before = row_bytes([source[k]])
            narrowed[k].add(8.0, (1.0, 9.0))
            assert row_bytes([source[k]]) == before, f"source state {k} after its narrowed state appended"
            assert narrowed[k].zs.shape == (narrowed[k].count, 2)

    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize("owned", [False, True], ids=["borrowed", "owned"])
    def test_a_row_of_the_wrong_width_raises(self, width, owned):
        st = rows_state((0.2, 0.1, 0.1), seed=1, n=10)
        if owned:
            st.add(0.5, (1.0, 0.5, 0.5))
        before = row_bytes([st])
        with pytest.raises(ValueError):
            st.add(0.5, (1.0,) * width)
        assert row_bytes([st]) == before, "the state's rows after a rejected row"
