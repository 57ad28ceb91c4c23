"""Conjugate AR leaf model against quadrature, Monte Carlo and recomputation oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ctreemix import (
    ArHyperParams,
    ArModel,
    ArSufficientStats,
    builtin_specs,
    fit_series,
    generate,
    log_pe_ar,
    posterior_ar,
    Quantizer,
    TreeModel,
)

from helpers import log_pe_ar_known_variance

HP1 = ArHyperParams(order=1)


def stats_from_pairs(pairs, hp=HP1):
    st = ArSufficientStats(hp.dim)
    model = ArModel(hp)
    for x, lag in pairs:
        model.observe([st], x, (lag,) if np.isscalar(lag) else tuple(lag))
    return st


def quad_log_pe_2d(pairs, hp=HP1):
    """Direct 2-D integration of the marginal over (coefficient, variance).

    Integrates over u = log(s2) and t = phi / sqrt(s2) so the inner
    integrand keeps unit scale for every variance value.
    """

    def integrand(t, u):
        s2 = math.exp(u)
        sd = math.sqrt(s2)
        phi = t * sd
        ll = sum(stats.norm.logpdf(x, phi * lag, sd) for x, lag in pairs)
        prior = (
            stats.norm.logpdf(phi, hp.mu0[0], sd * math.sqrt(hp.sigma0[0, 0]))
            + stats.invgamma.logpdf(s2, hp.tau, scale=hp.lam)
            + u  # Jacobian of s2 = exp(u)
            + math.log(sd)  # Jacobian of phi = t * sd
        )
        return math.exp(ll + prior)

    val, err = integrate.dblquad(integrand, -16, 8, -40, 40, epsabs=1e-13, epsrel=1e-10)
    assert err < 1e-6 * val
    return math.log(val)


class TestUpdateStats:
    def test_direct_sums(self):
        st = stats_from_pairs([(2.0, 1.0)])
        assert st.count == 1 and st.s1 == 4.0 and st.s2.tolist() == [2.0] and st.s3.tolist() == [[1.0]]

    def test_zero_obs_only_counts(self):
        hp = ArHyperParams(order=3)
        st = ArSufficientStats(hp.dim)
        ArModel(hp).observe([st], 0.0, (0.0, 0.0, 0.0))
        assert st.count == 1 and st.s1 == 0.0
        assert st.s2.tolist() == [0.0] * 3
        assert all(v == 0.0 for row in st.s3 for v in row)

    def test_matches_recomputation_from_scratch(self):
        rng = np.random.default_rng(2)
        hp = ArHyperParams(order=2, intercept=True)
        pairs = [(float(rng.normal()), rng.normal(size=2)) for _ in range(40)]
        st = ArSufficientStats(hp.dim)
        model = ArModel(hp)
        for x, lag in pairs:
            model.observe([st], x, tuple(lag))
        xs = np.array([x for x, _ in pairs])
        designs = np.array([(1.0, *lag) for _, lag in pairs])
        assert st.count == 40
        assert st.s1 == pytest.approx(float(xs @ xs), rel=1e-12)
        assert np.allclose(st.s2, designs.T @ xs, rtol=1e-12)
        assert np.allclose(st.s3, designs.T @ designs, rtol=1e-12)


class TestLogPe:
    def test_empty_is_zero(self):
        assert log_pe_ar([ArSufficientStats(1)], HP1) == [0.0]

    def test_single_point_closed_form(self):
        # one observation x=0 with zero lag: value is Gamma(3/2) / sqrt(2 pi)
        st = stats_from_pairs([(0.0, 0.0)])
        assert log_pe_ar([st], HP1)[0] == pytest.approx(math.log(1.0 / (2.0 * math.sqrt(2.0))), rel=1e-12)
        assert abs(log_pe_ar([st], HP1)[0] - quad_log_pe_2d([(0.0, 0.0)])) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_2d_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(k)]
        st = stats_from_pairs(pairs)
        assert abs(log_pe_ar([st], HP1)[0] - quad_log_pe_2d(pairs)) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_known_variance_mixture(self, seed):
        # integrating the fixed-variance marginal (prior scale times s2)
        # against the inverse-gamma prior recovers the full marginal
        rng = np.random.default_rng(seed + 50)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(4)]
        st = stats_from_pairs(pairs)

        def integrand(u):
            s2 = math.exp(u)
            lp = log_pe_ar_known_variance(st, s2, HP1.mu0, s2 * HP1.sigma0)
            return math.exp(lp + stats.invgamma.logpdf(s2, HP1.tau, scale=HP1.lam) + u)

        val, err = integrate.quad(integrand, -30, 30, epsabs=1e-13, epsrel=1e-10, limit=300)
        assert abs(log_pe_ar([st], HP1)[0] - math.log(val)) < 1e-4

    def test_chain_rule_factorisation(self):
        # product of one-step posterior-predictive t densities telescopes to
        # the joint marginal; the t parameters are rebuilt from raw sums here
        rng = np.random.default_rng(9)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(10)]
        total = 0.0
        st = ArSufficientStats(1)
        for x, lag in pairs:
            a = st.s3[0][0] + 1.0  # prior precision is the identity
            b = st.s2[0] + 0.0
            d = st.s1 - b * b / a
            shape = HP1.tau + 0.5 * st.count
            scale = HP1.lam + 0.5 * d
            df = 2.0 * shape
            mean = (b / a) * lag
            var = (scale / shape) * (1.0 + lag * lag / a)
            total += float(stats.t.logpdf(x, df, loc=mean, scale=math.sqrt(var)))
            ArModel(HP1).observe([st], x, (lag,))
        assert total == pytest.approx(log_pe_ar([st], HP1)[0], rel=1e-10)


class TestBatchKernel:
    @pytest.mark.parametrize("order", [1, 3])
    def test_values_do_not_depend_on_the_batch(self, order):
        # each node scored alone, in a D+1-node path as refresh_path scores
        # it, and in its whole depth as full_sweep scores it
        spec = builtin_specs()["sim_2"].spec
        hp = ArHyperParams(order=order, intercept=True)
        fitted = fit_series(generate(spec, 2000, seed=3), ArModel(hp), spec.quantizer, 10)
        nodes = dict(fitted.trie.nodes())

        def scored(contexts):
            return dict(zip(contexts, log_pe_ar([nodes[c].state for c in contexts], hp)))

        alone, by_depth, on_path = {}, {}, {}
        for ctx in nodes:
            alone.update(scored([ctx]))
        for depth in range(11):
            by_depth.update(scored([c for c in nodes if len(c) == depth]))
        for ctx in nodes:
            if len(ctx) == 10:
                on_path.update(scored([ctx[:k] for k in range(11)]))
        assert len(nodes) > 1000 and set(on_path) == set(nodes)
        for ctx, node in nodes.items():
            assert alone[ctx] == by_depth[ctx] == on_path[ctx] == node.log_pe


class TestKnownVariance:
    def test_empty_is_zero(self):
        assert log_pe_ar_known_variance(ArSufficientStats(1), 0.4, np.zeros(1), np.eye(1)) == 0.0

    def test_single_point_gaussian_convolution(self):
        # x = phi*lag + e integrates to N(x; mu0*lag, s2 + lag^2 * prior var)
        x, lag, s2 = 0.7, 1.3, 0.4
        st = stats_from_pairs([(x, lag)])
        expect = stats.norm.logpdf(x, 0.0, math.sqrt(s2 + lag * lag))
        assert log_pe_ar_known_variance(st, s2, np.zeros(1), np.eye(1)) == pytest.approx(expect, rel=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(123)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(5)]
        st = stats_from_pairs(pairs)
        s2 = 0.5
        draws = rng.normal(0.0, 1.0, size=400_000)
        log_terms = np.zeros(draws.shape)
        for x, lag in pairs:
            log_terms += stats.norm.logpdf(x, draws * lag, math.sqrt(s2))
        values = np.exp(log_terms)
        mc = values.mean()
        se = values.std(ddof=1) / math.sqrt(draws.size)
        exact = math.exp(log_pe_ar_known_variance(st, s2, np.zeros(1), np.eye(1)))
        assert abs(mc - exact) < 3 * se


class TestPosterior:
    def test_empty_recovers_prior(self):
        hp = ArHyperParams(order=2, tau=1.5, lam=0.8)
        post = posterior_ar(ArSufficientStats(hp.dim), hp)
        assert np.allclose(post.mean, hp.mu0)
        assert post.ig_shape == 1.5 and post.ig_scale == 0.8
        assert post.df == 3.0
        assert post.map_sigma2 == pytest.approx(0.8 / 2.5)

    def test_map_variance_formula(self):
        rng = np.random.default_rng(4)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(12)]
        st = stats_from_pairs(pairs)
        post = posterior_ar(st, HP1)
        assert post.map_sigma2 == pytest.approx(
            (2 * HP1.lam + 2 * (post.ig_scale - HP1.lam)) / (2 * HP1.tau + st.count + 2)
        )

    def test_sim_leaf_estimates_near_truth(self):
        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 1000, seed=0)
        f = fit_series(series, ArModel(ArHyperParams(order=2)), Quantizer((0.0,)), 10, 0.5)
        node = f.trie.walk((1,))
        post = posterior_ar(node.state, ArHyperParams(order=2))
        assert np.abs(post.map_phi - np.array([0.7, -0.3])).max() < 0.15
        assert 0.11 < post.map_sigma2 < 0.20

    def test_contraction_on_single_ar(self):
        rng = np.random.default_rng(11)
        phi = np.array([0.6, -0.25])
        s2 = 0.3
        x = [0.0, 0.0]
        for _ in range(10_000):
            x.append(phi[0] * x[-1] + phi[1] * x[-2] + rng.normal(0, math.sqrt(s2)))
        hp = ArHyperParams(order=2)
        st = ArSufficientStats(2)
        model = ArModel(hp)
        for i in range(2, len(x)):
            model.observe([st], x[i], (x[i - 1], x[i - 2]))
        post = posterior_ar(st, hp)
        assert np.abs((post.map_phi - phi) / phi).max() < 0.05
        assert abs(post.map_sigma2 - s2) / s2 < 0.05


class TestPredictive:
    def test_plug_in(self):
        # stats whose MAP is phi = 2/(3+1) = 0.5 and sigma2 = (1 + 0/2)/(1 + 36/2 + 1) = 0.05
        model = ArModel(HP1)
        st = ArSufficientStats(1)
        st.count, st.s1, st.s2, st.s3 = 36, 1.0, [2.0], [[3.0]]
        assert model.predict_from_state(st, (1.0,)) == (0.5, 0.05)

    def test_empty_leaf_uses_prior_mode(self):
        model = ArModel(HP1)
        mean, var = model.predict_from_state(None, (2.0,))
        assert mean == 0.0 and var == pytest.approx(0.5)

    def test_intercept_design(self):
        hp = ArHyperParams(order=2, intercept=True)
        assert hp.design((3.0, 4.0)) == (1.0, 3.0, 4.0)
        assert hp.dim == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ArHyperParams(order=0)
        with pytest.raises(ValueError):
            ArHyperParams(order=1, tau=-1.0)
        with pytest.raises(ValueError):
            ArHyperParams(order=1, mu0=np.zeros(3))
