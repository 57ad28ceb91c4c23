"""Conjugate AR leaf model against quadrature, Monte Carlo and recomputation oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ctreemix import ar
from ctreemix import (
    ArHyperParams,
    ArModel,
    builtin_specs,
    fit_series,
    generate,
    log_pe_ar,
    posterior_ar,
    Quantizer,
    TreeModel,
)
from ctreemix._num import LOG_2PI
from ctreemix.forecasting import RunConfig

from helpers import ar_sums, log_pe_ar_known_variance

HP1 = ArHyperParams(order=1)


def empty_state(hp=HP1):
    """Node 0 of a new one-node store: a batch without data."""
    return ArModel(hp).new_states(1).take([0])


def stats_from_pairs(pairs, hp=HP1):
    st = empty_state(hp)
    model = ArModel(hp)
    for x, lag in pairs:
        model.observe(st, x, (lag,) if np.isscalar(lag) else tuple(lag))
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
            stats.norm.logpdf(phi, 0.0, sd)  # the coefficient prior N(0, s2)
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
        count, s1, s2, s3 = ar_sums(stats_from_pairs([(2.0, 1.0)]))
        assert count == 1 and s1 == 4.0 and s2.tolist() == [2.0] and s3.tolist() == [[1.0]]

    def test_zero_obs_only_counts(self):
        hp = ArHyperParams(order=3)
        st = empty_state(hp)
        ArModel(hp).observe(st, 0.0, (0.0, 0.0, 0.0))
        count, s1, s2, s3 = ar_sums(st)
        assert count == 1 and s1 == 0.0
        assert s2.tolist() == [0.0] * 3
        assert all(v == 0.0 for row in s3 for v in row)

    def test_matches_recomputation_from_scratch(self):
        rng = np.random.default_rng(2)
        hp = ArHyperParams(order=2, intercept=True)
        pairs = [(float(rng.normal()), rng.normal(size=2)) for _ in range(40)]
        st = empty_state(hp)
        model = ArModel(hp)
        for x, lag in pairs:
            model.observe(st, x, tuple(lag))
        xs = np.array([x for x, _ in pairs])
        designs = np.array([(1.0, *lag) for _, lag in pairs])
        count, s1, s2, s3 = ar_sums(st)
        assert count == 40
        assert s1 == pytest.approx(float(xs @ xs), rel=1e-12)
        assert np.allclose(s2, designs.T @ xs, rtol=1e-12)
        assert np.allclose(s3, designs.T @ designs, rtol=1e-12)


class TestLogPe:
    def test_empty_is_zero(self):
        assert log_pe_ar(empty_state(), HP1) == [0.0]

    def test_single_point_closed_form(self):
        # one observation x=0 with zero lag: value is Gamma(3/2) / sqrt(2 pi)
        st = stats_from_pairs([(0.0, 0.0)])
        assert log_pe_ar(st, HP1)[0] == pytest.approx(math.log(1.0 / (2.0 * math.sqrt(2.0))), rel=1e-12)
        assert abs(log_pe_ar(st, HP1)[0] - quad_log_pe_2d([(0.0, 0.0)])) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_2d_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(k)]
        st = stats_from_pairs(pairs)
        assert abs(log_pe_ar(st, HP1)[0] - quad_log_pe_2d(pairs)) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_known_variance_mixture(self, seed):
        # integrating the fixed-variance marginal (prior scale times s2)
        # against the inverse-gamma prior recovers the full marginal
        rng = np.random.default_rng(seed + 50)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(4)]
        st = stats_from_pairs(pairs)

        def integrand(u):
            s2 = math.exp(u)
            lp = log_pe_ar_known_variance(st, s2, np.zeros(1), s2 * np.eye(1))
            return math.exp(lp + stats.invgamma.logpdf(s2, HP1.tau, scale=HP1.lam) + u)

        val, err = integrate.quad(integrand, -30, 30, epsabs=1e-13, epsrel=1e-10, limit=300)
        assert abs(log_pe_ar(st, HP1)[0] - math.log(val)) < 1e-4

    def test_chain_rule_factorisation(self):
        # product of one-step posterior-predictive t densities telescopes to
        # the joint marginal; the t parameters are rebuilt from raw sums here
        rng = np.random.default_rng(9)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(10)]
        total = 0.0
        st = empty_state()
        for x, lag in pairs:
            count, s1, s2, s3 = ar_sums(st)
            a = s3[0][0] + 1.0  # prior precision is the identity
            b = s2[0] + 0.0
            d = s1 - b * b / a
            shape = HP1.tau + 0.5 * count
            scale = HP1.lam + 0.5 * d
            df = 2.0 * shape
            mean = (b / a) * lag
            var = (scale / shape) * (1.0 + lag * lag / a)
            total += float(stats.t.logpdf(x, df, loc=mean, scale=math.sqrt(var)))
            ArModel(HP1).observe(st, x, (lag,))
        assert total == pytest.approx(log_pe_ar(st, HP1)[0], rel=1e-10)


class TestBatchKernel:
    @pytest.mark.parametrize("order", [1, 3])
    def test_values_do_not_depend_on_the_batch(self, order):
        # each node scored alone, in a D+1-node path as refresh_path scores
        # it, and in its whole depth as full_sweep scores it
        spec = builtin_specs()["sim_2"].spec
        hp = ArHyperParams(order=order, intercept=True)
        fitted = fit_series(generate(spec, 2000, seed=3), ArModel(hp), spec.quantizer, 10)
        nodes = dict(fitted.trie.nodes())
        cols = fitted.trie.states
        copy = ar._ArColumns(cols.sums[:cols.n].copy(), cols.q, cols.intercept)  # scoring writes loc and resid

        def scored(contexts):
            return dict(zip(contexts, log_pe_ar(copy.take([nodes[c].id for c in contexts]), hp)))

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

    @staticmethod
    def assert_kept_posteriors_exact(fitted, hp):
        # every node keeps the location and residual of a copy of its sums solved alone
        cols = fitted.trie.states
        for _, node in fitted.trie.nodes():
            _, _, loc, d = ar._posterior_core(node.state)
            resid = cols.resid.item(node.id)
            assert not math.isnan(resid) and resid.hex() == d.item(0).hex()
            assert cols.loc[node.id].tobytes() == loc[0].tobytes() == posterior_ar(node.state, hp).mean.tobytes()

    @pytest.mark.parametrize("intercept", [False, True])
    def test_scoring_keeps_each_posterior(self, intercept):
        spec = builtin_specs()["sim_1"].spec
        hp = ArHyperParams(order=2, intercept=intercept)
        series = generate(spec, 1200, seed=5)
        fitted = fit_series(series[:1000], ArModel(hp), spec.quantizer, 10)
        self.assert_kept_posteriors_exact(fitted, hp)
        for x in series[1000:]:
            fitted.update(x)
        self.assert_kept_posteriors_exact(fitted, hp)

    def test_observe_clears_the_kept_posterior(self):
        hp = ArHyperParams(order=2)
        st = empty_state(hp)
        ArModel(hp).observe(st, 0.5, (1.0, -1.0))
        log_pe_ar(st, hp)
        assert not math.isnan(st.cols.resid[0])  # kept by the scoring
        ArModel(hp).observe(st, 0.2, (0.5, 1.0))
        assert math.isnan(st.cols.resid[0])
        # the posterior of the changed sums is solved afresh
        post = posterior_ar(st, hp)
        _, _, loc, d = ar._posterior_core(st)
        assert post.mean.tolist() == loc[0].tolist() and post.ig_scale == hp.lam + 0.5 * d.item(0)

    def test_kept_posterior_is_read_only(self):
        # ArPosterior is frozen, and its mean is read only as its other fields are
        hp = ArHyperParams(order=2)
        cols = ArModel(hp).new_states(3)
        states = [cols.take([k]) for k in range(3)]
        for st, x in zip(states, (0.5, -0.3)):
            ArModel(hp).observe(st, x, (1.0, -1.0))
        for st in states:
            with pytest.raises(ValueError):
                posterior_ar(st, hp).mean[0] = 7.0

    def test_never_scored_state_is_solved(self):
        hp = ArHyperParams(order=3, intercept=True, tau=2.0, lam=0.5)
        post = posterior_ar(empty_state(hp), hp)
        assert post.mean.tolist() == [0.0] * 4  # the prior mode
        assert post.ig_shape == 2.0 and post.ig_scale == 0.5

    def test_posterior_takes_one_node(self):
        cols = ArModel(HP1).new_states(2)
        with pytest.raises(ValueError):
            posterior_ar(cols.take([0, 1]), HP1)
        assert math.isnan(cols.resid[1])  # nothing was solved

    def test_prediction_does_not_solve_again(self, monkeypatch):
        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 1100, seed=2)
        fitted = fit_series(series[:1000], ArModel(ArHyperParams(order=2)), spec.quantizer, 10)
        calls = []
        solve = ar._posterior_core
        monkeypatch.setattr(ar, "_posterior_core", lambda states: calls.append(len(states)) or solve(states))
        prediction_solves = unseen_contexts = 0
        for x in series[1000:]:
            unseen_contexts += fitted.trie.map_node(fitted.current_context()) < 0
            before = len(calls)
            fitted.predict_next()
            prediction_solves += len(calls) - before
            fitted.update(x)
        assert len(calls) >= 100  # every update's refresh went through the counter
        assert prediction_solves <= unseen_contexts


class TestCholeskyKernel:
    """The elementwise factorisation behind log_pe_ar against LAPACK, and its lgamma table."""

    @staticmethod
    def closed_form(n, hp, logdet, d):
        return (-0.5 * (n * LOG_2PI + logdet) + math.lgamma(hp.tau + 0.5 * n) + hp.tau * math.log(hp.lam)
                - math.lgamma(hp.tau) - (hp.tau + 0.5 * n) * math.log(hp.lam + 0.5 * d))

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("order", range(1, 6))
    def test_matches_lapack(self, order, intercept):
        rng = np.random.default_rng(order + 10 * intercept)
        hp = ArHyperParams(order=order, intercept=intercept, tau=1.5, lam=0.7)
        cols, k = ArModel(hp).new_states(15), 0
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            for count in (0, 1, 2):
                for _ in range(count):
                    ArModel(hp).observe(cols.take([k]), scale * rng.normal(), tuple(scale * rng.normal(size=order)))
                k += 1
        states = cols.take(range(k))
        _, _, locs, resids = ar._posterior_core(states)
        for i, pe, got_loc, got_d in zip(range(k), log_pe_ar(states, hp), locs, resids.tolist()):
            count, s1, s2, s3 = ar_sums(cols.take([i]))
            a = s3 + np.eye(hp.dim)
            sign, logdet = np.linalg.slogdet(a)
            loc = np.linalg.solve(a, s2)
            d = max(s1 - float(s2 @ loc), 0.0)
            assert sign == 1.0
            if count == 0:
                assert pe == 0.0 and got_d == 0.0 and got_loc.tolist() == [0.0] * hp.dim
                continue
            # d is s1 less a quadratic form of the same size, so its rounding is relative to s1
            assert abs(got_d - d) <= 1e-12 * s1
            # two backward-stable factorisations differ by up to cond(s3 + I) times their rounding, in loc
            # and in log det: cond is about 1 + count * dim * scale^2, 1e6 and more at scale 1e3
            kappa = np.linalg.cond(a)
            assert np.abs(got_loc - loc).max() <= 1e-12 * kappa * np.abs(loc).max()
            assert abs(pe - self.closed_form(count, hp, logdet, got_d)) <= 1e-12 * kappa * abs(pe)

    def test_pivot_below_zero_raises(self):
        st = empty_state()
        st.cols.sums[0] = (1, 1.0, 1.0, -2.0)
        with pytest.raises(np.linalg.LinAlgError):
            log_pe_ar(st, HP1)

    def test_nan_pivot_gives_nan(self):
        # a series that overflows float64 reaches the fit's "overflows float64" error, not a LinAlgError
        st = empty_state()
        st.cols.sums[0] = (1, 1.0, 1.0, np.nan)
        assert math.isnan(log_pe_ar(st, HP1)[0])

    def test_lgamma_table_is_math_lgamma(self):
        # two tau values in one process, then a count larger than any scored before
        for tau in (0.75, 3.25):
            hp = ArHyperParams(order=1, tau=tau)
            for count in (1, 7, 100_001):
                st = empty_state(hp)
                st.cols.sums[0] = (count, 2.0 * count, 0.5 * count, 1.0 * count)
                log_pe_ar(st, hp)
                table = ar._LGAMMA[tau]
                assert len(table) > count
                assert table.tolist() == [math.lgamma(tau + 0.5 * i) for i in range(len(table))]
                _, s1, s2, s3 = ar_sums(st)
                a = s3 + 1.0
                assert log_pe_ar(st, hp)[0] == pytest.approx(
                    self.closed_form(count, hp, math.log(a[0, 0]), s1 - s2[0] ** 2 / a[0, 0]), rel=1e-12)


class TestKnownVariance:
    def test_empty_is_zero(self):
        assert log_pe_ar_known_variance(empty_state(), 0.4, np.zeros(1), np.eye(1)) == 0.0

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
        post = posterior_ar(empty_state(hp), hp)
        assert np.allclose(post.mean, np.zeros(2))
        assert post.ig_shape == 1.5 and post.ig_scale == 0.8
        assert post.map_sigma2 == pytest.approx(0.8 / 2.5)

    def test_map_variance_formula(self):
        rng = np.random.default_rng(4)
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(12)]
        st = stats_from_pairs(pairs)
        post = posterior_ar(st, HP1)
        assert post.map_sigma2 == pytest.approx(
            (2 * HP1.lam + 2 * (post.ig_scale - HP1.lam)) / (2 * HP1.tau + ar_sums(st)[0] + 2)
        )

    def test_sim_leaf_estimates_near_truth(self):
        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 1000, seed=0)
        f = fit_series(series, ArModel(ArHyperParams(order=2)), Quantizer((0.0,)), 10, 0.5)
        node = f.trie.walk((1,))
        post = posterior_ar(node.state, ArHyperParams(order=2))
        assert np.abs(post.mean - np.array([0.7, -0.3])).max() < 0.15
        assert 0.11 < post.map_sigma2 < 0.20

    def test_contraction_on_single_ar(self):
        rng = np.random.default_rng(11)
        phi = np.array([0.6, -0.25])
        s2 = 0.3
        x = [0.0, 0.0]
        for _ in range(10_000):
            x.append(phi[0] * x[-1] + phi[1] * x[-2] + rng.normal(0, math.sqrt(s2)))
        hp = ArHyperParams(order=2)
        st = empty_state(hp)
        model = ArModel(hp)
        for i in range(2, len(x)):
            model.observe(st, x[i], (x[i - 1], x[i - 2]))
        post = posterior_ar(st, hp)
        assert np.abs((post.mean - phi) / phi).max() < 0.05
        assert abs(post.map_sigma2 - s2) / s2 < 0.05


def copy_path(model, cols, i, lags):
    """The single-state reference: posterior_ar on node i's copied row (an empty one for i = -1), as hex."""
    hp = model.hp
    post = posterior_ar(cols[i] if i >= 0 else empty_state(hp), hp)
    return [float(np.dot(post.mean, hp.design(lags))).hex(), post.map_sigma2.hex()]


def copy_doc(model, cols, i):
    """The leaf document of node i's copied row (an empty one for i = -1), its floats as hex."""
    hp = model.hp
    st = cols[i] if i >= 0 else empty_state(hp)
    post = posterior_ar(st, hp)
    return {"phi": [float(v).hex() for v in post.mean], "sigma2": float(post.map_sigma2).hex(), "count": ar_sums(st)[0]}


def hex_doc(doc):
    return {"phi": [v.hex() for v in doc["phi"]], "sigma2": doc["sigma2"].hex(), "count": doc["count"]}


class TestPredictive:
    def test_plug_in(self):
        # stats whose MAP is phi = 2/(3+1) = 0.5 and sigma2 = (1 + 0/2)/(1 + 36/2 + 1) = 0.05
        model = ArModel(HP1)
        cols = model.new_states(1)
        cols.sums[0] = (36, 1.0, 2.0, 3.0)
        assert model.predict(cols, 0, (1.0,)) == (0.5, 0.05)

    def test_empty_leaf_uses_prior_mode(self):
        model = ArModel(HP1)
        mean, var = model.predict(model.new_states(1), -1, (2.0,))
        assert mean == 0.0 and var == pytest.approx(0.5)

    def test_node_read_in_place_and_after_a_change(self):
        # predict and leaf_param_doc read a scored row's kept posterior in place, and solve in place a row
        # whose sums changed since; both equal the single-state reference on a copy, bit for bit
        model = ArModel(ArHyperParams(order=2, intercept=True))
        series = generate(builtin_specs()["sim_1"].spec, 300, seed=2)[:300]
        cols = fit_series(series, model, Quantizer((0.0,)), 3).trie.states
        lags = (0.3, -1.2)
        for i in range(cols.n):
            assert [v.hex() for v in model.predict(cols, i, lags)] == copy_path(model, cols, i, lags)
            assert hex_doc(model.leaf_param_doc(cols, i)) == copy_doc(model, cols, i)
        model.observe(cols.take([0, 2]), 0.7, (0.1, 0.4))
        assert np.isnan(cols.resid[[0, 2]]).all()
        for i in (0, 2):
            expected = copy_path(model, cols, i, lags)  # from the copy, before the row is solved in place
            assert [v.hex() for v in model.predict(cols, i, lags)] == expected
            assert not np.isnan(cols.resid[i])
        model.observe(cols.take([0, 2]), -0.4, (0.7, -0.2))
        assert np.isnan(cols.resid[[0, 2]]).all()
        for i in range(cols.n):  # rows 0 and 2 stale again
            expected = copy_doc(model, cols, i)
            assert hex_doc(model.leaf_param_doc(cols, i)) == expected
        for hp in (ArHyperParams(order=2, tau=2.5, lam=0.3), ArHyperParams(order=2, intercept=True, tau=2.5, lam=0.3)):
            # i = -1, a context never observed: the solve of an empty state, the signs of zero means included
            model = ArModel(hp)
            for lags in ((0.3, -1.2), (-0.3, -1.2), (-0.0, 2.0), (0.0, 0.0)):
                assert [v.hex() for v in model.predict(cols, -1, lags)] == copy_path(model, cols, -1, lags)
            assert hex_doc(model.leaf_param_doc(cols, -1)) == copy_doc(model, cols, -1)

    def test_intercept_design(self):
        hp = ArHyperParams(order=2, intercept=True)
        assert hp.design((3.0, 4.0)) == (1.0, 3.0, 4.0)
        assert hp.dim == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ArHyperParams(order=0)
        with pytest.raises(ValueError):
            ArHyperParams(order=1, tau=-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for knob in ("tau", "lam"):
                with pytest.raises(ValueError, match="^tau and lam must be positive and finite$"):
                    ArHyperParams(order=1, **{knob: bad})

    def test_hyperparams_are_values(self):
        hp = ArHyperParams(order=2)
        assert hp == ArHyperParams(order=2)
        assert hash(hp) == hash(ArHyperParams(order=2))
        assert RunConfig(leaf=ArHyperParams(2), thresholds=(0.0,)).make_model().hp == hp
