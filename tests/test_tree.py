"""Trie recursions checked against exhaustive enumeration over small tree classes."""

import itertools
import math
import warnings

import numpy as np
import pytest

from ctreemix import ArHyperParams, ArModel, Quantizer, TreeModel, builtin_specs, fit_series, generate
from ctreemix.tree import ContextTrie, default_beta, log_prior

from helpers import (
    brute_force_leaf_stats,
    brute_force_log_evidence,
    brute_force_log_joint,
    enumerate_trees,
    random_mixture_series,
    small_ar_model,
)


def fit(series, depth=2, order=1, beta=0.5, m=2):
    thresholds = (0.0,) if m == 2 else tuple(np.linspace(-0.5, 0.5, m - 1))
    return fit_series(series, small_ar_model(order), Quantizer(thresholds), depth, beta)


class TestTreeModel:
    def test_root_only(self):
        t = TreeModel(2, ((),))
        assert t.depth == 0 and t.num_leaves == 1
        assert t.state_of((0, 1)) == ()

    def test_properness_enforced(self):
        with pytest.raises(ValueError):
            TreeModel(2, ((0,),))  # sibling 1 missing
        with pytest.raises(ValueError):
            TreeModel(2, ((0,), (1,), (1, 0), (1, 1)))  # leaf is also internal
        with pytest.raises(ValueError):
            TreeModel(2, ((0,), (0,), (1,)))

    def test_state_lookup_prefix(self):
        t = TreeModel(2, ((1,), (0, 1), (0, 0)))
        assert t.state_of((1, 1)) == (1,)
        assert t.state_of((0, 0)) == (0, 0)
        assert t.state_of((0, 1)) == (0, 1)

    def test_equality_ignores_leaf_order(self):
        assert TreeModel(2, ((1,), (0, 1), (0, 0))) == TreeModel(2, ((0, 0), (0, 1), (1,)))


class TestPrior:
    def test_root_only_prior_is_beta(self):
        t = TreeModel(2, ((),))
        for d in (1, 2, 5):
            assert math.isclose(log_prior(t, 0.5, d), math.log(0.5))
        assert log_prior(t, 0.5, 0) == 0.0  # the only tree at depth bound 0

    def test_two_leaf_example(self):
        t = TreeModel(2, ((0,), (1,)))
        assert math.isclose(log_prior(t, 0.5, 2), math.log(0.125), rel_tol=1e-12)

    @pytest.mark.parametrize("m,depth", [(2, 2), (2, 3), (3, 2)])
    def test_prior_normalised(self, m, depth):
        beta = default_beta(m)
        total = sum(math.exp(log_prior(t, beta, depth)) for t in enumerate_trees(m, depth))
        assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12)

    def test_rejects_overdeep(self):
        with pytest.raises(ValueError):
            log_prior(TreeModel(2, ((0, 0), (0, 1), (1,))), 0.5, 1)


class TestEvidence:
    def test_depth_zero_is_leaf_marginal(self):
        series = random_mixture_series(0, n=25)
        f = fit(series, depth=0)
        assert f.log_evidence() == f.trie.root.log_pe

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_binary(self, seed):
        series = random_mixture_series(seed, n=30)
        model = small_ar_model(1)
        f = fit_series(series, model, Quantizer((0.0,)), 2, 0.5)
        expect, _ = brute_force_log_evidence(series, small_ar_model(1), Quantizer((0.0,)), 2, 0.5)
        assert abs(f.log_evidence() - expect) < 1e-10

    def test_matches_enumeration_ternary(self):
        series = random_mixture_series(11, n=40)
        q = Quantizer((-0.3, 0.3))
        beta = default_beta(3)
        f = fit_series(series, small_ar_model(1), q, 2, beta)
        expect, _ = brute_force_log_evidence(series, small_ar_model(1), q, 2, beta)
        assert abs(f.log_evidence() - expect) < 1e-10

    def test_not_multiplicative_across_halves(self):
        series = random_mixture_series(3, n=60)
        whole = fit(series).log_evidence()
        first = fit(series[:31]).log_evidence()
        second = fit(series[29:]).log_evidence()
        assert abs(whole - (first + second)) > 1.0

    def test_finite_at_data_nodes(self):
        series = random_mixture_series(4, n=50)
        f = fit(series, depth=3)
        for _, node in f.trie.nodes():
            assert math.isfinite(node.log_pw)
            assert math.isfinite(node.log_pm)


class TestMapTree:
    def test_depth_zero_returns_root(self):
        f = fit(random_mixture_series(5, n=20), depth=0)
        assert f.map_tree() == TreeModel(2, ((),))

    @pytest.mark.parametrize("seed", range(6))
    def test_argmax_over_enumeration(self, seed):
        series = random_mixture_series(seed + 20, n=30)
        f = fit(series)
        _, joints = brute_force_log_evidence(series, small_ar_model(1), Quantizer((0.0,)), 2, 0.5)
        best = max(sorted(joints), key=lambda leaves: joints[leaves])
        got = f.map_tree()
        assert joints[got.leaves] == pytest.approx(max(joints.values()), abs=1e-9)
        assert got.leaves == best
        assert f.trie.log_map_score() == pytest.approx(max(joints.values()), abs=1e-9)

    # sim_2 n=100 seed 0 at depth 3: MAP leaves at depths 1 and 2 and never-observed contexts
    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_map_node_is_the_map_tree_leaf(self, depth):
        series = generate(builtin_specs()["sim_2"].spec, 100, seed=0)
        f = fit_series(series, small_ar_model(2), Quantizer((-0.5, 0.5)), depth)
        tree = f.map_tree()
        for context in itertools.product(range(3), repeat=depth):
            assert f.trie.map_node(context) is f.trie.walk(tree.state_of(context))
        with pytest.raises(ValueError):
            f.trie.map_node((0,) * (depth + 1))

    def test_beta_below_half_warns(self):
        with pytest.warns(UserWarning):
            ContextTrie(small_ar_model(1), 2, 2, beta=0.3)


class TestPosterior:
    def test_single_tree_universe(self):
        f = fit(random_mixture_series(6, n=20), depth=0)
        assert f.posterior_of(TreeModel(2, ((),))) == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one_over_enumeration(self):
        series = random_mixture_series(7, n=35)
        f = fit(series)
        total = sum(f.posterior_of(t) for t in enumerate_trees(2, 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_true_tree_recovery_high_posterior(self):
        # depth-2 mixture with well-separated regimes is identified from n=500
        from ctreemix import builtin_specs, generate

        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 500, seed=3)
        f = fit_series(series, small_ar_model(2), Quantizer((0.0,)), 10, 0.5)
        truth = TreeModel(2, ((1,), (0, 1), (0, 0)))
        assert f.map_tree() == truth
        assert f.posterior_of(truth) > 0.9


class TestSampler:
    def test_depth_zero_always_root(self):
        f = fit(random_mixture_series(8, n=20), depth=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert f.trie.sample_tree(rng) == TreeModel(2, ((),))

    def test_frequencies_match_posteriors(self):
        series = random_mixture_series(9, n=30)
        f = fit(series)
        rng = np.random.default_rng(42)
        draws = 20000
        counts: dict[tuple, int] = {}
        for _ in range(draws):
            t = f.trie.sample_tree(rng)
            counts[t.leaves] = counts.get(t.leaves, 0) + 1
        for t in enumerate_trees(2, 2):
            p = f.posterior_of(t)
            if p < 0.01:
                continue
            freq = counts.get(t.leaves, 0) / draws
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) < 4 * se, (t.leaves, freq, p)


class TestSequentialUpdates:
    def test_bit_identical_to_fresh_build(self):
        series = random_mixture_series(10, n=80)
        model_a = small_ar_model(1)
        inc = fit_series(series[:-1], model_a, Quantizer((0.0,)), 3, 0.5)
        inc.update(float(series[-1]))
        fresh = fit_series(series, small_ar_model(1), Quantizer((0.0,)), 3, 0.5)
        nodes_inc = dict(inc.trie.nodes())
        nodes_fresh = dict(fresh.trie.nodes())
        assert set(nodes_inc) == set(nodes_fresh)
        for ctx, node in nodes_fresh.items():
            other = nodes_inc[ctx]
            assert other.state.count == node.state.count
            assert other.state.s1 == node.state.s1
            assert np.array_equal(other.state.s2, node.state.s2)
            assert np.array_equal(other.state.s3, node.state.s3)
            assert other.log_pe == node.log_pe
            assert other.log_pw == node.log_pw
            assert other.log_pm == node.log_pm
        assert inc.log_evidence() == fresh.log_evidence()
        assert inc.map_tree() == fresh.map_tree()

    def test_single_observation_path(self):
        series = [0.3, -0.4, 0.8]  # two reserved, one scored
        f = fit_series(series, small_ar_model(1), Quantizer((0.0,)), 2, 0.5)
        assert f.num_scored == 1
        nodes = dict(f.trie.nodes())
        assert len(nodes) == 3  # one path of depths 0..2
        assert all(node.state.count == 1 for node in nodes.values())

    def test_empty_scored_region(self):
        f = fit_series([0.1, -0.2], small_ar_model(1), Quantizer((0.0,)), 2, 0.5)
        assert f.num_scored == 0
        assert f.trie.num_nodes == 1
        assert f.log_evidence() == 0.0
        assert f.map_tree() == TreeModel(2, ((),))

    def test_leaf_counts_match_context_occurrences(self):
        from ctreemix import builtin_specs, generate

        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 1000, seed=0)
        q = Quantizer((0.0,))
        depth = 10
        f = fit_series(series, small_ar_model(2, intercept=False), q, depth, 0.5)
        counts: dict[tuple, int] = {}
        for i in range(depth, len(series)):
            ctx = tuple(q(series[i - 1 - d]) for d in range(depth))
            counts[ctx] = counts.get(ctx, 0) + 1
        for ctx, expected in counts.items():
            node = f.trie.walk(ctx)
            assert node is not None and node.state.count == expected
