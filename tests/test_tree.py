"""Trie recursions checked against exhaustive enumeration over small tree classes."""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest

from ctreemix import (
    ArchConfig, ArchModel, ArchNodeState, ArHyperParams, ArModel, Quantizer, TreeModel, builtin_specs, fit_series,
    generate,
)
from ctreemix.arch import FULL_REFRESH_EVERY
from ctreemix.tree import ContextTrie, default_beta, log_prior

from helpers import (
    brute_force_leaf_stats,
    brute_force_log_evidence,
    brute_force_log_joint,
    enumerate_trees,
    random_mixture_series,
    reference_sample_tree,
    scalar_sweep,
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
        with pytest.raises(ValueError, match=r"node \(1,\) lacks child 1"):
            TreeModel(2, ((0,), (1, 0)))
        with pytest.raises(ValueError, match="symbol 2 outside alphabet of size 2"):
            TreeModel(2, ((0,), (2,)))

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

        def node_id(node):  # handles are made per call: compare what they point at
            return None if node is None else node.id

        for context in itertools.product(range(3), repeat=depth):
            assert node_id(f.trie.map_node(context)) == node_id(f.trie.walk(tree.state_of(context)))
        with pytest.raises(ValueError):
            f.trie.map_node((0,) * (depth + 1))

    def test_a_context_never_observed_above_depth_d_is_a_leaf(self):
        # (1, 0) is never observed; growing it instead of stopping there gives (1, 0, *)
        q = Quantizer((-0.5, 0.5))
        rng = np.random.default_rng(77)
        x = [0.0, 0.0]
        for _ in range(80):
            s1, s2 = q(x[-1]), q(x[-2])
            if s1 == 2:
                x.append(abs(rng.normal(0.0, 0.6)))
            elif s1 == 0:
                x.append((0.9 if s2 == 0 else -0.9) * x[-1] + rng.normal(0.0, 0.05))
            else:
                x.append(rng.normal(0.0, 1.0))
        f = fit_series(x, small_ar_model(1), q, 3)
        expected = TreeModel(3, ((0,), (1, 0), (1, 1), (1, 2), (2,)))
        assert f.trie.walk((1, 0)) is None
        assert f.map_tree() == expected
        trees = enumerate_trees(3, 3)
        assert len(trees) == 730 and max(trees, key=f.posterior_of) == expected

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

    def test_draws_follow_the_reference_order(self):
        series = generate(builtin_specs()["sim_2"].spec, 300, seed=4)
        f = fit_series(series, small_ar_model(1), Quantizer((-0.3, 0.3)), 4)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = [f.trie.sample_tree(rng) for _ in range(300)]
        assert len(set(got)) > 10
        assert got == [reference_sample_tree(f.trie, ref) for _ in range(300)]

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64])
    @pytest.mark.parametrize("k", [0, 1, 7, 4500])
    def test_k_draws_are_k_single_draws(self, bit_generator, k):
        # 4500 draws read more than one full block of uniforms
        f = fit_series(generate(builtin_specs()["sim_2"].spec, 300, seed=4), small_ar_model(1),
                       Quantizer((-0.3, 0.3)), 4)
        rng, ref, one = (np.random.Generator(bit_generator(11)) for _ in range(3))
        got = f.trie.sample_trees(k, rng)
        assert got == [reference_sample_tree(f.trie, ref) for _ in range(k)]
        assert got == [f.trie.sample_tree(one) for _ in range(k)]
        assert rng.random() == ref.random() == one.random()  # the generators end in one state

    def test_equal_draws_are_one_object(self):
        f = fit(random_mixture_series(9, n=30))
        trees = f.trie.sample_trees(500, np.random.default_rng(3))
        assert len(set(trees)) < 20
        assert len({id(t) for t in trees}) == len(set(trees))

    def test_depth_zero_draws_use_no_uniform(self):
        f = fit(random_mixture_series(8, n=20), depth=0)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        assert f.trie.sample_trees(5, rng) == [TreeModel(2, ((),))] * 5
        assert rng.random() == ref.random()


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


class TestSweepOracle:
    """Every node's sweep values equal, bit for bit, the scalar recursion run one node at a time."""

    THRESHOLDS = {2: (0.0,), 3: (-0.3, 0.3)}

    @staticmethod
    def assert_matches_scalar_sweep(trie):
        def bits(values):
            return [struct.pack("<d", v) for v in values[:3]] + [values[3]]

        expected = scalar_sweep(trie)
        got = {context: (node.log_pe, node.log_pw, node.log_pm, node.leaf_wins) for context, node in trie.nodes()}
        assert set(got) == set(expected)
        for context, values in expected.items():
            assert bits(got[context]) == bits(values), context
        assert trie.log_evidence() == expected[()][1] and trie.log_map_score() == expected[()][2]

    @staticmethod
    def model(leaf):
        if leaf == "arch":
            return ArchModel(ArchConfig(order=2))
        return ArModel(ArHyperParams(order=2, intercept=leaf == "ar-intercept"))

    def series(self, leaf, n, seed):
        return generate(builtin_specs()["arch_sim" if leaf == "arch" else "sim_2"].spec, n, seed=seed)

    @pytest.mark.parametrize("leaf", ["ar", "ar-intercept", "arch"])
    @pytest.mark.parametrize("depth", [0, 1, 3, 10])
    @pytest.mark.parametrize("m", [2, 3])
    def test_batch_fit(self, m, depth, leaf):
        series = self.series(leaf, 150 if leaf == "arch" else 400, seed=depth + m)
        f = fit_series(series, self.model(leaf), Quantizer(self.THRESHOLDS[m]), depth)
        assert f.trie.num_nodes > (1 if depth else 0)
        self.assert_matches_scalar_sweep(f.trie)

    @pytest.mark.parametrize("leaf", ["ar", "ar-intercept", "arch"])
    def test_online_updates_that_add_nodes(self, leaf):
        # ARCH refits every node cold on its last step, a full refresh: a node
        # missing from the trie's levels then keeps its stale warm value.
        depth, m, steps = 4, 3, 8 * FULL_REFRESH_EVERY
        series = self.series(leaf, 20 + steps, seed=11)
        f = fit_series(series[:20], self.model(leaf), Quantizer(self.THRESHOLDS[m]), depth)
        before = {context for context, _ in f.trie.nodes()}
        for x in series[20:]:
            f.update(x)
        after = {context for context, _ in f.trie.nodes()}
        assert {len(context) for context in after - before} >= {2, 3, 4}  # new nodes at several depths
        assert any(context + (j,) not in after for context in after if len(context) < depth for j in range(m))
        self.assert_matches_scalar_sweep(f.trie)


class TestSingleChildNodes:
    """A node above depth D with exactly one observed child holds exactly that child's samples: the sweep
    scores the child alone and hands the node the child's log_pe and kept fit."""

    @staticmethod
    def single_child_ids(trie) -> set[int]:
        nodes = dict(trie.nodes())
        return {
            node.id for context, node in nodes.items()
            if len(context) < trie.depth and sum(context + (j,) in nodes for j in range(trie.m)) == 1
        }

    @pytest.mark.parametrize("leaf", ["ar", "arch"])
    def test_one_call_scores_each_distinct_data_set_once(self, leaf, monkeypatch):
        depth, n = 6, 240
        series = TestSweepOracle().series(leaf, n + 400, seed=5)
        model = TestSweepOracle.model(leaf)
        f = fit_series(series[:n], model, Quantizer((-0.3, 0.3)), depth)
        single = self.single_child_ids(f.trie)
        assert len(single) > f.trie.num_nodes // 4

        batches, taken = [], []
        log_pe, take = model.log_pe, type(f.trie.states).take
        monkeypatch.setattr(model, "log_pe", lambda states: batches.append(len(states)) or log_pe(states))
        monkeypatch.setattr(type(f.trie.states), "take", lambda store, ids: taken.append(list(ids)) or take(store, ids))
        f.trie.full_sweep()
        assert batches == [f.trie.num_nodes - len(single)]
        assert set(taken[0]) == set(range(f.trie.num_nodes)) - single
        TestSweepOracle.assert_matches_scalar_sweep(f.trie)

        # online steps until a single-child node gains a second child; the next sweep scores it again
        for x in series[n:]:
            f.update(x)
            regained = single - self.single_child_ids(f.trie)
            if regained:
                break
        assert regained
        batches.clear()
        taken.clear()
        f.trie.full_sweep()
        single = self.single_child_ids(f.trie)
        assert batches == [f.trie.num_nodes - len(single)]
        assert regained <= set(taken[0]) == set(range(f.trie.num_nodes)) - single
        TestSweepOracle.assert_matches_scalar_sweep(f.trie)

    @staticmethod
    def assert_every_fit_is_cold(trie, model):
        # each node's kept fit equals a cold fit of a fresh state holding the same rows
        for context, node in trie.nodes():
            st = node.state
            fresh = ArchNodeState(st.xs.copy(), st.zs.copy())
            model.fit_state(fresh)
            assert st.theta is not None and st.theta.tobytes() == fresh.theta.tobytes(), context
            assert (st.log_pe_cached, st.flagged, st.nonconverged) == (
                fresh.log_pe_cached, fresh.flagged, fresh.nonconverged), context

    def test_arch_nodes_keep_their_own_fit(self):
        depth, n, steps, cfg = 6, 300, 2 * FULL_REFRESH_EVERY, ArchConfig(order=2)
        series = generate(builtin_specs()["arch_sim"].spec, n + steps, seed=2)[:n + steps]
        f = fit_series(series[:n], ArchModel(cfg), Quantizer((-0.3, 0.3)), depth)
        self.assert_every_fit_is_cold(f.trie, ArchModel(cfg))
        states = [f.trie.states[i] for i in self.single_child_ids(f.trie)]
        assert len(states) >= 50
        assert any(st.flagged for st in states) and any(not st.flagged for st in states)
        for x in series[n:]:  # warm path refits, ending on the second full refresh
            f.update(x)
        self.assert_every_fit_is_cold(f.trie, ArchModel(cfg))


class TestNarrowedTrie:
    """A trie ingested at the largest order and narrowed to a lower one equals a fit at that order."""

    @staticmethod
    def model(leaf, order):
        if leaf == "arch":
            return ArchModel(ArchConfig(order=order))
        return ArModel(ArHyperParams(order=order, intercept=leaf == "ar-intercept"))

    @staticmethod
    def store_bytes(trie):
        if isinstance(trie.model, ArchModel):
            return [(st.xs.tobytes(), st.zs.shape, st.zs.tobytes()) for st in trie.states]
        return trie.states.sums[:trie.num_nodes].tobytes()

    @staticmethod
    def sweep_bytes(trie):
        values = trie._log_pe, trie._log_pw, trie._log_pm
        return [struct.pack(f"<{trie.num_nodes}d", *v) for v in values] + [trie._leaf_wins]

    @pytest.mark.parametrize("leaf", ["ar", "ar-intercept", "arch"])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_every_node_equals_a_fit_at_its_order(self, leaf, depth):
        top, quantizer = 3, Quantizer((-0.3, 0.3))
        series = TestSweepOracle().series(leaf, 300, seed=depth)
        init = max(depth, top)
        ingested = fit_series(series, self.model(leaf, top), quantizer, depth).trie
        for order in range(0 if leaf == "arch" else 1, top + 1):
            fitted = fit_series(series[init - max(depth, order):], self.model(leaf, order), quantizer, depth).trie
            narrowed = ingested._narrowed(self.model(leaf, order), order)
            assert narrowed._kids is ingested._kids and narrowed._levels is ingested._levels
            assert narrowed._sweep_plan() is ingested._sweep_plan()
            assert narrowed._kids == fitted._kids and narrowed.num_obs == fitted.num_obs
            assert self.store_bytes(narrowed) == self.store_bytes(fitted)
            narrowed.full_sweep()
            assert self.sweep_bytes(narrowed) == self.sweep_bytes(fitted)
            if leaf == "arch":
                assert [(st.theta.tobytes(), st.flagged, st.nonconverged) for st in narrowed.states] == [
                    (st.theta.tobytes(), st.flagged, st.nonconverged) for st in fitted.states]
        assert self.store_bytes(ingested) == self.store_bytes(
            fit_series(series, self.model(leaf, top), quantizer, depth).trie)  # narrowing changed nothing

    def test_the_sweep_plan_is_kept_until_a_node_is_made(self):
        series = generate(builtin_specs()["sim_2"].spec, 500, seed=2)
        f = fit_series(series[:200], small_ar_model(2), Quantizer((-0.3, 0.3)), 6)
        plan = f.trie._sweep_plan()
        made = kept = 0
        for x in series[200:]:
            nodes = f.trie.num_nodes
            f.update(x)
            if f.trie.num_nodes == nodes:
                kept += 1
            else:
                made += 1
                assert f.trie._plan is None
                f.trie.full_sweep()
                plan = f.trie._plan
            assert f.trie._sweep_plan() is plan
        assert made and kept


class TestTreesFromTheTrie:
    """Trees built from the trie without validation equal those the validating constructor builds."""

    def test_map_tree_and_draws_are_proper(self):
        series = generate(builtin_specs()["sim_2"].spec, 300, seed=4)
        f = fit_series(series, small_ar_model(1), Quantizer((-0.3, 0.3)), 4)
        rng = np.random.default_rng(1)
        trees = [f.map_tree()] + [f.trie.sample_tree(rng) for _ in range(300)]
        assert len(set(trees)) > 10  # a spread posterior: many distinct trees drawn
        for tree in trees:
            checked = TreeModel(tree.m, tree.leaves)
            assert tree == checked and hash(tree) == hash(checked) and tree.leaves == checked.leaves


def _fresh_trie() -> ContextTrie:
    return ContextTrie(small_ar_model(1), 2, 2, 0.5)


def _observed_trie() -> ContextTrie:
    """A fresh trie with one sample routed in, not swept."""
    trie = _fresh_trie()
    trie.observe(0.5, (0, 1), (0.1,))
    return trie


BATCH_X, BATCH_LAGS = np.array([0.1, 0.2]), np.zeros((2, 1))
BATCH_CONTEXTS = [np.array([0, 1]), np.array([1, 0])]


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: _fresh_trie().observe(0.5, (0,), (0.1,)),
                 ValueError, r"^context length 1 != depth 2$", id="observe-context-length"),
    pytest.param(lambda: _fresh_trie().observe(0.5, (-1, 0), (0.1,)),
                 ValueError, r"^context symbol outside alphabet of size 2$", id="observe-negative-symbol"),
    pytest.param(lambda: _fresh_trie().observe(0.5, (2, 0), (0.1,)),
                 ValueError, r"^context symbol outside alphabet of size 2$", id="observe-symbol"),
    pytest.param(lambda: _observed_trie().observe_all(BATCH_CONTEXTS, BATCH_X, BATCH_LAGS),
                 RuntimeError, r"^observe_all needs a trie that has observed nothing$", id="observe-all-after-observe"),
    pytest.param(lambda: _fresh_trie().observe_all(BATCH_CONTEXTS[:1], BATCH_X, BATCH_LAGS),
                 ValueError, r"^1 context columns != depth 2$", id="observe-all-columns"),
    pytest.param(lambda: _fresh_trie().observe_all([np.array([0, 2]), np.array([1, 0])], BATCH_X, BATCH_LAGS),
                 ValueError, r"^context symbol outside alphabet of size 2$", id="observe-all-symbol"),
    pytest.param(lambda: _observed_trie().refresh_path([0]),
                 RuntimeError, r"^refresh_path needs an initial full_sweep\(\)$", id="refresh-path-before-sweep"),
    pytest.param(lambda: _observed_trie().log_evidence(),
                 RuntimeError, r"^run full_sweep\(\) \(or refresh_path\) before querying$",
                 id="log-evidence-before-sweep"),
    pytest.param(lambda: fit(random_mixture_series(1, n=20)).trie.posterior_of(TreeModel(3, ((),))),
                 ValueError, r"^alphabet size mismatch$", id="posterior-of-other-alphabet"),
    pytest.param(lambda: ContextTrie(small_ar_model(1), 1, 2),
                 ValueError, r"^alphabet size must be >= 2$", id="trie-alphabet"),
    pytest.param(lambda: ContextTrie(small_ar_model(1), 2, -1),
                 ValueError, r"^depth must be >= 0$", id="trie-depth"),
    *(pytest.param(lambda beta=beta: ContextTrie(small_ar_model(1), 2, 2, beta),
                   ValueError, r"^beta must lie in \(0, 1\)$", id=f"trie-beta-{beta}") for beta in (0.0, 1.0)),
    pytest.param(lambda: log_prior(TreeModel(2, ((),)), 1.5, 2),
                 ValueError, r"^beta must lie in \(0, 1\)$", id="log-prior-beta"),
    pytest.param(lambda: default_beta(1), ValueError, r"^alphabet size must be >= 2$", id="default-beta"),
    pytest.param(lambda: TreeModel(1, ((),)), ValueError, r"^alphabet size must be >= 2$", id="tree-alphabet"),
    pytest.param(lambda: TreeModel(2, ()), ValueError, r"^a tree has at least the root leaf$", id="tree-no-leaves"),
    pytest.param(lambda: TreeModel(2, ((0,), (1,))).state_of(()),
                 KeyError, r"context \(\) reaches no leaf; tree deeper than context", id="state-of-short-context"),
])
def test_trie_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()
