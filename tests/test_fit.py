"""Columnar batch ingest in fit_series against the per-sample trie path, and online updates."""

import math

import numpy as np
import pytest

from ctreemix import (ArchConfig, ArchModel, Quantizer, builtin_specs, fit_series, generate,
                      posterior_ar)

from helpers import ScalarArchModel, per_sample_fit, small_ar_model, trie_contents

SIM_1 = builtin_specs()["sim_1"].spec
SIM_2 = builtin_specs()["sim_2"].spec
ARCH_SIM = builtin_specs()["arch_sim"].spec

# (id, spec, n, thresholds, model factory, depth)
CASES = [
    ("binary", SIM_1, 600, (0.0,), lambda: small_ar_model(2), 6),
    ("ternary", SIM_2, 600, (-0.5, 0.5), lambda: small_ar_model(3), 5),
    ("intercept", SIM_1, 500, (0.0,), lambda: small_ar_model(2, intercept=True), 4),
    ("ternary-intercept", SIM_2, 400, (-0.5, 0.5), lambda: small_ar_model(1, intercept=True), 3),
    ("order-above-depth", SIM_1, 400, (0.0,), lambda: small_ar_model(5), 2),
    ("depth-0", SIM_1, 300, (0.0,), lambda: small_ar_model(2), 0),
    ("arch", ARCH_SIM, 400, (0.0,), lambda: ArchModel(ArchConfig(order=3)), 3),
    ("arch-ternary", ARCH_SIM, 300, (-0.3, 0.3), lambda: ArchModel(ArchConfig(order=2)), 3),
    ("arch-order-above-depth", ARCH_SIM, 300, (0.0,), lambda: ArchModel(ArchConfig(order=4)), 1),
    ("arch-depth-0-order-0", ARCH_SIM, 200, (0.0,), lambda: ArchModel(ArchConfig(order=0)), 0),
]


def assert_same_fit(columnar, reference):
    assert columnar.trie.num_nodes == reference.trie.num_nodes
    assert columnar.num_scored == reference.num_scored
    assert trie_contents(columnar.trie) == trie_contents(reference.trie)
    assert list(columnar._history) == list(reference._history)
    assert list(columnar._symbols) == list(reference._symbols)
    assert columnar.log_evidence() == reference.log_evidence()
    assert columnar.map_tree() == reference.map_tree()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_columnar_ingest_equals_per_sample(case):
    _, spec, n, thresholds, make_model, depth = case
    series = generate(spec, n, seed=11)
    q = Quantizer(thresholds)
    columnar = fit_series(series, make_model(), q, depth)
    reference = per_sample_fit(series, make_model(), q, depth)
    assert columnar.num_scored == len(series) - columnar.init_len > 0
    assert_same_fit(columnar, reference)
    assert columnar.predict_next() == reference.predict_next()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_series_of_initial_length_scores_nothing(case):
    _, spec, _, thresholds, make_model, depth = case
    model = make_model()
    init_len = max(depth, model.order)
    series = generate(spec, 50, seed=3)[:init_len]
    q = Quantizer(thresholds)
    columnar = fit_series(series, model, q, depth)
    assert columnar.num_scored == 0 and columnar.trie.num_nodes == 1
    assert_same_fit(columnar, per_sample_fit(series, make_model(), q, depth))


def test_updates_after_columnar_fit_match_refits():
    series = generate(SIM_2, 500, seed=4)[:500]
    q = Quantizer((-0.5, 0.5))
    split = 300
    fitted = fit_series(series[:split], small_ar_model(2), q, 6)
    for i in range(split, split + 200):
        cold = fit_series(series[:i], small_ar_model(2), q, 6)
        assert fitted.predict_next() == cold.predict_next()
        assert fitted.log_evidence() == cold.log_evidence()
        fitted.update(float(series[i]))
    assert_same_fit(fitted, per_sample_fit(series, small_ar_model(2), q, 6))


# (id, spec, training length, online steps, thresholds, order, intercept, depth, the kinds of step that must occur)
ONLINE_READS = [
    ("sim_1-ar2-binary", SIM_1, 600, 600, (0.0,), 2, False, 10, ()),
    ("ternary-ar5-intercept", SIM_2, 60, 300, (-0.5, 0.5), 5, True, 6, ("unseen", "copied")),
]


@pytest.mark.parametrize("case", ONLINE_READS, ids=[c[0] for c in ONLINE_READS])
def test_predict_next_equals_the_copy_path(case):
    # predict_next reads the MAP node's kept posterior in place; at every step it must equal, bit for bit,
    # posterior_ar on the node's row copied out of the store, and on an empty store's row at a context never observed
    _, spec, train, steps, thresholds, order, intercept, depth, must = case
    series = generate(spec, train + steps, seed=5)[:train + steps]
    fitted = fit_series(series[:train], small_ar_model(order, intercept), Quantizer(thresholds), depth)
    model, copied = fitted.model, set(fitted.trie._sweep_plan()[1])  # single-child nodes given a fit by copy_fit
    seen = set()
    for x in series[train:]:
        context, lags = fitted.current_context(), fitted.current_lags()
        node = fitted.trie.map_node(context)
        if node < 0:
            post = posterior_ar(model.new_states(1).take([0]), model.hp)
            seen.add("unseen")
        else:
            post = posterior_ar(fitted.trie.states[node], model.hp)
            seen.add("copied" if node in copied else "scored")
        expected = [float(np.dot(post.mean, model.hp.design(lags))).hex(), post.map_sigma2.hex()]
        assert [v.hex() for v in fitted.predict_next()] == expected
        fitted.update(float(x))
        copied.difference_update(fitted.trie.walk(context[:d]).id for d in range(depth + 1))  # rescored
    assert "scored" in seen and set(must) <= seen


def test_arch_updates_after_columnar_fit_hold_the_refit_rows():
    # ARCH evidence depends on the warm-refit history, so compare node data only
    series = generate(ARCH_SIM, 400, seed=7)[:400]
    q = Quantizer((0.0,))
    fitted = fit_series(series[:250], ArchModel(ArchConfig(order=3)), q, 4)
    for v in series[250:]:
        fitted.update(float(v))
    reference = per_sample_fit(series, ArchModel(ArchConfig(order=3)), q, 4)
    assert fitted.trie.num_nodes == reference.trie.num_nodes
    assert trie_contents(fitted.trie) == trie_contents(reference.trie)


def test_arch_online_run_matches_scalar_oracle():
    # 120 steps: warm refits of each path, and cold refits of every node at steps 50 and 100;
    # ternary contexts and order 5 leave some nodes flagged and some non-converged along the way
    series = generate(ARCH_SIM, 300, seed=1)[:300]
    q = Quantizer((-0.3, 0.3))
    runs = []
    for model in (ArchModel(ArchConfig(order=5)), ScalarArchModel(ArchConfig(order=5))):
        fitted = fit_series(series[:180], model, q, 3)
        steps = []
        for v in series[180:]:
            prediction = fitted.predict_next()
            fitted.update(float(v))
            flags = {context: (node.state.flagged, node.state.nonconverged) for context, node in fitted.trie.nodes()}
            steps.append((prediction, fitted.log_evidence(), flags))
        runs.append(steps)
    assert runs[0] == runs[1]
    assert any(f[0] for _, _, flags in runs[0] for f in flags.values())
    assert any(f[1] for _, _, flags in runs[0] for f in flags.values())


def test_arch_online_schedule(monkeypatch):
    # the documented online policy, as literals: over the 120 updates of the oracle run above, a cold refit of
    # every node after updates 50 and 100, and after each other update a warm refit of the path's nodes with 2
    # scoring iterations, then a refresh of that path
    series = generate(ARCH_SIM, 300, seed=1)[:300]
    model = ArchModel(ArchConfig(order=5))
    fitted = fit_series(series[:180], model, Quantizer((-0.3, 0.3)), 3)
    trie, events = fitted.trie, []
    fit_states, full_sweep, refresh_path = model.fit_states, trie.full_sweep, trie.refresh_path

    def record_fit(states, warm=False, iters=None):
        if states:  # refresh_path's log_pe call refits no state
            events.append(("fit", sorted(map(id, states)), warm, iters))
        fit_states(states, warm, iters)

    monkeypatch.setattr(model, "fit_states", record_fit)
    monkeypatch.setattr(trie, "full_sweep", lambda: (events.append(("sweep",)), full_sweep())[1])
    monkeypatch.setattr(trie, "refresh_path", lambda path: (events.append(("path", path)), refresh_path(path))[1])
    cold = []
    for step, v in enumerate(series[180:], 1):
        events.clear()
        fitted.update(float(v))
        if ("sweep",) in events:
            cold.append(step)
            assert events == [("sweep",), ("fit", sorted(map(id, trie.states)), False, None)]
        else:
            (_, path), = [e for e in events if e[0] == "path"]
            assert events == [("fit", sorted(id(trie.states[i]) for i in path), True, 2), ("path", path)]
    assert cold == [50, 100]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_update_rejects_non_finite_without_changing_state(bad):
    series = generate(SIM_1, 200, seed=5)
    q = Quantizer((0.0,))
    fitted = fit_series(series, small_ar_model(2), q, 4)
    before = trie_contents(fitted.trie)
    evidence, prediction = fitted.log_evidence(), fitted.predict_next()
    with pytest.raises(ValueError, match="non-finite"):
        fitted.update(bad)
    assert trie_contents(fitted.trie) == before
    assert fitted.num_scored == len(series) - fitted.init_len
    assert fitted.log_evidence() == evidence
    assert fitted.predict_next() == prediction
    # later finite updates still agree with a refit on the finite data
    fitted.update(0.25)
    cold = fit_series(np.append(series, 0.25), small_ar_model(2), q, 4)
    assert fitted.log_evidence() == cold.log_evidence()


@pytest.mark.parametrize("model", [small_ar_model(2), ArchModel(ArchConfig(order=2))], ids=["ar", "arch"])
def test_fit_rejects_overflowing_series(model):
    # finite input whose squares overflow float64 would give a NaN evidence
    series = np.random.default_rng(0).normal(size=300) * 1e200
    with pytest.raises(ValueError, match="overflows float64"):
        fit_series(series, model, Quantizer((0.0,)), 3)


def test_fit_rejects_non_finite_with_same_error():
    series = generate(SIM_1, 100, seed=6)
    series[50] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_series(series, small_ar_model(2), Quantizer((0.0,)), 4)


def test_fit_rejects_a_two_dimensional_series():
    with pytest.raises(ValueError, match=r"^series must be one-dimensional$"):
        fit_series(np.zeros((20, 2)), small_ar_model(1), Quantizer((0.0,)), 2)


def test_sample_trees_equals_one_draw_at_a_time():
    fitted = fit_series(generate(SIM_2, 300, seed=4), small_ar_model(1), Quantizer((-0.3, 0.3)), 4)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    trees = fitted.sample_trees(200, rng)
    assert len(set(trees)) > 10
    assert trees == [fitted.trie.sample_tree(ref) for _ in range(200)]
    assert rng.random() == ref.random()  # the same uniforms were used up
