"""Acceptance suite: every exit criterion at its pinned tolerance.

Each check prints one ``ACCEPTANCE <id> PASS|FAIL`` line (run with ``-s``
to see them live; they also appear in captured output).  Shared expensive
artifacts are computed once per module.  Seeds are fixed a priori:
``range(20)`` for the 20-seed recovery criteria, ``range(10)`` for the
10-seed forecasting and convergence criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize, stats

import ctreemix as cm
from ctreemix import io as sio
from ctreemix.arch import initial_theta
from ctreemix.forecasting import RunConfig, rolling_forecast
from ctreemix.selection import SelectionGrid, select_hyperparams

from helpers import (
    arch_loglik,
    arch_score_and_info,
    brute_force_log_evidence,
    enumerate_trees,
    log_pe_ar_known_variance,
    random_mixture_series,
    small_ar_model,
)
from test_ar import quad_log_pe_2d, stats_from_pairs
from test_arch import simulate_arch_node, random_feasible_theta

Q0 = cm.Quantizer((0.0,))
TRUTH_DEPTH1 = cm.TreeModel(2, ((0,), (1,)))
TRUTH_SIM1 = cm.TreeModel(2, ((1,), (0, 1), (0, 0)))


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid:<4} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def small_instances():
    """20 random two-regime datasets (n=30) with their fits and enumerations."""
    out = []
    for seed in range(20):
        series = random_mixture_series(seed, n=30)
        fitted = cm.fit_series(series, small_ar_model(1), Q0, 2, 0.5)
        _, joints = brute_force_log_evidence(series, small_ar_model(1), Q0, 2, 0.5)
        out.append((series, fitted, joints))
    return out


def test_c1_evidence_matches_enumeration(small_instances):
    worst = 0.0
    for _, fitted, joints in small_instances:
        values = np.array(list(joints.values()))
        peak = values.max()
        expect = peak + math.log(np.exp(values - peak).sum())
        worst = max(worst, abs(fitted.log_evidence() - expect))
    report("1", worst <= 1e-10, f"max |log evidence - enumeration| = {worst:.3e} (tol 1e-10)")


def test_c2_map_tree_matches_enumerated_argmax(small_instances):
    hits = 0
    worst = 0.0
    for _, fitted, joints in small_instances:
        best_leaves = max(sorted(joints), key=lambda lv: joints[lv])
        got = fitted.map_tree()
        worst = max(worst, abs(joints[got.leaves] - max(joints.values())))
        hits += got.leaves == best_leaves
    ok = hits == 20 and worst <= 1e-9
    report("2", ok, f"exact argmax tree in {hits}/20 instances, score gap {worst:.2e}")


def test_c3_sampler_frequencies(small_instances):
    _, fitted, _ = small_instances[9]
    rng = np.random.default_rng(2024)
    draws = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        t = fitted.trie.sample_tree(rng)
        counts[t.leaves] = counts.get(t.leaves, 0) + 1
    worst_z = 0.0
    checked = 0
    for tree in enumerate_trees(2, 2):
        p = fitted.posterior_of(tree)
        if p < 0.01:
            continue
        checked += 1
        freq = counts.get(tree.leaves, 0) / draws
        se = math.sqrt(p * (1.0 - p) / draws)
        worst_z = max(worst_z, abs(freq - p) / se)
    report("3", checked >= 2 and worst_z <= 3.0,
           f"{checked} trees with posterior >= 0.01, worst |z| = {worst_z:.2f} (tol 3)")


def test_c4_leaf_marginal_quadrature():
    rng = np.random.default_rng(77)
    hp = cm.ArHyperParams(order=1)
    worst_2d = worst_mix = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 5))
        pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(k)]
        st = stats_from_pairs(pairs)
        got = cm.log_pe_ar(st, hp)[0]
        worst_2d = max(worst_2d, abs(got - quad_log_pe_2d(pairs)))

        def integrand(u):
            s2 = math.exp(u)
            lp = log_pe_ar_known_variance(st, s2, np.zeros(1), s2 * np.eye(1))
            return math.exp(lp + stats.invgamma.logpdf(s2, hp.tau, scale=hp.lam) + u)

        val, _ = integrate.quad(integrand, -30, 30, epsabs=1e-13, epsrel=1e-10, limit=300)
        worst_mix = max(worst_mix, abs(got - math.log(val)))
    ok = worst_2d <= 1e-4 and worst_mix <= 1e-4
    report("4", ok, f"2-D quadrature gap {worst_2d:.2e}, variance-mixture gap {worst_mix:.2e} (tol 1e-4)")


def test_c5_posterior_recovery():
    spec = cm.builtin_specs()["sim_1"].spec
    results = {}
    for n, floor in ((500, 0.9), (1000, 0.99)):
        ok_count = 0
        for seed in range(20):
            series = cm.generate(spec, n, seed=seed)
            fitted = cm.fit_series(series, small_ar_model(2), Q0, 10, None)
            if fitted.map_tree() == TRUTH_SIM1 and fitted.map_posterior() >= floor:
                ok_count += 1
        results[n] = ok_count
    ok = results[500] >= 16 and results[1000] >= 16
    report("5", ok, f"true tree with posterior >= 0.9: {results[500]}/20 at n=500; "
                    f">= 0.99: {results[1000]}/20 at n=1000 (need 16)")


def test_c6_evidence_grid_argmax():
    spec = cm.builtin_specs()["sim_1"].spec
    grid = SelectionGrid(
        orders=(1, 2, 3, 4, 5),
        thresholds=((-0.1,), (-0.05,), (0.0,), (0.05,), (0.1,)),
    )
    factory = RunConfig(leaf=cm.ArHyperParams(1), thresholds=(0.0,), depth=10).make_model
    hits = 0
    for seed in range(20):
        series = cm.generate(spec, 600, seed=seed)
        res = select_hyperparams(series, grid, factory, 10)
        hits += res.thresholds == (0.0,) and res.order == 2
    report("6", hits >= 16, f"grid argmax at (c=0, p=2) in {hits}/20 seeds (need 16)")


@pytest.fixture(scope="module")
def sim1_forecasts():
    spec = cm.builtin_specs()["sim_1"].spec
    mix, single, oracle = [], [], []
    for seed in range(10):
        series = cm.generate(spec, 600, seed=seed)
        mix.append(rolling_forecast(series, RunConfig(leaf=cm.ArHyperParams(2), thresholds=(0.0,), depth=10)).mse)
        single.append(rolling_forecast(series, RunConfig(leaf=cm.ArHyperParams(2), thresholds=(0.0,), depth=0)).mse)
        errs = [
            (series[i] - sum(c * series[i - 1 - k] for k, c in enumerate(
                spec.leaf_params[spec.tree.state_of((Q0(series[i - 1]), Q0(series[i - 2])))].phi))) ** 2
            for i in range(len(series) // 2, len(series))
        ]
        oracle.append(float(np.mean(errs)))
    return np.array(mix), np.array(single), np.array(oracle)


def test_c7a_sim1_mse_band(sim1_forecasts):
    # The lower edge is what the true-parameter predictor scores on the same
    # seeds: no honest forecast beats it, so a median below it means leakage.
    mix, _, oracle = sim1_forecasts
    med = float(np.median(mix))
    floor = float(np.median(oracle))
    report("7a", floor <= med <= 0.150,
           f"sim_1 rolling MSE median {med:.4f}, mean {float(np.mean(mix)):.4f} "
           f"(band [{floor:.4f}, 0.150], lower edge the true-parameter oracle median on the same seeds)")


def test_c7b_sim1_beats_global_ar2(sim1_forecasts):
    mix, single, _ = sim1_forecasts
    med_diff = float(np.median(mix - single))
    report("7b", med_diff < 0.0,
           f"median per-seed MSE gap vs single AR(2) = {med_diff:+.4f} (must be < 0)")


def test_c7c_sim3_mse_band():
    spec = cm.builtin_specs()["sim_3"].spec
    mses = []
    for seed in range(10):
        series = cm.generate(spec, 200, seed=seed)
        cfg = RunConfig(leaf=cm.ArHyperParams(5), thresholds=(-0.2,), depth=10)
        mses.append(rolling_forecast(series, cfg).mse)
    med = float(np.median(mses))
    report("7c", med < 1.1, f"sim_3 rolling MSE median {med:.4f} (must be < 1.1)")


def test_c8_score_and_information():
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    for node_seed in range(5):
        st = simulate_arch_node(60, (0.2, 0.25, 0.15), seed=300 + node_seed)
        for _ in range(10):
            theta = random_feasible_theta(rng, 2)
            score, info = arch_score_and_info(st, theta)
            assert np.allclose(info, info.T)
            assert np.linalg.eigvalsh(info).min() > 0
            h = 1e-5
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (arch_loglik(st, theta + e) - arch_loglik(st, theta - e)) / (2 * h)
                worst = max(worst, abs(score[j] - fd) / max(1.0, abs(fd)))
            checked += 1
    report("8", checked == 50 and worst <= 1e-4,
           f"score vs central differences on {checked} points, worst rel err {worst:.2e} (tol 1e-4)")


def test_c9_mle_matches_independent_optimiser():
    worst = 0.0
    for seed in range(10):
        alpha = (0.1 + 0.05 * (seed % 3), 0.2, 0.15 + 0.02 * (seed % 2))
        st = simulate_arch_node(3000, alpha, seed=400 + seed)
        cm.ArchModel(cm.ArchConfig(order=2, fisher_iters=200)).fit_state(st)
        theta = st.theta
        res = optimize.minimize(
            lambda t: -arch_loglik(st, t),
            initial_theta(st, 2),
            jac=lambda t: -arch_score_and_info(st, t)[0],
            method="L-BFGS-B",
            bounds=[(1e-8, None), (0.0, 1.0), (0.0, 1.0)],
            options={"ftol": 1e-14, "gtol": 1e-10, "maxiter": 500},
        )
        worst = max(worst, float(np.abs(theta - res.x).max()))
    report("9", worst <= 1e-3, f"max coordinate gap to box-constrained optimiser {worst:.2e} (tol 1e-3)")


@pytest.fixture(scope="module")
def arch_convergence():
    spec = cm.builtin_specs()["arch_sim"].spec
    medians = {}
    for n in (1000, 2500, 5000, 10000):
        posts = []
        for seed in range(10):
            series = cm.generate(spec, n, seed=seed)
            fitted = cm.fit_series(
                series, cm.ArchModel(cm.ArchConfig(order=5, fisher_iters=10)), Q0, 5, 0.5
            )
            posts.append(fitted.posterior_of(TRUTH_DEPTH1))
        medians[n] = float(np.median(posts))
    return medians


def test_c10a_underfit_at_1000(arch_convergence):
    med = arch_convergence[1000]
    report("10a", med <= 0.2, f"true-tree posterior median {med:.3f} at n=1000 (must be <= 0.2)")


def test_c10b_transition_at_2500(arch_convergence):
    med = arch_convergence[2500]
    report("10b", 0.25 <= med <= 0.60, f"true-tree posterior median {med:.3f} at n=2500 (band [0.25, 0.60])")


def test_c10c_identified_at_5000(arch_convergence):
    med = arch_convergence[5000]
    report("10c", med >= 0.75, f"true-tree posterior median {med:.3f} at n=5000 (must be >= 0.75)")


def test_c10d_certain_at_10000(arch_convergence):
    med = arch_convergence[10000]
    report("10d", med >= 0.95, f"true-tree posterior median {med:.3f} at n=10000 (must be >= 0.95)")


def test_c11_laplace_vs_quadrature_single_parameter():
    st = simulate_arch_node(40, (0.3,), seed=500, p=0)
    model = cm.ArchModel(cm.ArchConfig(order=0, fisher_iters=100))
    got = model.log_pe([st])[0]
    x2 = np.square(np.array(st.xs))
    n = st.count

    def integrand(u):
        a0 = math.exp(u)
        ll = -0.5 * n * math.log(2 * math.pi) - 0.5 * float(np.sum(np.log(a0) + x2 / a0))
        return math.exp(ll - u + u)  # prior 1/a0 times Jacobian a0 cancels

    val, _ = integrate.quad(integrand, -12, 8, epsabs=1e-14, epsrel=1e-10, limit=300)
    rel = abs(math.exp(got - math.log(val)) - 1.0)
    report("11", rel <= 0.02, f"single-parameter marginal, relative gap to quadrature {rel:.4f} (tol 0.02)")


def test_c12a_linear_scaling():
    spec = cm.builtin_specs()["sim_1"].spec
    series = cm.generate(spec, 40_000, seed=1)
    cm.fit_series(series[:5000], small_ar_model(2), Q0, 10, None)  # warmup

    def fit(n):
        fitted = cm.fit_series(series[: n + 2], small_ar_model(2), Q0, 10, None)
        fitted.log_evidence()
        fitted.map_tree()

    def round_s(n, reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            fit(n)
        return (time.perf_counter() - t0) / reps

    # a fit takes 4-21 ms, where a few ms of host noise would move a ratio by 0.5: each round repeats the fit
    # for at least 0.2 s, the rounds take the sizes in turn, and the best of 5 keeps a slow spell out of the ratio
    sizes = (10_000, 20_000, 40_000)
    reps = {n: math.ceil(0.2 / round_s(n, 1)) for n in sizes}
    rounds = [{n: round_s(n, reps[n]) for n in sizes} for _ in range(5)]
    times = {n: min(r[n] for r in rounds) for n in sizes}
    r1 = times[20_000] / times[10_000]
    r2 = times[40_000] / times[20_000]
    ok = r1 <= 2.5 and r2 <= 2.5
    report("12a", ok, f"fit wall time ratios per doubling: {r1:.2f}, {r2:.2f} (tol 2.5); "
                      f"times {[round(v, 3) for v in times.values()]}s")


def test_c12b_incremental_bit_identity():
    spec = cm.builtin_specs()["sim_1"].spec
    series = cm.generate(spec, 1200, seed=2)
    split = 200
    fitted = cm.fit_series(series[:split], small_ar_model(2), Q0, 5, 0.5)
    identical = True
    for i in range(split, split + 1000):
        mean_inc, var_inc = fitted.predict_next()
        cold = cm.fit_series(series[:i], small_ar_model(2), Q0, 5, 0.5)
        mean_cold, var_cold = cold.predict_next()
        if (mean_inc, var_inc) != (mean_cold, var_cold) or fitted.log_evidence() != cold.log_evidence():
            identical = False
            break
        fitted.update(float(series[i]))
    report("12b", identical, "1000 sequential updates bit-identical to from-scratch refits")
