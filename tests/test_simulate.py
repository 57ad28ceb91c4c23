import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from ctreemix import ArLeaf, ArchLeaf, GenerativeSpec, Quantizer, TreeModel, builtin_specs, generate


def test_deterministic_in_seed():
    spec = builtin_specs()["sim_1"].spec
    a = generate(spec, 200, seed=7)
    b = generate(spec, 200, seed=7)
    c = generate(spec, 200, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# sha256 over every output of each builtin spec, for seeds 0, 1, 7, 9001 and n = 0, 1, 5, 300 in that order (each
# output's length as int64, then its values as little-endian float64): a faster sampler must keep these bytes
GENERATE_SHA256 = {
    "sim_1": "ef08a14a640f9f24ae3fc63bed78b8749f38fda1242e33d60a5c49bc46e9a9e8",
    "sim_2": "d5856d254d35abc1a21d1b227b1262a20e6f302b07f5bc39914d76de40bf3c39",
    "sim_3": "cb962f1fb9b8ca32841003606670508a558dde48b4a38acfcb1ec6c7d135203f",
    "arch_sim": "4877333502022bfd3d394f44a3096395d800f2ed7c13879503ebef47d048b4c6",
}


@pytest.mark.parametrize("name", sorted(GENERATE_SHA256))
def test_builtin_outputs_are_pinned(name):
    assert set(GENERATE_SHA256) == set(builtin_specs())
    digest = hashlib.sha256()
    for seed in (0, 1, 7, 9001):
        for n in (0, 1, 5, 300):
            x = generate(builtin_specs()[name].spec, n, seed)
            digest.update(np.array(len(x), "<i8").tobytes())
            digest.update(x.astype("<f8").tobytes())
    assert digest.hexdigest() == GENERATE_SHA256[name]


def test_output_length_includes_initial_segment():
    spec = builtin_specs()["sim_1"].spec
    assert len(generate(spec, 150, seed=0)) == 150 + spec.init_len


def test_zero_noise_leaf_follows_difference_equation():
    spec = GenerativeSpec(
        tree=TreeModel(2, ((),)),
        quantizer=Quantizer((0.0,)),
        leaf_params={(): ArLeaf(phi=(0.5,), sigma2=0.0, intercept=1.0)},
        burn_in=0,
        init_scale=1.0,
    )
    series = generate(spec, 10, seed=1)
    for i in range(1, len(series)):
        assert series[i] == pytest.approx(1.0 + 0.5 * series[i - 1], rel=1e-12)
    # deterministic recursion from any start converges to the fixed point 2
    assert abs(series[-1] - 2.0) < 1e-2


def test_all_states_visited():
    spec = builtin_specs()["sim_1"].spec
    series = generate(spec, 5000, seed=2)
    q = spec.quantizer
    seen = set()
    for i in range(2, len(series)):
        ctx = (q(series[i - 1]), q(series[i - 2]))
        seen.add(spec.tree.state_of(ctx))
    assert seen == set(spec.tree.leaves)


def test_state_assignment_round_trip():
    # re-deriving states from the output reproduces the generating states
    spec = builtin_specs()["sim_1"].spec
    rng = np.random.default_rng(3)
    hist = list(rng.normal(0, spec.default_scale(), 2))
    states_used = []
    for _ in range(400):
        ctx = (spec.quantizer(hist[-1]), spec.quantizer(hist[-2]))
        leaf = spec.tree.state_of(ctx)
        states_used.append(leaf)
        p = spec.leaf_params[leaf]
        hist.append(p.phi[0] * hist[-1] + p.phi[1] * hist[-2] + rng.normal(0, np.sqrt(p.sigma2)))
    series = np.array(hist)
    rederived = [
        spec.tree.state_of((spec.quantizer(series[i - 1]), spec.quantizer(series[i - 2])))
        for i in range(2, len(series))
    ]
    assert rederived == states_used


def test_persistent_regime_in_ternary_spec():
    spec = builtin_specs()["sim_2"].spec
    series = generate(spec, 4000, seed=4)
    q = spec.quantizer
    # within runs of the near-unit-root state the increments are tiny
    small_steps = []
    for i in range(2, len(series)):
        ctx = (q(series[i - 1]), q(series[i - 2]))
        if spec.tree.state_of(ctx) in ((0, 0), (2, 2)):
            small_steps.append(abs(series[i] - 0.99 * series[i - 1]))
    assert len(small_steps) > 50
    assert np.median(small_steps) < 0.01


def test_threshold_ar_spec_is_stable():
    spec = builtin_specs()["sim_3"].spec
    for seed in range(5):
        series = generate(spec, 200, seed=seed)
        assert np.all(np.isfinite(series))
        assert np.abs(series).max() < 50


def test_arch_sim_moments():
    spec = builtin_specs()["arch_sim"].spec
    series = generate(spec, 20000, seed=5)
    se = series.std() / np.sqrt(len(series))
    assert abs(series.mean()) < 3 * se
    assert stats.kurtosis(series, fisher=False) > 3.0


def test_registry_contents():
    reg = builtin_specs()
    assert set(reg) == {"sim_1", "sim_2", "sim_3", "arch_sim"}
    assert reg["sim_1"].default_n == 600
    assert reg["sim_2"].default_n == 500
    assert reg["sim_3"].default_n == 200
    assert reg["sim_2"].spec.tree.m == 3
    assert all(isinstance(p, ArchLeaf) for p in reg["arch_sim"].spec.leaf_params.values())


def test_spec_validation():
    tree = TreeModel(2, ((0,), (1,)))
    with pytest.raises(ValueError):
        GenerativeSpec(
            tree=tree,
            quantizer=Quantizer((0.0,)),
            leaf_params={(0,): ArLeaf((0.5,), 1.0)},  # missing leaf (1,)
        )
    with pytest.raises(TypeError):
        GenerativeSpec(
            tree=tree,
            quantizer=Quantizer((0.0,)),
            leaf_params={(0,): ArLeaf((0.5,), 1.0), (1,): ArchLeaf((0.1,))},
        )
    with pytest.raises(ValueError):
        ArchLeaf((0.0, 0.2))
    with pytest.raises(ValueError, match="^lag coefficients must be >= 0$"):
        ArchLeaf((0.1, -0.2))
    with pytest.raises(ValueError, match="^sigma2 must be >= 0$"):
        ArLeaf((0.5,), -1.0)
    leaves = {(0,): ArLeaf((0.5,), 1.0), (1,): ArLeaf((0.5,), 1.0)}
    with pytest.raises(ValueError, match="^quantizer and tree alphabet sizes differ$"):
        GenerativeSpec(tree=tree, quantizer=Quantizer((-0.5, 0.5)), leaf_params=leaves)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        generate(builtin_specs()["sim_1"].spec, -1, seed=0)
    with pytest.raises(ValueError, match="^init_scale must be finite and >= 0$"):
        GenerativeSpec(tree=tree, quantizer=Quantizer((0.0,)), leaf_params=leaves, init_scale=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameters_are_rejected(bad):
    for args in (((bad,), 1.0), ((0.5,), bad), ((0.5,), 1.0, bad)):
        with pytest.raises(ValueError, match="^phi, sigma2 and intercept must be finite$"):
            ArLeaf(*args)
    for alpha in ((bad,), (0.1, bad)):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            ArchLeaf(alpha)
    spec = builtin_specs()["sim_1"].spec
    with pytest.raises(ValueError, match="^init_scale must be finite and >= 0$"):
        GenerativeSpec(tree=spec.tree, quantizer=spec.quantizer, leaf_params=spec.leaf_params, init_scale=bad)


@pytest.mark.parametrize("leaf, init_scale, message", [
    (ArLeaf((2.0,), 0.1), None, "draw 1028 leaves float64: the leaves' phi make the series explode"),
    (ArLeaf((2.0,), 0.1), 1e300, "draw 31 leaves float64: the leaves' phi make the series explode"),
    (ArchLeaf((0.1, 0.2)), 1e200, "draw 1 leaves float64: the leaves' alpha make the series explode"),  # lag ** 2
], ids=["ar", "ar-burn-in", "arch-square"])
def test_draws_that_leave_float64_fail(leaf, init_scale, message):
    tree = TreeModel(2, ((0,), (1,)))
    spec = GenerativeSpec(tree=tree, quantizer=Quantizer((0.0,)), leaf_params=dict.fromkeys(tree.leaves, leaf),
                          init_scale=init_scale)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate(spec, 3000, seed=0)
