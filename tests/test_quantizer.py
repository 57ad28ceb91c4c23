import numpy as np
import pytest

from ctreemix import ArHyperParams, ArModel, Quantizer, fit_series


def test_below_sole_threshold():
    assert Quantizer((0.0,))(-1.0) == 0


def test_boundary_goes_to_upper_cell():
    assert Quantizer((0.0,))(0.0) == 1


def test_ternary_mid_band():
    # three-way split used for daily price changes: {down, steady, up}
    q = Quantizer((-7.0, 7.0))
    assert q(3.0) == 1
    assert q(-8.0) == 0
    assert q(7.0) == 2


def test_monotone_and_partition():
    q = Quantizer((-0.5, 0.1, 2.0))
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(-5, 5, size=500))
    syms = [q(x) for x in xs]
    assert all(a <= b for a, b in zip(syms, syms[1:]))
    assert set(syms) <= {0, 1, 2, 3}
    assert q.code(xs).tolist() == syms
    # exactly one half-open cell fires for each input
    for x in (-0.5, 0.1, 2.0, -0.5 - 1e-12, 37.0):
        cells = [
            x < -0.5,
            -0.5 <= x < 0.1,
            0.1 <= x < 2.0,
            x >= 2.0,
        ]
        assert sum(cells) == 1
        assert cells[q(x)]


def test_invalid_thresholds():
    with pytest.raises(ValueError):
        Quantizer(())
    with pytest.raises(ValueError):
        Quantizer((0.0, 0.0))
    with pytest.raises(ValueError):
        Quantizer((1.0, -1.0))
    with pytest.raises(ValueError):
        Quantizer((float("nan"),))


def fit_prefix(series, q, depth):
    """A model fitted on the series, whose current_context() is that of the next sample."""
    return fit_series(series, ArModel(ArHyperParams(order=1)), q, depth, 0.5)


def test_context_most_recent_first():
    q = Quantizer((0.0,))
    assert fit_prefix([-1.0, 2.0], q, 2).current_context() == (1, 0)


def test_context_depth_zero():
    assert fit_prefix([1.0], Quantizer((0.0,)), 0).current_context() == ()


def test_context_out_of_range():
    with pytest.raises(ValueError, match="shorter than the initial segment"):
        fit_prefix([1.0], Quantizer((0.0,)), 2)


def test_context_sliding_window():
    q = Quantizer((0.25,))
    rng = np.random.default_rng(1)
    series = rng.normal(size=50)
    fitted = fit_prefix(series[:6], q, 5)
    for i in range(6, 48):
        prev = fitted.current_context()
        assert prev == tuple(q.code(series[i - 5 : i][::-1]))
        fitted.update(series[i])
        cur = fitted.current_context()
        assert cur == (q(series[i]),) + prev[:-1]
    # the quantized reversed history after the fit and through updates, for
    # depth 0, depth below the order and depth above it
    for depth, order in ((0, 2), (2, 4), (6, 1)):
        fitted = fit_series(series[:20], ArModel(ArHyperParams(order=order)), q, depth, 0.5)
        for i in range(20, 50):
            context = fitted.current_context()
            assert context == tuple(q(series[i - 1 - d]) for d in range(depth))
            assert all(type(sym) is int for sym in context)
            fitted.update(series[i])
