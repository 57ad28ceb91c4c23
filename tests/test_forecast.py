"""Rolling one-step evaluation: training length, record consistency, refresh identity."""

import math

import numpy as np
import pytest
from scipy import stats

from ctreemix import ArchConfig, ArHyperParams, Quantizer, builtin_specs, fit_series, forecasting, generate
from ctreemix import io as sio
from ctreemix.forecasting import (
    RunConfig,
    gaussian_log_density,
    rolling_forecast,
)
from ctreemix.tree import context_label

from helpers import small_ar_model


@pytest.mark.parametrize("x, mean, var", [
    (0.0, 0.0, 1.0), (1.3, -0.4, 2.5), (-0.7, 0.2, 0.04), (1e-4, 0.0, 1e-8), (-2e4, 1e4, 1e8),
])
def test_gaussian_log_density_matches_scipy(x, mean, var):
    assert gaussian_log_density(x, mean, var) == pytest.approx(stats.norm.logpdf(x, mean, math.sqrt(var)), rel=1e-12)


class TestRollingAr:
    def test_train_len_defaults_to_half_and_must_leave_both_parts(self):
        series = generate(builtin_specs()["sim_1"].spec, 200, seed=0)
        cfg = RunConfig(leaf=ArHyperParams(2), thresholds=(0.0,), depth=5)
        assert rolling_forecast(series, cfg).train_len == len(series) // 2
        for bad in (0, len(series)):
            with pytest.raises(ValueError, match="no usable train/test data"):
                rolling_forecast(series, cfg, train_len=bad)

    def test_alphabet_above_ten_fails_before_the_fit(self, monkeypatch):
        # the report's leaf labels write one digit per symbol: (1, 0) and (10,) would both be "10"
        monkeypatch.setattr(forecasting, "fit_series", lambda *a, **k: pytest.fail("the series was fitted"))
        series = generate(builtin_specs()["sim_1"].spec, 200, seed=0)
        cfg = RunConfig(leaf=ArHyperParams(1), thresholds=tuple(np.linspace(-1.0, 1.0, 10)), depth=2)
        with pytest.raises(ValueError, match=r"^alphabet size 11 is above 10: leaf labels write one digit per symbol"):
            rolling_forecast(series, cfg)
        assert context_label((1, 0)) == "10" and context_label(()) == ""

    def test_record_consistency(self):
        series = generate(builtin_specs()["sim_1"].spec, 200, seed=0)
        rep = rolling_forecast(series, RunConfig(leaf=ArHyperParams(2), thresholds=(0.0,), depth=5))
        assert len(rep.records) == len(series) - rep.train_len
        for r in rep.records:
            assert r.squared_error == (r.realised - r.mean) ** 2
            assert r.variance > 0
            assert r.log_density == pytest.approx(
                gaussian_log_density(r.realised, r.mean, r.variance), rel=1e-12
            )
        assert rep.mse == pytest.approx(np.mean([r.squared_error for r in rep.records]))
        assert rep.cumulative_log_loss == pytest.approx(-np.sum([r.log_density for r in rep.records]))

    def test_constant_series_with_intercept_is_learned(self):
        series = np.full(240, 3.7)
        rep = rolling_forecast(
            series,
            RunConfig(leaf=ArHyperParams(1, intercept=True), thresholds=(0.0,), depth=2),
        )
        assert rep.mse < 1e-3
        assert rep.records[-1].squared_error < 1e-5

    def test_incremental_equals_refit_from_scratch(self):
        # bitwise: the path refresh must reproduce a cold fit at every step
        series = generate(builtin_specs()["sim_1"].spec, 160, seed=1)
        split = 80
        q = Quantizer((0.0,))
        fitted = fit_series(series[:split], small_ar_model(2), q, 4, 0.5)
        for i in range(split, len(series)):
            mean_inc, var_inc = fitted.predict_next()
            cold = fit_series(series[:i], small_ar_model(2), q, 4, 0.5)
            mean_cold, var_cold = cold.predict_next()
            assert mean_inc == mean_cold and var_inc == var_cold
            assert fitted.log_evidence() == cold.log_evidence()
            assert fitted.map_tree() == cold.map_tree()
            fitted.update(float(series[i]))
            full = fit_series(series[: i + 1], small_ar_model(2), q, 4, 0.5)
            assert fitted.map_tree() == full.map_tree()

    def test_shift_invariance_of_states(self):
        # shifting data and thresholds together leaves every quantized
        # symbol unchanged; predictions agree up to the prior's pull on the
        # intercept, which is not shift-equivariant
        spec = builtin_specs()["sim_1"].spec
        series = generate(spec, 300, seed=2)
        shift = 0.5
        q, q_shift = Quantizer((0.0,)), Quantizer((shift,))
        assert [q(v) for v in series] == [q_shift(v + shift) for v in series]
        cfg = RunConfig(leaf=ArHyperParams(2, intercept=True), thresholds=(0.0,), depth=6)
        cfg_shift = RunConfig(leaf=ArHyperParams(2, intercept=True), thresholds=(shift,), depth=6)
        rep = rolling_forecast(series, cfg)
        rep_shift = rolling_forecast(series + shift, cfg_shift)
        assert rep_shift.mse == pytest.approx(rep.mse, rel=0.05)

    def test_beats_single_model_on_regime_data(self):
        series = generate(builtin_specs()["sim_1"].spec, 600, seed=3)
        mixture = rolling_forecast(series, RunConfig(leaf=ArHyperParams(2), thresholds=(0.0,), depth=10))
        single = rolling_forecast(series, RunConfig(leaf=ArHyperParams(2), thresholds=(0.0,), depth=0))
        assert mixture.mse < single.mse


class TestRollingArch:
    def test_log_loss_beats_constant_variance(self):
        series = generate(builtin_specs()["arch_sim"].spec, 1300, seed=4)
        rep = rolling_forecast(
            series,
            RunConfig(leaf=ArchConfig(2, fisher_iters=10), thresholds=(0.0,), depth=3),
            train_len=len(series) - 130,
        )
        assert math.isfinite(rep.cumulative_log_loss)
        train = series[: rep.train_len]
        const_var = float(np.var(train))
        baseline = -sum(
            gaussian_log_density(r.realised, 0.0, const_var) for r in rep.records
        )
        assert rep.cumulative_log_loss < baseline

    def test_first_step_matches_batch_fit(self):
        series = generate(builtin_specs()["arch_sim"].spec, 400, seed=5)
        cfg = RunConfig(leaf=ArchConfig(2, fisher_iters=10), thresholds=(0.0,), depth=3)
        rep = rolling_forecast(series, cfg, train_len=350)
        fitted = fit_series(series[:350], cfg.make_model(), cfg.quantizer(), 3, cfg.beta)
        mean, var = fitted.predict_next()
        assert rep.records[0].mean == mean
        assert rep.records[0].variance == var


@pytest.mark.parametrize("name, config", [
    ("sim_2", RunConfig(leaf=ArHyperParams(2), thresholds=(-0.5, 0.5), depth=4)),
    ("arch_sim", RunConfig(leaf=ArchConfig(2), thresholds=(0.0,), depth=3)),
], ids=["ar", "arch"])
def test_reports_and_documents_read_one_map_tree(monkeypatch, name, config):
    # the report and the fit document build the MAP tree once and read its posterior, tree and leaves off it
    series = generate(builtin_specs()[name].spec, 300, seed=6)
    fitted = fit_series(series, config.make_model(), config.quantizer(), config.depth, config.beta)
    doc = sio.model_document(fitted, config)
    assert doc["map_posterior"].hex() == fitted.map_posterior().hex()
    assert doc["tree"] == sio.tree_to_doc(fitted.map_tree(), fitted.leaf_parameters())
    fits = []
    monkeypatch.setattr(forecasting, "fit_series", lambda *args: fits.append(fit_series(*args)) or fits[-1])
    rep = rolling_forecast(series, config, train_len=250)
    (walked,) = fits
    assert rep.map_posterior.hex() == walked.map_posterior().hex()
    assert rep.map_tree == walked.map_tree()
    assert rep.leaf_params == {context_label(k): v for k, v in walked.leaf_parameters().items()}
