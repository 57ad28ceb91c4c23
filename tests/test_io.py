import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ctreemix import Quantizer, TreeModel, builtin_specs, fit_series, generate
from ctreemix import io as sio
from ctreemix.forecasting import RunConfig

from helpers import small_ar_model, tree_from_doc


class TestIngest:
    def test_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1\n2\n3\n")
        assert sio.ingest_csv(str(p)).tolist() == [1.0, 2.0, 3.0]

    def test_header_and_named_column(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("date,value\n2020-01,1.5\n2020-02,2.5\n")
        assert sio.ingest_csv(str(p), "value").tolist() == [1.5, 2.5]
        assert sio.ingest_csv(str(p)).tolist() == [1.5, 2.5]  # default last column
        with pytest.raises(ValueError):
            sio.ingest_csv(str(p), "nope")

    def test_index_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,10\n2,20\n")
        assert sio.ingest_csv(str(p), 0).tolist() == [1.0, 2.0]

    def test_nan_row_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value\n1\nNaN\n3\n")
        with pytest.raises(ValueError, match="line 3"):
            sio.ingest_csv(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1\noops\n")
        with pytest.raises(ValueError, match="line 2"):
            sio.ingest_csv(str(p))

    @pytest.mark.parametrize("text, line", [
        ("value\n1.0\n\n2.0\nabc\n", 5),
        ("\n\nvalue\n1.0\n , \n\n2.0\nabc\n", 8),
        ("1.0\n\n\nabc\n3.0\n", 4),
    ], ids=["blank-row", "blank-rows-and-header", "no-header"])
    def test_blank_rows_keep_the_file_line(self, tmp_path, text, line):
        p = tmp_path / "blank.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=rf": line {line}: non-numeric value 'abc'$"):
            sio.ingest_csv(str(p))

    def test_blank_rows_are_skipped(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("value\n\n1.0\n  \n2.0\n\n")
        assert sio.ingest_csv(str(p)).tolist() == [1.0, 2.0]

    def test_missing_and_empty(self, tmp_path):
        with pytest.raises(OSError):
            sio.ingest_csv(str(tmp_path / "nope.csv"))
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            sio.ingest_csv(str(p))


    @pytest.mark.parametrize("text, column, match", [
        ("1,10\n2\n3,30\n", 1, r"line 2: no column 1$"),
        ("value\n", None, r"no data rows$"),
    ], ids=["column-past-a-row", "header-only"])
    def test_rejected_shapes(self, tmp_path, text, column, match):
        p = tmp_path / "g.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=match):
            sio.ingest_csv(str(p), column)


class TestTransforms:
    def test_diff(self):
        out, spec = sio.apply_transform([1.0, 2.0, 4.0], "diff")
        assert out.tolist() == [1.0, 2.0]
        assert spec.kind == "diff" and spec.first_value == 1.0

    def test_logdiff(self):
        out, _ = sio.apply_transform([1.0, math.e, math.e**2], "logdiff")
        assert np.allclose(out, [1.0, 1.0])

    def test_logret10(self):
        out, _ = sio.apply_transform([1.0, math.exp(0.1)], "logret10")
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_none_is_identity(self):
        out, spec = sio.apply_transform([3.0, 4.0], "none")
        assert out.tolist() == [3.0, 4.0] and spec.kind == "none"

    def test_errors(self):
        with pytest.raises(ValueError, match="index 1"):
            sio.apply_transform([1.0, -2.0, 3.0], "logdiff")
        with pytest.raises(ValueError):
            sio.apply_transform([1.0], "diff")
        with pytest.raises(ValueError):
            sio.apply_transform([1.0, 2.0], "sqrt")
        with pytest.raises(ValueError, match="^unknown transform 'sqrt'; choose from "):
            sio.TransformSpec("sqrt")


class TestDocuments:
    config = RunConfig(kind="ar", thresholds=(0.0,), order=2, depth=5, beta=0.5)

    def fitted(self):
        series = generate(builtin_specs()["sim_1"].spec, 300, seed=0)
        return fit_series(series, small_ar_model(2), Quantizer((0.0,)), 5, 0.5)

    def test_model_document_round_trip_is_byte_identical(self):
        doc = sio.model_document(self.fitted(), self.config, seed=3)
        text = sio.dumps_canonical(doc)
        again = sio.dumps_canonical(json.loads(text))
        assert text == again

    def test_tree_doc_round_trip(self):
        f = self.fitted()
        tree = f.map_tree()
        doc = sio.tree_to_doc(tree, f.leaf_parameters(tree))
        assert tree_from_doc(doc, 2) == tree

    def test_document_fields(self):
        doc = sio.model_document(self.fitted(), self.config, seed=11)
        assert doc["model"] == "ar"
        assert doc["quantizer"]["thresholds"] == [0.0]
        assert doc["order"] == 2 and doc["depth"] == 5
        assert doc["seed"] == 11
        assert 0.0 <= doc["map_posterior"] <= 1.0
        leaf = doc["tree"]
        while "children" in leaf:
            leaf = leaf["children"][0]
        assert set(leaf["leaf"]) == {"phi", "sigma2", "count"}

    @pytest.mark.parametrize("config", [
        RunConfig(kind="ar", thresholds=(-0.2, 0.3), order=2, depth=4, beta=0.6,
                  intercept=True, tau=2.0, lam=0.5),
        RunConfig(kind="arch", thresholds=(0.0,), order=2, depth=3, fisher_iters=0),
    ], ids=["ar", "arch"])
    def test_config_round_trip(self, config):
        series = generate(builtin_specs()["sim_1"].spec, 300, seed=0)
        fitted = fit_series(series, config.make_model(), config.quantizer(), config.depth, config.beta)
        text = sio.dumps_canonical(sio.model_document(fitted, config))
        # a beta left at None is stored as the value it resolved to
        assert RunConfig.from_document(json.loads(text)) == replace(config, beta=fitted.beta)

    @pytest.mark.parametrize("kind, knob, match", [
        ("arch", {"tau": 2.0}, "tau and lam apply to ar leaves only"),
        ("arch", {"lam": 0.5}, "tau and lam apply to ar leaves only"),
        ("ar", {"fisher_iters": 5}, "fisher_iters applies to arch leaves only"),
        ("arch", {"intercept": True}, "an intercept applies to ar leaves only"),
        ("garch", {}, "kind must be 'ar' or 'arch'"),
    ], ids=["arch-tau", "arch-lam", "ar-fisher-iters", "arch-intercept", "unknown-kind"])
    def test_config_rejects_the_other_familys_knobs(self, kind, knob, match):
        # to_document would write such a knob as null, so the round trip would lose it
        with pytest.raises(ValueError, match=match):
            RunConfig(kind=kind, thresholds=(0.0,), order=2, **knob)

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.pop("depth"), "'depth'"),
        (lambda d: d.pop("quantizer"), "'quantizer.thresholds'"),
        (lambda d: d.update(order="2"), "'order'"),
        (lambda d: d.update(intercept=1), "'intercept'"),
        (lambda d: d.update(prior=None), "'prior.tau'"),
        (lambda d: d.update(model="garch"), "'model'"),
        (lambda d: d["quantizer"].update(thresholds=["0"]), "'quantizer.thresholds'"),
        (lambda d: d.update(model="arch", fisher_iters=None), "'fisher_iters'"),
    ], ids=["no-depth", "no-quantizer", "order-str", "intercept-int", "ar-no-prior", "bad-model",
            "threshold-str", "arch-no-iters"])
    def test_config_from_malformed_document(self, edit, field):
        doc = json.loads(sio.dumps_canonical(sio.model_document(self.fitted(), self.config)))
        edit(doc)
        with pytest.raises(ValueError, match=field):
            RunConfig.from_document(doc)

    def test_records_csv(self, tmp_path):
        from ctreemix.forecasting import rolling_forecast

        series = generate(builtin_specs()["sim_1"].spec, 120, seed=1)
        rep = rolling_forecast(series, RunConfig(kind="ar", thresholds=(0.0,), order=2, depth=4))
        path = tmp_path / "records.csv"
        sio.write_records_csv(rep.records, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(sio.REPORT_CSV_COLUMNS)
        assert len(rows) == len(rep.records) + 1
        got = float(rows[1][1])
        assert got == rep.records[0].mean  # repr round-trips exactly
