"""End-to-end command-line checks driven through main()."""

import argparse
import csv
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctreemix
from ctreemix import ArLeaf, GenerativeSpec, Quantizer, TreeModel, builtin_specs, generate
from ctreemix import cli
from ctreemix import io as sio
from ctreemix.cli import _train_len, build_parser, main


def run(args):
    return main(args)


def too_short(n, need):
    """The error line of a training series of n samples, no longer than an initial segment of need samples."""
    return (f"error: training series of length {n} is {'shorter' if n < need else 'no longer'} than the initial "
            f"segment of {need} samples (max of depth and largest order), so none is scored\n")


def simulate_csv(tmp_path, name="sim_1", n=None, seed=7):
    out = tmp_path / f"{name}.csv"
    args = ["simulate", "--name", name, "--seed", str(seed), "-o", str(out)]
    if n is not None:
        args += ["--n", str(n)]
    assert run(args) == 0
    return out


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["simulate", "--name", "sim_1", "--seed", "7", "-o", str(a)]) == 0
    assert run(["simulate", "--name", "sim_1", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unknown_name(tmp_path, capsys):
    assert run(["simulate", "--name", "nope", "-o", str(tmp_path / "x.csv")]) == 1
    assert "unknown spec" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [["--name", "sim_1", "--spec", "spec.json"], []], ids=["both", "neither"])
def test_simulate_needs_exactly_one_source(tmp_path, capsys, sources):
    out = tmp_path / "x.csv"
    assert run(["simulate", *sources, "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: give exactly one of --name or --spec\n"
    assert not out.exists()


@pytest.mark.parametrize("name, rows", [("sim_1", 302), ("sim_3", 305), ("arch_sim", 302)])
def test_simulate_writes_n_rows_after_the_initial_segment(tmp_path, capsys, name, rows):
    assert rows == 300 + builtin_specs()[name].spec.init_len
    with open(simulate_csv(tmp_path, name=name, n=300)) as fh:
        assert len(fh.read().splitlines()) == rows + 1  # the header
    assert run(["simulate", "--name", name, "--n", "300"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1


def test_fit_recovers_structure(tmp_path):
    data = simulate_csv(tmp_path, n=1000, seed=3)
    out = tmp_path / "model.json"
    assert run([
        "fit", str(data), "--model", "ar", "--thresholds", "0",
        "--order", "2", "--depth", "10", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    leaves = []

    def walk(node):
        if "children" in node:
            for c in node["children"]:
                walk(c)
        else:
            leaves.append(tuple(node["context"]))

    walk(doc["tree"])
    assert sorted(leaves) == [(0, 0), (0, 1), (1,)]
    assert doc["map_posterior"] >= 0.99


def test_forecast_from_model_matches_end_to_end(tmp_path):
    data = simulate_csv(tmp_path, n=400, seed=5)
    model_doc = tmp_path / "m.json"
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    common = ["--model", "ar", "--auto-thresholds", "--max-order", "3", "--depth", "6"]
    assert run(["fit", str(data), *common, "--split", "0.5", "-o", str(model_doc)]) == 0
    assert run(["forecast", str(data), *common, "--split", "0.5", "-o", str(rep_a)]) == 0
    assert run([
        "forecast", str(data), "--from-model", str(model_doc), "--split", "0.5", "-o", str(rep_b),
    ]) == 0
    a = json.loads(rep_a.read_text())
    b = json.loads(rep_b.read_text())
    assert a["mse"] == b["mse"]
    assert a["cumulative_log_loss"] == b["cumulative_log_loss"]
    assert a["thresholds"] == b["thresholds"] and a["order"] == b["order"]


def test_forecast_from_arch_model_document(tmp_path):
    # an ARCH fit document stores "prior": null
    data = simulate_csv(tmp_path, name="arch_sim", n=300, seed=4)
    model_doc = tmp_path / "m.json"
    rep = tmp_path / "rep.json"
    assert run([
        "fit", str(data), "--model", "arch", "--thresholds", "0", "--order", "2",
        "--split", "0.5", "-o", str(model_doc),
    ]) == 0
    assert json.loads(model_doc.read_text())["prior"] is None
    assert run([
        "forecast", str(data), "--from-model", str(model_doc), "--split", "0.5", "-o", str(rep),
    ]) == 0
    doc = json.loads(rep.read_text())
    assert doc["order"] == 2 and doc["test_len"] > 0


def test_forecast_from_model_keeps_zero_fisher_iters(tmp_path):
    data = simulate_csv(tmp_path, name="arch_sim", n=600, seed=3)
    flags = ["--model", "arch", "--thresholds", "0", "--order", "2", "--fisher-iters", "0", "--split", "0.5"]
    model_doc = tmp_path / "m.json"
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    assert run(["fit", str(data), *flags, "-o", str(model_doc)]) == 0
    assert json.loads(model_doc.read_text())["fisher_iters"] == 0
    assert run(["forecast", str(data), *flags, "-o", str(rep_a)]) == 0
    assert run(["forecast", str(data), "--from-model", str(model_doc), "--split", "0.5", "-o", str(rep_b)]) == 0
    assert rep_a.read_text() == rep_b.read_text()


def test_forecast_from_model_rejects_model_flags(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=300, seed=3)
    model_doc = tmp_path / "m.json"
    assert run(["fit", str(data), "--thresholds", "0", "--order", "2", "-o", str(model_doc)]) == 0
    for flags, named in [
        (["--order", "5", "--thresholds", "0.7"], "--order, --thresholds"),
        (["--model", "arch"], "--model"),
        (["--depth", "4"], "--depth"),
        (["--max-order", "3"], "--max-order"),
        (["--beta", "0.6"], "--beta"),
        (["--alphabet", "3"], "--alphabet"),
        (["--auto-thresholds"], "--auto-thresholds"),
        (["--grid-points", "5"], "--grid-points"),
        (["--threshold-candidates=0;0.1"], "--threshold-candidates"),
        (["--intercept"], "--intercept"),
        (["--fisher-iters", "10"], "--fisher-iters"),
    ]:
        assert run(["forecast", str(data), "--from-model", str(model_doc), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named} cannot be combined with --from-model")
    # data flags, and model flags left at their defaults, stay allowed
    rep = tmp_path / "rep.json"
    assert run([
        "forecast", str(data), "--from-model", str(model_doc), "--model", "ar", "--max-order", "5",
        "--split", "0.6", "--transform", "none", "--column", "value", "--seed", "2", "-o", str(rep),
    ]) == 0
    assert json.loads(rep.read_text())["order"] == 2


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "m.json: model document is not a JSON object"),
    ('{"model": "ar"}', "m.json: model document field 'quantizer.thresholds' is missing"),
    ('{"model": "ar" "order": 2}', "m.json: Expecting ',' delimiter: line 1 column 16 (char 15)"),
], ids=["list", "no-quantizer", "not-json"])
def test_forecast_rejects_malformed_model_document(tmp_path, capsys, text, message):
    data = simulate_csv(tmp_path, n=120, seed=9)
    model_doc = tmp_path / "m.json"
    model_doc.write_text(text)
    assert run(["forecast", str(data), "--from-model", str(model_doc), "--split", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_forecast_writes_records(tmp_path):
    data = simulate_csv(tmp_path, n=200, seed=6)
    rep = tmp_path / "rep.json"
    rec = tmp_path / "rec.csv"
    assert run([
        "forecast", str(data), "--model", "ar", "--thresholds", "0", "--order", "2",
        "--depth", "5", "--split", "0.5", "-o", str(rep), "--records", str(rec),
    ]) == 0
    doc = json.loads(rep.read_text())
    lines = rec.read_text().strip().splitlines()
    assert lines[0] == ",".join(sio.REPORT_CSV_COLUMNS)
    assert len(lines) - 1 == doc["test_len"]


def test_evidence_grid_finds_truth(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=600, seed=0)
    out = tmp_path / "grid.csv"
    assert run([
        "evidence-grid", str(data), "--model", "ar", "--depth", "10",
        "--threshold-candidates=-0.1;-0.05;0;0.05;0.1", "--max-order", "5",
        "-o", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "thresholds=[0.0] order=2" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "thresholds,order,log_evidence,neg_log2_evidence,error"
    assert len(lines) == 1 + 25


def test_failed_grid_cell_reports_its_error(tmp_path):
    # only order 3 takes x[0] as a lag of the first scored sample, and its square overflows float64
    x = np.random.default_rng(0).normal(size=60)
    x[0] = 1e200
    data = tmp_path / "spike.csv"
    sio.write_series_csv(x, str(data))
    flags = ["--thresholds", "0", "--depth", "3", "--max-order", "3"]
    grid, model = tmp_path / "grid.csv", tmp_path / "model.json"
    assert run(["evidence-grid", str(data), *flags, "-o", str(grid)]) == 0
    with open(grid, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = "log evidence is nan: the series overflows float64 in the fit; rescale it"
    assert [row["order"] for row in rows] == ["1", "2", "3"]
    assert [row["error"] for row in rows] == ["", "", failed]
    assert rows[-1]["log_evidence"] == "-inf" and rows[-1]["neg_log2_evidence"] == ""
    assert all(float(row["log_evidence"]) < 0.0 for row in rows[:-1])
    assert run(["fit", str(data), *flags, "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert [cell["error"] for cell in doc["selection"]] == [None, None, failed]
    assert all(isinstance(cell["log_evidence"], float) for cell in doc["selection"][:-1])
    assert doc["selection"][-1]["log_evidence"] is None and doc["order"] in (1, 2)


@pytest.mark.parametrize("command, n, need", [
    pytest.param(["evidence-grid", "--max-order", "2"], 8, 10, id="evidence-grid"),
    pytest.param(["sample-trees", "--auto-thresholds"], 8, 10, id="sample-trees"),
    pytest.param(["fit", "--auto-thresholds"], 8, 10, id="fit"),
    # these series hold the smaller orders' initial segments, but no cell may score an empty series
    pytest.param(["evidence-grid", "--depth", "2", "--max-order", "13"], 12, 13, id="evidence-grid-12-of-13"),
    pytest.param(["sample-trees", "--auto-thresholds", "--depth", "2", "--max-order", "13"], 12, 13,
                 id="sample-trees-12-of-13"),
    pytest.param(["fit", "--auto-thresholds", "--depth", "2", "--max-order", "13"], 12, 13, id="fit-12-of-13"),
    pytest.param(["evidence-grid", "--depth", "2", "--max-order", "45"], 40, 45, id="evidence-grid-40-of-45"),
    pytest.param(["sample-trees", "--auto-thresholds", "--depth", "2", "--max-order", "45"], 40, 45,
                 id="sample-trees-40-of-45"),
    pytest.param(["fit", "--auto-thresholds", "--depth", "2", "--max-order", "45"], 40, 45, id="fit-40-of-45"),
])
def test_series_shorter_than_every_initial_segment_fails_before_the_grid(tmp_path, capsys, command, n, need):
    data = tmp_path / "short.csv"
    sio.write_series_csv(np.random.default_rng(0).normal(size=n), str(data))
    out = tmp_path / "out"
    assert run([command[0], str(data), *command[1:], "--grid-points", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err == too_short(n, need)
    assert not out.exists()


def test_a_short_series_fits_every_cell_at_depth_one(tmp_path):
    data = tmp_path / "short.csv"
    sio.write_series_csv(np.random.default_rng(0).normal(size=8), str(data))
    out = tmp_path / "grid.csv"
    assert run(["evidence-grid", str(data), "--max-order", "2", "--grid-points", "3", "--depth", "1",
                "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 and all(row["error"] == "" for row in rows)  # 3 thresholds by 2 orders


def test_sample_trees_frequencies(tmp_path):
    data = simulate_csv(tmp_path, n=500, seed=2)
    out = tmp_path / "trees.json"
    assert run([
        "sample-trees", str(data), "--model", "ar", "--thresholds", "0", "--order", "2",
        "--depth", "6", "--count", "500", "--seed", "1", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["samples"] == 500
    assert sum(t["count"] for t in doc["trees"]) == 500
    top = doc["trees"][0]
    assert top["frequency"] == pytest.approx(top["count"] / 500)
    assert 0.0 <= top["posterior"] <= 1.0 + 1e-9


def test_usage_errors(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=120, seed=9)
    # threshold count inconsistent with alphabet size
    assert run([
        "fit", str(data), "--thresholds", "0,1", "--order", "2", "--alphabet", "2",
    ]) == 1
    assert "exactly 1" in capsys.readouterr().err
    # explicit and automatic thresholds are mutually exclusive
    assert run([
        "fit", str(data), "--thresholds", "0", "--auto-thresholds", "--order", "2",
    ]) == 1
    # neither given
    assert run(["fit", str(data), "--order", "2"]) == 1
    # unknown subcommand exits with argparse usage failure
    with pytest.raises(SystemExit):
        run(["frobnicate"])


@pytest.mark.parametrize("args, message", [
    (["evidence-grid", "--alphabet", "2", "--threshold-candidates=0;-0.5,0.5"], "[-0.5, 0.5] needs exactly 1"),
    (["fit", "--alphabet", "3", "--auto-thresholds", "--threshold-candidates=-0.5,0.5;0"], "[0.0] needs exactly 2"),
    (["fit", "--model", "arch", "--intercept", "--thresholds", "0", "--order", "2"],
     "--intercept cannot be combined with --model arch"),
    (["fit", "--model", "ar", "--fisher-iters", "3", "--thresholds", "0", "--order", "2"],
     "--fisher-iters cannot be combined with --model ar"),
    (["sample-trees", "--thresholds", "0", "--order", "2", "--count", "-3"], "--count must be at least 1"),
    (["sample-trees", "--thresholds", "0", "--order", "2", "--count", "0"], "--count must be at least 1"),
    (["evidence-grid", "--thresholds", "0", "--threshold-candidates=0.5;1"],
     "--threshold-candidates cannot be combined with --thresholds"),
    (["evidence-grid", "--threshold-candidates="], "candidate sets must be nonempty"),
    (["forecast", "--thresholds", "0", "--order", "2", "--split", "0.5", "--test-last", "10"],
     "--test-last cannot be combined with --split"),
], ids=["grid-alphabet", "auto-alphabet", "arch-intercept", "ar-fisher-iters", "count-negative", "count-zero",
        "thresholds-and-candidates", "empty-candidates", "split-and-test-last"])
def test_rejected_configurations(tmp_path, capsys, args, message):
    data = simulate_csv(tmp_path, n=120, seed=9)
    assert run([args[0], str(data), *args[1:]]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("max_order", ["0", "-2"])
def test_evidence_grid_rejects_a_largest_order_below_one(tmp_path, capsys, max_order):
    data = simulate_csv(tmp_path, n=120, seed=9)
    out = tmp_path / "grid.csv"
    assert run(["evidence-grid", str(data), "--max-order", max_order, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --max-order {max_order} is below 1, so no order is left to search\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--thresholds", "0", "--order", "2"],
    ["fit", "--auto-thresholds", "--order", "2"],
    ["evidence-grid", "--threshold-candidates=0;0.5", "--max-order", "2"],
], ids=["fit", "auto", "grid"])
def test_alphabet_below_two_is_named(tmp_path, capsys, args):
    data = simulate_csv(tmp_path, n=120, seed=9)
    assert run([args[0], str(data), "--alphabet", "1", *args[1:]]) == 1
    assert capsys.readouterr().err == "error: alphabet size must be >= 2\n"


@pytest.mark.parametrize("points, message", [
    ("4", "the training series gave 1 distinct percentile value(s), fewer than the 2 threshold(s) that --alphabet 3 "
          "needs; give them with --thresholds or --threshold-candidates"),
    ("0", "--grid-points 0 gives fewer percentile points than the 2 threshold(s) that --alphabet 3 needs; "
          "raise --grid-points"),
], ids=["collapsed-grid", "too-few-points"])
def test_percentile_grid_smaller_than_the_alphabet(tmp_path, capsys, points, message):
    data = tmp_path / "const.csv"
    sio.write_series_csv(np.full(300, 2.5), str(data))
    assert run(["evidence-grid", str(data), "--alphabet", "3", "--grid-points", points]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_threshold_candidate_is_an_error(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=300, seed=3)
    out = tmp_path / "grid.csv"
    args = ["evidence-grid", str(data), "--depth", "4", "--threshold-candidates=0;0;0.1", "--max-order", "2"]
    assert run(args + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: threshold candidate [0.0] is given more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evidence-grid"])
def test_overflowing_series_fails_with_one_error_line(tmp_path, capsys, command):
    data = tmp_path / "huge.csv"
    sio.write_series_csv(np.random.default_rng(0).normal(size=300) * 1e200, str(data))
    out = tmp_path / "out"
    assert run([command, str(data), "--thresholds", "0", "--order", "2", "--depth", "3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err
    assert not out.exists()


AR_SPEC_DOC = {
    "kind": "ar",
    "thresholds": [0.0],
    "leaves": [
        {"context": [0], "phi": [0.3], "sigma2": 0.2},
        {"context": [1], "phi": [-0.3], "sigma2": 0.1},
    ],
    "burn_in": 10,
}
ARCH_SPEC_DOC = {  # builtin arch_sim
    "kind": "arch",
    "thresholds": [0.0],
    "leaves": [{"context": [0], "alpha": [0.1, 0.2, 0.2]}, {"context": [1], "alpha": [0.1, 0.2, 0.0]}],
}


@pytest.mark.parametrize("doc, spec", [
    (AR_SPEC_DOC, GenerativeSpec(tree=TreeModel(2, ((0,), (1,))), quantizer=Quantizer((0.0,)),
                                 leaf_params={(0,): ArLeaf(phi=(0.3,), sigma2=0.2),
                                              (1,): ArLeaf(phi=(-0.3,), sigma2=0.1)}, burn_in=10)),
    (ARCH_SPEC_DOC, builtin_specs()["arch_sim"].spec),
], ids=["ar", "arch"])
def test_spec_file_simulation(tmp_path, doc, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--spec", str(spec_path), "--n", "50", "--seed", "4", "-o", str(out)]) == 0
    values = sio.ingest_csv(str(out))
    assert len(values) == 50 + spec.order  # includes the initial-context samples
    assert values.tolist() == generate(spec, 50, seed=4).tolist()


AR_LEAF = {"context": [0], "phi": [0.3], "sigma2": 0.2}


@pytest.mark.parametrize("spec, message", [
    ([AR_LEAF], "spec document is not a JSON object"),
    ({"kind": "ar", "thresholds": 0, "leaves": [AR_LEAF]}, "spec field 'thresholds' is missing or malformed"),
    ({"kind": "ar", "thresholds": [0.0], "leaves": [AR_LEAF, {"context": [1], "phi": [-0.3]}]},
     "spec leaf 1 field 'sigma2' is missing or malformed"),
    ({"kind": "ar", "thresholds": [0.0], "leaves": [{**AR_LEAF, "phi": ["0.3"]}]},
     "spec leaf 0 field 'phi' is missing or malformed"),
    ({"kind": "ar", "thresholds": [0.0], "leaves": [{**AR_LEAF, "context": 0}]},
     "spec leaf 0 field 'context' is missing or malformed"),
    ({"kind": "ar", "thresholds": [0.0], "leaves": [AR_LEAF, {**AR_LEAF, "context": [1]}, AR_LEAF]},
     "spec leaf 2 field 'context' repeats an earlier leaf's"),
    ({"kind": "ar", "thresholds": [0.0], "leaves": [{**AR_LEAF, "context": []}], "burn_in": -50},
     "burn_in must be >= 0"),
    ({"kind": "AR", "thresholds": [0.0], "leaves": [AR_LEAF]}, "spec field 'kind' is malformed: 'AR'"),
    ({**ARCH_SPEC_DOC, "leaves": [ARCH_SPEC_DOC["leaves"][0], {"context": [1]}]},
     "spec leaf 1 field 'alpha' is missing or malformed"),
    (b'{"kind": "ar", bad}', "Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
    (b'{"kind": "\xe9"}', "'utf-8' codec can't decode byte 0xe9 in position 10: invalid continuation byte"),
    ({**AR_SPEC_DOC, "init_scale": -1}, "init_scale must be finite and >= 0"),
    ({"kind": "ar", "thresholds": [0.0], "init_scale": 1e300, "leaves": [{**AR_LEAF, "phi": [2.0], "sigma2": 0.1},
                                                                      {"context": [1], "phi": [2.0], "sigma2": 0.1}]},
     "draw 31 leaves float64: the leaves' phi make the series explode"),
], ids=["list", "thresholds-number", "no-sigma2", "phi-string", "context-number", "repeated-context",
        "negative-burn-in", "kind-unknown", "arch-no-alpha", "not-json", "not-utf-8", "negative-init-scale",
        "explosive"])
def test_malformed_spec_file_fails_with_one_error_line(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    assert run(["simulate", "--spec", str(spec_path), "--n", "10", "-o", str(tmp_path / "sim.csv")]) == 1
    assert capsys.readouterr().err == f"error: {spec_path}: {message}\n"
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_rejects_a_negative_n(tmp_path, capsys):
    # a flag, so the error names the flag, not the spec file
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(AR_SPEC_DOC))
    for source in (["--name", "sim_1"], ["--spec", str(spec_path)]):
        assert run(["simulate", *source, "--n", "-1", "-o", str(tmp_path / "sim.csv")]) == 1
        assert capsys.readouterr().err == "error: --n must be >= 0, got -1\n"
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("doc, path, field", [
    (AR_SPEC_DOC, ("thresholds", 0), "spec field 'thresholds'"),
    (AR_SPEC_DOC, ("leaves", 0, "phi", 0), "spec leaf 0 field 'phi'"),
    (AR_SPEC_DOC, ("leaves", 1, "sigma2"), "spec leaf 1 field 'sigma2'"),
    (AR_SPEC_DOC, ("leaves", 0, "intercept"), "spec leaf 0 field 'intercept'"),
    (AR_SPEC_DOC, ("init_scale",), "spec field 'init_scale'"),
    (ARCH_SPEC_DOC, ("leaves", 1, "alpha", 2), "spec leaf 1 field 'alpha'"),
    ("fit", ("quantizer", "thresholds", 0), "model document field 'quantizer.thresholds'"),
    ("fit", ("beta",), "model document field 'beta'"),
    ("fit", ("prior", "tau"), "model document field 'prior.tau'"),
    ("fit", ("prior", "lam"), "model document field 'prior.lam'"),
], ids=["spec-thresholds", "spec-phi", "spec-sigma2", "spec-intercept", "spec-init-scale", "spec-alpha",
        "model-thresholds", "model-beta", "model-tau", "model-lam"])
def test_non_finite_number_in_a_document_fails_with_one_error_line(tmp_path, capsys, doc, path, field, value):
    # Python's json reads NaN, Infinity and -Infinity; a document field holding one is malformed
    data = simulate_csv(tmp_path, n=120, seed=9)
    if doc == "fit":
        model_doc = tmp_path / "m.json"
        assert run(["fit", str(data), "--thresholds", "0", "--order", "2", "--depth", "4", "-o", str(model_doc)]) == 0
        doc = json.loads(model_doc.read_text())
        command = ["forecast", str(data), "--from-model"]
    else:
        command = ["simulate", "--n", "10", "--spec"]
    doc = json.loads(json.dumps(doc))  # a deep copy
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([*command, str(doc_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {doc_path}: {field} is missing or malformed\n"
    assert not out.exists()


class TestSplit:
    """The one rule turning --split and --test-last into a training-prefix length."""

    @staticmethod
    def train_len(n, split=None, test_last=None):
        return _train_len(argparse.Namespace(split=split, test_last=test_last), n)

    def test_default_is_half(self):
        assert self.train_len(600) == 300

    def test_fraction_and_absolute(self):
        assert self.train_len(200, split=0.25) == 50
        assert self.train_len(200, split=120) == 120
        assert self.train_len(200, test_last=30) == 170

    def test_conflicting_or_degenerate(self):
        with pytest.raises(ValueError, match="--test-last cannot be combined with --split"):
            cli._check_flags(build_parser().parse_args(["forecast", "x.csv", "--split", "0.5", "--test-last", "50"]))
        with pytest.raises(ValueError, match="no usable"):
            self.train_len(100, split=100)
        with pytest.raises(ValueError, match="no usable"):
            self.train_len(100, test_last=100)
        # checked on the float, before int() would give the count's 301 digits
        with pytest.raises(ValueError, match=r"^--split 1e\+300 is more samples than the series has \(n=100\)$"):
            self.train_len(100, split=1e300)


@pytest.mark.parametrize("split", ["1.9", "300.5", "inf", "nan"])
def test_forecast_rejects_a_fractional_split_count(tmp_path, capsys, split):
    data = simulate_csv(tmp_path, n=600, seed=9)
    out = tmp_path / "report.json"
    assert run(["forecast", str(data), "--thresholds", "0", "--order", "2", "--split", split, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--split {split}" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--test-last", "0"], ["--split", "LEN"]], ids=["test-last-0", "split-all"])
def test_fit_may_train_on_the_whole_series(tmp_path, flags):
    data = simulate_csv(tmp_path, n=300, seed=9)
    n = len(sio.ingest_csv(str(data)))
    whole, split = tmp_path / "whole.json", tmp_path / "split.json"
    base = ["fit", str(data), "--thresholds", "0", "--order", "2", "--depth", "4"]
    assert run(base + ["-o", str(whole)]) == 0
    assert run(base + [f.replace("LEN", str(n)) for f in flags] + ["-o", str(split)]) == 0
    assert split.read_text() == whole.read_text()
    assert json.loads(split.read_text())["n_scored"] == n - 4


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [
        line.strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("ctreemix ")
    ]
    assert len(lines) >= 6
    for line in lines:
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        assert not any(set(tok) <= set(lexer.punctuation_chars) for tok in tokens), f"not one command: {line}"
        cli._check_flags(build_parser().parse_args(tokens[1:]))


def run_python(*args):
    """A fresh interpreter with this package on its path."""
    env = dict(os.environ)
    src = str(Path(ctreemix.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_module_entry_point_runs_the_cli():
    proc = run_python("-m", "ctreemix", "--help")
    assert proc.returncode == 0
    assert "evidence-grid" in proc.stdout


def test_import_needs_no_scipy():
    # numpy is the one runtime dependency; scipy is for the test oracles only
    proc = run_python("-c", "import sys, ctreemix; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command, flags, train, need", [
    ("fit", ["--thresholds", "0", "--order", "2", "--split", "3"], 3, 10),
    ("forecast", ["--thresholds", "0", "--order", "2", "--split", "5"], 5, 10),
    ("forecast", ["--thresholds", "0", "--depth", "2", "--max-order", "4", "--test-last", "N-3"], 3, 4),
], ids=["fit-split", "forecast-split", "forecast-test-last-grid"])
def test_training_prefix_shorter_than_the_initial_segment(tmp_path, capsys, command, flags, train, need):
    data = simulate_csv(tmp_path, n=600, seed=1)
    n = len(sio.ingest_csv(str(data)))
    flags = [str(n - 3) if f == "N-3" else f for f in flags]
    assert run([command, str(data), *flags, "-o", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == too_short(train, need)


@pytest.mark.parametrize("command, flags, need", [
    ("fit", ["--thresholds", "0", "--order", "2", "--split", "10"], 10),
    ("forecast", ["--thresholds", "0", "--depth", "2", "--max-order", "4", "--test-last", "N-4"], 4),
], ids=["fit-split", "forecast-test-last-grid"])
def test_training_prefix_of_exactly_the_initial_segment(tmp_path, capsys, command, flags, need):
    data = simulate_csv(tmp_path, n=600, seed=1)
    n = len(sio.ingest_csv(str(data)))
    flags = [str(n - need) if f == "N-4" else f for f in flags]
    assert run([command, str(data), *flags, "-o", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == too_short(need, need)


@pytest.mark.parametrize("command", ["evidence-grid", "sample-trees", "fit"])
def test_series_of_exactly_the_initial_segment_fails_before_the_grid(tmp_path, capsys, command):
    # every cell would score zero samples and report a log evidence of 0.0
    data = tmp_path / "short.csv"
    sio.write_series_csv(np.random.default_rng(0).normal(size=13), str(data))
    out = tmp_path / "out"
    assert run([command, str(data), "--thresholds", "0", "--depth", "2", "--max-order", "13", "-o", str(out)]) == 1
    assert capsys.readouterr().err == too_short(13, 13)
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "sample-trees"])
def test_fixed_config_series_of_exactly_the_initial_segment(tmp_path, capsys, command):
    # fixed --thresholds and --order run no grid, but the same rule
    data = tmp_path / "two.csv"
    sio.write_series_csv([0.5, -0.2], str(data))
    out = tmp_path / "out"
    assert run([command, str(data), "--thresholds", "0", "--order", "2", "--depth", "2", "-o", str(out)]) == 1
    assert capsys.readouterr().err == too_short(2, 2)
    assert not out.exists()


@pytest.mark.parametrize("split", [9, 10], ids=["shorter", "exactly"])
def test_from_model_training_prefix_no_longer_than_the_documents_initial_segment(tmp_path, capsys, split):
    data = simulate_csv(tmp_path, n=600, seed=1)
    doc, out = tmp_path / "model.json", tmp_path / "report.json"
    assert run(["fit", str(data), "--thresholds", "0", "--order", "2", "-o", str(doc)]) == 0  # depth 10
    assert run(["forecast", str(data), "--from-model", str(doc), "--split", str(split), "-o", str(out)]) == 1
    assert capsys.readouterr().err == too_short(split, 10)
    assert not out.exists()


@pytest.mark.parametrize("model, field, value, message", [
    ("ar", "order", 0, "AR order must be >= 1"),
    ("arch", "fisher_iters", -1, "fisher_iters must be >= 0"),
], ids=["ar-order", "arch-fisher-iters"])
def test_from_model_leaf_parameter_out_of_range_names_the_file(tmp_path, capsys, model, field, value, message):
    # from_document builds the leaf parameters, so their own check fails while the file is being read
    data = simulate_csv(tmp_path, name="arch_sim" if model == "arch" else "sim_1", n=120, seed=9)
    doc_path, out = tmp_path / "m.json", tmp_path / "out"
    assert run(["fit", str(data), "--model", model, "--thresholds", "0", "--order", "2", "--depth", "3",
                "-o", str(doc_path)]) == 0
    doc_path.write_text(json.dumps({**json.loads(doc_path.read_text()), field: value}))
    assert run(["forecast", str(data), "--from-model", str(doc_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {doc_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["evidence-grid", "--order", "0", "--grid-points", "3"], "AR order must be >= 1"),
    (["evidence-grid", "--beta", "1.5", "--grid-points", "3"], "beta must lie in (0, 1)"),
    (["evidence-grid", "--depth", "-1", "--grid-points", "3"], "depth must be >= 0"),
    (["evidence-grid", "--model", "arch", "--order", "-1", "--grid-points", "3"], "ARCH order must be >= 0"),
    (["fit", "--auto-thresholds", "--order", "0", "--grid-points", "3"], "AR order must be >= 1"),
    (["fit", "--thresholds", "0", "--order", "0"], "AR order must be >= 1"),  # fixed thresholds read no --grid-points
], ids=["grid-order", "grid-beta", "grid-depth", "grid-arch-order", "auto-order", "fixed-order"])
def test_run_level_errors_fail_as_themselves(tmp_path, capsys, args, message):
    # a flag that would fail every cell belongs to the run, not to one grid candidate
    data = simulate_csv(tmp_path, n=120, seed=9)
    out = tmp_path / "out"
    assert run([args[0], str(data), *args[1:], "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_library_warning_is_one_line(tmp_path, capsys):
    # every fit of the grid warns that beta < 1/2; the run writes the message once, on one line, and succeeds
    data = simulate_csv(tmp_path, n=120, seed=9)
    out = tmp_path / "grid.csv"
    assert run(["evidence-grid", str(data), "--thresholds", "0", "--depth", "2", "--max-order", "3",
                "--beta", "0.3", "-o", str(out)]) == 0
    assert re.fullmatch(r"warning: beta < 1/2: the pruned tree maximises the stated recursion but is not guaranteed "
                        r"to be the posterior mode\nselected thresholds=\[0\.0\] order=\d log_evidence=\S+\n",
                        capsys.readouterr().err)
    assert len(out.read_text().splitlines()) == 1 + 3


def test_a_warning_made_an_error_is_one_error_line(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=120, seed=9)
    out = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", str(data), *FIXED, "--depth", "4", "--beta", "0.3", "-o", str(out)]) == 1
    assert capsys.readouterr().err == ("error: beta < 1/2: the pruned tree maximises the stated recursion but is not "
                                       "guaranteed to be the posterior mode\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["evidence-grid", "--thresholds", "0", "--depth", "2", "--max-order", "2", "--beta", "1.5"],
    ["fit", "--thresholds", "0", "--order", "2", "--depth", "2", "--beta", "1.5"],
    ["evidence-grid", "--thresholds", "0", "--depth", "2", "--order", "0"],
    ["fit", "--thresholds", "0", "--order", "0", "--depth", "2"],
], ids=["grid", "fixed", "grid-order-0", "fixed-order-0"])
def test_the_length_rule_is_checked_before_the_run_level_flags(tmp_path, capsys, args):
    data = tmp_path / "two.csv"
    sio.write_series_csv([0.5, -0.2], str(data))
    out = tmp_path / "out"
    assert run([args[0], str(data), *args[1:], "-o", str(out)]) == 1
    assert capsys.readouterr().err == too_short(2, 2)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--name", "sim_1", "--n", "3"],
    ["fit", "DATA", "--thresholds", "0", "--order", "2"],
    ["evidence-grid", "DATA", "--grid-points", "3", "--max-order", "2"],
    ["sample-trees", "DATA", "--thresholds", "0", "--order", "2", "--count", "20"],
], ids=["simulate", "fit", "evidence-grid", "sample-trees"])
def test_stdout_bytes_equal_the_output_file(tmp_path, capsysbinary, args):
    args = [str(simulate_csv(tmp_path, n=120, seed=9)) if a == "DATA" else a for a in args]
    out = tmp_path / "out"
    assert run([*args, "-o", str(out)]) == 0
    capsysbinary.readouterr()
    assert run(args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_main_dispatches_to_the_current_command_binding(tmp_path, monkeypatch):
    data = simulate_csv(tmp_path, n=120, seed=9)  # an earlier main call: the parser is built
    seen = []
    monkeypatch.setattr(cli, "cmd_sample_trees", lambda args: seen.append(args.count) or 0)
    assert run(["sample-trees", str(data), "--thresholds", "0", "--order", "2", "--count", "3"]) == 0
    assert seen == [3]
    assert build_parser() is build_parser()


TEN_THRESHOLDS = "-0.9,-0.7,-0.5,-0.3,-0.1,0.1,0.3,0.5,0.7,0.9"
ABOVE_TEN = ("error: alphabet size 11 is above 10: leaf labels write one digit per symbol, so the contexts of a "
             "larger alphabet would share labels\n")


@pytest.mark.parametrize("args", [
    ["sample-trees", "--thresholds=" + TEN_THRESHOLDS, "--order", "1"],
    ["sample-trees", "--auto-thresholds", "--grid-points", "12"],
    ["forecast", "--thresholds=" + TEN_THRESHOLDS, "--order", "1"],
    ["forecast", "--auto-thresholds", "--grid-points", "12"],
], ids=["sample-trees", "sample-trees-grid", "forecast", "forecast-grid"])
def test_alphabet_above_ten_fails_before_any_fit(tmp_path, capsys, monkeypatch, args):
    data = simulate_csv(tmp_path, n=300, seed=9)
    for name in ("fit_series", "select_hyperparams"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("a model was fitted"))
    assert run([args[0], str(data), "--alphabet", "11", *args[1:]]) == 1
    assert capsys.readouterr().err == ABOVE_TEN


def test_alphabet_above_ten_fits_but_does_not_forecast(tmp_path, capsys):
    # a model document stores contexts as lists; a forecast report labels them
    data = simulate_csv(tmp_path, n=300, seed=9)
    doc = tmp_path / "model.json"
    assert run(["fit", str(data), "--alphabet", "11", "--thresholds=" + TEN_THRESHOLDS, "--order", "1",
                "--depth", "2", "-o", str(doc)]) == 0
    assert json.loads(doc.read_text())["quantizer"]["alphabet_size"] == 11
    assert run(["forecast", str(data), "--from-model", str(doc), "-o", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == ABOVE_TEN


FIXED = ["--thresholds", "0", "--order", "2"]


@pytest.mark.parametrize("args, message", [
    (["evidence-grid", "--thresholds", "0", "--auto-thresholds", "--grid-points", "50"],
     "--auto-thresholds, --grid-points cannot be combined with --thresholds"),
    (["fit", *FIXED, "--max-order", "9", "--grid-points", "3"], "--max-order cannot be combined with --order"),
    (["fit", "--thresholds", "0", "--grid-points", "3"], "--grid-points cannot be combined with --thresholds"),
    (["sample-trees", *FIXED, "--max-order", "1"], "--max-order cannot be combined with --order"),
    (["evidence-grid", "--seed", "7"], "--seed cannot be combined with evidence-grid"),
    (["evidence-grid", *FIXED, "--max-order", "9"], "--max-order cannot be combined with --order"),
    (["evidence-grid", "--auto-thresholds"], "--auto-thresholds cannot be combined with evidence-grid"),
    (["fit", "--auto-thresholds", "--threshold-candidates=0;0.1", "--grid-points", "5"],
     "--grid-points cannot be combined with --threshold-candidates"),
    (["fit", "--thresholds", "0", "--auto-thresholds"], "--auto-thresholds cannot be combined with --thresholds"),
    (["fit", "--order", "2"], "give exactly one of --thresholds or --auto-thresholds"),
    (["forecast", "--threshold-candidates=0;0.1"], "give exactly one of --thresholds or --auto-thresholds"),
    (["sample-trees", "--model", "arch", *FIXED, "--intercept", "--fisher-iters", "3"],
     "--intercept cannot be combined with --model arch"),
    (["evidence-grid", "--fisher-iters", "3"], "--fisher-iters cannot be combined with --model ar"),
    (["forecast", "--from-model", "m.json", "--seed", "3", "--grid-points", "3", "--split", "9", "--test-last", "3"],
     "--grid-points cannot be combined with --from-model"),
    (["forecast", "--split", "9", "--test-last", "3", "--seed", "2", *FIXED],
     "--test-last cannot be combined with --split"),
], ids=["grid-thresholds-auto", "fit-fixed-max-order", "fit-fixed-grid-points", "fixed-order-max-order", "grid-seed",
        "grid-fixed-order", "grid-auto", "candidates-grid-points", "fit-thresholds-auto", "fit-neither",
        "forecast-candidates-only", "arch-intercept", "ar-fisher-iters", "from-model-first", "split-test-last"])
def test_an_unread_flag_fails_before_the_input_is_read(tmp_path, capsys, args, message):
    # the input and the model document do not exist: the flags are checked before either is opened
    out = tmp_path / "out"
    assert run([args[0], str(tmp_path / "missing.csv"), *args[1:], "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_every_option_has_a_row_in_the_flag_table():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli._COMMANDS)
    for command in ("fit", "forecast", "sample-trees", "evidence-grid", "simulate"):
        for action in commands[command]._actions:
            if action.dest == "help":
                continue
            name = (action.option_strings or [action.dest])[0]
            assert name in cli._FLAGS, f"{command} {name} has no row"
            takers, unread, settings = cli._FLAGS[name]
            assert command in takers and action.default == settings.get("default"), f"{command} {name}"
            assert set(unread) <= {*cli._FLAGS, "--model ar", "--model arch", *cli._COMMANDS}, f"{name}: no such mode"


def test_flags_at_their_defaults_are_not_given(tmp_path):
    # the data flags, and every model flag at its default, pass the table in every mode that takes them
    data = simulate_csv(tmp_path, n=120, seed=9)
    defaults = ["--model", "ar", "--alphabet", "2", "--grid-points", "17", "--max-order", "5"]
    assert run(["fit", str(data), *FIXED, *defaults, "--seed", "3", "-o", str(tmp_path / "fit.json")]) == 0
    assert run(["evidence-grid", str(data), "--threshold-candidates=0", *defaults, "--seed", "0",
                "-o", str(tmp_path / "grid.csv")]) == 0
    assert run(["forecast", str(data), "--from-model", str(tmp_path / "fit.json"), *defaults, "--seed", "3",
                "--column", "value", "--transform", "none", "--split", "0.5", "-o", str(tmp_path / "rep.json")]) == 0


def test_the_flag_check_builds_no_parser(tmp_path, monkeypatch, capsys):
    build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: pytest.fail("a parser was built"))
    assert run(["simulate", "--name", "sim_1", "--n", "3", "-o", str(tmp_path / "x.csv")]) == 0
    assert run(["evidence-grid", str(tmp_path / "x.csv"), "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: --seed cannot be combined with evidence-grid\n"


UNOPENABLE = os.path.join("missing-dir", "out")


@pytest.mark.parametrize("args", [
    ["simulate", "--name", "sim_1", "--n", "20", "-o", UNOPENABLE],
    ["fit", "DATA", *FIXED, "-o", UNOPENABLE],
    ["sample-trees", "DATA", *FIXED, "--count", "5", "-o", UNOPENABLE],
    ["evidence-grid", "DATA", "--max-order", "2", "--grid-points", "3", "-o", UNOPENABLE],
    ["forecast", "DATA", *FIXED, "-o", UNOPENABLE],
    ["forecast", "DATA", *FIXED, "-o", "rep.json", "--records", UNOPENABLE],
    ["forecast", "DATA", *FIXED, "-o", UNOPENABLE, "--records", "rec.csv"],
    ["forecast", "DATA", *FIXED, "--records", UNOPENABLE],
], ids=["simulate", "fit", "sample-trees", "evidence-grid", "forecast", "forecast-records", "forecast-report",
        "forecast-records-stdout"])
def test_an_output_path_that_cannot_be_opened_leaves_no_output(tmp_path, capsys, monkeypatch, args):
    data = simulate_csv(tmp_path, n=120, seed=9)
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert run([str(data) if a == "DATA" else a for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and UNOPENABLE in err
    assert sorted(os.listdir(tmp_path)) == before


def test_a_failed_forecast_keeps_an_earlier_report(tmp_path, capsys):
    data = simulate_csv(tmp_path, n=120, seed=9)
    rep = tmp_path / "rep.json"
    rep.write_text("an earlier report\n")
    assert run(["forecast", str(data), *FIXED, "-o", str(rep), "--records", str(tmp_path / "no" / "rec.csv")]) == 1
    assert rep.read_text() == "an earlier report\n"


@pytest.mark.parametrize("records, earlier", [
    ("r.json", False), ("./r.json", False), ("sub/../r.json", False), ("link.json", False),
    ("./r.json", True), ("hard.json", True),
], ids=["same-name", "dot-slash", "dot-dot", "dangling-link", "existing", "hard-link"])
def test_two_outputs_naming_one_file_write_nothing(tmp_path, capsys, monkeypatch, records, earlier):
    data = simulate_csv(tmp_path, n=120, seed=9)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    os.symlink("r.json", "link.json")
    if earlier:
        (tmp_path / "r.json").write_text("an earlier report\n")
        os.link("r.json", "hard.json")
    before = sorted(os.listdir(tmp_path))
    assert run(["forecast", str(data), *FIXED, "-o", "r.json", "--records", records]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: two outputs name one file: r.json and {records}\n"
    assert sorted(os.listdir(tmp_path)) == before
    if earlier:
        assert (tmp_path / "r.json").read_text() == "an earlier report\n"
    # the flags are checked before the input is read
    assert run(["forecast", "missing.csv", *FIXED, "-o", "r.json", "--records", records]) == 1
    assert capsys.readouterr().err == f"error: two outputs name one file: r.json and {records}\n"


def test_the_readme_flag_table_is_the_clis():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("| Flag | Commands | Not read with |")[1].split("\n\n")[0]
    rows = re.findall(r"^\| (.+?) \| (.+?) \| (.+?) \|$", block, re.M)
    table = {}
    for flags, commands, unread in rows:
        takers = tuple(cli._COMMANDS) if commands == "every command" else tuple(commands.split(", "))
        modes = () if unread == "always read" else tuple(m.split(" (")[0].strip("`") for m in unread.split("; "))
        for flag in flags.split(", "):
            table[flag.split(" (")[0].strip("`")] = (set(takers), set(modes))
    assert table == {flag: (set(takers), set(modes)) for flag, (takers, modes, _) in cli._FLAGS.items()}


def test_the_readme_public_api_is_all():
    # the names README lists, by module and in order, are ctreemix.__all__, each the module's own object
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Public API\n")[1].split("\n## ")[0]
    listed = []
    for module, names in re.findall(r"^- `ctreemix\.(\w+)`: (.+)$", section, re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert getattr(importlib.import_module(f"ctreemix.{module}"), name) is getattr(ctreemix, name)
            listed.append(name)
    assert listed == ctreemix.__all__
