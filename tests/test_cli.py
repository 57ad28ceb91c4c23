"""End-to-end command-line checks driven through main()."""

import json

import numpy as np
import pytest

from ctreemix import io as sio
from ctreemix.cli import main


def run(args):
    return main(args)


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
    ("[1, 2]", "not a JSON object"),
    ('{"model": "ar"}', "'quantizer.thresholds' is missing"),
], ids=["list", "no-quantizer"])
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
    assert lines[0] == "thresholds,order,log_evidence,neg_log2_evidence"
    assert len(lines) == 1 + 25


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
    (["fit", "--model", "arch", "--intercept", "--thresholds", "0", "--order", "2"], "ar leaves only"),
    (["fit", "--model", "ar", "--fisher-iters", "3", "--thresholds", "0", "--order", "2"], "arch leaves only"),
    (["sample-trees", "--thresholds", "0", "--order", "2", "--count", "-3"], "--count must be at least 1"),
    (["sample-trees", "--thresholds", "0", "--order", "2", "--count", "0"], "--count must be at least 1"),
], ids=["grid-alphabet", "auto-alphabet", "arch-intercept", "ar-fisher-iters", "count-negative", "count-zero"])
def test_rejected_configurations(tmp_path, capsys, args, message):
    data = simulate_csv(tmp_path, n=120, seed=9)
    assert run([args[0], str(data), *args[1:]]) == 1
    assert message in capsys.readouterr().err


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


def test_spec_file_simulation(tmp_path):
    spec = {
        "kind": "ar",
        "thresholds": [0.0],
        "leaves": [
            {"context": [0], "phi": [0.3], "sigma2": 0.2},
            {"context": [1], "phi": [-0.3], "sigma2": 0.1},
        ],
        "burn_in": 10,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--spec", str(spec_path), "--n", "50", "--seed", "4", "-o", str(out)]) == 0
    values = sio.ingest_csv(str(out))
    assert len(values) == 51  # includes one initial-context sample
