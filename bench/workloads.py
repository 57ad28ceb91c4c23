"""The benchmark workloads: inputs made from a seed, one timed pass, output checks.

A workload is built once per process from the workload seed, which generates
(and for the CLI workload writes) its inputs; the program only ever sees those
series or CSV files.  Then it runs passes.  A pass is one complete
user-visible job on one input; ``run_pass(i)`` times it on input ``i`` and
returns a ``Pass``.  A workload with several inputs has its passes cycle
through them.  Outside the timed
(and traced) region, ``facts`` turns the pass result into plain values, which
may need a reference computation such as a cold refit, and the pure function
``check`` verifies them.

Why these three (README.md has the layer map):

* ``ar_online``: the per-step incremental AR path: predict, ingest one sample,
  refresh the D+1 path nodes, extract the MAP tree.
* ``arch_online``: the same online API with ARCH leaves, where per-node Fisher
  scoring dominates and no AR code runs: the control for AR changes.
* ``cli_grid_sample``: many small ternary fits through the CLI evidence grid,
  then posterior tree sampling from a spread posterior.  Batch ingest is a
  large share of it.  The only workload that enters ``cli``, ``io`` and
  ``selection``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import ctreemix as cm
from ctreemix import cli

@dataclass
class Pass:
    """One timed pass: wall time, user-visible figures and what its checks need."""

    seconds: float
    figures: dict
    result: object  # turned into checkable values by the workload's ``facts``
    step_s: list = field(default_factory=list)  # per-step latencies, online workloads only
    counts: dict = field(default_factory=dict)  # per-layer counts read from public state
    input: int = 0  # which of the workload's inputs the pass ran on


@dataclass
class Check:
    """Outcome of the output checks of one pass."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _generate(name: str, n: int, seed: int) -> tuple[np.ndarray, float]:
    t0 = perf_counter()
    x = cm.generate(cm.builtin_specs()[name].spec, n, seed)[:n]
    return x, perf_counter() - t0


class _Online:
    """Fit on the first half, then predict_next() and update(x) for every later sample."""

    depth = 0
    inputs = 1

    def __init__(self, x: np.ndarray, model, quantizer: cm.Quantizer):
        self.x = x
        self.half = len(x) // 2
        self.model = model
        self.quantizer = quantizer

    def _run(self, x: np.ndarray):
        t0 = perf_counter()
        fitted = cm.fit_series(x[: self.half], self.model, self.quantizer, self.depth)
        means, variances, step_s = [], [], []
        for v in x[self.half:]:
            s = perf_counter()
            mean, var = fitted.predict_next()
            fitted.update(float(v))
            step_s.append(perf_counter() - s)
            means.append(mean)
            variances.append(var)
        return perf_counter() - t0, fitted, np.array(means, float), np.array(variances, float), step_s

    def warm_up(self) -> None:
        self._run(self.x[: self.half + self.half // 10])

    def run_pass(self, i: int = 0) -> Pass:
        seconds, fitted, means, variances, step_s = self._run(self.x)
        realised = self.x[self.half:]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_density = -0.5 * (np.log(2.0 * np.pi * variances) + (realised - means) ** 2 / variances)
        figures = {
            "steps_per_s": len(step_s) / sum(step_s),
            "log_loss_per_step": float(-np.mean(log_density)),
            "mse": float(np.mean((realised - means) ** 2)),
        }
        return Pass(seconds, figures, (fitted, variances, log_density), step_s, self._counts(fitted))

    def _counts(self, fitted) -> dict:
        return {}


class ArOnline(_Online):
    """sim_1, n=5000, AR(2) leaves, D=10: 2500 online steps after fitting the first half."""

    name = "ar_online"
    depth = 10

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        x, self.generate_s = _generate("sim_1", 1000 if smoke else 5000, seed)
        super().__init__(x, cm.ArModel(cm.ArHyperParams(order=2)), cm.Quantizer((0.0,)))

    def facts(self, p: Pass) -> dict:
        fitted, _, log_density = p.result
        cold = cm.fit_series(self.x, self.model, self.quantizer, self.depth)
        return {
            "log_density": log_density,
            "online": (fitted.log_evidence(), fitted.predict_next()),
            "cold": (cold.log_evidence(), cold.predict_next()),
        }

    @staticmethod
    def check(f: dict) -> Check:
        c = Check()
        for i, v in enumerate(f["log_density"]):
            c.expect(math.isfinite(v), f"step {i}: log density {v} not finite")
        # A cold refit on the whole prefix must reproduce the online state bit for bit.
        (ev_online, pred_online), (ev_cold, pred_cold) = f["online"], f["cold"]
        c.expect(ev_online == ev_cold, f"online log evidence {ev_online!r} != cold refit {ev_cold!r}")
        c.expect(tuple(pred_online) == tuple(pred_cold),
                 f"online prediction {pred_online!r} != cold refit {pred_cold!r}")
        return c


class ArchOnline(_Online):
    """arch_sim, n=1000, ARCH(5) leaves, D=5: 500 online steps after fitting the first half."""

    name = "arch_online"
    depth = 5

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        x, self.generate_s = _generate("arch_sim", 400 if smoke else 1000, seed)
        super().__init__(x, cm.ArchModel(cm.ArchConfig(order=5)), cm.Quantizer((0.0,)))

    def _counts(self, fitted) -> dict:
        return {"arch.flagged_nodes": sum(node.state.flagged for _, node in fitted.trie.nodes())}

    def facts(self, p: Pass) -> dict:
        return {"variances": p.result[1]}

    @staticmethod
    def check(f: dict) -> Check:
        c = Check()
        for i, v in enumerate(f["variances"]):
            c.expect(math.isfinite(v) and v > 0.0, f"step {i}: predictive variance {v} is not finite and > 0")
        return c


class CliGridSample:
    """Ternary sim_2 as CSV, n=2000: ``evidence-grid`` over 18 cells, then 1000 draws of ``sample-trees``.

    The grid spans 4 percentile points (6 threshold pairs) and orders 1..3;
    ``sample-trees`` runs at the cell the grid selects.  The cost of a pass
    depends on the series: between seeds, the grid's trees differ by up to 30%
    in nodes and the draws two- to four-fold in time, because the posterior is
    more or less spread.  So the seed makes 8 series and the passes cycle
    through them; the draws are kept a small share of the pass.
    """

    name = "cli_grid_sample"
    max_order = 3
    inputs = 8

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.xs, self.generate_s = [], 0.0
        self.csvs = [os.path.join(workdir, f"series{i}.csv") for i in range(self.inputs)]
        for i, path in enumerate(self.csvs):
            x, generate_s = _generate("sim_2", 300 if smoke else 2000, seed * self.inputs + i)
            self.xs.append(x)
            self.generate_s += generate_s
            cm.io.write_series_csv(x, path)
        self.grid_points = 3 if smoke else 4
        self.draws = 1000
        self.grid_csv = os.path.join(workdir, "grid.csv")
        self.trees_json = os.path.join(workdir, "trees.json")

    def _commands(self, i: int, grid_points: int, draws: int):
        """Both commands on input i, timed one by one; the selected cell is read from the grid CSV between them."""
        with contextlib.redirect_stderr(io.StringIO()):  # evidence-grid reports its choice on stderr
            t0 = perf_counter()
            rc_grid = cli.main(["evidence-grid", self.csvs[i], "--alphabet", "3", "--grid-points", str(grid_points),
                                "--max-order", str(self.max_order), "-o", self.grid_csv])
            grid_s = perf_counter() - t0
            if rc_grid != 0:
                raise RuntimeError(f"evidence-grid exited with {rc_grid}")
            cells = _read_grid(self.grid_csv)
            thresholds, order, _ = max(cells, key=lambda c: c[2])  # first maximum, as the CLI selects
            t0 = perf_counter()
            rc_trees = cli.main(["sample-trees", self.csvs[i], "--alphabet", "3",
                                 "--thresholds=" + ",".join(map(repr, thresholds)), "--order", str(order),
                                 "--count", str(draws), "--seed", str(self.seed), "-o", self.trees_json])
            trees_s = perf_counter() - t0
        return grid_s, trees_s, cells, (thresholds, order), rc_trees

    def warm_up(self) -> None:
        self._commands(0, 3, 1000)

    def run_pass(self, i: int = 0) -> Pass:
        grid_s, trees_s, cells, selected, rc_trees = self._commands(i, self.grid_points, self.draws)
        figures = {"grid_cells_per_s": len(cells) / grid_s, "trees_per_s": self.draws / trees_s}
        counts = {"io.bytes_written": os.path.getsize(self.grid_csv) + os.path.getsize(self.trees_json)}
        return Pass(grid_s + trees_s, figures, (cells, selected, rc_trees), counts=counts, input=i)

    def facts(self, p: Pass) -> dict:
        cells, (thresholds, order), rc_trees = p.result
        trees = []
        if rc_trees == 0:
            with open(self.trees_json) as fh:
                trees = json.load(fh)["trees"]
        exact = cm.fit_series(self.xs[p.input], cm.ArModel(cm.ArHyperParams(order=order)), cm.Quantizer(thresholds), 10)
        map_leaves = {"".join(map(str, leaf)) for leaf in exact.map_tree().leaves}
        return {
            "rc_trees": rc_trees,
            "cells": [c[2] for c in cells],
            "expected_cells": math.comb(self.grid_points, 2) * self.max_order,
            "map_posterior": exact.map_posterior(),
            "map_count": sum(t["count"] for t in trees if set(t["leaves"]) == map_leaves),
            "draws": self.draws,
        }

    @staticmethod
    def check(f: dict) -> Check:
        c = Check()
        c.expect(f["rc_trees"] == 0, f"sample-trees exited with {f['rc_trees']}")
        cells = f["cells"]
        c.expect(len(cells) == f["expected_cells"], f"{len(cells)} grid cells, expected {f['expected_cells']}")
        c.expect(all(math.isfinite(v) for v in cells), "a grid cell has non-finite evidence")
        p, k = f["map_posterior"], f["draws"]
        four_se = 4.0 * math.sqrt(p * (1.0 - p) / k)
        freq = f["map_count"] / k
        c.expect(abs(freq - p) <= four_se,
                 f"MAP tree drawn with frequency {freq}, exact posterior {p}, 4 SE = {four_se:.4g}")
        return c


def _read_grid(path: str) -> list[tuple[tuple[float, ...], int, float]]:
    """(thresholds, order, log evidence) for every row of an evidence-grid CSV."""
    with open(path, newline="") as fh:
        return [
            (tuple(float(v) for v in row["thresholds"].split(";")), int(row["order"]), float(row["log_evidence"]))
            for row in csv.DictReader(fh)
        ]


WORKLOADS = {w.name: w for w in (ArOnline, ArchOnline, CliGridSample)}
