"""ctreemix benchmark: runs one workload in its own process and prints its metrics.

    python3 bench/run.py --workload ar_online --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 35

One workload: the last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` ones of BENCHMARK.json with ``--trace 0`` and the ``per_layer``
ones with ``--trace 1``.  The line before it holds the workload's detailed
figures and the host facts; in trace mode the aggregated span table goes to
standard error.  ``--all`` runs every workload untraced, each in its own
process, and prints one table of every metric with its unit.

The workload process gets one BLAS/OpenMP thread and a fixed hash seed, and
imports ctreemix from ``src/`` of this checkout.  Set-up (importing the
package, generating and writing the inputs) is timed in several fresh
processes, before and after the measuring one, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("ar_online", "arch_online", "cli_grid_sample")
SETUP_SAMPLES = 7  # fresh processes whose set-up time is measured, the measuring one included
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The figures a user reads from each workload, with their units; "--all" prints them.
DETAIL_UNITS = {
    "pass_s": "s",
    "ref_s": "s",
    "steps_per_s": "steps/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "grid_cells_per_s": "cells/s",
    "trees_per_s": "draws/s",
    "log_loss_per_step": "nats",
    "mse": "units^2",
    "error_rate": "failed/attempted",
}


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line; raise if it fails or overruns."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--workdir", str(WORKDIR)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Set-up samples, then the measuring process; returns the merged report."""
    deadline = perf_counter() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    # Half the set-up samples before the measuring process and half after it,
    # so that their median spans the run rather than the host's state at its start.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_worker(common + ["--setup-only"], deadline) for _ in range(before)]
    report = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(report)
    setups += [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1 - before)]
    if "metrics" not in report:
        raise RuntimeError(f"{name}: no pass completed ({report['failed']} failed)")
    setup_s = statistics.median(s["setup_s"] for s in setups)
    if trace:
        values = dict(report["layers"], **{"simulate.generate_s": statistics.median(s["generate_s"] for s in setups)})
    else:
        values = dict(report["metrics"], setup_s=setup_s)
    units = _declared()[trace]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    report["result"] = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    report["detail"].update(setup_s=setup_s, peak_rss_mb=report["metrics"]["peak_rss_mb"])
    return report


def _print_table(reports: dict) -> None:
    units = dict(_declared()[0], **DETAIL_UNITS)
    names = sorted(units)
    print(f"{'metric':<20} {'unit':<17}" + "".join(f" {w:>16}" for w in reports))
    for name in names:
        cells = []
        for r in reports.values():
            v = r["result"]["metrics"].get(name, {}).get("value", r["detail"].get(name))
            cells.append(f" {'n/a' if v is None else format(v, '.6g'):>16}")
        print(f"{name:<20} {units[name]:<17}" + "".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctreemix benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload untraced and print one table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctreemix" / "__init__.py").is_file():
        print(f"error: no ctreemix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.all:
            reports = {w: run_workload(w, args.seed, args.seconds, 0, args.smoke) for w in WORKLOADS}
            print(json.dumps({"host": reports[WORKLOADS[0]]["host"]}))
            _print_table(reports)
            return 0 if all(r["result"]["correct"] for r in reports.values()) else 1
        report = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORKDIR.rmdir()  # only succeeds once empty: each worker removes its own files
        except OSError:
            pass
    if args.trace:
        print(report["span_table"], file=sys.stderr)
    print(json.dumps({"workload": args.workload, "host": report["host"], "detail": report["detail"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
