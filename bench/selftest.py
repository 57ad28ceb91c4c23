"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Every workload, untraced and traced, at smoke size: the last line has
   exactly the contract's keys, every metric of BENCHMARK.json is printed
   with its unit and a finite value, every check passes, and the traced spans
   cover most of the pass.
2. Corrupted outputs (an evidence value one ulp off, a non-finite variance, a
   sampled frequency far from its posterior, ...) trip the checks, so they
   would raise the error rate.
3. In a directory that holds only BENCHMARK.json and the benchmark, run.py
   exits with a non-zero code and prints no result.

Exits with 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COVERAGE = 0.9

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print("FAIL", message)


def scratch() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, where the benchmark keeps its files."""
    os.makedirs(ROOT / ".bench_work", exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".bench_work")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            name = w["name"]
            proc = run(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"], ROOT)
            expect(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: checks failed: {proc.stderr[-500:]}")
            metrics = result["metrics"]
            expect(set(metrics) == set(declared), f"{name} trace={trace}: metrics {sorted(set(metrics) ^ set(declared))}")
            for metric, unit in declared.items():
                got = metrics.get(metric, {})
                expect(got.get("unit") == unit, f"{name}: {metric} unit {got.get('unit')!r} != {unit!r}")
                value = got.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {metric} = {value!r}")
            if trace:
                coverage = metrics["trace.coverage"]["value"]
                expect(coverage >= MIN_COVERAGE, f"{name}: spans cover only {coverage:.2f} of the traced passes")


def test_corrupted_outputs_trip_checks() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    from workloads import WORKLOADS

    def corruptions(name: str, f: dict):
        """(description, corrupted facts) pairs for one workload."""
        if name == "ar_online":
            ev, pred = f["cold"]
            yield "evidence off by one ulp", dict(f, cold=(float(np.nextafter(ev, math.inf)), pred))
            yield "prediction differs", dict(f, cold=(ev, (pred[0] + 1e-12, pred[1])))
            yield "non-finite log density", dict(f, log_density=np.append(f["log_density"], -math.inf))
        elif name == "arch_online":
            yield "negative variance", dict(f, variances=np.append(f["variances"], -1.0))
            yield "NaN variance", dict(f, variances=np.append(f["variances"], math.nan))
        else:
            yield "sample-trees failed", dict(f, rc_trees=1)
            yield "missing grid cell", dict(f, cells=f["cells"][:-1])
            yield "-inf cell", dict(f, cells=f["cells"][:-1] + [-math.inf])
            yield "MAP frequency off", dict(f, map_count=0)

    with scratch() as tmp:
        for name, cls in WORKLOADS.items():
            wl = cls(5, tmp, smoke=True)
            facts = wl.facts(wl.run_pass())
            clean = wl.check(facts)
            expect(not clean.failures, f"{name}: clean outputs fail: {clean.failures[:3]}")
            for what, bad in corruptions(name, facts):
                c = wl.check(bad)
                expect(c.attempted >= 1 and len(c.failures) / c.attempted > 0,
                       f"{name}: {what} does not raise the error rate")


def test_bare_directory_fails() -> None:
    with scratch() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "ar_online", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        expect(proc.returncode != 0, f"bare directory: exit {proc.returncode}")
        expect('"metrics"' not in proc.stdout, "bare directory: a result was printed")


def main() -> int:
    test_smoke_runs()
    test_corrupted_outputs_trip_checks()
    test_bare_directory_fails()
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    print("selftest:", "OK" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
