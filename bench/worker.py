"""One workload in one process: set up, warm up, time passes, check every output.

Started by run.py, which fixes the thread counts, the hash seed and the import
path.  Prints one JSON line.  With ``--setup-only`` it stops after set-up and
reports only the set-up time; run.py starts several such processes so that
set-up, which includes importing the package, is measured in fresh processes.

With ``--trace 1`` every second pass runs with the tracer installed: the
untraced passes give the base for ``trace.overhead_ratio`` and the traced ones
the per-layer figures.

After every pass, outside its timing, one burst of the reference computation
(reference.py) is timed; ``pass_rel`` is the mean pass time over the mean
burst time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from array import array
from time import perf_counter

from reference import burst_s

MAX_FAILURES_SHOWN = 5


def _median(values):
    return statistics.median(values) if values else None


def _quantile_ms(values, q: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, p) -> dict:
    """Per-layer figures of one traced pass: span times in seconds, counts from public state."""
    c = tracer.counts
    attempts = c["arch.fit_attempts"]
    return {
        "fit.ingest_s": tracer.self_s("fit.fit_series"),
        "fit.predict_next_s": tracer.inclusive_s("fit.predict_next"),
        "fit.update_s": tracer.inclusive_s("fit.update"),
        "quantizer.symbols_coded": c["quantizer.symbols_coded"],
        "tree.nodes": c["tree.nodes"],
        "tree.node_updates": c["tree.node_updates"],
        "tree.full_sweep_s": tracer.inclusive_s("tree.full_sweep"),
        "tree.combines": c["tree.combines"],
        "tree.refresh_path_s": tracer.inclusive_s("tree.refresh_path"),
        "tree.map_tree_s": tracer.inclusive_s("tree.map_tree"),
        "tree.sample_tree_s": tracer.inclusive_s("tree.sample_tree"),
        "tree.sample_tree_calls": tracer.calls("tree.sample_tree"),
        "tree.posterior_of_s": tracer.inclusive_s("tree.posterior_of"),
        "ar.log_pe_s": tracer.inclusive_s("ar.log_pe"),
        "ar.log_pe_calls": tracer.calls("ar.log_pe"),
        "ar.posterior_s": tracer.inclusive_s("ar.posterior"),
        "arch.fit_state_s": tracer.inclusive_s("arch.fit_state"),
        "arch.fit_state_calls": tracer.calls("arch.fit_state"),
        "arch.rows_scored": c["arch.rows_scored"],
        "arch.fisher_iters": c["arch.fisher_iters"],
        "arch.nonconverged_share": c["arch.nonconverged"] / attempts if attempts else 0.0,
        "arch.flagged_nodes": p.counts.get("arch.flagged_nodes", 0),
        "selection.select_s": tracer.inclusive_s("selection.select"),
        "selection.cells": c["selection.cells"],
        "selection.cells_failed": c["selection.cells_failed"],
        "io.ingest_csv_s": tracer.inclusive_s("io.ingest_csv"),
        "io.bytes_written": p.counts.get("io.bytes_written", 0),
        "cli.evidence_grid_s": tracer.inclusive_s("cli.evidence_grid"),
        "cli.sample_trees_s": tracer.inclusive_s("cli.sample_trees"),
        "trace.coverage": tracer.covered_s / p.seconds,
    }


def measure(wl, seconds: float, trace: bool) -> dict:
    """Warm up, then run passes until `seconds` have passed; checks run outside the timing."""
    if trace:
        from tracing import Tracer

    wl.warm_up()
    burst_s()
    plain, traced = [], []  # (pass, tracer or None)
    bursts = []  # seconds of the reference bursts, one after every pass
    steps = array("f")  # step latencies of the untraced passes, 4 bytes each
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while True:
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        try:
            if tracer is not None:
                tracer.install()
            try:
                p = wl.run_pass(len(traced if tracer is not None else plain) % wl.inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            check = wl.check(wl.facts(p))
            p.result = None  # keep memory flat whatever the number of passes
            if tracer is None:
                steps.extend(p.step_s)
            p.step_s = []
        except Exception:  # a pass that raises is a failed operation; report it and stop
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        attempted += check.attempted
        failed += len(check.failures)
        for message in check.failures[:MAX_FAILURES_SHOWN]:
            print(f"{wl.name}: check failed: {message}", file=sys.stderr)
        (traced if tracer is not None else plain).append((p, tracer))
        bursts.append(burst_s())
        # An untraced run uses every input; a traced one needs a traced pass.
        covered = bool(traced) if trace else len(plain) >= wl.inputs
        if perf_counter() >= deadline and covered:
            break

    out = {"attempted": attempted, "failed": failed, "passes": len(plain)}
    if not plain or (trace and not traced):
        return out
    # Passes cycle through the workload's inputs, whose costs differ: average
    # each input's passes first, so that every input weighs the same.
    by_input = {}
    for p, _ in plain:
        by_input.setdefault(p.input, []).append(p.seconds)
    pass_s = statistics.fmean(statistics.fmean(v) for v in by_input.values())
    # Means, not medians: the host's slow spells last longer than a pass, so the
    # median of a run jumps between them while the mean moves with their share.
    ref_s = statistics.fmean(bursts)
    figures = {k: _median([p.figures[k] for p, _ in plain]) for k in plain[0][0].figures}
    out["metrics"] = {
        "pass_rel": pass_s / ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["detail"] = dict(figures, pass_s=pass_s, ref_s=ref_s, error_rate=failed / attempted, passes=len(plain))
    if steps:
        out["detail"].update(step_p50_ms=_quantile_ms(steps, 0.50), step_p99_ms=_quantile_ms(steps, 0.99),
                             step_samples=len(steps))
    if trace:
        per_pass = [layer_metrics(t, p) for p, t in traced]
        out["layers"] = {k: statistics.median_low([m[k] for m in per_pass]) for k in per_pass[0]}
        # The j-th untraced and the j-th traced pass ran on the same input.
        pairs = list(zip(plain, traced))
        out["layers"]["trace.overhead_ratio"] = (sum(t.seconds for _, (t, _) in pairs)
                                                 / sum(p.seconds for (p, _), _ in pairs))
        out["span_table"] = traced[-1][1].table()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, help="directory for the workload's input and output files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    from workloads import WORKLOADS  # imports ctreemix and numpy: part of set-up

    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        wl = WORKLOADS[args.workload](args.seed, tmp, args.smoke)
        setup = {"setup_s": perf_counter() - t0, "generate_s": wl.generate_s}
        out = setup if args.setup_only else dict(measure(wl, args.seconds, bool(args.trace)), **setup)

    import numpy

    out["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
                   "machine": platform.machine()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
