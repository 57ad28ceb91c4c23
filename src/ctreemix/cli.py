"""Command-line interface: fit, forecast, simulate, sample-trees, evidence-grid."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import io as sio
from .fit import fit_series
from .forecasting import RunConfig, rolling_forecast
from .quantizer import Quantizer
from .selection import SelectionGrid, candidate_grid, select_hyperparams
from .simulate import ArLeaf, ArchLeaf, GenerativeSpec, builtin_specs, generate
from .tree import TreeModel


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("ar", "arch"), default="ar")
    p.add_argument("--depth", type=int, default=None, help="maximum context depth (default: ar 10, arch 5)")
    p.add_argument("--order", type=int, default=None, help="leaf-model order (default: searched, max 5)")
    p.add_argument("--max-order", type=int, default=5, help="largest order searched when --order is omitted")
    p.add_argument("--beta", type=float, default=None, help="tree-prior mixing weight (default 1 - 2^(1-m))")
    p.add_argument("--alphabet", type=int, default=2, help="quantizer alphabet size m")
    p.add_argument("--thresholds", type=str, default=None, help="comma-separated thresholds (m-1 values)")
    p.add_argument("--auto-thresholds", action="store_true", help="grid-search thresholds by evidence")
    p.add_argument("--grid-points", type=int, default=17, help="percentile grid size for --auto-thresholds")
    p.add_argument("--threshold-candidates", type=str, default=None,
                   help="explicit candidate list, e.g. '-0.1;-0.05;0;0.05;0.1' (tuples comma-separated)")
    p.add_argument("--intercept", action="store_true", help="include a constant term (ar only)")
    p.add_argument("--fisher-iters", type=int, default=None, help="scoring iterations per node (arch only, default 10)")


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transform", choices=sio.TRANSFORMS, default="none")
    p.add_argument("--column", type=str, default=None, help="CSV column name or index")
    p.add_argument("--seed", type=int, default=0)


def _column(args) -> Optional[object]:
    if args.column is None:
        return None
    try:
        return int(args.column)
    except ValueError:
        return args.column


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _grid(args, train) -> SelectionGrid:
    """Candidate thresholds and orders from the flags (the percentile grid unless given)."""
    if args.thresholds is not None:
        candidates = (_floats(args.thresholds),)
    elif args.threshold_candidates:
        candidates = tuple(_floats(group) for group in args.threshold_candidates.split(";") if group.strip())
    else:
        candidates = None
    return candidate_grid(train, args.alphabet, candidates, args.order, args.max_order, args.grid_points)


def _config(args, grid: SelectionGrid) -> RunConfig:
    """The run config the flags describe, at the first cell of the grid."""
    if args.fisher_iters is not None and args.model != "arch":
        raise ValueError("--fisher-iters applies to arch leaves only")
    depth = {"ar": 10, "arch": 5}[args.model] if args.depth is None else args.depth
    fisher_iters = RunConfig.fisher_iters if args.fisher_iters is None else args.fisher_iters
    return RunConfig(kind=args.model, thresholds=grid.thresholds[0], order=grid.orders[0], depth=depth,
                     beta=args.beta, intercept=args.intercept, fisher_iters=fisher_iters)


def _model_flags_given(args) -> list[str]:
    """The model flags whose values differ from their defaults."""
    probe = argparse.ArgumentParser()
    _add_model_flags(probe)
    defaults = vars(probe.parse_args([]))
    return ["--" + name.replace("_", "-") for name, value in defaults.items() if getattr(args, name) != value]


def _resolve_config(args, train) -> tuple[RunConfig, Optional[list]]:
    """Thresholds/order from flags, running the evidence grid search if either is open."""
    if args.thresholds is not None and args.auto_thresholds:
        raise ValueError("--thresholds and --auto-thresholds are mutually exclusive")
    if args.thresholds is None and not args.auto_thresholds:
        raise ValueError("give --thresholds or --auto-thresholds")
    grid = _grid(args, train)
    cfg = _config(args, grid)
    if args.thresholds is not None and args.order is not None:
        return cfg, None
    result = select_hyperparams(train, grid, cfg.make_model, cfg.depth, cfg.beta)
    return replace(cfg, thresholds=result.thresholds, order=result.order), list(result.table)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_series(args):
    series = sio.ingest_csv(args.input, _column(args))
    series, tspec = sio.apply_transform(series, args.transform)
    return series, tspec


def _train_len(args, n: int) -> int:
    from .forecasting import resolve_train_len

    frac = None
    absolute = None
    if args.split is not None:
        if args.split < 1.0:
            frac = args.split
        else:
            absolute = int(args.split)
    return resolve_train_len(n, frac, absolute, args.test_last)


def cmd_fit(args) -> int:
    series, tspec = _load_series(args)
    if args.split is not None or args.test_last is not None:
        train = series[: _train_len(args, len(series))]
    else:
        train = series
    cfg, table = _resolve_config(args, train)
    fitted = fit_series(train, cfg.make_model(), cfg.quantizer(), cfg.depth, cfg.beta)
    doc = sio.model_document(fitted, cfg, transform=tspec, seed=args.seed, selection_table=table)
    _emit(sio.dumps_canonical(doc), args.output)
    return 0


def cmd_forecast(args) -> int:
    series, tspec = _load_series(args)
    train_len = _train_len(args, len(series))
    if args.from_model:
        given = _model_flags_given(args)
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --from-model, "
                             "which takes the model from its document")
        with open(args.from_model) as fh:
            cfg = RunConfig.from_document(sio.parse_document(fh.read()))
    else:
        cfg, _ = _resolve_config(args, series[:train_len])
    report = rolling_forecast(series, cfg, train_len=train_len)
    _emit(sio.dumps_canonical(sio.report_to_doc(report, seed=args.seed, transform=tspec)), args.output)
    if args.records:
        sio.write_records_csv(report.records, args.records)
    return 0


def cmd_simulate(args) -> int:
    if bool(args.name) == bool(args.spec):
        raise ValueError("give exactly one of --name or --spec")
    if args.name:
        registry = builtin_specs()
        if args.name not in registry:
            raise ValueError(f"unknown spec {args.name!r}; choose from {sorted(registry)}")
        named = registry[args.name]
        spec, default_n = named.spec, named.default_n
    else:
        with open(args.spec) as fh:
            spec = parse_generative_spec(json.load(fh))
        default_n = 500
    n = args.n if args.n is not None else default_n
    series = generate(spec, n, args.seed)
    if args.output:
        sio.write_series_csv(series, args.output)
    else:
        sys.stdout.write("value\n" + "".join(f"{float(v)!r}\n" for v in series))
    return 0


def cmd_sample_trees(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    series, tspec = _load_series(args)
    cfg, _ = _resolve_config(args, series)
    fitted = fit_series(series, cfg.make_model(), cfg.quantizer(), cfg.depth, cfg.beta)
    rng = np.random.default_rng(args.seed)
    counts: dict[tuple, int] = {}
    for _ in range(args.count):
        tree = fitted.trie.sample_tree(rng)
        counts[tree.leaves] = counts.get(tree.leaves, 0) + 1
    rows = []
    for leaves, c in sorted(counts.items(), key=lambda kv: -kv[1]):
        tree = TreeModel(cfg.quantizer().alphabet_size, leaves)
        rows.append({
            "leaves": ["".join(map(str, leaf)) for leaf in leaves],
            "count": c,
            "frequency": c / args.count,
            "posterior": fitted.posterior_of(tree),
        })
    doc = {"samples": args.count, "seed": args.seed, "trees": rows}
    _emit(sio.dumps_canonical(doc), args.output)
    return 0


def cmd_evidence_grid(args) -> int:
    series, tspec = _load_series(args)
    grid = _grid(args, series)
    cfg = _config(args, grid)
    result = select_hyperparams(series, grid, cfg.make_model, cfg.depth, cfg.beta)
    lines = ["thresholds,order,log_evidence,neg_log2_evidence"]
    log2 = float(np.log(2.0))
    for cell in result.table:
        thr = ";".join(repr(v) for v in cell.thresholds)
        nl2 = "" if cell.log_evidence == float("-inf") else repr(float(-cell.log_evidence / log2))
        lines.append(f"{thr},{cell.order},{float(cell.log_evidence)!r},{nl2}")
    _emit("\n".join(lines) + "\n", args.output)
    sys.stderr.write(
        f"selected thresholds={list(result.thresholds)} order={result.order} "
        f"log_evidence={result.log_evidence:.6g}\n"
    )
    return 0


def parse_generative_spec(doc: dict) -> GenerativeSpec:
    """Generative spec from a JSON document (see README for the schema)."""
    kind = doc["kind"]
    thresholds = tuple(float(v) for v in doc["thresholds"])
    m = len(thresholds) + 1
    leaves = {}
    for entry in doc["leaves"]:
        ctx = tuple(int(s) for s in entry["context"])
        if kind == "ar":
            leaves[ctx] = ArLeaf(
                phi=tuple(float(v) for v in entry["phi"]),
                sigma2=float(entry["sigma2"]),
                intercept=float(entry.get("intercept", 0.0)),
            )
        else:
            leaves[ctx] = ArchLeaf(alpha=tuple(float(v) for v in entry["alpha"]))
    return GenerativeSpec(
        kind=kind,
        tree=TreeModel(m, tuple(leaves)),
        quantizer=Quantizer(thresholds),
        leaf_params=leaves,
        burn_in=int(doc.get("burn_in", 200)),
        init_scale=doc.get("init_scale"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctreemix",
        description="Context-tree mixture models for real-valued time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and emit its JSON document")
    p_fit.add_argument("input")
    _add_model_flags(p_fit)
    _add_series_flags(p_fit)
    p_fit.add_argument("--split", type=float, default=None,
                       help="fit on the training prefix only (<1: fraction, >=1: count)")
    p_fit.add_argument("--test-last", type=int, default=None, help="train on all but the last N samples")
    p_fit.add_argument("--output", "-o", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_fc = sub.add_parser("forecast", help="rolling one-step evaluation over a test split")
    p_fc.add_argument("input")
    _add_model_flags(p_fc)
    _add_series_flags(p_fc)
    p_fc.add_argument("--split", type=float, default=None,
                      help="training share (<1: fraction, >=1: count; default 0.5)")
    p_fc.add_argument("--test-last", type=int, default=None, help="use the last N samples as test set")
    p_fc.add_argument("--from-model", default=None, help="take the configuration from a fit document")
    p_fc.add_argument("--records", default=None, help="write per-step CSV here")
    p_fc.add_argument("--output", "-o", default=None)
    p_fc.set_defaults(func=cmd_forecast)

    p_sim = sub.add_parser("simulate", help="sample a series from a named or file-specified model")
    p_sim.add_argument("--name", default=None, help="builtin spec: sim_1, sim_2, sim_3, arch_sim")
    p_sim.add_argument("--spec", default=None, help="JSON file describing a generative model")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", "-o", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("sample-trees", help="draw posterior tree samples with frequencies")
    p_st.add_argument("input")
    _add_model_flags(p_st)
    _add_series_flags(p_st)
    p_st.add_argument("--count", type=int, default=1000)
    p_st.add_argument("--output", "-o", default=None)
    p_st.set_defaults(func=cmd_sample_trees)

    p_eg = sub.add_parser("evidence-grid", help="evidence table over threshold/order candidates")
    p_eg.add_argument("input")
    _add_model_flags(p_eg)
    _add_series_flags(p_eg)
    p_eg.add_argument("--output", "-o", default=None)
    p_eg.set_defaults(func=cmd_evidence_grid)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
