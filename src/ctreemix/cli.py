"""Command-line interface: fit, forecast, simulate, sample-trees, evidence-grid."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from collections import Counter
from dataclasses import replace
from io import StringIO
from typing import Optional

import numpy as np

from . import io as sio
from .fit import check_training_length, fit_series
from .forecasting import _NUMBER, RunConfig, _doc_field, rolling_forecast
from .quantizer import Quantizer
from .selection import SelectionGrid, candidate_grid, select_hyperparams
from .simulate import ArLeaf, ArchLeaf, GenerativeSpec, builtin_specs, generate
from .tree import TreeModel, check_labelled_alphabet, context_label


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


def _config_and_grid(args, train) -> tuple[RunConfig, SelectionGrid]:
    """The run config the flags describe, at the first cell of the candidate grid, and that grid: the
    given thresholds and order, else the percentile grid and orders 1..--max-order."""
    if args.thresholds is not None and args.threshold_candidates is not None:
        raise ValueError("--thresholds and --threshold-candidates are mutually exclusive")
    if args.thresholds is not None:
        candidates = (_floats(args.thresholds),)
    elif args.threshold_candidates is not None:
        candidates = tuple(_floats(group) for group in args.threshold_candidates.split(";") if group.strip())
    else:
        candidates = None
    grid = candidate_grid(train, args.alphabet, candidates, args.order, args.max_order, args.grid_points)
    if args.fisher_iters is not None and args.model != "arch":
        raise ValueError("--fisher-iters applies to arch leaves only")
    depth = {"ar": 10, "arch": 5}[args.model] if args.depth is None else args.depth
    fisher_iters = RunConfig.fisher_iters if args.fisher_iters is None else args.fisher_iters
    return RunConfig(kind=args.model, thresholds=grid.thresholds[0], order=grid.orders[0], depth=depth,
                     beta=args.beta, intercept=args.intercept, fisher_iters=fisher_iters), grid


def _model_flags_given(args) -> list[str]:
    """The model flags whose values differ from their defaults."""
    probe = argparse.ArgumentParser()
    _add_model_flags(probe)
    defaults = vars(probe.parse_args([]))
    return ["--" + name.replace("_", "-") for name, value in defaults.items() if getattr(args, name) != value]


def _resolve_config(args, train) -> tuple[RunConfig, Optional[list]]:
    """Thresholds/order from flags, running the evidence grid search on train if either is open."""
    if args.thresholds is not None and args.auto_thresholds:
        raise ValueError("--thresholds and --auto-thresholds are mutually exclusive")
    if args.thresholds is None and not args.auto_thresholds:
        raise ValueError("give --thresholds or --auto-thresholds")
    cfg, grid = _config_and_grid(args, train)
    if args.thresholds is not None and args.order is not None:
        check_training_length(len(train), cfg.depth, grid.orders)
        return cfg, None
    result = select_hyperparams(train, grid, cfg.make_model, cfg.depth, cfg.beta)
    return replace(cfg, thresholds=result.thresholds, order=result.order), list(result.table)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", newline="") as fh:  # the text's own line ends: series_csv's CRLF
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_series(args):
    series = sio.ingest_csv(args.input, _column(args))
    series, tspec = sio.apply_transform(series, args.transform)
    return series, tspec


def _train_len(args, n: int, need_test: bool = True) -> int:
    """The training-prefix length: --split (below 1 a fraction of n, from 1 a whole count), or all but
    --test-last; half of n if neither is given.  It leaves at least one test sample if need_test."""
    if args.split is not None and args.test_last is not None:
        raise ValueError("--split and --test-last are mutually exclusive")
    if args.test_last is not None:
        out = n - args.test_last
    elif args.split is not None and args.split >= 1.0:
        if args.split != int(args.split):
            raise ValueError(f"--split {args.split!r} is neither a fraction below 1 nor a whole count of samples")
        out = int(args.split)
    else:
        out = int(n * (0.5 if args.split is None else args.split))
    if not 0 < out <= n - need_test:
        raise ValueError(f"--split/--test-last leaves no usable train/test data (train={out}, n={n})")
    return out


def cmd_fit(args) -> int:
    series, tspec = _load_series(args)
    split = args.split is not None or args.test_last is not None
    train = series[: _train_len(args, len(series), need_test=False)] if split else series
    cfg, table = _resolve_config(args, train)
    fitted = fit_series(train, cfg.make_model(), cfg.quantizer(), cfg.depth, cfg.beta)
    doc = sio.model_document(fitted, cfg, transform=tspec, seed=args.seed, selection_table=table)
    _emit(sio.dumps_canonical(doc), args.output)
    return 0


def cmd_forecast(args) -> int:
    check_labelled_alphabet(args.alphabet)  # --from-model's alphabet is checked by rolling_forecast
    series, tspec = _load_series(args)
    train_len = _train_len(args, len(series))
    if args.from_model:
        given = _model_flags_given(args)
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --from-model, "
                             "which takes the model from its document")
        with open(args.from_model) as fh:
            cfg = RunConfig.from_document(json.loads(fh.read()))
        check_training_length(train_len, cfg.depth, (cfg.order,))
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
    _emit(sio.series_csv(generate(spec, n, args.seed)), args.output)
    return 0


def cmd_sample_trees(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    check_labelled_alphabet(args.alphabet)
    series, tspec = _load_series(args)
    cfg, _ = _resolve_config(args, series)
    fitted = fit_series(series, cfg.make_model(), cfg.quantizer(), cfg.depth, cfg.beta)
    counts = Counter(fitted.sample_trees(args.count, np.random.default_rng(args.seed)))
    labels = {leaf: context_label(leaf) for leaf in {leaf for tree in counts for leaf in tree.leaves}}
    rows = [{
        "leaves": [labels[leaf] for leaf in tree.leaves],
        "count": c,
        "frequency": c / args.count,
        "posterior": fitted.posterior_of(tree),
    } for tree, c in counts.most_common()]
    doc = {"samples": args.count, "seed": args.seed, "trees": rows}
    _emit(sio.dumps_canonical(doc), args.output)
    return 0


def cmd_evidence_grid(args) -> int:
    series, tspec = _load_series(args)
    cfg, grid = _config_and_grid(args, series)
    result = select_hyperparams(series, grid, cfg.make_model, cfg.depth, cfg.beta)
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["thresholds", "order", "log_evidence", "neg_log2_evidence", "error"])
    log2 = float(np.log(2.0))
    for cell in result.table:
        thr = ";".join(repr(v) for v in cell.thresholds)
        nl2 = "" if cell.log_evidence == float("-inf") else repr(float(-cell.log_evidence / log2))
        writer.writerow([thr, cell.order, repr(float(cell.log_evidence)), nl2, cell.error or ""])
    _emit(text.getvalue(), args.output)
    sys.stderr.write(
        f"selected thresholds={list(result.thresholds)} order={result.order} "
        f"log_evidence={result.log_evidence:.6g}\n"
    )
    return 0


def parse_generative_spec(doc: dict) -> GenerativeSpec:
    """Generative spec from a JSON document (see README for the schema); ValueError names a bad field."""
    if not isinstance(doc, dict):
        raise ValueError("spec document is not a JSON object")
    kind = _doc_field(doc, "kind", (str,), name="spec")
    if kind not in ("ar", "arch"):
        raise ValueError(f"spec field 'kind' is malformed: {kind!r}")
    thresholds = tuple(float(v) for v in _doc_field(doc, "thresholds", (list,), _NUMBER, "spec"))
    leaves = {}
    for k, entry in enumerate(_doc_field(doc, "leaves", (list,), name="spec")):
        leaf = f"spec leaf {k}"
        ctx = tuple(_doc_field(entry, "context", (list,), (int,), leaf))
        if ctx in leaves:
            raise ValueError(f"{leaf} field 'context' repeats an earlier leaf's")
        if kind == "ar":
            leaves[ctx] = ArLeaf(
                phi=tuple(float(v) for v in _doc_field(entry, "phi", (list,), _NUMBER, leaf)),
                sigma2=float(_doc_field(entry, "sigma2", _NUMBER, name=leaf)),
                intercept=float(_doc_field(entry, "intercept", _NUMBER + (type(None),), name=leaf) or 0.0),
            )
        else:
            leaves[ctx] = ArchLeaf(alpha=tuple(float(v) for v in _doc_field(entry, "alpha", (list,), _NUMBER, leaf)))
    burn_in = _doc_field(doc, "burn_in", (int, type(None)), name="spec")
    return GenerativeSpec(
        kind=kind,
        tree=TreeModel(len(thresholds) + 1, tuple(leaves)),
        quantizer=Quantizer(thresholds),
        leaf_params=leaves,
        burn_in=200 if burn_in is None else burn_in,
        init_scale=_doc_field(doc, "init_scale", _NUMBER + (type(None),), name="spec"),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
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

    p_sim = sub.add_parser("simulate", help="sample a series from a named or file-specified model")
    p_sim.add_argument("--name", default=None, help="builtin spec: " + "; ".join(
        f"{name} ({named.note})" for name, named in builtin_specs().items()))
    p_sim.add_argument("--spec", default=None, help="JSON file describing a generative model")
    p_sim.add_argument("--n", type=int, default=None,
                       help="samples after the spec's initial segment: the output has N + max(tree depth, order) "
                            "rows, 302 for --n 300 on sim_1 (default: the builtin's own size, 500 with --spec)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", "-o", default=None)

    p_st = sub.add_parser("sample-trees", help="draw posterior tree samples with frequencies")
    p_st.add_argument("input")
    _add_model_flags(p_st)
    _add_series_flags(p_st)
    p_st.add_argument("--count", type=int, default=1000)
    p_st.add_argument("--output", "-o", default=None)

    p_eg = sub.add_parser("evidence-grid", help="evidence table over threshold/order candidates")
    p_eg.add_argument("input")
    _add_model_flags(p_eg)
    _add_series_flags(p_eg)
    p_eg.add_argument("--output", "-o", default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]  # looked up per call, so a rebinding takes effect
    try:
        return command(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
