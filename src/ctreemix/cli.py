"""Command-line interface: fit, forecast, simulate, sample-trees, evidence-grid."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings
from collections import Counter
from dataclasses import replace
from io import StringIO
from math import isfinite
from typing import Optional

import numpy as np

from . import io as sio
from .ar import ArHyperParams
from .arch import ArchConfig
from .fit import check_training_length, fit_series
from .forecasting import RunConfig, rolling_forecast
from .selection import SelectionGrid, candidate_grid, select_hyperparams
from .simulate import GenerativeSpec, builtin_specs, generate
from .tree import check_labelled_alphabet, context_label


def _column(text: str) -> object:
    """A --column value: an index if it reads as an integer, else a name."""
    try:
        return int(text)
    except ValueError:
        return text


_COMMANDS = {
    "fit": "fit a model and emit its JSON document",
    "forecast": "rolling one-step evaluation over a test split",
    "simulate": "sample a series from a named or file-specified model",
    "sample-trees": "draw posterior tree samples with frequencies",
    "evidence-grid": "evidence table over threshold/order candidates",
}
_FIT = ("fit", "forecast", "sample-trees", "evidence-grid")  # the commands that fit a series
_DOC = ("--from-model",)  # the model comes from a fit document, so no model flag is read

# Every option of the CLI: the commands that take it, the modes in which nothing reads it, and its argparse
# settings, in the order of each command's help.  A run's modes are the options it gives (off their defaults),
# "--model ar" or "--model arch", and its command.  Options given in a mode that reads none of them fail before
# any file is read: the error names the first such option, the first of its modes the run is in, and every other
# given option that mode excludes.  _ONE_OF names the pair of options of which a command needs exactly one (none
# with --from-model).
_FLAGS = {
    "input": (_FIT, (), dict()),
    "--model": (_FIT, _DOC, dict(choices=("ar", "arch"), default="ar")),
    "--depth": (_FIT, _DOC, dict(type=int, help="maximum context depth (default: ar 10, arch 5)")),
    "--order": (_FIT, _DOC, dict(type=int, help="leaf-model order (default: searched, max 5)")),
    "--max-order": (_FIT, _DOC + ("--order",),
                    dict(type=int, default=5, help="largest order searched when --order is omitted")),
    "--beta": (_FIT, _DOC, dict(type=float, help="tree-prior mixing weight (default 1 - 2^(1-m))")),
    "--alphabet": (_FIT, _DOC, dict(type=int, default=2, help="quantizer alphabet size m")),
    "--thresholds": (_FIT, _DOC, dict(help="comma-separated thresholds (m-1 values)")),
    "--auto-thresholds": (_FIT, _DOC + ("--thresholds", "evidence-grid"),
                          dict(action="store_true", default=False, help="grid-search thresholds by evidence")),
    "--grid-points": (_FIT, _DOC + ("--thresholds", "--threshold-candidates"),
                      dict(type=int, default=17, help="percentile grid size for --auto-thresholds")),
    "--threshold-candidates": (_FIT, _DOC + ("--thresholds",), dict(
        help="explicit candidate list, e.g. '-0.1;-0.05;0;0.05;0.1' (tuples comma-separated)")),
    "--intercept": (_FIT, _DOC + ("--model arch",),
                    dict(action="store_true", default=False, help="include a constant term (ar only)")),
    "--fisher-iters": (_FIT, _DOC + ("--model ar",),
                       dict(type=int, help="scoring iterations per node (arch only, default 10)")),
    "--name": (("simulate",), (), dict(help="builtin spec: " + "; ".join(
        f"{name} ({named.note})" for name, named in builtin_specs().items()))),
    "--spec": (("simulate",), (), dict(help="JSON file describing a generative model")),
    "--n": (("simulate",), (), dict(type=int, help=(
        "samples after the spec's initial segment: the output has N + max(tree depth, order) rows, 302 for "
        "--n 300 on sim_1 (default: the builtin's own size, 500 with --spec)"))),
    "--transform": (_FIT, (), dict(choices=sio.TRANSFORMS, default="none")),
    "--column": (_FIT, (), dict(type=_column, help="CSV column name or index")),
    "--seed": (_FIT + ("simulate",), ("evidence-grid",), dict(type=int, default=0)),
    "--split": (("fit", "forecast"), (), dict(type=float, help=(
        "training prefix (<1: fraction, >=1: count; default: fit the whole series, forecast 0.5)"))),
    "--test-last": (("fit", "forecast"), ("--split",),
                    dict(type=int, help="train on all but the last N samples (forecast's test set)")),
    "--from-model": (("forecast",), (), dict(help="take the configuration from a fit document")),
    "--records": (("forecast",), (), dict(help="write per-step CSV here")),
    "--count": (("sample-trees",), (), dict(type=int, default=1000)),
    "--output": (_FIT + ("simulate",), (), dict()),  # also -o
}
_ONE_OF = {**dict.fromkeys(("fit", "forecast", "sample-trees"), ("--thresholds", "--auto-thresholds")),
           "simulate": ("--name", "--spec")}


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _check_flags(args) -> None:
    """Reject options given where the run's modes read none, then a missing or doubled choice of _ONE_OF,
    then two outputs that name one file."""
    given = [flag for flag, (commands, _, settings) in _FLAGS.items() if args.command in commands
             and getattr(args, flag.lstrip("-").replace("-", "_")) != settings.get("default")]
    modes = {*given, f"--model {getattr(args, 'model', None)}", args.command}
    unread = [(mode, flag) for flag in given for mode in _FLAGS[flag][1] if mode in modes]
    if unread:
        mode = unread[0][0]
        raise ValueError(f"{', '.join(flag for m, flag in unread if m == mode)} cannot be combined with {mode}")
    pair = _ONE_OF.get(args.command)
    if pair and "--from-model" not in modes and sum(flag in given for flag in pair) != 1:
        raise ValueError(f"give exactly one of {pair[0]} or {pair[1]}")
    outputs = [path for path in (getattr(args, "output", None), getattr(args, "records", None)) if path]
    if len(outputs) == 2 and _same_file(*outputs):
        raise ValueError(f"two outputs name one file: {outputs[0]} and {outputs[1]}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def _config_and_grid(args, train) -> tuple[RunConfig, SelectionGrid]:
    """The run config the flags describe, at the first cell of the candidate grid, and that grid: the
    given thresholds and order, else the percentile grid and orders 1..--max-order.  A train no longer
    than the grid's initial segment fails first."""
    if args.thresholds is not None:
        candidates = (_floats(args.thresholds),)
    elif args.threshold_candidates is not None:
        candidates = tuple(_floats(group) for group in args.threshold_candidates.split(";") if group.strip())
    else:
        candidates = None
    grid = candidate_grid(train, args.alphabet, candidates, args.order, args.max_order, args.grid_points)
    depth = {"ar": 10, "arch": 5}[args.model] if args.depth is None else args.depth
    check_training_length(len(train), depth, grid.orders)  # before the leaf parameters check --order
    if args.model == "ar":
        leaf = ArHyperParams(grid.orders[0], args.intercept)
    else:
        leaf = ArchConfig(grid.orders[0], ArchConfig.fisher_iters if args.fisher_iters is None else args.fisher_iters)
    return RunConfig(leaf, grid.thresholds[0], depth, args.beta), grid


def _resolve_config(args, train) -> tuple[RunConfig, Optional[list]]:
    """Thresholds/order from flags, running the evidence grid search on train if either is open."""
    cfg, grid = _config_and_grid(args, train)
    if args.thresholds is not None and args.order is not None:
        return cfg, None
    result = select_hyperparams(train, grid, cfg.make_model, cfg.depth, cfg.beta)
    return replace(cfg, leaf=replace(cfg.leaf, order=result.order), thresholds=result.thresholds), list(result.table)


def _emit(*outputs: tuple[str, Optional[str]]) -> None:
    """Write each text to its path, or to stdout where the path is None.  Every path is opened for appending
    (which changes no byte) before any text is written, so one that cannot be opened fails the command and
    leaves no output behind; a failure removes the files this call created."""
    paths = [path for _, path in outputs if path]
    made = [path for path in paths if not os.path.lexists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        for text, path in outputs:
            if path:
                with open(path, "w", newline="") as fh:  # the text's own line ends: series_csv's CRLF
                    fh.write(text)
            else:
                sys.stdout.write(text)
    except OSError:
        for path in filter(os.path.lexists, made):
            os.remove(path)
        raise


def _read_json(path: str, parse):
    """The JSON document in the UTF-8 file at path, read by parse; an error reading or parsing it names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:  # a JSON syntax error, a byte that is not UTF-8, or a malformed field
            raise ValueError(f"{path}: {exc}") from None


def _load_series(args):
    return sio.apply_transform(sio.ingest_csv(args.input, args.column), args.transform)


def _train_len(args, n: int, need_test: bool = True) -> int:
    """The training-prefix length: --split (below 1 a fraction of n, from 1 a whole count), or all but
    --test-last; half of n if neither is given.  It leaves at least one test sample if need_test."""
    split = 0.5 if args.split is None else args.split
    if args.test_last is not None:
        out = n - args.test_last
    elif not isfinite(split) or split >= 1.0 and split != int(split):
        raise ValueError(f"--split {split!r} is neither a fraction below 1 nor a whole count of samples")
    elif split > n:  # before int(split), which could have hundreds of digits
        raise ValueError(f"--split {split!r} is more samples than the series has (n={n})")
    else:
        out = int(split) if split >= 1.0 else int(n * split)
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
    _emit((sio.dumps_canonical(doc), args.output))
    return 0


def cmd_forecast(args) -> int:
    check_labelled_alphabet(args.alphabet)  # --from-model's alphabet is checked by rolling_forecast
    series, tspec = _load_series(args)
    train_len = _train_len(args, len(series))
    if args.from_model:
        cfg = _read_json(args.from_model, RunConfig.from_document)
        check_training_length(train_len, cfg.depth, (cfg.leaf.order,))
    else:
        cfg, _ = _resolve_config(args, series[:train_len])
    report = rolling_forecast(series, cfg, train_len=train_len)
    records = [(sio.records_csv(report.records), args.records)] if args.records else []
    _emit((sio.dumps_canonical(sio.report_to_doc(report, seed=args.seed, transform=tspec)), args.output), *records)
    return 0


def cmd_simulate(args) -> int:
    if args.name:
        registry = builtin_specs()
        if args.name not in registry:
            raise ValueError(f"unknown spec {args.name!r}; choose from {sorted(registry)}")
        named = registry[args.name]
        spec, default_n = named.spec, named.default_n
    else:
        spec = _read_json(args.spec, GenerativeSpec.from_document)
        default_n = 500
    n = args.n if args.n is not None else default_n
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    try:
        series = generate(spec, n, args.seed)
    except ValueError as exc:  # the draws left float64
        raise ValueError(f"{args.spec or args.name}: {exc}") from None
    _emit((sio.series_csv(series), args.output))
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
    _emit((sio.dumps_canonical(doc), args.output))
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
    _emit((text.getvalue(), args.output))
    sys.stderr.write(
        f"selected thresholds={list(result.thresholds)} order={result.order} "
        f"log_evidence={result.log_evidence:.6g}\n"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from _COMMANDS and _FLAGS once per process."""
    parser = argparse.ArgumentParser(
        prog="ctreemix",
        description="Context-tree mixture models for real-valued time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, (commands, _, settings) in _FLAGS.items():
            if command in commands:
                p.add_argument(flag, *(["-o"] if flag == "--output" else []), **settings)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]  # looked up per call, so a rebinding takes effect
    shown = set()

    def show_warning(message, category, filename, lineno, file=None, line=None):
        """Write a warning the filters let through as one line, each distinct message once."""
        if str(message) not in shown:
            shown.add(str(message))
            sys.stderr.write(f"warning: {message}\n")

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            _check_flags(args)
            return command(args)
        except (ValueError, RuntimeError, OSError, KeyError, Warning) as exc:  # Warning: a filter made it an error
            sys.stderr.write(f"error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
