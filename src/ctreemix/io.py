"""CSV ingestion, series transforms, and JSON document serialisation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from io import StringIO
from sys import float_info
from typing import Optional, Sequence, Union

import numpy as np

from .tree import TreeModel, context_label

TRANSFORMS = ("none", "diff", "logdiff", "logret10")
SCHEMA_VERSION = 1


def _to_float(cell: str) -> Optional[float]:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v


def ingest_csv(path: str, column: Union[int, str, None] = None) -> np.ndarray:
    """Read one numeric column from a CSV file, in file order.

    The first row is treated as a header iff it is non-numeric.  `column`
    may be an index or a header name; default is the last column.  Blank
    rows are skipped.  Rows with non-numeric or non-finite cells are rejected
    with the file line on which the row ends.  The file is read as UTF-8; a
    leading byte-order mark is dropped, and a byte that is not UTF-8 is
    rejected with its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the data after any byte-order mark
        line = len(exc.object[:exc.start + 1].splitlines())  # the csv reader's lines: \n, \r or \r\n ends one
        raise ValueError(f"{path}: line {line}: not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None
    reader = csv.reader(StringIO(text, newline=""))
    rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]  # each row's file line
    if not rows:
        raise ValueError(f"{path}: empty file")
    header: Optional[list[str]] = None
    if all(_to_float(c) is None for c in rows[0][1]):
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
    if isinstance(column, str):
        if header is None or column not in header:
            raise ValueError(f"{path}: no column named {column!r}")
        idx = header.index(column)
    elif column is None:
        idx = -1
    else:
        idx = int(column)
    values = []
    for line, row in rows:
        try:
            cell = row[idx]
        except IndexError:
            raise ValueError(f"{path}: line {line}: no column {idx}") from None
        v = _to_float(cell)
        if v is None or not math.isfinite(v):
            raise ValueError(f"{path}: line {line}: {'non-numeric' if v is None else 'non-finite'} value {cell!r}")
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class TransformSpec:
    """A series transform plus the anchor needed to report in original units."""

    kind: str
    first_value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.kind!r}; choose from {TRANSFORMS}")


def apply_transform(series: Sequence[float], kind: str) -> tuple[np.ndarray, TransformSpec]:
    """Apply a named transform; differencing variants shrink the series by one."""
    x = np.asarray(series, dtype=float)
    if kind == "none":
        return x, TransformSpec("none")
    if len(x) < 2:
        raise ValueError("differencing transforms need at least two samples")
    if kind == "diff":
        return x[1:] - x[:-1], TransformSpec("diff", float(x[0]))
    if kind in ("logdiff", "logret10"):
        bad = np.nonzero(x <= 0)[0]
        if bad.size:
            raise ValueError(f"log transform requires positive values; offending index {bad[0]}")
        d = np.diff(np.log(x))
        scale = 10.0 if kind == "logret10" else 1.0
        return scale * d, TransformSpec(kind, float(x[0]))
    raise ValueError(f"unknown transform {kind!r}")


# -- JSON documents ----------------------------------------------------------


_NUMBER = (int, float)


def _typed(value, types: tuple) -> bool:
    """Whether value has one of the types, a bool only if bool is one, and a finite float64 value if a number."""
    return (isinstance(value, types) and (bool in types or not isinstance(value, bool))
            and (not isinstance(value, _NUMBER) or -float_info.max <= value <= float_info.max))


def _doc_field(doc: dict, path: str, types: tuple = (int,), items: Optional[tuple] = None,
               name: str = "model document"):
    """The value at a dotted path of a JSON document, if it has one of the types given.

    A missing field reads as None; a list must also hold only values of
    the ``items`` types, if given.  A number must be finite: Python's json
    reads NaN and Infinity.  ValueError names the field.
    """
    value = doc
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if not _typed(value, types) or (items is not None and not all(_typed(v, items) for v in value)):
        raise ValueError(f"{name} field {path!r} is missing or malformed")
    return value


def tree_to_doc(tree: TreeModel, leaf_params: dict[tuple[int, ...], dict]) -> dict:
    """Nested tree document: internal nodes carry children, leaves their parameters."""
    leafset = set(tree.leaves)

    def rec(prefix: tuple[int, ...]) -> dict:
        if prefix in leafset:
            return {"context": list(prefix), "leaf": leaf_params.get(prefix, {})}
        return {
            "context": list(prefix),
            "children": [rec(prefix + (j,)) for j in range(tree.m)],
        }

    return rec(())


def _transform_doc(transform: Optional[TransformSpec]) -> Optional[dict]:
    return None if transform is None else {"kind": transform.kind, "first_value": transform.first_value}


def model_document(
    fitted,
    config,
    *,
    transform: Optional[TransformSpec] = None,
    seed: Optional[int] = None,
    selection_table: Optional[list] = None,
) -> dict:
    """Serialisable description of a model fitted from `config`, a RunConfig (MAP tree plus leaf parameters)."""
    tree = fitted.map_tree()
    doc = {
        "schema_version": SCHEMA_VERSION,
        **config.to_document(),
        "n_scored": fitted.num_scored,
        "log_evidence": float(fitted.log_evidence()),
        "map_posterior": float(fitted.posterior_of(tree)),
        "tree": tree_to_doc(tree, fitted.leaf_parameters(tree)),
        "transform": _transform_doc(transform),
        "seed": seed,
    }
    if selection_table is not None:
        doc["selection"] = [
            {"thresholds": list(c.thresholds), "order": c.order, "error": c.error,
             "log_evidence": None if c.error is not None else c.log_evidence}  # a failed cell's -inf is not JSON
            for c in selection_table
        ]
    return doc


def dumps_canonical(doc: dict) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_to_doc(report, *, seed: Optional[int] = None,
                  transform: Optional[TransformSpec] = None) -> dict:
    """The JSON document of `report`, an EvalReport."""
    return {
        "schema_version": SCHEMA_VERSION,
        "mse": float(report.mse),
        "cumulative_log_loss": float(report.cumulative_log_loss),
        "thresholds": [float(v) for v in report.thresholds],
        "order": report.order,
        "train_len": report.train_len,
        "test_len": len(report.records),
        "map_tree_leaves": [context_label(leaf) for leaf in report.map_tree.leaves],
        "map_posterior": float(report.map_posterior),
        "log_evidence": float(report.log_evidence),
        "leaf_params": report.leaf_params,
        "transform": _transform_doc(transform),
        "seed": seed,
    }


REPORT_CSV_COLUMNS = ("time", "mean", "variance", "realised", "sq_error", "log_density")


def records_csv(records) -> str:
    """Forecast records as CSV text: a REPORT_CSV_COLUMNS header, then one row per step, each ended by CRLF."""
    text = StringIO()
    writer = csv.writer(text)
    writer.writerow(REPORT_CSV_COLUMNS)
    for r in records:
        writer.writerow([r.index, repr(r.mean), repr(r.variance), repr(r.realised),
                         repr(r.squared_error), repr(r.log_density)])
    return text.getvalue()


def series_csv(series: Sequence[float]) -> str:
    """A series as CSV text: a "value" header, then one repr'd value per line, each ended by CRLF as csv writes it."""
    return "".join(f"{cell}\r\n" for cell in ("value", *(repr(float(v)) for v in series)))


def write_series_csv(series: Sequence[float], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(series_csv(series))
