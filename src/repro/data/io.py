"""Loading real data sets from delimited text files.

The synthetic compendium stands in for the paper's GEO data sets, but a
downstream user will want to run FRaC on *their own* expression matrix or
genotype table. This module reads delimited files (CSV/TSV) into
:class:`~repro.data.Dataset`:

- one row per sample;
- feature columns either declared via ``categorical``/``real`` or inferred
  (a column whose non-missing values are all small non-negative integers
  with few distinct levels is treated as categorical);
- an optional label column marks anomalous samples;
- empty fields, ``NA``, ``NaN`` and ``?`` are treated as missing values.

Example::

    ds = read_delimited("cohort.tsv", delimiter="\\t", label_column="status",
                        anomaly_values={"case"})
    replicates = make_replicates(ds, 5, rng=0)
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.utils.exceptions import DataError

#: Field values treated as missing (case-insensitive).
MISSING_TOKENS = {"", "na", "nan", "?", "null", "none"}

#: A column is inferred categorical when every observed value is a
#: non-negative integer below this bound and there are at most this many
#: distinct levels.
MAX_INFERRED_ARITY = 10


def _parse_cell(text: str) -> float:
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse numeric value {text!r}") from None


def infer_schema(
    matrix: np.ndarray,
    names: Sequence[str],
    *,
    categorical: "Iterable[str] | None" = None,
    real: "Iterable[str] | None" = None,
) -> FeatureSchema:
    """Schema for a parsed matrix, honouring explicit declarations.

    Columns named in ``categorical``/``real`` are forced to that kind;
    remaining columns are inferred (integer-coded, low-cardinality,
    non-negative => categorical; anything else => real).
    """
    categorical = set(categorical or ())
    real = set(real or ())
    overlap = categorical & real
    if overlap:
        raise DataError(f"columns declared both categorical and real: {sorted(overlap)}")
    unknown = (categorical | real) - set(names)
    if unknown:
        raise DataError(f"declared columns not in the file: {sorted(unknown)}")

    specs = []
    for j, name in enumerate(names):
        col = matrix[:, j]
        observed = col[~np.isnan(col)]
        force_cat = name in categorical
        force_real = name in real
        is_int_coded = (
            observed.size > 0
            and np.all(observed == np.rint(observed))
            and observed.min() >= 0
            and observed.max() < MAX_INFERRED_ARITY
            and len(np.unique(observed)) <= MAX_INFERRED_ARITY
        )
        if force_cat or (is_int_coded and not force_real):
            if observed.size == 0:
                raise DataError(f"categorical column {name!r} has no observed values")
            if not np.all(observed == np.rint(observed)) or observed.min() < 0:
                raise DataError(
                    f"column {name!r} declared categorical but holds non-code values"
                )
            arity = int(observed.max()) + 1
            specs.append(FeatureSpec(FeatureKind.CATEGORICAL, arity=max(arity, 2), name=name))
        else:
            specs.append(FeatureSpec(FeatureKind.REAL, name=name))
    return FeatureSchema(specs)


def read_delimited(
    path: "str | Path",
    *,
    delimiter: str = ",",
    label_column: "str | None" = None,
    anomaly_values: "set[str] | None" = None,
    categorical: "Iterable[str] | None" = None,
    real: "Iterable[str] | None" = None,
    name: str = "",
) -> Dataset:
    """Read a delimited file with a header row into a :class:`Dataset`.

    Parameters
    ----------
    path:
        File to read; the first row must name the columns.
    label_column:
        Column holding sample status; values in ``anomaly_values``
        (default ``{"1", "true", "anomaly", "case"}``) mark anomalies.
        Without a label column, all samples are treated as normal.
    categorical / real:
        Explicit kind declarations by column name (see :func:`infer_schema`).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    anomaly_values = {
        v.lower() for v in (anomaly_values or {"1", "true", "anomaly", "case"})
    }

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]

    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
    else:
        label_idx = None

    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    n, f = len(rows), len(feature_names)
    if n == 0:
        raise DataError(f"{path} has a header but no data rows")
    matrix = np.empty((n, f), dtype=np.float64)
    labels = np.zeros(n, dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}:{r + 2}: expected {len(header)} fields, got {len(row)}"
            )
        c = 0
        for i, cell in enumerate(row):
            if i == label_idx:
                labels[r] = cell.strip().lower() in anomaly_values
            else:
                matrix[r, c] = _parse_cell(cell)
                c += 1

    schema = infer_schema(matrix, feature_names, categorical=categorical, real=real)
    return Dataset(matrix, schema, labels, name=name or path.stem)


def write_delimited(
    dataset: Dataset, path: "str | Path", *, delimiter: str = ",", label_column: str = "label"
) -> None:
    """Write a :class:`Dataset` back out (round-trips with
    :func:`read_delimited` given matching kind declarations)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.schema.names() + [label_column])
        for row, is_anom in zip(dataset.x, dataset.is_anomaly):
            cells = ["" if np.isnan(v) else repr(float(v)) for v in row]
            writer.writerow(cells + ["1" if is_anom else "0"])
