"""Dataset generation, CSV ingestion, and preprocessing.

Datasets flow in as CSV tables with one row per sample: every column except
the group column is a numeric feature, and the group column assigns each
sample to a demographic group.  Rows become sample columns of the (d, N)
matrix, re-ordered so each group occupies one contiguous block (groups keep
first-appearance order, samples keep file order within their group).

load_csv_grouped follows the csv module's quoting rules, loads fields of
any length and skips blank lines, which do not count as rows.  It reads the
header with csv.reader, then parses the data rows in one pass of numpy's C
reader (np.loadtxt), which reads each value with the routine Python's float
uses, so every value rounds exactly as float rounds it.  Its csv loop,
which parses each value with float, reads the rows instead where the file
cannot be rewound (a pipe), no data row follows the header, or numpy
refuses the text.  Both give one table, N x (d + 1) doubles with each
row's group id in the group column and NaNs in a bad row, and the same
code reports its bad rows and builds the dataset from it, so both give the
same dataset, bit for bit, or the same DataError.  A load holds that table,
plus the one copy the dataset keeps in sample-column order, plus one more
to gather the rows of groups that are not each consecutive in the file.
"""

from __future__ import annotations

import csv
import io
import itertools
import sys
import warnings
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DataError, DimensionError, NumericalError, check_count
from .problem import GroupedDataset, _scaled


def describe(data: GroupedDataset, *, generator: str | None = None, seed: int | None = None,
             source: str | None = None, normalized: bool = False, centered: bool = False,
             standardized: bool = False, min_norm_threshold: float = 0.0) -> dict[str, Any]:
    """The dataset_meta dict that reports and meta files carry: the shape of
    data, consistent with it by construction, then the provenance fields
    generator, seed and source, and the preprocessing fields normalized,
    centered, standardized and min_norm_threshold, each as given."""
    return {
        "name": data.name,
        "d": data.d,
        "num_samples": data.num_samples,
        "num_groups": data.num_groups,
        "group_sizes": list(data.group_sizes),
        "generator": generator,
        "seed": seed,
        "source": source,
        "normalized": normalized,
        "centered": centered,
        "standardized": standardized,
        "min_norm_threshold": min_norm_threshold,
    }


def gen_synthetic_gaussian(d: int, n: int, seed: int) -> GroupedDataset:
    """n singleton groups of standard Gaussian samples in R^d (the n = N regime)."""
    check_count("d", d, 1)
    check_count("n", n, 1)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    X = rng.standard_normal((d, n))
    return GroupedDataset(X, (1,) * n, name=f"gaussian-d{d}-n{n}-seed{seed}")


def gen_synthetic_blocks(
    d: int,
    group_sizes: Sequence[int],
    seed: int,
    scales: Sequence[float] | None = None,
) -> GroupedDataset:
    """Gaussian block groups with per-group covariance scaling.

    Group i draws N_i columns from N(0, Sigma_i / N_i) with
    Sigma_i = s_i^2 Q_i diag(a_i) Q_i^T: a random eigenbasis Q_i, mild
    anisotropy a_i in [0.7, 1.3), and an overall scale s_i in [0.6, 1.4)
    unless scales pins it.  Dividing by N_i keeps X_i X_i^T close to Sigma_i,
    so group variances stay O(r) while differing across groups; a group with
    scale 0 contributes f_i identically zero.
    """
    check_count("d", d, 1)
    sizes = tuple(check_count(f"group_sizes[{i}]", s, 1) for i, s in enumerate(group_sizes))
    if len(sizes) == 0:
        raise DimensionError("group_sizes must be non-empty")
    if scales is not None and len(scales) != len(sizes):
        raise DimensionError(f"got {len(scales)} scales for {len(sizes)} groups")
    rng = np.random.default_rng(check_count("seed", seed, 0))
    blocks = []
    for i, n_i in enumerate(sizes):
        s_i = rng.uniform(0.6, 1.4)
        if scales is not None:
            s_i = float(scales[i])
        A = rng.standard_normal((d, d))
        Q, _, Vt = np.linalg.svd(A)
        basis = Q @ Vt
        aniso = rng.uniform(0.7, 1.3, d)
        G = rng.standard_normal((d, n_i))
        blocks.append((s_i / np.sqrt(n_i)) * (basis @ (np.sqrt(aniso)[:, None] * (basis.T @ G))))
    X = np.concatenate(blocks, axis=1)
    return GroupedDataset(
        X, sizes, name=f"blocks-d{d}-n{len(sizes)}-seed{seed}"
    )


def _text_lines(handle: Iterator[str], path) -> Iterator[str]:
    """The lines of handle, the first without a leading byte-order mark,
    U+FEFF, which spreadsheets' "CSV UTF-8" exports start with, and with a
    failure to decode them as a DataError.  The mark goes before the csv
    module reads the header, so a quoted first name is unquoted as usual."""
    try:
        for line in handle:
            yield line.removeprefix("\ufeff")
            break
        yield from handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode as text: {exc}") from None


def _numpy_lines(lines: Iterable[str]) -> Iterator[str]:
    """lines, raising ValueError at one that holds a character from U+001C
    to U+001F: numpy strips these from around a number, where float refuses
    it."""
    for line in lines:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("an information separator, U+001C to U+001F")
        yield line


def _load_rows_numpy(handle: Iterator[str], width: int,
                     group_at: int) -> tuple[np.ndarray, dict[str, int]] | None:
    """The data rows after the header as _load_rows_csv's table and ids,
    parsed in one pass of numpy's C reader, which splits quoted fields,
    skips blank lines and rounds each value as the csv module and float do.
    None where numpy refuses the text (a decode error, a short or long row,
    a value only float reads, such as 1_0 or non-ASCII digits, or a line
    with U+001C to U+001F), no data row follows the header, where numpy
    would warn, or the table is not as wide as the header."""
    # a line that is more than its line break is a row to csv, and to numpy
    # a row or an error
    for line in handle:
        if line.rstrip("\r\n"):
            break
    else:
        return None
    ids: dict[str, int] = {}
    try:
        table = np.loadtxt(
            _numpy_lines(itertools.chain([line], handle)), dtype=float, delimiter=",",
            quotechar='"', comments=None, ndmin=2,
            converters={group_at: lambda label: ids.setdefault(label, len(ids))})
    except ValueError:
        return None
    return (table, ids) if table.shape[1] == width else None


def _load_rows_csv(rows: Iterable[list[str]], width: int,
                   group_at: int) -> tuple[np.ndarray, dict[str, int]]:
    """The data rows as an N x width table of floats, with each row's group
    id in the group column, and the ids by label in first-appearance order.
    Data row i (blank lines skipped and not counted) is row i of the table;
    a row float cannot read, or one not as wide as the header, is NaNs."""
    values = array("d")
    bad_row = array("d", [np.nan]) * width
    ids: dict[str, int] = {}
    for i, row in enumerate(filter(None, rows)):
        if len(row) == width:
            row[group_at] = ids.setdefault(row[group_at], len(ids))
            try:
                values.extend(map(float, row))
            except ValueError:
                del values[i * width:]
            else:
                continue
        values.extend(bad_row)
    return np.frombuffer(values).reshape(-1, width), ids


def load_csv_grouped(path, group_column: str = "group") -> GroupedDataset:
    """Read a one-row-per-sample CSV into a GroupedDataset.

    Raises DataError when the file is not text, the header repeats a name,
    the group column is missing, a row has more or fewer values than the
    header, any feature value is absent or non-numeric or non-finite
    (reporting the offending rows), or the table has no samples or no
    feature columns.  Fields of any length load: the csv module's field
    size limit, which is process-wide, is lifted for the call and restored
    after it.
    """
    limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(_text_lines(handle, path))
            columns = next(reader, None)
            if columns is None:
                raise DataError(f"{path}: empty file, expected a CSV header")
            repeated = sorted(c for c, count in Counter(columns).items() if count > 1)
            if repeated:
                raise DataError(f"{path}: the header repeats column name(s) {repeated}")
            if group_column not in columns:
                raise DataError(
                    f"{path}: missing group column {group_column!r}; columns are {columns}"
                )
            width = len(columns)
            if width == 1:
                raise DataError(f"{path}: no feature columns besides {group_column!r}")
            group_at = columns.index(group_column)
            # The numpy pass needs a handle that can be rewound: where it
            # gives up, the csv loop reads the rows again through the same
            # reader, which reads on from the handle's position
            loaded = None
            if handle.seekable():
                loaded = _load_rows_numpy(handle, width, group_at)
                if loaded is None:
                    handle.seek(0)
                    next(reader)
            table, ids = loaded or _load_rows_csv(reader, width, group_at)
    finally:
        csv.field_size_limit(limit)
    # Both readers end here.  A row that is not all finite is a bad row.
    if not np.isfinite(table).all():
        bad_rows = (np.flatnonzero(~np.isfinite(table).all(axis=1)) + 1).tolist()
        shown = ", ".join(str(r) for r in bad_rows[:10])
        suffix = "" if len(bad_rows) <= 10 else f" (+{len(bad_rows) - 10} more)"
        raise DataError(f"{path}: non-numeric, missing or extra values in rows {shown}{suffix}")
    if not len(table):
        raise DataError(f"{path}: no data rows")
    codes = table[:, group_at].astype(np.intp)
    # drop the group column in place, one column at a time, so the table
    # stays the only copy of the data until the dataset makes X
    for j in range(group_at, table.shape[1] - 1):
        table[:, j] = table[:, j + 1]
    rows = table[:, :-1]
    # a stable sort of the ids gathers the groups in first-appearance order,
    # file order within each, where some group's rows are not consecutive
    if (codes[1:] < codes[:-1]).any():
        rows = rows[np.argsort(codes, kind="stable")]
    sizes = tuple(np.bincount(codes).tolist())
    return GroupedDataset(rows.T, sizes, labels=tuple(ids), name=Path(path).stem)


def dataset_csv_text(data: GroupedDataset) -> str:
    """Render a GroupedDataset in the format load_csv_grouped reads, with the
    group labels in the column it reads by default, "group".

    Floats are written with repr (shortest round-trip form), so rendering the
    same dataset twice produces identical bytes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([f"feature_{j}" for j in range(data.d)] + ["group"])
    for x, label in zip(data.X.T, np.repeat(data.labels, data.group_sizes)):
        writer.writerow([repr(float(v)) for v in x] + [str(label)])
    return buffer.getvalue()


def preprocess(
    data: GroupedDataset,
    *,
    normalize: bool = False,
    center: bool = False,
    min_norm_threshold: float = 0.0,
    standardize_features: bool = False,
) -> GroupedDataset:
    """Drop tiny samples, then optionally transform the survivors.

    Samples with ||x|| < min_norm_threshold (norms measured on the input) are
    dropped first.  Then, in order: per-feature standardization across the
    dataset (off by default), per-sample centering to zero mean across the
    sample's entries, per-sample scaling to unit norm.  Groups left empty are
    removed with a warning; dropping everything raises DataError.  A
    min_norm_threshold that is NaN or negative raises ValueError.  Re-running
    with the same settings is the identity.

    All three transforms follow one rule, that of sample_norms: a feature
    (for its std) or a sample (for its mean and norm) whose largest entry in
    size is nonzero and outside [2^-480, 2^480] is measured divided by that
    entry, so huge and tiny data are transformed as unit-scale data are,
    within rounding, and without a warning.  Wherever every slice is in
    range the results are those of the plain numpy reductions.  Centering
    whose differences pass the largest double raises NumericalError.
    """
    if not min_norm_threshold >= 0.0:
        raise ValueError(f"min_norm_threshold must be non-negative, got {min_norm_threshold!r}")
    keep = data.sample_norms() >= float(min_norm_threshold)
    if not keep.any():
        raise DataError("preprocessing dropped every sample")
    kept = np.add.reduceat(keep, data.starts)
    dropped_groups = [label for label, count in zip(data.labels, kept) if count == 0]
    if dropped_groups:
        warnings.warn(
            f"groups emptied by the norm threshold and removed: {dropped_groups}",
            stacklevel=2,
        )
    sizes = tuple(count for count in kept if count)
    labels = tuple(label for label, count in zip(data.labels, kept) if count)
    # C order, so the transforms below round the same for any group sizes;
    # data.X already is, and is left uncopied when no sample is dropped
    X = data.X if keep.all() else np.ascontiguousarray(data.X[:, keep])
    if standardize_features:
        X, std, _ = _scaled(np.std, X, 1)
        std[std == 0.0] = 1.0
        X = (X - X.mean(axis=1, keepdims=True)) / std
    if center:
        _, mean, scale = _scaled(np.mean, X, 0)
        with np.errstate(over="ignore"):
            X = X - mean * scale
        if not np.isfinite(X).all():
            raise NumericalError("centering overflows: a sample's entries lie too far "
                                 "apart for their differences from its mean to be doubles")
    if normalize:
        X, norms, _ = _scaled(np.linalg.norm, X, 0)
        norms[norms == 0.0] = 1.0
        X = X / norms
    return GroupedDataset(X, sizes, labels=labels, name=data.name)
