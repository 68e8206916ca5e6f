"""Dataset generation, CSV ingestion, and preprocessing.

Datasets flow in as CSV tables with one row per sample: every column except
the group column is a numeric feature, and the group column assigns each
sample to a demographic group.  Rows become sample columns of the (d, N)
matrix, re-ordered so each group occupies one contiguous block (groups keep
first-appearance order, samples keep file order within their group).

load_csv_grouped follows the csv module's quoting rules and skips blank
lines, which do not count as rows.  It reads the header with csv.reader,
then parses the data rows in one pass of numpy's C reader (np.loadtxt),
which reads each value with the routine Python's float uses, so every value
rounds exactly as float rounds it.  Its csv loop, which parses each value
with float, runs instead where that pass gives up: the header spans lines,
the file cannot be rewound, no data row follows the header, numpy refuses
a row or value, or a value is not finite.  That loop is the only source of
the DataError row reports, and both give the same dataset, bit for bit.
Neither keeps a Python object per value: a load holds one table of about 8
bytes per value (numpy's holds the group ids as one more column), plus the
one copy the dataset keeps in sample-column order, plus one more to gather
the rows of groups that are not each consecutive in the file.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DataError, DimensionError, check_count
from .problem import GroupedDataset


# The provenance and preprocessing keys of a dataset_meta dict, with the
# values they take when describe is not given them.
_META_DEFAULTS: dict[str, Any] = {
    "generator": None,
    "seed": None,
    "source": None,
    "normalized": False,
    "centered": False,
    "standardized": False,
    "min_norm_threshold": 0.0,
}


def describe(data: GroupedDataset, **fields: Any) -> dict[str, Any]:
    """The dataset_meta dict that reports and meta files carry: the shape of
    data, consistent with it by construction, plus the provenance and
    preprocessing fields (generator, seed, source, normalized, centered,
    standardized, min_norm_threshold); fields not given take their defaults."""
    unknown = sorted(set(fields) - set(_META_DEFAULTS))
    if unknown:
        raise TypeError(f"describe() got unknown field(s) {', '.join(unknown)}")
    return {
        "name": data.name,
        "d": data.d,
        "num_samples": data.num_samples,
        "num_groups": data.num_groups,
        "group_sizes": list(data.group_sizes),
        **_META_DEFAULTS,
        **fields,
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


def _text_lines(handle: Iterable[str], path) -> Iterator[str]:
    """The lines of handle, with a failure to decode them as a DataError."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode as text: {exc}") from None


def _numpy_lines(lines: Iterable[str]) -> Iterator[str]:
    """lines, raising ValueError at one that holds a character from U+001C
    to U+001F: numpy strips these from around a number, where float refuses
    it.  The four substring tests did not measurably slow the numpy pass on
    the blocks-compare benchmark's CSV."""
    for line in lines:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("an information separator, U+001C to U+001F")
        yield line


def _load_rows_numpy(handle: Iterator[str], width: int, group_at: int,
                     name: str) -> GroupedDataset | None:
    """The data rows after the header, parsed in one pass of numpy's C
    reader into the dataset load_csv_grouped's csv loop would build, or None
    where that loop must run instead:

    - numpy refuses a row or value: a decode error, a short or long row, or
      a value float may accept, such as 1_0 or non-ASCII digits;
    - a line holds U+001C to U+001F (see _numpy_lines);
    - no data row follows the header, where numpy would warn;
    - the rows are not as wide as the header, or a value is not finite,
      since only the csv loop reports bad rows.

    numpy parses each value with the routine Python's float uses, so it
    rounds the same, and splits quoted fields and skips blank lines as the
    csv module does.  One converter maps the group field to ids in
    first-appearance order, so the table is N x width doubles with the ids
    in the group column.
    """
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
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    codes = table[:, group_at].astype(np.intp)
    # drop the group column in place, one column at a time, so the table
    # stays the only copy of the data until the dataset makes X
    for j in range(group_at, width - 1):
        table[:, j] = table[:, j + 1]
    rows = table[:, :width - 1]
    # a stable sort of the ids is the csv loop's gather: groups in
    # first-appearance order, file order within each
    if (codes[1:] < codes[:-1]).any():
        rows = rows[np.argsort(codes, kind="stable")]
    sizes = tuple(np.bincount(codes).tolist())
    return GroupedDataset(rows.T, sizes, labels=tuple(ids), name=name)


def load_csv_grouped(path, group_column: str = "group") -> GroupedDataset:
    """Read a one-row-per-sample CSV into a GroupedDataset.

    Raises DataError when the file is not text, the header repeats a name,
    the group column is missing, a row has more or fewer values than the
    header, any feature value is absent or non-numeric or non-finite
    (reporting the offending rows), or the table has no samples or no
    feature columns.
    """
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
        width, d = len(columns), len(columns) - 1
        if d == 0:
            raise DataError(f"{path}: no feature columns besides {group_column!r}")
        group_at = columns.index(group_column)
        # The numpy pass runs only on a one-line header and a handle that
        # can be rewound: where it gives up, the csv loop reads the rows
        # again through the same reader, which reads on from the handle's
        # position
        if reader.line_num == 1 and handle.seekable():
            data = _load_rows_numpy(handle, width, group_at, Path(path).stem)
            if data is not None:
                return data
            handle.seek(0)
            next(reader)
        # Data row i (blank lines skipped and not counted) fills
        # values[i * d:(i + 1) * d]; a bad row is stored as NaNs, so the
        # finite test below finds it with the non-finite ones.
        values = array("d")
        bad_row = array("d", [np.nan]) * d
        members: defaultdict[str, list[int]] = defaultdict(list)
        for i, row in enumerate(filter(None, reader)):
            if len(row) == width:
                key = row.pop(group_at)
                try:
                    values.extend(map(float, row))
                except ValueError:
                    del values[i * d:]
                else:
                    members[key].append(i)
                    continue
            values.extend(bad_row)
    rows = np.frombuffer(values).reshape(-1, d)
    bad_rows = (np.flatnonzero(~np.isfinite(rows).all(axis=1)) + 1).tolist()
    if bad_rows:
        shown = ", ".join(str(r) for r in bad_rows[:10])
        suffix = "" if len(bad_rows) <= 10 else f" (+{len(bad_rows) - 10} more)"
        raise DataError(f"{path}: non-numeric, missing or extra values in rows {shown}{suffix}")
    if not members:
        raise DataError(f"{path}: no data rows")
    # Groups in first-appearance order.  When each group's rows are already
    # consecutive that is file order and the gather is skipped, so the
    # dataset's C-order X is the only copy of the buffer.
    if any(idx[-1] - idx[0] >= len(idx) for idx in members.values()):
        rows = rows[np.concatenate([*members.values()])]
    sizes = tuple(map(len, members.values()))
    return GroupedDataset(rows.T, sizes, labels=tuple(members), name=Path(path).stem)


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
        mean = X.mean(axis=1, keepdims=True)
        std = X.std(axis=1, keepdims=True)
        std[std == 0.0] = 1.0
        X = (X - mean) / std
    if center:
        X = X - X.mean(axis=0, keepdims=True)
    if normalize:
        norms = np.linalg.norm(X, axis=0, keepdims=True)
        norms[norms == 0.0] = 1.0
        X = X / norms
    return GroupedDataset(X, sizes, labels=labels, name=data.name)
