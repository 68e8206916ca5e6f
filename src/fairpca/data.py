"""Dataset generation, CSV ingestion, and preprocessing.

Datasets flow in as CSV tables with one row per sample: every column except
the group column is a numeric feature, and the group column assigns each
sample to a demographic group.  Rows become sample columns of the (d, N)
matrix, re-ordered so each group occupies one contiguous block (groups keep
first-appearance order, samples keep file order within their group).
"""

from __future__ import annotations

import csv
import io
import warnings
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


def load_csv_grouped(path, group_column: str = "group") -> GroupedDataset:
    """Read a one-row-per-sample CSV into a GroupedDataset.

    Raises DataError when the file is not text, the group column is missing,
    a row has more values than the header, any feature value is absent or
    non-numeric or non-finite (reporting the offending rows), or the table
    has no samples or no feature columns.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(_text_lines(handle, path))
        columns = reader.fieldnames
        if columns is None:
            raise DataError(f"{path}: empty file, expected a CSV header")
        if group_column not in columns:
            raise DataError(
                f"{path}: missing group column {group_column!r}; columns are {columns}"
            )
        features = [c for c in columns if c != group_column]
        if not features:
            raise DataError(f"{path}: no feature columns besides {group_column!r}")
        by_group: dict[str, list[list[float]]] = {}
        bad_rows: list[int] = []
        for row_num, row in enumerate(reader, start=1):
            try:
                vec = [float(row[c]) for c in features]
            except (TypeError, ValueError):
                bad_rows.append(row_num)
                continue
            key = row.get(group_column)
            # DictReader files the values past the header under the key None
            if not all(np.isfinite(vec)) or key is None or None in row:
                bad_rows.append(row_num)
                continue
            by_group.setdefault(key, []).append(vec)
    if bad_rows:
        shown = ", ".join(str(r) for r in bad_rows[:10])
        suffix = "" if len(bad_rows) <= 10 else f" (+{len(bad_rows) - 10} more)"
        raise DataError(f"{path}: non-numeric, missing or extra values in rows {shown}{suffix}")
    if not by_group:
        raise DataError(f"{path}: no data rows")
    labels = tuple(by_group.keys())
    X = np.concatenate([np.asarray(by_group[g], dtype=float).T for g in labels], axis=1)
    sizes = tuple(len(by_group[g]) for g in labels)
    return GroupedDataset(X, sizes, labels=labels, name=Path(path).stem)


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
    removed with a warning; dropping everything raises DataError.  Re-running
    with the same settings is the identity.
    """
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
    # C order, so the transforms below round the same for any group sizes
    X = np.ascontiguousarray(data.X[:, keep])
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
