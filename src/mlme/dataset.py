"""Multi-label dataset loading, validation, partitioning and instance weights.

A dataset couples an N x (m+1) feature matrix (column 0 is a constant 1.0
bias term) with an N x d binary label matrix.  All downstream linear models
are (m+1)-dimensional, so the bias is materialized here once instead of
being special-cased in every model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DataParseError,
    LabelError,
    SchemaError,
    UnsupportedAttributeError,
    check_count,
    check_width,
)


@dataclass(frozen=True)
class Dataset:
    """Immutable container for N instances of (biased features, binary labels)."""

    features: np.ndarray  # (N, m+1) float64
    labels: np.ndarray    # (N, d) int8

    def __post_init__(self):
        # copy so freezing never mutates a caller-owned array
        X = np.array(self.features, dtype=np.float64, order="C")
        Y = np.array(self.labels, dtype=np.int8, order="C")
        if X.ndim != 2 or Y.ndim != 2:
            raise ArgumentError("features and labels must be 2-D arrays")
        if X.shape[0] != Y.shape[0]:
            raise ArgumentError(
                f"feature rows ({X.shape[0]}) != label rows ({Y.shape[0]})")
        if X.shape[0] < 1:
            raise ArgumentError("dataset needs at least one instance")
        if X.shape[1] < 1 or not np.all(X[:, 0] == 1.0):
            raise ArgumentError("features[:, 0] must be the constant 1.0 bias term")
        if not np.all(np.isfinite(X)):
            raise ArgumentError("feature values must be finite")
        if not np.isin(Y, (0, 1)).all():
            raise LabelError("labels must be 0 or 1")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", Y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        """Feature dimensionality excluding the bias term."""
        return self.features.shape[1] - 1

    @property
    def d(self) -> int:
        return self.labels.shape[1]

    @classmethod
    def from_raw(cls, raw_features: np.ndarray, labels: np.ndarray) -> "Dataset":
        """Build a dataset from an unbias-ed (N, m) feature matrix."""
        raw = np.asarray(raw_features, dtype=np.float64)
        if raw.ndim != 2:
            raise ArgumentError("raw feature matrix must be 2-D")
        X = np.hstack([np.ones((raw.shape[0], 1)), raw])
        return cls(X, np.asarray(labels))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx])

    def save_csv(self, path) -> None:
        """Write the dataset back out as CSV (bias column dropped).

        Floats are written with repr precision so that a reload is
        bitwise-identical to the original dataset.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# m={self.m} d={self.d}\n")
            for i in range(self.n):
                feats = [repr(v) for v in self.features[i, 1:].tolist()]
                labs = [str(int(v)) for v in self.labels[i]]
                fh.write(",".join(feats + labs) + "\n")


def as_weight_array(w, n: int) -> np.ndarray:
    """Validate per-instance weights: length n, finite and nonnegative."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (n,):
        raise ArgumentError(f"weight vector has length {arr.shape}, expected ({n},)")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ArgumentError("weights must be finite and nonnegative")
    return arr


def _parse_float_rows(rows: Iterable[Sequence[str]], path) -> np.ndarray:
    """(N, c) float matrix of rows of string cells, numbered from 1.

    An unparsable or non-finite cell raises DataParseError naming its row,
    and a file ``path`` without rows raises SchemaError.  Rows are parsed as
    they are drawn, so an error the iterator raises for a row comes before
    a parse error on any later row.
    """
    values = []
    for parts in rows:
        try:
            values.append([float(p) for p in parts])
        except ValueError:
            bad = next(p for p in parts if not _is_float(p))
            raise DataParseError(f"row {len(values) + 1}: could not parse "
                                 f"value '{bad.strip()}'") from None
    if not values:
        raise SchemaError(f"{path}: no data rows")
    values = np.asarray(values)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataParseError(f"row {r + 1}: non-finite value '{values[r, c]}'")
    return values


def _csv_cells(lines, comment="#", width=None,
               sparse_ok=True) -> Iterator[list[str]]:
    """Cells of each line that is neither blank nor a ``comment`` line.

    Every row must have ``width`` cells, by default the first row's.  A
    sparse ARFF row ``{...}`` is unsupported unless ``sparse_ok``.
    """
    row = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith(comment):
            continue
        if not sparse_ok and line.startswith("{"):
            raise UnsupportedAttributeError(
                "sparse ARFF data rows are not supported")
        parts = line.split(",")
        row += 1
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise SchemaError(f"row {row}: expected {width} "
                              f"columns, got {len(parts)}")
        yield parts


def _split_labels(values: np.ndarray, d: int) -> Dataset:
    """Dataset of a parsed table whose last ``d`` columns are 0/1 labels.

    The other columns, at least one, are the features.  Both are sliced as
    views, so from_raw's biased matrix is the one copy of the features.
    """
    if values.shape[1] < d + 1:
        raise SchemaError(f"row 1: needs at least {d + 1} columns "
                          f"(>=1 feature + {d} labels), got {values.shape[1]}")
    labels = values[:, -d:]
    bad = np.argwhere(~np.isin(labels, (0.0, 1.0)))
    if bad.size:
        r = bad[0, 0]
        raise LabelError(f"row {r + 1}: label values must be 0 or 1, "
                         f"got {labels[r].tolist()}")
    return Dataset.from_raw(values[:, :-d], labels.astype(np.int8))


def load_csv(path, d: int) -> Dataset:
    """Load a comma-separated file whose last ``d`` columns are binary labels.

    Lines starting with '#' and blank lines are skipped; rows are numbered
    from 1 over the remaining lines, and an unparsable or non-finite cell
    raises DataParseError naming its row.  The feature count m is inferred
    from the column count; a bias column is prepended.
    """
    check_count(d, "label count d", 1)
    with open(path, "r", encoding="utf-8") as fh:
        return _split_labels(_parse_float_rows(_csv_cells(fh), path), d)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def load_arff(path, label_names: Sequence[str]) -> Dataset:
    """Load a Mulan-style dense ARFF file, extracting labels by attribute name.

    Numeric attributes and {0,1} nominal attributes are accepted; anything
    else raises.  Every attribute name must be declared once; label
    attributes may appear at any column position, each named once.  The
    @data rows go through the CSV reader with '%' comments and the
    attribute count as their width, so both formats reject the same cells.
    """
    with _arff_cells(path, label_names) as (names, label_idx, rows):
        values = _parse_float_rows(rows, path)
    order = [i for i in range(len(names)) if i not in label_idx]
    return _split_labels(values[:, order + label_idx], len(label_idx))


def read_features(path, m: int, d: int,
                  label_names: Sequence[str] | None = None) -> np.ndarray:
    """(N, m+1) biased feature matrix of a data file for a model of m features.

    The file is an ARFF when ``label_names`` is given, else a CSV, read as
    in load_arff and load_csv.  Label cells are dropped unparsed: an ARFF's
    ``label_names`` columns, and a CSV's trailing d cells when its rows have
    m + d.  So a test set whose labels are unknown ('?') reads like a
    labeled one.  A feature count other than m raises SchemaError.
    """
    if label_names is None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _parse_float_rows((parts[:m] if len(parts) == m + d else parts
                                     for parts in _csv_cells(fh)), path)
    else:
        with _arff_cells(path, label_names) as (names, label_idx, rows):
            keep = [i for i in range(len(names)) if i not in label_idx]
            raw = _parse_float_rows(([parts[i] for i in keep] for parts in rows),
                                    path)
    if raw.shape[1] != m:
        raise SchemaError(
            f"model expects m={m} features but data has m={raw.shape[1]}")
    return np.hstack([np.ones((raw.shape[0], 1)), raw])


@contextmanager
def _arff_cells(path, label_names: Sequence[str]):
    """Attribute names, the column of each label name and the @data cell rows.

    The header is checked on entry, an empty ``label_names`` before the
    file is opened; the rows are read while the context is open.
    """
    if not label_names:
        raise ArgumentError("label_names must name at least one label")
    names: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            low = raw.strip().lower()
            if low.startswith("@attribute"):
                names.append(_parse_arff_attribute(raw.strip()))
            elif low.startswith("@data"):
                break
        if not names:
            raise SchemaError(f"{path}: no @attribute declarations found")
        twice = [n for n in dict.fromkeys(names) if names.count(n) > 1]
        if twice:
            raise SchemaError(f"repeated attribute name(s): {', '.join(twice)}")
        missing = [ln for ln in label_names if ln not in names]
        if missing:
            raise SchemaError(
                f"unknown label attribute(s): {', '.join(missing)}")
        repeated = [ln for ln in dict.fromkeys(label_names)
                    if label_names.count(ln) > 1]
        if repeated:
            raise SchemaError(
                f"repeated label attribute(s): {', '.join(repeated)}")
        yield (names, [names.index(ln) for ln in label_names],
               _csv_cells(fh, "%", len(names), sparse_ok=False))


def _parse_arff_attribute(line: str) -> str:
    """Name of a numeric or {0,1} nominal attribute; other types raise.

    A line without a (closed, if quoted) name and a type raises SchemaError.
    """
    body = line[len("@attribute"):].strip()
    if body.startswith(("'", '"')):
        end = body.find(body[0], 1)        # -1 when the quote is unterminated
        split = [body[1:end], body[end + 1:]] if end > 0 else []
    else:
        split = body.split(None, 1)
    if len(split) != 2 or not split[1].strip():
        raise SchemaError(f"malformed attribute line: {line}")
    name, rest = split[0], split[1].strip()
    if rest.startswith("{"):
        values = {v.strip().strip("'\"") for v in rest.strip("{}").split(",")}
        if values <= {"0", "1"}:
            return name
        raise UnsupportedAttributeError(
            f"attribute '{name}' has non-binary nominal domain {sorted(values)}")
    if rest.lower() in ("numeric", "real", "integer"):
        return name
    raise UnsupportedAttributeError(
        f"attribute '{name}' has unsupported type '{rest}'")


def check_fold_count(k: int) -> None:
    check_count(k, "fold count k", 2)


def split_folds(data: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Seeded k-fold partition into (train, test) pairs.

    Test partitions are disjoint, cover every instance exactly once and
    differ in size by at most one.
    """
    check_fold_count(k)
    check_count(seed, "seed", 0)
    if k > data.n:
        raise ArgumentError(f"fold count k={k} exceeds N={data.n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    parts = np.array_split(perm, k)
    folds = []
    for i in range(k):
        test_idx = np.sort(parts[i])
        train_idx = np.sort(np.concatenate([parts[j] for j in range(k) if j != i]))
        folds.append((data.subset(train_idx), data.subset(test_idx)))
    return folds


def holdout_split(
    data: Dataset,
    weights,
    ratio: float,
    seed: int,
) -> tuple[tuple[Dataset, np.ndarray], tuple[Dataset, np.ndarray]]:
    """Seeded disjoint split into (train, holdout) with weights carried along.

    The holdout size is round(ratio * N) clamped to [1, N-1].  Weights come
    back as plain arrays; one side of a partition may carry zero total mass.
    """
    if not 0.0 < ratio < 1.0:
        raise ArgumentError("holdout ratio must be in (0, 1)")
    if data.n < 2:
        raise ArgumentError("holdout split needs at least 2 instances")
    check_count(seed, "seed", 0)
    w = as_weight_array(weights, data.n)
    n_hold = int(round(ratio * data.n))
    n_hold = min(max(n_hold, 1), data.n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    hold_idx = np.sort(perm[:n_hold])
    train_idx = np.sort(perm[n_hold:])
    return (
        (data.subset(train_idx), w[train_idx].copy()),
        (data.subset(hold_idx), w[hold_idx].copy()),
    )


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring fit on training data; the bias column is untouched."""

    mean: np.ndarray   # (m,) over non-bias columns
    scale: np.ndarray  # (m,) strictly positive

    @classmethod
    def fit(cls, data: Dataset) -> "Standardizer":
        cols = data.features[:, 1:]
        mean = cols.mean(axis=0)
        scale = cols.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean, scale)

    def transform_features(self, features: np.ndarray) -> np.ndarray:
        """Z-score the non-bias columns of an (N, m+1) biased feature matrix."""
        out = np.array(features, dtype=np.float64)
        if out.ndim != 2:
            raise ArgumentError(
                f"scaler expects an (N, m+1) feature matrix, got shape {out.shape}")
        check_width("scaler", self.mean.shape[0] + 1, out.shape[-1])
        out[:, 1:] = (out[:, 1:] - self.mean) / self.scale
        return out

    def transform(self, data: Dataset) -> Dataset:
        return Dataset(self.transform_features(data.features), data.labels)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}
