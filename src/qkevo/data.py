"""CSV ingestion, feature scaling, train/test splits and combo sampling.

The expected CSV layout is a UTF-8 header row naming every column, comma
separators, plain decimal numerics and one label column (named or by
position).  Identical file bytes always load to identical datasets.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class Dataset:
    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray
    class_names: list[str]


@dataclass
class SplitSpec:
    n_train: int
    n_test: int
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        for name, least in (("n_train", 1), ("n_test", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"split.{name} must be >= {least}, got {value}")


@dataclass
class TrainTestSplit:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def load_csv(path, label_column, positive_class: str | None = None) -> Dataset:
    """Load a dataset; the label column is named or given as an index.

    With ``positive_class``, labels are coded +1 for that class and -1 for
    everything else; otherwise labels become indices into the sorted class
    names.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # Blank lines are dropped; each row keeps its line in the file.
            rows = [(reader.line_num, r) for r in reader if r]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0][1]]
    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else len(header) + label_column
        if not 0 <= label_idx < len(header):
            raise DataError(f"{path}: label column index {label_column} out of range")
    else:
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows after the header")

    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    features, labels = [], []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(
                f"{path}: ragged row at line {lineno} "
                f"({len(row)} fields, expected {len(header)})"
            )
        labels.append(row[label_idx].strip())
        raw = [v for i, v in enumerate(row) if i != label_idx]
        try:
            features.append([float(v) for v in raw])
        except ValueError as exc:
            raise DataError(f"{path}: unparseable numeric at line {lineno}: {exc}") from exc

    X = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError(f"{path}: non-finite feature values")
    class_names = sorted(set(labels))
    if positive_class is not None:
        if positive_class not in class_names:
            raise DataError(f"{path}: positive class {positive_class!r} not present "
                            f"(classes: {class_names})")
        y = np.array([1 if lab == positive_class else -1 for lab in labels])
    else:
        index = {name: i for i, name in enumerate(class_names)}
        y = np.array([index[lab] for lab in labels])
    return Dataset(feature_names=feature_names, X=X, y=y, class_names=class_names)


def data_matrix(X, n_columns: int, name: str) -> np.ndarray:
    """X as a float matrix of ``n_columns`` columns; one row may come as a vector."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_columns:
        raise ValueError(f"{name} must have {n_columns} columns, got shape {X.shape}")
    return X


def minmax_columns(X: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Map each column affinely so min -> lo and max -> hi; constant ones -> lo."""
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    col_lo = X.min(axis=0)
    span = X.max(axis=0) - col_lo
    scaled = lo + (X - col_lo) / np.where(span > 0, span, 1.0) * (hi - lo)
    scaled[:, span == 0] = lo
    return scaled


def minmax_scale(dataset: Dataset, lo: float = 0.0, hi: float = 1.0) -> Dataset:
    """The dataset with its features mapped by :func:`minmax_columns`."""
    return Dataset(list(dataset.feature_names), minmax_columns(dataset.X, lo, hi),
                   dataset.y.copy(), list(dataset.class_names))


def subset_features(dataset: Dataset, indices) -> Dataset:
    """Dataset restricted to the given feature columns."""
    indices = list(indices)
    for i in indices:
        if not 0 <= i < dataset.X.shape[1]:
            raise DataError(f"feature index {i} out of range "
                            f"(dataset has {dataset.X.shape[1]} features)")
    return Dataset(feature_names=[dataset.feature_names[i] for i in indices],
                   X=dataset.X[:, indices].copy(), y=dataset.y.copy(),
                   class_names=list(dataset.class_names))


def _quotas(counts: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` across classes.  Only a
    class with a fractional share gets one more, so no quota exceeds its
    class's size while ``total`` is at most ``counts.sum()``."""
    exact = counts * (total / counts.sum())
    base = np.floor(exact).astype(int)
    remainder = total - base.sum()
    order = np.lexsort((np.arange(len(counts)), -(exact - base)))
    base[order[:remainder]] += 1
    return base


def split(dataset: Dataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train/test index arrays of the requested sizes."""
    n = dataset.X.shape[0]
    if spec.n_train + spec.n_test > n:
        raise DataError(f"infeasible split sizes {spec.n_train}+{spec.n_test} for {n} rows")
    rng = np.random.default_rng(spec.seed)
    if not spec.stratified:
        perm = rng.permutation(n)
        return (np.sort(perm[:spec.n_train]),
                np.sort(perm[spec.n_train:spec.n_train + spec.n_test]))
    classes, counts = np.unique(dataset.y, return_counts=True)
    train_quota = _quotas(counts, spec.n_train)
    # Test quotas come from the remaining per-class capacity, so the two
    # draws never overbook a class.
    test_quota = _quotas(counts - train_quota, spec.n_test) if spec.n_test else \
        np.zeros_like(train_quota)
    train_parts, test_parts = [], []
    for cls, q_train, q_test in zip(classes, train_quota, test_quota):
        members = np.flatnonzero(dataset.y == cls)
        shuffled = rng.permutation(members)
        train_parts.append(shuffled[:q_train])
        test_parts.append(shuffled[q_train:q_train + q_test])
    return (np.sort(np.concatenate(train_parts)),
            np.sort(np.concatenate(test_parts)))


def make_split(dataset: Dataset, spec: SplitSpec) -> TrainTestSplit:
    """Materialise a :class:`TrainTestSplit` from split indices."""
    train_idx, test_idx = split(dataset, spec)
    return TrainTestSplit(X_train=dataset.X[train_idx], y_train=dataset.y[train_idx],
                          X_test=dataset.X[test_idx], y_test=dataset.y[test_idx])


def check_scorable(tts: TrainTestSplit) -> None:
    """Refuse a split no classifier can be scored on: it needs test rows
    and at least two training classes."""
    if tts.y_test.size == 0:
        raise ConfigError("the split has no test rows to score accuracy on")
    if np.unique(tts.y_train).size < 2:
        raise ConfigError("the split's training rows hold a single class")


def sample_feature_combos(n_total: int, k: int, count: int,
                          seed: int = 0) -> list[tuple[int, ...]]:
    """``count`` distinct sorted k-subsets of range(n_total), seeded."""
    if not 1 <= k <= n_total:
        raise DataError(f"k must lie in [1, {n_total}], got {k}")
    if count < 1:
        raise ConfigError(f"combo count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"combo seed must be >= 0, got {seed}")
    total = math.comb(n_total, k)
    if count > total:
        raise DataError(f"cannot sample {count} distinct combos, only {total} exist")
    rng = np.random.default_rng(seed)
    if total <= max(1000, 4 * count):
        pool = list(combinations(range(n_total), k))
        picks = rng.choice(total, size=count, replace=False)
        return [pool[i] for i in picks]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        combo = tuple(sorted(int(v) for v in rng.choice(n_total, size=k, replace=False)))
        if combo not in seen:
            seen.add(combo)
            out.append(combo)
    return out
