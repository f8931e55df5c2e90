"""Data-separability indexes: SI, HMI and the KS/distance-based DSI.

All indexes use Euclidean distances.  SI and DSI are computed on the
coordinates they are given; HMI first rescales every feature to [0, 1]
(so it is invariant under per-feature affine changes of units).  The
:func:`compute_indexes` helper applies the same [0, 1] scaling before all
three, which is the convention used by the command-line reports.
"""
from __future__ import annotations

import numpy as np

from .data import minmax_columns

# Ways :func:`hypothesis_margin_index` aggregates the per-instance margins.
HMI_MODES = ("sum", "mean")


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``, >= 0."""
    sq_a = np.sum(a ** 2, axis=1)[:, None]
    sq_b = np.sum(b ** 2, axis=1)[None, :]
    return np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and of ``b``."""
    return np.sqrt(squared_distances(a, b))


def _as_labeled(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be 2-D with one label per row")
    return X, y


def _neighbour_distances(X: np.ndarray) -> np.ndarray:
    """Distance matrix of the rows of ``X`` with an infinite diagonal, so no
    row is its own nearest neighbour."""
    dist = _cross_distances(X, X)
    np.fill_diagonal(dist, np.inf)
    return dist


def _check_hmi(y: np.ndarray, mode: str) -> None:
    if mode not in HMI_MODES:
        raise ValueError(f"mode must be one of {HMI_MODES}, got {mode!r}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("hypothesis margin needs at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 members for a near-hit")


def _si(dist: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(y[dist.argmin(axis=1)] == y))


def _hmi(dist: np.ndarray, y: np.ndarray, mode: str) -> float:
    same = y[:, None] == y[None, :]
    near_hit = np.where(same, dist, np.inf).min(axis=1)
    near_miss = np.where(same, np.inf, dist).min(axis=1)
    theta = 0.5 * (near_miss - near_hit)
    return float(theta.sum() if mode == "sum" else theta.mean())


def separability_index(X, y) -> float:
    """Fraction of instances whose nearest neighbour shares their label.

    Self is excluded; distance ties resolve to the lowest index.
    """
    X, y = _as_labeled(X, y)
    if X.shape[0] < 2:
        raise ValueError("separability index needs at least 2 instances")
    return _si(_neighbour_distances(X), y)


def hypothesis_margin_index(X, y, mode: str = "sum") -> float:
    """Aggregate hypothesis margin 1/2 * (|x - nearmiss| - |x - nearhit|).

    Features are min-max scaled to [0, 1] first.  ``mode`` selects the
    aggregation: "sum" (default) or "mean" over instances.
    """
    X, y = _as_labeled(X, y)
    _check_hmi(y, mode)
    return _hmi(_neighbour_distances(minmax_columns(X)), y, mode)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance, exact via one merged sweep.

    A stable sort of the two sorted samples merges them.  At the last copy
    of each distinct value the running count of ``a`` values is #a <= v,
    and the position less that count is #b <= v.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs two non-empty samples")
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    last = np.append(merged[1:] != merged[:-1], True)
    del merged
    count_a = np.cumsum(order < a.size)[last]
    del order
    count_b = np.flatnonzero(last) + 1 - count_a
    return float(np.max(np.abs(count_a / a.size - count_b / b.size)))


def _intra_distances(points: np.ndarray) -> np.ndarray:
    # A boolean mask gathers the strict upper triangle in the same row-major
    # order as np.triu_indices, at a fraction of the cost.
    n = points.shape[0]
    return _cross_distances(points, points)[np.triu(np.ones((n, n), dtype=bool), k=1)]


def dsi_two_class(x_points, y_points) -> float:
    """Mean KS distance between each class's intra-class distance set and
    the between-class distance set."""
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    if x_points.shape[0] < 2 or y_points.shape[0] < 2:
        raise ValueError("each class needs at least 2 points")
    bcd = _cross_distances(x_points, y_points)
    s_x = ks_statistic(_intra_distances(x_points), bcd)
    s_y = ks_statistic(_intra_distances(y_points), bcd)
    return 0.5 * (s_x + s_y)


def dsi(X, y) -> float:
    """Multiclass distance-based separability: mean of the one-vs-rest
    two-class values over the classes.  With two classes both terms
    describe the same pair, so one two-class value is the mean."""
    X, y = _as_labeled(X, y)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("DSI needs at least 2 classes")
    if classes.size == 2:
        return dsi_two_class(X[y == classes[0]], X[y == classes[1]])
    values = [dsi_two_class(X[y == c], X[y != c]) for c in classes]
    return float(np.mean(values))


def compute_indexes(X, y, hmi_mode: str = "sum") -> tuple[float, float, float]:
    """(SI, HMI, DSI) on features min-max scaled to [0, 1].

    SI and HMI share one distance matrix: rescaling rows already in [0, 1]
    leaves them bit for bit as they are, so HMI's own scaling is skipped.
    """
    X, y = _as_labeled(X, y)
    _check_hmi(y, hmi_mode)  # two classes of two rows also cover SI's two rows
    scaled = minmax_columns(X)
    dist = _neighbour_distances(scaled)
    si, hmi = _si(dist, y), _hmi(dist, y, hmi_mode)
    del dist  # released before DSI builds its own distance sets
    return si, hmi, dsi(scaled, y)
