"""Data-separability indexes: SI, HMI and the KS/distance-based DSI.

All indexes use Euclidean distances.  SI and DSI are computed on the
coordinates they are given; HMI first rescales every feature to [0, 1]
(so it is invariant under per-feature affine changes of units).  The
:func:`compute_indexes` helper applies the same [0, 1] scaling before all
three, which is the convention used by the command-line reports.

Memory stays near one distance matrix: the BLAS product ``a @ b.T`` is
turned into distances in place, a block of rows at a time, and KS walks
the merge of two sorted samples a piece at a time.
"""
from __future__ import annotations

import numpy as np

from .data import minmax_columns

# Ways :func:`hypothesis_margin_index` aggregates the per-instance margins.
HMI_MODES = ("sum", "mean")
# Rows of a distance matrix transformed or reduced per step; each step's
# temporaries hold this many rows.
ROW_BLOCK = 64
# Values a KS merge piece takes from each sample, before it is extended to
# the last copy of its boundary value.
KS_PIECE = 4096


def _finite(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("separability needs finite values; got NaN or infinity")
    return values


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``, >= 0.

    Each entry is ``(|a|^2 + |b|^2) - 2 a.b``, computed in the BLAS product's
    own array, so the result is the only len(a) x len(b) array allocated.
    """
    out = a @ b.T  # a @ a.T runs as syrk; row blocks of it would round differently
    sq_a = np.sum(a ** 2, axis=1)
    sq_b = np.sum(b ** 2, axis=1)
    buf = np.empty((min(ROW_BLOCK, out.shape[0]), out.shape[1]))
    for start in range(0, out.shape[0], ROW_BLOCK):
        rows = out[start:start + ROW_BLOCK]
        norms = buf[:rows.shape[0]]
        np.add(sq_a[start:start + ROW_BLOCK, None], sq_b, out=norms)
        rows *= 2.0
        np.subtract(norms, rows, out=rows)
    return np.maximum(out, 0.0, out=out)


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and of ``b``."""
    dist = squared_distances(a, b)
    return np.sqrt(dist, out=dist)


def _as_labeled(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = _finite(X)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be 2-D with one label per row")
    return X, y


def _neighbours(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``X``: the index of its nearest other row (ties to the
    lowest index), and its distance to the nearest other row of the same
    label (near hit) and of another label (near miss), inf where none."""
    dist = _cross_distances(X, X)
    np.fill_diagonal(dist, np.inf)  # no row is its own neighbour
    n = X.shape[0]
    nearest = np.empty(n, dtype=np.intp)
    near_hit, near_miss = np.empty(n), np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        rows = dist[start:start + ROW_BLOCK]
        block = slice(start, start + rows.shape[0])
        nearest[block] = rows.argmin(axis=1)
        same = y[block, None] == y
        near_hit[block] = np.where(same, rows, np.inf).min(axis=1)
        near_miss[block] = np.where(same, np.inf, rows).min(axis=1)
    return nearest, near_hit, near_miss


def _check_hmi(y: np.ndarray, mode: str) -> None:
    if mode not in HMI_MODES:
        raise ValueError(f"mode must be one of {HMI_MODES}, got {mode!r}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("hypothesis margin needs at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 members for a near-hit")


def _si(nearest: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(y[nearest] == y))


def _hmi(near_hit: np.ndarray, near_miss: np.ndarray, mode: str) -> float:
    theta = 0.5 * (near_miss - near_hit)
    return float(theta.sum() if mode == "sum" else theta.mean())


def separability_index(X, y) -> float:
    """Fraction of instances whose nearest neighbour shares their label.

    Self is excluded; distance ties resolve to the lowest index.
    """
    X, y = _as_labeled(X, y)
    if X.shape[0] < 2:
        raise ValueError("separability index needs at least 2 instances")
    return _si(_neighbours(X, y)[0], y)


def hypothesis_margin_index(X, y, mode: str = "sum") -> float:
    """Aggregate hypothesis margin 1/2 * (|x - nearmiss| - |x - nearhit|).

    Features are min-max scaled to [0, 1] first.  ``mode`` selects the
    aggregation: "sum" (default) or "mean" over instances.
    """
    X, y = _as_labeled(X, y)
    _check_hmi(y, mode)
    _, near_hit, near_miss = _neighbours(minmax_columns(X), y)
    return _hmi(near_hit, near_miss, mode)


def _ks_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """KS distance of two sorted, non-empty samples, walking their merge in
    pieces of about :data:`KS_PIECE` values from each.

    A stable sort of a piece's two sorted runs merges them.  At the last
    copy of each distinct value the running count of ``a`` values is
    #a <= v, and the position less that count is #b <= v.  A piece ends at
    the last copy of its boundary value in both samples, so no value spans
    two pieces, and the counts before the piece carry over as integers.
    """
    best = 0.0
    done_a = done_b = 0
    while done_a < a.size or done_b < b.size:
        bound = min(s[min(done + KS_PIECE, s.size) - 1]
                    for s, done in ((a, done_a), (b, done_b)) if done < s.size)
        end_a = int(np.searchsorted(a, bound, side="right"))
        end_b = int(np.searchsorted(b, bound, side="right"))
        merged = np.concatenate([a[done_a:end_a], b[done_b:end_b]])
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        last = np.append(merged[1:] != merged[:-1], True)
        count_a = done_a + np.cumsum(order < end_a - done_a)[last]
        count_b = done_a + done_b + np.flatnonzero(last) + 1 - count_a
        best = max(best, float(np.max(np.abs(count_a / a.size - count_b / b.size))))
        done_a, done_b = end_a, end_b
    return best


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance, exact, from one merged sweep
    of the two sorted samples."""
    a = np.sort(_finite(a), axis=None)
    b = np.sort(_finite(b), axis=None)
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs two non-empty samples")
    return _ks_sorted(a, b)


def _intra_distances(points: np.ndarray) -> np.ndarray:
    """The distances between distinct rows of ``points``, sorted."""
    n = points.shape[0]
    dist = _cross_distances(points, points)[np.triu(np.ones((n, n), dtype=bool), k=1)]
    dist.sort()
    return dist


def dsi_two_class(x_points, y_points) -> float:
    """Mean KS distance between each class's intra-class distance set and
    the between-class distance set."""
    x_points = np.atleast_2d(_finite(x_points))
    y_points = np.atleast_2d(_finite(y_points))
    if x_points.shape[0] < 2 or y_points.shape[0] < 2:
        raise ValueError("each class needs at least 2 points")
    between = _cross_distances(x_points, y_points).ravel()
    between.sort()
    s_x = _ks_sorted(_intra_distances(x_points), between)
    s_y = _ks_sorted(_intra_distances(y_points), between)
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

    SI and HMI share one neighbour pass: rescaling rows already in [0, 1]
    leaves them bit for bit as they are, so HMI's own scaling is skipped.
    """
    X, y = _as_labeled(X, y)
    _check_hmi(y, hmi_mode)  # two classes of two rows also cover SI's two rows
    scaled = minmax_columns(X)
    nearest, near_hit, near_miss = _neighbours(scaled, y)
    return _si(nearest, y), _hmi(near_hit, near_miss, hmi_mode), dsi(scaled, y)
