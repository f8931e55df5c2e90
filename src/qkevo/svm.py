"""Soft-margin kernel SVM trained on a precomputed Gram matrix.

The dual problem

    max  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t. sum_i a_i y_i = 0,   0 <= a_i <= C

is solved by sequential two-variable analytic updates (SMO).  Each update
takes the maximal violating pair (Keerthi et al., Neural Computation 13(3),
2001): the two alphas whose KKT violation is largest, ties broken by the
first index.  The loop stops once that violation gap is at most
``tolerance``, or after ``max_iterations`` updates.  Pair selection is fully
deterministic: the same Gram matrix, labels and config always produce the
same model.  After the update loop the bias is recomputed from the KKT
bounds, which pins it down even when every alpha sits on a box constraint
(e.g. for degenerate, constant kernels).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, TrainingError

# Alphas closer than this to a box bound are not counted as support vectors.
_SV_EPS = 1e-8


@dataclass
class TrainConfig:
    C: float = 1.0
    tolerance: float = 1e-3
    max_iterations: int = 100_000

    def __post_init__(self):
        if not (0 < self.C < np.inf and 0 < self.tolerance < np.inf):
            raise ConfigError("C and tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class SvmModel:
    alphas: np.ndarray
    bias: float
    support_indices: np.ndarray
    train_labels: np.ndarray
    regularization: float
    # Pair updates SMO made; equal to max_iterations when the cap stopped it.
    iterations: int = 0


def _solve(K: np.ndarray, y: np.ndarray, C: float, tol: float,
           max_iterations: int) -> tuple[np.ndarray, int]:
    """Alphas of the dual by maximal-violating-pair SMO, and the number of
    pair updates made (``max_iterations`` when the cap stopped the loop).

    ``v`` is -y * gradient of the dual in minimisation form, so it starts
    at ``y``.  Each step moves the pair (i, j) that violates the KKT
    conditions most: i maximises ``v`` over the rows whose alpha can move
    up the constraint line, j minimises it over those that can move down.
    Ties go to the first index, so flipping every label swaps the roles of
    i and j and leaves the iterates mirrored exactly.

    The per-step scalars live in Python floats (IEEE doubles, as numpy's)
    and the arrays in buffers allocated once, so each step costs a few
    numpy calls on ``n`` elements and no temporaries.
    """
    n = y.size
    labels, pos = y.tolist(), (y > 0).tolist()
    diag = K.diagonal().tolist()
    cols = np.ascontiguousarray(K.T)  # row k holds K[:, k]
    alpha = [0.0] * n
    v = y.copy()
    # Membership of I_up and I_low as additive masks: 0 for members, -inf
    # (I_up) or +inf (I_low) otherwise.  Only rows i and j can change them.
    up_mask = np.where(pos, 0.0, -np.inf)
    low_mask = np.where(pos, np.inf, 0.0)
    up, low, step = np.empty(n), np.empty(n), np.empty(n)
    steps = 0
    while steps < max_iterations:
        np.add(v, up_mask, out=up)
        np.add(v, low_mask, out=low)
        i, j = int(up.argmax()), int(low.argmin())
        gap = up.item(i) - low.item(j)
        if gap <= tol:
            break
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        # A flat or concave direction has no interior optimum: go to the box.
        t = min(room_i, room_j)
        curvature = diag[i] + diag[j] - 2.0 * K.item(i, j)
        if curvature > 0.0:
            t = min(t, gap / curvature)
        alpha[i] += labels[i] * t
        alpha[j] -= labels[j] * t
        if t == room_i:
            alpha[i] = C if pos[i] else 0.0
        if t == room_j:
            alpha[j] = 0.0 if pos[j] else C
        for k in (i, j):
            below, above = alpha[k] < C, alpha[k] > 0.0
            in_up, in_low = (below, above) if pos[k] else (above, below)
            up_mask[k] = 0.0 if in_up else -np.inf
            low_mask[k] = 0.0 if in_low else np.inf
        # v -= t * (K[:, i] - K[:, j]), one operation at a time in place.
        np.subtract(cols[i], cols[j], out=step)
        step *= t
        v -= step
        steps += 1
    return np.array(alpha), steps


def final_bias(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Bias from the KKT bounds at the final alphas.

    Interior support vectors pin the bias exactly; with every alpha at
    a bound the feasible interval midpoint is used.
    """
    g = K @ (alpha * y)
    interior = (alpha > _SV_EPS) & (alpha < C - _SV_EPS)
    if interior.any():
        return float(np.mean(y[interior] - g[interior]))
    v = y - g
    at_zero = alpha <= _SV_EPS
    pos = y > 0
    lower = (at_zero & pos) | (~at_zero & ~pos)
    upper = (at_zero & ~pos) | (~at_zero & pos)
    b_lo = np.max(v[lower]) if lower.any() else -np.inf
    b_hi = np.min(v[upper]) if upper.any() else np.inf
    if not np.isfinite(b_lo):
        return float(b_hi)
    if not np.isfinite(b_hi):
        return float(b_lo)
    return float(0.5 * (b_lo + b_hi))


def _check_gram(gram: np.ndarray) -> np.ndarray:
    K = np.asarray(gram, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"gram matrix must be square, got shape {K.shape}")
    # allclose calls inf close to inf, so a non-finite entry is caught first.
    if not np.isfinite(K).all():
        raise ValueError("gram matrix must be finite")
    # Exact equality first: quantum Grams are symmetric by construction.
    if not np.array_equal(K, K.T) and not np.allclose(K, K.T, atol=1e-8):
        raise ValueError("gram matrix must be symmetric")
    return K


def train_dual(gram, y, config: TrainConfig | None = None) -> SvmModel:
    """Train a binary SVM from a precomputed Gram matrix and -1/+1 labels."""
    if config is None:
        config = TrainConfig()
    K = _check_gram(gram)
    y = np.asarray(y, dtype=float)
    if y.shape != (K.shape[0],):
        raise ValueError(f"need {K.shape[0]} labels, got shape {y.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise TrainingError("training labels contain a single class")
    alphas, iterations = _solve(K, y, config.C, config.tolerance,
                                config.max_iterations)
    if iterations == config.max_iterations:
        warnings.warn(f"SMO stopped at max_iterations={config.max_iterations} before "
                      "reaching the tolerance", RuntimeWarning)
    bias = final_bias(K, y, alphas, config.C)
    support = np.flatnonzero(alphas > _SV_EPS)
    return SvmModel(alphas=alphas, bias=bias, support_indices=support,
                    train_labels=y, regularization=config.C, iterations=iterations)


def decision_values(model: SvmModel, cross) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b for each row of the cross kernel."""
    cross = np.asarray(cross, dtype=float)
    if cross.ndim == 1:
        cross = cross[None, :]
    if cross.shape[1] != model.alphas.size:
        raise ValueError(
            f"cross kernel must have {model.alphas.size} columns, got {cross.shape[1]}"
        )
    return cross @ (model.alphas * model.train_labels) + model.bias


def predict(model: SvmModel, cross) -> np.ndarray:
    """Signs of the decision values; an exact zero maps to +1."""
    return np.where(decision_values(model, cross) >= 0.0, 1, -1)


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.mean(predicted == truth))


def dual_objective(alphas, gram, y) -> float:
    """Value of the dual objective at ``alphas``."""
    alphas = np.asarray(alphas, dtype=float)
    y = np.asarray(y, dtype=float)
    coeff = alphas * y
    return float(np.sum(alphas) - 0.5 * coeff @ np.asarray(gram, dtype=float) @ coeff)


@dataclass
class MulticlassModel:
    """One-vs-one ensemble: one binary model per class pair."""

    classes: np.ndarray
    pairs: list[tuple[int, int]]  # indices into ``classes``
    models: list[SvmModel]
    pair_rows: list[np.ndarray]  # training-row indices behind each model


def train_multiclass(gram, y, config: TrainConfig | None = None) -> MulticlassModel:
    """Train one-vs-one binary models for every class pair.

    Within a pair (a, b), a < b in class order, class a is coded +1.
    """
    K = _check_gram(gram)
    y = np.asarray(y)
    if y.shape != (K.shape[0],):
        raise ValueError(f"need {K.shape[0]} labels, got shape {y.shape}")
    classes = np.unique(y)
    if classes.size < 2:
        raise TrainingError("multiclass training needs at least 2 classes")
    pairs, models, pair_rows = [], [], []
    for ia, ib in combinations(range(classes.size), 2):
        rows = np.flatnonzero((y == classes[ia]) | (y == classes[ib]))
        sub_y = np.where(y[rows] == classes[ia], 1.0, -1.0)
        pairs.append((ia, ib))
        models.append(train_dual(K[np.ix_(rows, rows)], sub_y, config))
        pair_rows.append(rows)
    return MulticlassModel(classes=classes, pairs=pairs, models=models,
                           pair_rows=pair_rows)


def predict_multiclass(ensemble: MulticlassModel, cross) -> np.ndarray:
    """Majority vote over pair models; vote ties break by summed |decision|,
    any remaining tie by class order."""
    cross = np.asarray(cross, dtype=float)
    if cross.ndim == 1:
        cross = cross[None, :]
    n_test = cross.shape[0]
    n_classes = ensemble.classes.size
    votes = np.zeros((n_test, n_classes), dtype=int)
    strength = np.zeros((n_test, n_classes))
    for (ia, ib), model, rows in zip(ensemble.pairs, ensemble.models,
                                     ensemble.pair_rows):
        dec = decision_values(model, cross[:, rows])
        won_a = dec >= 0.0
        votes[won_a, ia] += 1
        votes[~won_a, ib] += 1
        strength[won_a, ia] += np.abs(dec[won_a])
        strength[~won_a, ib] += np.abs(dec[~won_a])
    # Lexicographic argmax on (votes, strength); argmax takes the first
    # class of a full tie.
    most = votes == votes.max(axis=1, keepdims=True)
    return ensemble.classes[np.argmax(np.where(most, strength, -np.inf), axis=1)]


def fit_score(gram, cross, y_train, y_test,
              config: TrainConfig | None = None) -> float:
    """Test accuracy of an SVM trained on a precomputed Gram matrix.

    Labels entirely within {-1, +1} train a single binary model; any other
    label coding trains a one-vs-one ensemble.  ``cross`` holds the kernel
    between the test rows and the training rows.
    """
    if set(np.unique(y_train)).issubset({-1, 1}):
        predicted = predict(train_dual(gram, y_train, config), cross)
    else:
        predicted = predict_multiclass(train_multiclass(gram, y_train, config), cross)
    return accuracy(predicted, y_test)
