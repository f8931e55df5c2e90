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


def _smo(K: np.ndarray, y: np.ndarray, C: float, tol: float,
         max_iterations: int) -> tuple[np.ndarray, int, bool]:
    """Alphas of the dual by maximal-violating-pair SMO, the number of pair
    updates made, and whether the loop stopped on the tolerance (rather
    than on ``max_iterations``).

    ``v`` is -y * gradient of the dual in minimisation form, so it starts
    at ``y``.  Each step moves the pair (i, j) that violates the KKT
    conditions most: i maximises ``v`` over I_up, the rows whose alpha can
    move up the constraint line, and j minimises it over I_low, those that
    can move down.  Ties go to the first index, so flipping every label
    swaps the roles of i and j and leaves the iterates mirrored exactly.

    Both sets live in one (2, n) array ``w``: row 0 holds ``v`` on I_up and
    row 1 holds ``-v`` on I_low, with -inf elsewhere.  So one argmax along
    the rows gives (i, j), the first argmax of ``-v`` being the first
    argmin of ``v``, and the gap ``v_i - v_j`` is ``w[0, i] + w[1, j]``.
    Each step updates both rows with one subtract, scale and subtract in
    place on rows of a table holding K[:, k] over -K[:, k].  Negation is
    exact and rounding to nearest is symmetric in sign, so
    (-a) - (-b) = -(a - b), (-x) * t = -(x * t) and u + (-l) = u - l bit
    for bit: row 1 holds exactly the negation of the ``v`` that a single
    array would hold, and -inf stays -inf.  Every row is in I_up or I_low
    (0 <= alpha <= C), so ``v`` is always held in at least one row; when an
    update moves row k in or out of a set, ``w[:, k]`` is rewritten from
    the row that held it.

    The per-step scalars live in Python floats (IEEE doubles, as numpy's),
    and ``min`` keeps the first of equal rooms, so each step makes the
    same float operations as the whole-array masked loop in
    ``tests/oracles.py`` (``smo_by_masks``) with four numpy calls on
    ``2n`` elements and no temporaries.
    """
    n = y.size
    positive = y > 0
    labels, pos = y.tolist(), positive.tolist()
    diag = K.diagonal().tolist()
    table = np.empty((n, 2, n))  # table[k] holds K[:, k] over -K[:, k]
    table[:, 0] = K.T
    np.negative(K.T, out=table[:, 1])
    signed = list(table)
    alpha = [0.0] * n
    # At alpha = 0, I_up holds the positive rows and I_low the negative
    # ones: v = y is +1 on the first and -v is +1 on the second.
    w = np.where([positive, ~positive], 1.0, -np.inf)
    w_up, w_low = w
    in_up, in_low = pos[:], [not p for p in pos]
    # The step length sits in a 0-d array: numpy multiplies by it faster
    # than by a Python float, with the same result.
    step, t_array = np.empty((2, n)), np.empty(())
    argmax, subtract, multiply = w.argmax, np.subtract, np.multiply
    steps = 0
    while True:
        i, j = argmax(1).tolist()
        gap = w_up.item(i) + w_low.item(j)
        if gap <= tol or steps == max_iterations:
            return np.array(alpha), steps, gap <= tol
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
            up, low = (below, above) if pos[k] else (above, below)
            if up != in_up[k] or low != in_low[k]:
                v = w_up.item(k) if in_up[k] else -w_low.item(k)
                w_up[k] = v if up else -np.inf
                w_low[k] = -v if low else -np.inf
                in_up[k], in_low[k] = up, low
        # v -= t * (K[:, i] - K[:, j]) on both rows, in place.
        subtract(signed[i], signed[j], step)
        t_array[()] = t
        multiply(step, t_array, step)
        subtract(w, step, w)
        steps += 1


def _solve(K: np.ndarray, y: np.ndarray, C: float, tol: float,
           max_iterations: int) -> tuple[np.ndarray, int]:
    """``_smo``'s alphas and number of pair updates without its stop reason,
    as ``tests/oracles.py`` ``smo_by_masks`` returns them."""
    alphas, steps, _ = _smo(K, y, C, tol, max_iterations)
    return alphas, steps


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
    # NaN equals neither, so it is refused too.
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("labels must be -1 or +1")
    if np.all(y == y[0]):
        raise TrainingError("training labels contain a single class")
    alphas, iterations, converged = _smo(K, y, config.C, config.tolerance,
                                         config.max_iterations)
    if not converged:
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
        models.append(train_dual(K.take(rows, 0).take(rows, 1), sub_y, config))
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
