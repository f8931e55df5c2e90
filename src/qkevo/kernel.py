"""Quantum fidelity kernels and the four classical comparison kernels.

The quantum kernel of two samples is the squared overlap of their
feature-map states, K(x, y) = |<phi(x)|phi(y)>|^2.  Gram matrices are
assembled from a batch of prepared statevectors; the batched preparation
below applies the template's gates to all rows at once and is equivalent,
row by row, to binding each sample and running the circuit on |0...0>.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .featuremap import FeatureMapTemplate
from .simulator import HADAMARD_MATRIX, MAX_QUBITS

CLASSICAL_KINDS = ("linear", "poly", "rbf", "sigmoid")


def _as_data_matrix(X, n_features: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"{name} must have {n_features} columns, got shape {X.shape}")
    return X


def _rows_apply_fixed(states: np.ndarray, mat: np.ndarray, target: int, n: int) -> np.ndarray:
    rows = states.shape[0]
    low, high = 1 << target, 1 << (n - 1 - target)
    psi = states.reshape(rows, high, 2, low)
    return np.einsum("ab,rhbl->rhal", mat, psi).reshape(rows, -1)


def _rows_apply_rotation(states: np.ndarray, axis: str, target: int,
                         angles: np.ndarray, n: int) -> np.ndarray:
    rows = states.shape[0]
    low, high = 1 << target, 1 << (n - 1 - target)
    psi = states.reshape(rows, high, 2, low)
    half = 0.5 * angles
    c, s = np.cos(half), np.sin(half)
    if axis == "Z":
        out = psi * np.stack([c - 1j * s, c + 1j * s], axis=1)[:, None, :, None]
        return out.reshape(rows, -1)
    mats = np.empty((rows, 2, 2), dtype=complex)
    if axis == "X":
        mats[:, 0, 0] = mats[:, 1, 1] = c
        mats[:, 0, 1] = mats[:, 1, 0] = -1j * s
    elif axis == "Y":
        mats[:, 0, 0] = mats[:, 1, 1] = c
        mats[:, 0, 1] = -s
        mats[:, 1, 0] = s
    else:
        raise ConfigError(f"rotation axis must be 'X', 'Y' or 'Z', got {axis!r}")
    return np.einsum("rab,rhbl->rhal", mats, psi).reshape(rows, -1)


def _rows_apply_cnot(states: np.ndarray, control: int, target: int) -> np.ndarray:
    idx = np.arange(states.shape[1])
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return states[:, src]


def prepare_states(template: FeatureMapTemplate, X) -> np.ndarray:
    """Feature-map statevectors for every row of X, shape (rows, 2**n_qubits)."""
    n = template.n_qubits
    if not 1 <= n <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n}")
    X = _as_data_matrix(X, n, "X")
    rows = X.shape[0]
    states = np.zeros((rows, 2 ** n), dtype=complex)
    states[:, 0] = 1.0
    for _ in range(template.depth):
        for q in range(n):
            states = _rows_apply_fixed(states, HADAMARD_MATRIX, q, n)
        for q in range(n):
            if template.rotation_enabled[q]:
                states = _rows_apply_rotation(states, template.rotation_axis, q, X[:, q], n)
        for i, j in template.entangle_pairs:
            states = _rows_apply_cnot(states, i, j)
            states = _rows_apply_rotation(states, "Z", j, X[:, i] * X[:, j], n)
            states = _rows_apply_cnot(states, i, j)
    return states


def quantum_gram(template: FeatureMapTemplate, X) -> np.ndarray:
    """Fidelity Gram matrix of X under the template's feature map.

    The upper triangle is mirrored onto the lower one, so the result is
    exactly symmetric; the diagonal is 1 up to float rounding.
    """
    states = prepare_states(template, X)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    upper = np.triu(overlaps)
    return upper + np.triu(overlaps, 1).T


def quantum_cross(template: FeatureMapTemplate, X_test, X_train) -> np.ndarray:
    """Cross kernel: entry (i, j) is the fidelity of test row i vs train row j."""
    s_test = prepare_states(template, X_test)
    s_train = prepare_states(template, X_train)
    return np.abs(s_test.conj() @ s_train.T) ** 2


def classical_kernel(kind: str, X_a, X_b, gamma: float | None = None,
                     degree: int = 3, coef0: float = 0.0) -> np.ndarray:
    """One of the four stock kernels between the rows of X_a and X_b.

    linear: x.y | poly: (gamma x.y + coef0)^degree | rbf: exp(-gamma |x-y|^2)
    | sigmoid: tanh(gamma x.y + coef0).  ``gamma=None`` uses the "scale"
    convention 1 / (n_features * var(X_b)), with X_b playing the role of
    the training matrix.
    """
    if kind not in CLASSICAL_KINDS:
        raise ConfigError(f"kernel kind must be one of {CLASSICAL_KINDS}, got {kind!r}")
    X_a = np.asarray(X_a, dtype=float)
    X_b = np.asarray(X_b, dtype=float)
    if X_a.ndim == 1:
        X_a = X_a[None, :]
    if X_b.ndim == 1:
        X_b = X_b[None, :]
    if X_a.shape[1] != X_b.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {X_a.shape[1]} vs {X_b.shape[1]}"
        )
    if kind == "linear":
        return X_a @ X_b.T
    if gamma is None:
        var = float(X_b.var())
        gamma = 1.0 / (X_b.shape[1] * var) if var > 0 else 1.0
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if kind == "poly":
        return (gamma * (X_a @ X_b.T) + coef0) ** degree
    if kind == "sigmoid":
        return np.tanh(gamma * (X_a @ X_b.T) + coef0)
    # rbf
    sq_a = np.sum(X_a ** 2, axis=1)[:, None]
    sq_b = np.sum(X_b ** 2, axis=1)[None, :]
    d2 = np.maximum(sq_a + sq_b - 2.0 * (X_a @ X_b.T), 0.0)
    return np.exp(-gamma * d2)
