"""Quantum fidelity kernels and the four classical comparison kernels.

The quantum kernel of two samples is the squared overlap of their
feature-map states, K(x, y) = |<phi(x)|phi(y)>|^2.  The batched preparation
below equals, row by row and global phase included, running each bound
circuit gate by gate on |0...0> (``simulator``), by two exact identities:

* CNOT(i,j) . RZ_j(t) . CNOT(i,j) = exp(-i t/2 Z_i Z_j), so a layer's
  entangling blocks and Z rotations are one diagonal phase per row;
* RX(t) . H = H . RZ(t), so X rotations move through the Hadamard layer
  into the previous layer's phase (the first one is a scalar on |0...0>).

So a layer is one Hadamard transform and one phase multiply.  Y rotations
stay an element-wise mix of each amplitude with its bit-flipped partner.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .featuremap import FeatureMapTemplate
from .simulator import MAX_QUBITS

CLASSICAL_KINDS = ("linear", "poly", "rbf", "sigmoid")


def _as_data_matrix(X, n_features: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"{name} must have {n_features} columns, got shape {X.shape}")
    return X


@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """H on each of k qubits as one normalised 2**k x 2**k Sylvester matrix."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h *= 2.0 ** (-k / 2)
    h.flags.writeable = False
    return h


def _hadamard_all(states: np.ndarray, n: int) -> np.ndarray:
    # H on n qubits = H on the high ceil(n/2) (x) H on the rest: two real matmuls.
    high = (n + 1) // 2
    psi = _sylvester(high) @ states.view(float).reshape(1 << high, -1)
    psi = np.matmul(_sylvester(n - high), psi.reshape(1 << high, 1 << (n - high), -1))
    return psi.view(complex).reshape(states.shape)


def _phase(angles: np.ndarray) -> np.ndarray:
    # exp(-i angles/2): cos and sin written in place cost about half of np.exp.
    out = np.empty(angles.shape, dtype=complex)
    np.cos(0.5 * angles, out=out.real)
    np.sin(-0.5 * angles, out=out.imag)
    return out


def _rotate_y(states: np.ndarray, q: int, angles: np.ndarray) -> None:
    # RY is real, so it mixes the real and imaginary parts alike, in place.
    psi = states.view(float).reshape(-1, 2, 1 << q, 2 * states.shape[1])
    c, s = np.repeat(np.cos(0.5 * angles), 2), np.repeat(np.sin(0.5 * angles), 2)
    zero, one = psi[:, 0], psi[:, 1]
    zero[...], one[...] = c * zero - s * one, s * zero + c * one


def prepare_states(template: FeatureMapTemplate, X) -> np.ndarray:
    """Feature-map statevectors for every row of X, shape (rows, 2**n_qubits)."""
    n, axis = template.n_qubits, template.rotation_axis
    if not 1 <= n <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n}")
    X = _as_data_matrix(X, n, "X").T
    rot = np.flatnonzero(template.rotation_enabled)
    if rot.size and axis not in ("X", "Y", "Z"):
        raise ConfigError(f"rotation axis must be 'X', 'Y' or 'Z', got {axis!r}")
    # Rows of X are columns here; z[b, q] is the eigenvalue of Z_q on basis index b.
    z = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    i, j = np.array(template.entangle_pairs, dtype=int).reshape(-1, 2).T
    zz = (z[:, i] * z[:, j]) @ (X[i] * X[j])
    rz = z[:, rot] @ X[rot] if axis != "Y" else 0.0
    last = _phase(zz + rz if axis == "Z" else zz)
    inner = _phase(zz + rz) if axis == "X" and template.depth > 1 else last
    states = np.full((1 << n, X.shape[1]), 2.0 ** (-n / 2), dtype=complex)  # H|0...0>
    if axis == "X":
        states *= _phase(X[rot].sum(axis=0))
    for layer in range(template.depth):
        if layer:
            states = _hadamard_all(states, n)
        if axis == "Y":
            for q in rot:
                _rotate_y(states, q, X[q])
        states *= inner if layer + 1 < template.depth else last
    return states.T


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
