"""Quantum fidelity kernels and the four classical comparison kernels.

The quantum kernel of two samples is the squared overlap of their
feature-map states, K(x, y) = |<phi(x)|phi(y)>|^2.  The batched preparation
below equals, row by row and global phase included, running each bound
circuit gate by gate on |0...0> (``simulator``), by three exact identities:

* CNOT(i,j) . RZ_j(t) . CNOT(i,j) = exp(-i t/2 Z_i Z_j), so a layer's
  entangling blocks and Z rotations are one diagonal phase per row;
* RX(t) . H = H . RZ(t), so X rotations move through the Hadamard layer
  into the previous layer's phase (the first one is a scalar on |0...0>);
* exp(-i/2 (a + b)) = exp(-i a/2) exp(-i b/2), so that phase is a product
  of one factor f = exp(-i w/2) per entangled pair (w = x_i x_j) and per
  rotated qubit (w = x_q), each raised to the power z_i z_j or z_q of the
  Z eigenvalues (+1 or -1) on the basis index.  It is built by doubling
  over the qubits: appending qubit q multiplies the phase of qubits
  0..q-1 by E_q on the half where q is 0 and by conj(E_q) where q is 1,
  and E_q is q's own rotation factor times f_iq^(z_i) over q's pairs
  (i, q), i < q.  A row costs one cos and one sin per term instead of one
  per amplitude, and no large angle sum is ever rounded.

So a layer is one Hadamard transform and one phase multiply.  Y rotations
stay an element-wise mix of each amplitude with its bit-flipped partner.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .featuremap import FeatureMapTemplate
from .separability import squared_distances
from .simulator import MAX_QUBITS

CLASSICAL_KINDS = ("linear", "poly", "rbf", "sigmoid")
# Index of f^(z_a z_b) among (f, conj f) for bits a, b: conj exactly when a != b.
_SIGN_PRODUCT = np.array([[0, 1], [1, 0]])


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


def _factors(angles: np.ndarray) -> np.ndarray:
    # out[k, 0] = exp(-i angles[k]/2) and out[k, 1] its conjugate, from one
    # cos and one sin per angle.
    half = 0.5 * angles
    cos, sin = np.cos(half), np.sin(half)
    out = np.empty((angles.shape[0], 2, angles.shape[1]), dtype=complex)
    out.real[...] = cos[:, None]
    np.negative(sin, out=out.imag[:, 0])
    out.imag[:, 1] = sin
    return out


def _layer_phases(template: FeatureMapTemplate, X: np.ndarray):
    """Per-row factors of the rotated qubits and the layer phases (inner, last).

    X holds one data row per column.  A phase is a tensor with one axis per
    qubit (qubit n-1 first) and the rows last, of size 1 on every qubit it
    does not involve, so it broadcasts onto ``states.reshape((2,)*n + (rows,))``.
    """
    n, axis, rows = template.n_qubits, template.rotation_axis, X.shape[1]
    rot = [q for q, on in enumerate(template.rotation_enabled) if on]
    pairs = template.entangle_pairs
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    angles = np.empty((len(pairs) + len(rot), rows))
    np.multiply(X.take(i, axis=0), X.take(j, axis=0), out=angles[:len(pairs)])
    X.take(rot, axis=0, out=angles[len(pairs):])
    f = _factors(angles)
    zz = f[:len(pairs)].take(_SIGN_PRODUCT, axis=1)  # zz[k, a, b] = f_k^(z_a z_b)
    # lower[q]: the product of f^(z_i z_q) over q's pairs (i, q) with i < q.
    lower = [None] * n
    for k, (a, b) in enumerate(pairs):
        lo, hi = min(a, b), max(a, b)
        e = zz[k].reshape((2,) + (1,) * (hi - lo - 1) + (2,) + (1,) * lo + (rows,))
        lower[hi] = e if lower[hi] is None else lower[hi] * e
    rotations = {q: f[len(pairs) + k].reshape((2,) + (1,) * q + (rows,))
                 for k, q in enumerate(rot)}

    def doubled(rotations):
        # Appending qubit q multiplies the phase so far by E_q = r_q * lower[q]
        # on the bit-0 half and by its conjugate on the bit-1 half.
        phase = 1.0
        for q, e in enumerate(lower):
            r = rotations.get(q)
            if r is not None:
                e = r if e is None else e * r
            if e is not None:
                phase = phase * e
        return phase

    last = doubled(rotations if axis == "Z" else {})
    inner = doubled(rotations) if axis == "X" and template.depth > 1 else last
    return f[len(pairs):], inner, last


def _rotate_y(states: np.ndarray, q: int, c: np.ndarray, s: np.ndarray,
              buffers: np.ndarray) -> None:
    # RY is real, so it mixes the real and imaginary parts alike, in place:
    # zero, one <- c*zero - s*one, s*zero + c*one, through two preallocated buffers.
    psi = states.view(float).reshape(-1, 2, 1 << q, 2 * states.shape[1])
    zero, one = psi[:, 0], psi[:, 1]
    a, b = buffers[0].reshape(zero.shape), buffers[1].reshape(zero.shape)
    np.multiply(c, zero, out=a)
    np.multiply(s, zero, out=b)
    np.multiply(s, one, out=zero)
    np.subtract(a, zero, out=zero)
    np.multiply(c, one, out=one)
    np.add(b, one, out=one)


def prepare_states(template: FeatureMapTemplate, X) -> np.ndarray:
    """Feature-map statevectors for every row of X, shape (rows, 2**n_qubits)."""
    n, axis = template.n_qubits, template.rotation_axis
    if not 1 <= n <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n}")
    X = _as_data_matrix(X, n, "X").T
    rot = [q for q, on in enumerate(template.rotation_enabled) if on]
    if rot and axis not in ("X", "Y", "Z"):
        raise ConfigError(f"rotation axis must be 'X', 'Y' or 'Z', got {axis!r}")
    rot_f, inner, last = _layer_phases(template, X)
    shape = (2,) * n + (X.shape[1],)
    states = np.full((1 << n, X.shape[1]), 2.0 ** (-n / 2), dtype=complex)  # H|0...0>
    if axis == "X":
        states *= np.prod(rot_f[:, 0], axis=0)
    if axis == "Y":
        # cos and sin of each half angle, repeated for the real and imaginary parts.
        c = np.repeat(rot_f[:, 0].real, 2, axis=1)
        s = np.repeat(rot_f[:, 1].imag, 2, axis=1)
        buffers = np.empty((2, states.size))
    for layer in range(template.depth):
        if layer:
            states = _hadamard_all(states, n)
        if axis == "Y":
            for k, q in enumerate(rot):
                _rotate_y(states, q, c[k], s[k], buffers)
        states.reshape(shape)[...] *= inner if layer + 1 < template.depth else last
    return states.T


@lru_cache(maxsize=2)
def _cached_states(template: FeatureMapTemplate, shape: tuple, data: bytes) -> np.ndarray:
    states = prepare_states(template, np.frombuffer(data).reshape(shape))
    states.flags.writeable = False
    return states


def _states(template: FeatureMapTemplate, X) -> np.ndarray:
    """``prepare_states(template, X)``, read-only, from a cache of the last two
    (template, X) pairs.  The key holds X's bytes, not its identity, so X
    changed in place is prepared again.  An evaluation asks for its training
    states twice (Gram, then cross kernel), and the second time they are here."""
    X = np.ascontiguousarray(X, dtype=float)
    return _cached_states(template, X.shape, X.tobytes())


def quantum_gram(template: FeatureMapTemplate, X) -> np.ndarray:
    """Fidelity Gram matrix of X under the template's feature map.

    The upper triangle is mirrored onto the lower one, so the result is
    exactly symmetric; the diagonal is 1 up to float rounding.
    """
    states = _states(template, X)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    upper = np.triu(overlaps)
    return upper + np.triu(overlaps, 1).T


def quantum_cross(template: FeatureMapTemplate, X_test, X_train) -> np.ndarray:
    """Cross kernel: entry (i, j) is the fidelity of test row i vs train row j."""
    s_test = _states(template, X_test)
    s_train = _states(template, X_train)
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
    X_b = _as_data_matrix(X_b, np.shape(X_b)[-1], "X_b")
    X_a = _as_data_matrix(X_a, X_b.shape[1], "X_a")
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
    return np.exp(-gamma * squared_distances(X_a, X_b))  # rbf
