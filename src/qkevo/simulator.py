"""Dense statevector simulator for the small gate set used by feature maps.

Conventions, fixed once and relied on everywhere:

* qubit 0 is the least significant bit of the basis index, so the basis
  state |q_{n-1} ... q_1 q_0> lives at index sum_k q_k * 2**k;
* rotations follow R_a(theta) = exp(-i * theta/2 * sigma_a) for
  a in {X, Y, Z}.

States are plain complex numpy vectors wrapped in :class:`Statevector`;
gate application returns a fresh state and never aliases the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError

MAX_QUBITS = 12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
HADAMARD_MATRIX = np.array([[_INV_SQRT2, _INV_SQRT2],
                            [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class Rotation:
    axis: str  # "X", "Y" or "Z"
    target: int
    angle: float


@dataclass(frozen=True)
class CNot:
    control: int
    target: int


GateOp = Union[Hadamard, Rotation, CNot]


@dataclass
class Statevector:
    """Amplitude vector of a pure n-qubit state."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_zero_state(n_qubits: int) -> Statevector:
    """Prepare |0...0> on ``n_qubits`` qubits."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(
            f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}"
        )
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(int(n_qubits), amps)


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """2x2 matrix of exp(-i * angle/2 * sigma_axis)."""
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "Z":
        return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]])
    raise ConfigError(f"rotation axis must be 'X', 'Y' or 'Z', got {axis!r}")


def _check_qubit(q: int, n_qubits: int, role: str) -> None:
    if not 0 <= q < n_qubits:
        raise ValueError(f"{role} qubit {q} out of range for {n_qubits} qubits")


def _apply_single(amps: np.ndarray, mat: np.ndarray, target: int, n: int) -> np.ndarray:
    # Axis n-1-target of the [2]*n tensor corresponds to qubit `target`.
    psi = amps.reshape([2] * n)
    axis = n - 1 - target
    psi = np.moveaxis(np.tensordot(mat, psi, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(psi).reshape(-1)


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    idx = np.arange(amps.size)
    src = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amps[src]


def apply_gate(state: Statevector, gate: GateOp) -> Statevector:
    """Apply one gate, returning a new state; the input is left untouched."""
    n = state.n_qubits
    if isinstance(gate, Hadamard):
        _check_qubit(gate.target, n, "target")
        return Statevector(n, _apply_single(state.amplitudes, HADAMARD_MATRIX, gate.target, n))
    if isinstance(gate, Rotation):
        _check_qubit(gate.target, n, "target")
        mat = rotation_matrix(gate.axis, gate.angle)
        return Statevector(n, _apply_single(state.amplitudes, mat, gate.target, n))
    if isinstance(gate, CNot):
        _check_qubit(gate.control, n, "control")
        _check_qubit(gate.target, n, "target")
        if gate.control == gate.target:
            raise ValueError("CNOT control and target must differ")
        return Statevector(n, _apply_cnot(state.amplitudes, gate.control, gate.target, n))
    raise TypeError(f"not a gate operation: {gate!r}")


def apply_circuit(state: Statevector, ops: Sequence[GateOp]) -> Statevector:
    """Apply gates left to right in sequence order."""
    for op in ops:
        state = apply_gate(state, op)
    return state


def prepare_state(ops: Sequence[GateOp], n_qubits: int) -> Statevector:
    """Run a circuit on |0...0>."""
    return apply_circuit(new_zero_state(n_qubits), ops)


def fidelity_overlap(ops_a: Sequence[GateOp], ops_b: Sequence[GateOp],
                     n_qubits: int) -> float:
    """Squared overlap |<psi_a|psi_b>|^2 of the two prepared states.

    Symmetric in its arguments and equal to 1 for identical circuits.
    Values may exceed [0, 1] by float rounding only.
    """
    a = prepare_state(ops_a, n_qubits).amplitudes
    b = prepare_state(ops_b, n_qubits).amplitudes
    return float(abs(np.vdot(a, b)) ** 2)
