"""Bit-string genomes and the feature-map circuits they encode.

A genome for N qubits is a bit vector of length N + C(N,2) + 4 laid out as

======================  ====================================================
bits[0 : N]             rotation gate on/off, one flag per qubit
bits[N : N+2]           rotation axis, big endian: 00->X, 01->Y, 10->Z, 11->Z
bits[N+2 : N+2+C(N,2)]  entangling-pair flags over (0,1),(0,2),...,(N-2,N-1)
bits[-2 :]              depth d = big-endian value + 1, so d in {1,2,3,4}
======================  ====================================================

Binding a data vector x produces, `depth` times over: a Hadamard on every
qubit, a rotation by x_k on each flagged qubit, and for each flagged pair
(i, j) the block CNOT(i,j) . RZ(j, x_i*x_j) . CNOT(i,j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .simulator import CNot, GateOp, Hadamard, Rotation

AXIS_CODES = ("X", "Y", "Z", "Z")


def genome_length(n_qubits: int) -> int:
    """Bits needed for an ``n_qubits`` genome: N + C(N,2) + 4."""
    if n_qubits < 1:
        raise ConfigError(f"n_qubits must be >= 1, got {n_qubits}")
    return n_qubits + n_qubits * (n_qubits - 1) // 2 + 4


def qubit_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """All qubit pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]


@dataclass(eq=False)
class Genome:
    n_qubits: int
    bits: np.ndarray

    def __post_init__(self):
        # Checked as given: a cast first would wrap 256 to 0 and truncate 0.7.
        bits = np.asarray(self.bits)
        expected = genome_length(self.n_qubits)
        if bits.shape != (expected,):
            raise ConfigError(f"genome for {self.n_qubits} qubits needs {expected} "
                              f"bits, got shape {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ConfigError("genome bits must be 0 or 1")
        self.bits = bits.astype(np.int8, copy=False)

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_string(cls, text: str, n_qubits: int) -> "Genome":
        if set(text) - {"0", "1"}:
            raise ConfigError(f"genome string may contain only '0'/'1': {text!r}")
        return cls(n_qubits, np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))


@dataclass(frozen=True)
class FeatureMapTemplate:
    """Decoded circuit description, independent of any data vector."""

    n_qubits: int
    rotation_enabled: tuple[bool, ...]
    rotation_axis: str
    entangle_pairs: tuple[tuple[int, int], ...]
    depth: int


@dataclass(frozen=True)
class GateCounts:
    local: int
    cnot: int


def decode(genome: Genome) -> FeatureMapTemplate:
    """Expand a genome into its feature-map template."""
    n = genome.n_qubits
    bits = genome.bits
    rotation = tuple(bool(b) for b in bits[:n])
    axis = AXIS_CODES[2 * int(bits[n]) + int(bits[n + 1])]
    n_pairs = n * (n - 1) // 2
    flags = bits[n + 2: n + 2 + n_pairs]
    pairs = tuple(p for p, f in zip(qubit_pairs(n), flags) if f)
    depth = 2 * int(bits[-2]) + int(bits[-1]) + 1
    return FeatureMapTemplate(n, rotation, axis, pairs, depth)


def bind(template: FeatureMapTemplate, x) -> list[GateOp]:
    """Bind data vector ``x`` into concrete gate angles."""
    x = np.asarray(x, dtype=float)
    if x.shape != (template.n_qubits,):
        raise ValueError(
            f"feature vector must have length {template.n_qubits}, got shape {x.shape}"
        )
    ops: list[GateOp] = []
    for _ in range(template.depth):
        ops.extend(Hadamard(q) for q in range(template.n_qubits))
        ops.extend(
            Rotation(template.rotation_axis, q, float(x[q]))
            for q in range(template.n_qubits)
            if template.rotation_enabled[q]
        )
        for i, j in template.entangle_pairs:
            ops.append(CNot(i, j))
            ops.append(Rotation("Z", j, float(x[i] * x[j])))
            ops.append(CNot(i, j))
    return ops


def gate_counts(template: FeatureMapTemplate) -> GateCounts:
    """Local (H + rotation, incl. the RZ inside each entangling block) and CNOT counts."""
    n_rot = sum(template.rotation_enabled)
    n_pairs = len(template.entangle_pairs)
    local = template.depth * (template.n_qubits + n_rot + n_pairs)
    cnot = template.depth * 2 * n_pairs
    return GateCounts(local=local, cnot=cnot)
