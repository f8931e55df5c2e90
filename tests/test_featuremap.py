"""Genome layout, decoding, binding and gate counting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkevo.errors import ConfigError
from qkevo.featuremap import (GateCounts, Genome, bind, decode, gate_counts,
                              genome_length, qubit_pairs)
from qkevo.simulator import CNot, Hadamard, Rotation


@pytest.mark.parametrize("n,expected", [(3, 10), (2, 7), (10, 59)])
def test_genome_length(n, expected):
    assert genome_length(n) == expected


def test_genome_length_rejects_nonpositive():
    with pytest.raises(ValueError):
        genome_length(0)
    for n in (0, -1):
        with pytest.raises(ConfigError):
            genome_length(n)


def test_decode_three_qubit_example():
    # 10 bits: rotations 111, axis 10 -> Z, pairs 011 -> (0,2),(1,2), depth 10 -> 3
    t = decode(Genome.from_string("1111001110", 3))
    assert t.rotation_enabled == (True, True, True)
    assert t.rotation_axis == "Z"
    assert t.entangle_pairs == ((0, 2), (1, 2))
    assert t.depth == 3


def test_decode_all_zero():
    t = decode(Genome(2, np.zeros(7, dtype=int)))
    assert t.rotation_enabled == (False, False)
    assert t.rotation_axis == "X"
    assert t.entangle_pairs == ()
    assert t.depth == 1


def test_decode_two_qubit_example():
    # [1,0, 0,1, 1, 0,1]: rotation on qubit 0, axis Y, pair (0,1), depth 2
    t = decode(Genome(2, [1, 0, 0, 1, 1, 0, 1]))
    assert t.rotation_enabled == (True, False)
    assert t.rotation_axis == "Y"
    assert t.entangle_pairs == ((0, 1),)
    assert t.depth == 2


@pytest.mark.parametrize("axis_bits,axis", [((0, 0), "X"), ((0, 1), "Y"),
                                            ((1, 0), "Z"), ((1, 1), "Z")])
def test_axis_codes(axis_bits, axis):
    bits = [0, 0, *axis_bits, 0, 0, 0]
    assert decode(Genome(2, bits)).rotation_axis == axis


@pytest.mark.parametrize("depth_bits,depth", [((0, 0), 1), ((0, 1), 2),
                                              ((1, 0), 3), ((1, 1), 4)])
def test_depth_codes(depth_bits, depth):
    bits = [0, 0, 0, 0, 0, *depth_bits]
    assert decode(Genome(2, bits)).depth == depth


def test_genome_validation():
    with pytest.raises(ValueError):
        Genome(3, np.zeros(9, dtype=int))  # wrong length
    with pytest.raises(ValueError):
        Genome(2, [0, 1, 2, 0, 0, 0, 0])  # non-binary
    with pytest.raises(ConfigError):
        Genome.from_string("01x0000", 2)
    with pytest.raises(ConfigError):
        Genome.from_string("0000000", 3)
    # Each entry is checked before the int8 cast, which would turn these
    # into 0100000, 0100000 and 1100000.
    for first in (256, 0.7, -255):
        with pytest.raises(ConfigError, match="0 or 1"):
            Genome(2, np.array([first, 1, 0, 0, 0, 0, 0]))
    with pytest.raises(ConfigError):
        Genome(3, np.zeros(9, dtype=int))  # wrong length
    with pytest.raises(ConfigError):
        Genome(2, np.zeros((1, 7), dtype=int))  # not one-dimensional


@settings(deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.text("01", min_size=genome_length(n), max_size=genome_length(n)))))
def test_genome_string_round_trip(case):
    n, text = case
    g = Genome.from_string(text, n)
    assert g.to_string() == text
    assert np.array_equal(g.bits, [int(c) for c in text])
    assert np.array_equal(Genome.from_string(g.to_string(), n).bits, g.bits)


def test_decode_deterministic_on_equal_genomes():
    bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
    assert decode(Genome(3, bits)) == decode(Genome(3, list(bits)))


def test_pair_enumeration_order():
    assert qubit_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_bind_fig1_structure():
    # all features on, axis Z, pair (0,1), depth 1, x = (a, b)
    t = decode(Genome(2, [1, 1, 1, 0, 1, 0, 0]))
    a, b = 0.4, 1.3
    ops = bind(t, [a, b])
    assert ops == [Hadamard(0), Hadamard(1),
                   Rotation("Z", 0, a), Rotation("Z", 1, b),
                   CNot(0, 1), Rotation("Z", 1, a * b), CNot(0, 1)]


def test_bind_hadamard_only_repeats():
    t = decode(Genome(1, [0, 0, 0, 0, 1]))  # depth bits (0,1) -> 2
    assert bind(t, [0.7]) == [Hadamard(0), Hadamard(0)]


def test_bind_length_three_qubit_example():
    t = decode(Genome.from_string("1111001110", 3))
    ops = bind(t, np.array([0.1, 0.2, 0.3]))
    # per repetition: 3 H + 3 rotations + 2 pairs * 3 ops; depth 3
    assert len(ops) == 36


def test_bind_rejects_wrong_dimension():
    t = decode(Genome(2, np.zeros(7, dtype=int)))
    with pytest.raises(ValueError):
        bind(t, [0.1, 0.2, 0.3])


def test_bind_length_formula_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        g = Genome(n, rng.integers(0, 2, size=genome_length(n)))
        t = decode(g)
        ops = bind(t, rng.uniform(0, np.pi, size=n))
        n_rot = sum(t.rotation_enabled)
        assert len(ops) == t.depth * (n + n_rot + 3 * len(t.entangle_pairs))


def test_gate_counts_examples():
    # 2 rotations + 1 pair at depth 1: local 2H + 2R + 1RZ = 5, cnot 2
    t = decode(Genome(2, [1, 1, 1, 0, 1, 0, 0]))
    assert gate_counts(t) == GateCounts(local=5, cnot=2)
    # Hadamard layer only
    t0 = decode(Genome(4, np.zeros(genome_length(4), dtype=int)))
    c0 = gate_counts(t0)
    assert (c0.local, c0.cnot) == (4, 0)
    # the 3-qubit example at depth 3
    c3 = gate_counts(decode(Genome.from_string("1111001110", 3)))
    assert (c3.local, c3.cnot) == (24, 12)


def test_gate_counts_match_bound_sequence():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        t = decode(Genome(n, rng.integers(0, 2, size=genome_length(n))))
        ops = bind(t, rng.uniform(0, np.pi, size=n))
        n_cnot = sum(isinstance(o, CNot) for o in ops)
        n_local = sum(isinstance(o, (Hadamard, Rotation)) for o in ops)
        counts = gate_counts(t)
        assert counts.cnot == n_cnot
        assert counts.local == n_local
