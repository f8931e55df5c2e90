"""Gram/cross kernel construction and the classical comparison kernels."""
import numpy as np
import pytest

from qkevo.errors import ConfigError
from qkevo.featuremap import FeatureMapTemplate, Genome, bind, decode, genome_length
from qkevo.kernel import (classical_kernel, prepare_states, quantum_cross,
                          quantum_gram)
from qkevo.simulator import MAX_QUBITS, fidelity_overlap, prepare_state

from oracles import statevector_by_matrix


def random_template(rng, n):
    return decode(Genome(n, rng.integers(0, 2, size=genome_length(n))))


def test_prepare_states_matches_per_row_route():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        t = random_template(rng, n)
        X = rng.uniform(0, np.pi, size=(6, n))
        batch = prepare_states(t, X)
        for r in range(X.shape[0]):
            ref = prepare_state(bind(t, X[r]), n).amplitudes
            np.testing.assert_allclose(batch[r], ref, atol=1e-12)


def genome_from_parts(n, rotations, axis_code, pairs, depth):
    """Genome with every rotation flag and every pair flag set to one value."""
    bits = ([rotations] * n + [int(c) for c in axis_code]
            + [pairs] * (n * (n - 1) // 2) + [(depth - 1) >> 1, (depth - 1) & 1])
    return Genome(n, bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_prepare_states_matches_unitary_oracle(n):
    # Every axis code (10 and 11 both mean Z), with all rotations off, with
    # no pairs and with all pairs, at every depth, against the product of
    # full 2^n x 2^n gate matrices.
    rng = np.random.default_rng(40 + n)
    X = rng.uniform(-np.pi, np.pi, size=(2, n))
    for axis_code in ("00", "01", "10", "11"):
        for rotations, pairs in ((0, 1), (1, 0), (1, 1)):
            for depth in range(1, 5):
                t = decode(genome_from_parts(n, rotations, axis_code, pairs, depth))
                batch = prepare_states(t, X)
                for r in range(X.shape[0]):
                    want = statevector_by_matrix(bind(t, X[r]), n)
                    np.testing.assert_allclose(batch[r], want, atol=1e-12)


@pytest.mark.parametrize("n", [8, MAX_QUBITS])
def test_prepare_states_matches_simulator_at_width(n):
    rng = np.random.default_rng(50 + n)
    X = rng.uniform(0, np.pi, size=(2, n))
    for axis_code in ("00", "01", "10", "11"):
        bits = rng.integers(0, 2, size=genome_length(n))
        bits[n:n + 2] = [int(c) for c in axis_code]
        bits[-2:] = 1  # depth 4
        t = decode(Genome(n, bits))
        batch = prepare_states(t, X)
        for r in range(X.shape[0]):
            np.testing.assert_allclose(batch[r], prepare_state(bind(t, X[r]), n).amplitudes,
                                       atol=1e-12)


def test_gram_identical_rows():
    rng = np.random.default_rng(6)
    t = random_template(rng, 2)
    x = rng.uniform(0, np.pi, size=2)
    K = quantum_gram(t, np.vstack([x, x, rng.uniform(0, np.pi, size=2)]))
    assert abs(K[0, 1] - 1.0) < 1e-10


def test_gram_closed_form_1q():
    # H + RZ map: K = cos^2((x1 - x2) / 2)
    t = decode(Genome(1, [1, 1, 0, 0, 0]))
    assert t.rotation_axis == "Z" and t.depth == 1
    X = np.array([[0.0], [np.pi]])
    K = quantum_gram(t, X)
    assert abs(K[0, 1]) < 1e-10
    X2 = np.array([[0.3], [1.8], [2.9]])
    K2 = quantum_gram(t, X2)
    for i in range(3):
        for j in range(3):
            want = np.cos((X2[i, 0] - X2[j, 0]) / 2) ** 2
            assert abs(K2[i, j] - want) < 1e-10


def test_gram_matches_fidelity_oracle():
    rng = np.random.default_rng(9)
    t = random_template(rng, 2)
    X = rng.uniform(0, np.pi, size=(3, 2))
    K = quantum_gram(t, X)
    for i in range(3):
        for j in range(3):
            want = fidelity_overlap(bind(t, X[i]), bind(t, X[j]), 2)
            assert abs(K[i, j] - want) < 1e-10


def test_gram_exactly_symmetric_unit_diagonal():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        t = random_template(rng, n)
        X = rng.uniform(0, np.pi, size=(8, n))
        K = quantum_gram(t, X)
        assert np.array_equal(K, K.T)
        assert np.max(np.abs(np.diag(K) - 1.0)) < 1e-10
        assert K.min() > -1e-10 and K.max() < 1.0 + 1e-10


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        t = random_template(rng, n)
        X = rng.uniform(0, np.pi, size=(12, n))
        K = quantum_gram(t, X)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_gram_row_permutation_equivariance():
    rng = np.random.default_rng(16)
    t = random_template(rng, 3)
    X = rng.uniform(0, np.pi, size=(7, 3))
    K = quantum_gram(t, X)
    perm = rng.permutation(7)
    K_perm = quantum_gram(t, X[perm])
    np.testing.assert_allclose(K_perm, K[np.ix_(perm, perm)], atol=1e-12)


def test_cross_equals_gram_on_same_data():
    rng = np.random.default_rng(17)
    t = random_template(rng, 2)
    X = rng.uniform(0, np.pi, size=(5, 2))
    np.testing.assert_allclose(quantum_cross(t, X, X), quantum_gram(t, X),
                               atol=1e-12)


def test_cross_unit_entry_for_shared_row():
    rng = np.random.default_rng(18)
    t = random_template(rng, 2)
    X_train = rng.uniform(0, np.pi, size=(4, 2))
    cross = quantum_cross(t, X_train[2:3], X_train)
    assert abs(cross[0, 2] - 1.0) < 1e-10


def test_cross_matches_fidelity_oracle():
    rng = np.random.default_rng(21)
    t = random_template(rng, 2)
    X_train = rng.uniform(0, np.pi, size=(4, 2))
    X_test = rng.uniform(0, np.pi, size=(3, 2))
    cross = quantum_cross(t, X_test, X_train)
    for i in range(3):
        for j in range(4):
            want = fidelity_overlap(bind(t, X_test[i]), bind(t, X_train[j]), 2)
            assert abs(cross[i, j] - want) < 1e-10


def test_cross_rejects_dimension_mismatch():
    rng = np.random.default_rng(22)
    t = random_template(rng, 2)
    with pytest.raises(ValueError):
        quantum_cross(t, np.zeros((2, 3)), np.zeros((2, 2)))


def test_prepare_states_rejects_qubits_beyond_limit():
    n = MAX_QUBITS + 1
    template = FeatureMapTemplate(n, (True,) * n, "Z", (), 1)
    with pytest.raises(ConfigError):
        prepare_states(template, np.zeros((2, n)))


def test_classical_kernel_values():
    x = np.array([[1.0, 2.0]])
    y = np.array([[3.0, 4.0]])
    assert classical_kernel("linear", x, y)[0, 0] == 11.0
    assert abs(classical_kernel("rbf", x, x, gamma=0.5)[0, 0] - 1.0) < 1e-15
    # poly: (gamma x.y + coef0)^degree with x.y = 2
    got = classical_kernel("poly", np.array([[2.0]]), np.array([[1.0]]),
                           gamma=1.0, degree=3, coef0=0.0)
    assert abs(got[0, 0] - 8.0) < 1e-12
    got = classical_kernel("sigmoid", np.array([[1.0]]), np.array([[1.0]]),
                           gamma=2.0, coef0=0.5)
    assert abs(got[0, 0] - np.tanh(2.5)) < 1e-12


def test_classical_kernel_linear_gram_exact():
    rng = np.random.default_rng(25)
    X = rng.normal(size=(6, 3))
    np.testing.assert_array_equal(classical_kernel("linear", X, X), X @ X.T)


def test_classical_rbf_gram_psd():
    rng = np.random.default_rng(26)
    X = rng.normal(size=(15, 4))
    K = classical_kernel("rbf", X, X)
    assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_classical_kernel_errors():
    X = np.ones((2, 2))
    with pytest.raises(ConfigError):
        classical_kernel("rbf", X, X, gamma=-1.0)
    with pytest.raises(ConfigError):
        classical_kernel("cubic", X, X)
    with pytest.raises(ValueError):
        classical_kernel("linear", np.ones((2, 2)), np.ones((2, 3)))
