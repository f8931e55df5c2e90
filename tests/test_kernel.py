"""Gram/cross kernel construction and the classical comparison kernels."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qkevo.errors import ConfigError
from qkevo.featuremap import (FeatureMapTemplate, Genome, bind, decode, genome_length,
                              qubit_pairs)
from qkevo.kernel import (_layer_phases, _states, classical_kernel, prepare_states,
                          quantum_cross, quantum_gram)
from qkevo.simulator import MAX_QUBITS, fidelity_overlap, prepare_state

from oracles import phase_by_angle_sum, statevector_by_matrix


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


def phase_templates(rng, n):
    """Three random templates plus no pairs, all pairs and no rotations, on
    every axis, at depth 2 so the X axis has a separate inner phase."""
    for axis in "XYZ":
        shapes = [decode(Genome(n, rng.integers(0, 2, size=genome_length(n))))
                  for _ in range(3)]
        shapes = [(t.rotation_enabled, t.entangle_pairs) for t in shapes]
        shapes += [((True,) * n, ()), ((True,) * n, tuple(qubit_pairs(n))),
                   ((False,) * n, tuple(qubit_pairs(n)))]
        for rotations, pairs in shapes:
            yield FeatureMapTemplate(n, rotations, axis, pairs, 2)


def phases_in_long_double(template, X):
    """(inner, last) as exp(-i/2 angle), with each amplitude's angle summed
    and its cos and sin taken in np.longdouble."""
    n, axis = template.n_qubits, template.rotation_axis
    X = np.asarray(X, dtype=np.longdouble).T
    z = (1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)).astype(np.longdouble)
    zz = np.zeros((1 << n, X.shape[1]), dtype=np.longdouble)
    for i, j in template.entangle_pairs:
        zz += np.outer(z[:, i] * z[:, j], X[i] * X[j])
    rz = np.zeros_like(zz)
    for q in np.flatnonzero(template.rotation_enabled):
        rz += np.outer(z[:, q], X[q])

    def phase(angles):
        return np.cos(angles / 2), -np.sin(angles / 2)

    rotated, plain = phase(zz + rz), phase(zz)
    return (plain if axis == "Y" else rotated), (rotated if axis == "Z" else plain)


def phase_error(got, want) -> float:
    return float(np.max(np.hypot((got.real - want[0]).astype(float),
                                 (got.imag - want[1]).astype(float))))


@pytest.mark.parametrize("n", range(1, 13))
def test_layer_phases_match_long_double(n):
    # The product of per-term factors is exact maths, and rounds less than
    # one cos/sin of the summed angle: over the templates, the builder's
    # worst error is small and no larger than the angle-sum oracle's.
    rng = np.random.default_rng(70 + n)
    X = rng.uniform(-np.pi, np.pi, size=(4, n))
    worst, worst_oracle = 0.0, 0.0
    for t in phase_templates(rng, n):
        _, *phases = _layer_phases(t, X.T)
        got = [np.broadcast_to(p, (2,) * n + (4,)).reshape(1 << n, 4) for p in phases]
        want = phases_in_long_double(t, X)
        oracle = phase_by_angle_sum(t, X)
        for g, o, w in zip(got, oracle, want):
            worst = max(worst, phase_error(g, w))
            worst_oracle = max(worst_oracle, phase_error(o, w))
    assert worst <= 1e-13
    assert worst <= worst_oracle


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


@st.composite
def genome_bits(draw, n):
    return draw(st.lists(st.integers(0, 1), min_size=genome_length(n),
                         max_size=genome_length(n)))


def data_matrices(n, max_rows=8):
    return arrays(float, st.tuples(st.integers(1, max_rows), st.just(n)),
                  elements=st.floats(-2 * np.pi, 2 * np.pi))


def fresh_overlaps(template, X_a, X_b=None):
    """|<a|b>|^2 from new prepare_states calls; with one matrix, the Gram's
    upper triangle mirrored as quantum_gram does."""
    a = prepare_states(template, X_a)
    if X_b is None:
        overlaps = np.abs(a.conj() @ a.T) ** 2
        return np.triu(overlaps) + np.triu(overlaps, 1).T
    return np.abs(a.conj() @ prepare_states(template, X_b).T) ** 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_symmetric_unit_diagonal_psd_for_any_genome(data):
    n = data.draw(st.integers(1, 4))
    template = decode(Genome(n, data.draw(genome_bits(n))))
    K = quantum_gram(template, data.draw(data_matrices(n)))
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(np.diag(K) - 1.0)) <= 1e-10
    assert np.linalg.eigvalsh(K).min() >= -1e-10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_state_cache_is_transparent(data):
    """Any interleaving of Gram and cross calls, over equal templates built
    apart and data changed in place between calls, gives the bits that
    fresh preparation gives."""
    n = data.draw(st.integers(1, 4))
    bits = data.draw(genome_bits(n))
    templates = [decode(Genome(n, bits)), decode(Genome(n, bits)),
                 decode(Genome(n, data.draw(genome_bits(n))))]
    matrices = [data.draw(data_matrices(n)) for _ in range(3)]
    index = st.integers(0, 2)
    steps = st.one_of(st.tuples(st.just("gram"), index, index),
                      st.tuples(st.just("cross"), index, index, index),
                      st.tuples(st.just("edit"), index, st.floats(-np.pi, np.pi)))
    for step in data.draw(st.lists(steps, min_size=1, max_size=12)):
        if step[0] == "edit":
            X = matrices[step[1]]
            X[data.draw(st.integers(0, X.shape[0] - 1)),
              data.draw(st.integers(0, n - 1))] = step[2]
        elif step[0] == "gram":
            t, X = templates[step[1]], matrices[step[2]]
            assert np.array_equal(quantum_gram(t, X), fresh_overlaps(t, X))
        else:
            t, X_a, X_b = templates[step[1]], matrices[step[2]], matrices[step[3]]
            assert np.array_equal(quantum_cross(t, X_a, X_b),
                                  fresh_overlaps(t, X_a, X_b))


def test_cached_states_are_read_only_and_prepare_states_stays_fresh():
    rng = np.random.default_rng(27)
    t = random_template(rng, 3)
    X = rng.uniform(0, np.pi, size=(4, 3))
    cached = _states(t, X)
    assert _states(t, X.copy()) is cached
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0
    states = prepare_states(t, X)
    assert states is not prepare_states(t, X)
    states[0, 0] = 0.0
    np.testing.assert_array_equal(states[1:], cached[1:])


def test_classical_kernel_values():
    x = np.array([[1.0, 2.0]])
    y = np.array([[3.0, 4.0]])
    assert classical_kernel("linear", x, y)[0, 0] == 11.0
    assert classical_kernel("linear", [1.0, 2.0], [3.0, 4.0]).tolist() == [[11.0]]
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
    with pytest.raises(ValueError):
        classical_kernel("rbf", [1.0, 2.0], np.ones((2, 3)))
