"""SMO solver feasibility, optimality and prediction behaviour."""
import os
import subprocess
import sys
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qkevo.data import SplitSpec, load_csv, make_split, minmax_scale, subset_features
from qkevo.errors import TrainingError
from qkevo.featuremap import Genome, decode, genome_length
from qkevo.kernel import classical_kernel, quantum_gram
from qkevo.svm import (MulticlassModel, SvmModel, TrainConfig, _solve, accuracy,
                       decision_values, dual_objective, fit_score, predict,
                       predict_multiclass, train_dual, train_multiclass)

from conftest import REPO_ROOT
from oracles import random_feasible_alphas, smo_by_masks

CANCER = REPO_ROOT / "data" / "breast_cancer.csv"
IRIS = REPO_ROOT / "data" / "iris.csv"


def test_two_point_problem():
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])  # x = -1, +1, linear kernel
    y = np.array([-1.0, 1.0])
    model = train_dual(gram, y)
    np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-12)
    assert abs(model.bias) < 1e-12
    assert list(model.support_indices) == [0, 1]
    np.testing.assert_allclose(decision_values(model, gram), [-1.0, 1.0], atol=1e-12)
    assert accuracy(predict(model, gram), y) == 1.0


def test_xor_rbf_training_accuracy():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    K = classical_kernel("rbf", X, X, gamma=1.0)
    model = train_dual(K, y)
    assert accuracy(predict(model, K), y) == 1.0
    # cross-check against a projected-gradient ascent oracle
    alpha = np.zeros(4)
    coeff_step = 0.05
    for _ in range(4000):
        grad = 1.0 - (y * (K @ (alpha * y)))
        alpha += coeff_step * grad
        alpha -= y * (alpha @ y) / 4.0  # project onto sum(alpha*y)=0
        alpha = np.clip(alpha, 0.0, 1.0)
    assert abs(dual_objective(model.alphas, K, y)
               - dual_objective(alpha, K, y)) < 1e-2


def _random_problems():
    """(X, y, C) for RBF problems of 6-24 rows, ending with one that needs
    the bound snap."""
    rng = np.random.default_rng(33)
    problems = []
    for _ in range(25):
        n = int(rng.integers(6, 25))
        X = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        problems.append((X, y, float(rng.uniform(0.5, 4.0))))
    # Here an alpha steps from inside the box to C, and alpha + (C - alpha)
    # rounds one ulp above C unless the solver sets it to C exactly.
    rng = np.random.default_rng(55)
    problems.append((rng.normal(size=(6, 2)),
                     np.where(rng.random(6) < 0.5, -1.0, 1.0), 2.9))
    return problems


def test_constraints_hold_on_random_problems():
    for X, y, C in _random_problems():
        K = classical_kernel("rbf", X, X)
        config = TrainConfig(C=C)
        model = train_dual(K, y, config)
        assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= config.C)
        at_bound = (model.alphas < 1e-8) | (model.alphas > config.C - 1e-8)
        assert np.all(np.isin(model.alphas[at_bound], (0.0, config.C)))
        assert abs(np.dot(model.alphas, y)) <= 1e-8
        assert dual_objective(model.alphas, K, y) >= 0.0  # beats alpha = 0


def test_dual_objective_beats_random_feasible_points():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = 12
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        K = classical_kernel("rbf", X, X)
        model = train_dual(K, y)
        best_random = max(dual_objective(a, K, y) for a in
                          random_feasible_alphas(rng, y, 1.0, 300))
        assert dual_objective(model.alphas, K, y) >= best_random


def _kkt_problems():
    """(K, y) for RBF problems, a sigmoid Gram, quantum Grams on cancer
    features, and a quantum Gram with a zero-curvature first pair."""
    rng = np.random.default_rng(35)
    problems = []
    for _ in range(10):
        n = 20
        X = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        problems.append((classical_kernel("rbf", X, X), y))
    # A sigmoid Gram is not PSD: some pairs have negative curvature.
    problems.append((classical_kernel("sigmoid", X, X, gamma=1.0, coef0=-1.0), y))
    # The quantum Grams evolution trains on: random genomes on scaled cancer
    # features, then one split whose first negative row duplicates its first
    # positive row, so the first pair's curvature K_ii + K_jj - 2 K_ij is 0.
    cancer = load_csv(CANCER, "diagnosis", positive_class="malignant")
    for k in (2, 4, 6, 8):
        features = sorted(rng.choice(30, size=k, replace=False))
        scaled = minmax_scale(subset_features(cancer, features), 0.0, np.pi)
        tts = make_split(scaled, SplitSpec(60, 0, seed=k))
        template = decode(Genome(k, rng.integers(0, 2, size=genome_length(k))))
        problems.append((quantum_gram(template, tts.X_train), tts.y_train))
    X = tts.X_train.copy()
    X[np.argmax(tts.y_train < 0)] = X[np.argmax(tts.y_train > 0)]
    problems.append((quantum_gram(template, X), tts.y_train))
    return problems


def _assert_kkt(K, y, config):
    model = train_dual(K, y, config)
    assert np.all(model.alphas >= 0.0) and np.all(model.alphas <= config.C)
    margins = y * decision_values(model, K)
    for i in range(y.size):
        if model.alphas[i] < 1e-8:
            assert margins[i] >= 1.0 - 2 * config.tolerance
        elif model.alphas[i] > config.C - 1e-8:
            assert margins[i] <= 1.0 + 2 * config.tolerance
        else:
            assert abs(margins[i] - 1.0) <= 2 * config.tolerance


def test_kkt_audit():
    for K, y in _kkt_problems():
        _assert_kkt(K, y, TrainConfig())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kkt_holds_for_any_rbf_problem(data):
    n = data.draw(st.integers(2, 16))
    X = data.draw(arrays(float, (n, data.draw(st.integers(1, 3))),
                         elements=st.floats(-3.0, 3.0)))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)
                      .filter(lambda labels: len(set(labels)) == 2))
    config = TrainConfig(C=data.draw(st.sampled_from((0.1, 1.0, 10.0))),
                         tolerance=data.draw(st.sampled_from((1e-3, 1e-5))))
    _assert_kkt(classical_kernel("rbf", X, X, gamma=data.draw(st.floats(0.05, 5.0))),
                np.array(signs), config)


def _quantum_pair_problems():
    """(K, y) SMO problems from quantum Grams of random genomes on 100/50
    splits: the three one-vs-one pairs of iris features 0,1,2, and cancer
    combos of 2, 6 and 8 features."""
    rng = np.random.default_rng(57)
    problems = []
    iris = load_csv(IRIS, "species")
    tts = make_split(minmax_scale(subset_features(iris, [0, 1, 2]), 0.0, np.pi),
                     SplitSpec(100, 50))
    classes = np.unique(tts.y_train)
    for _ in range(4):
        gram = quantum_gram(decode(Genome(3, rng.integers(0, 2, size=genome_length(3)))),
                            tts.X_train)
        for a, b in combinations(classes, 2):
            rows = np.flatnonzero((tts.y_train == a) | (tts.y_train == b))
            problems.append((gram[np.ix_(rows, rows)],
                             np.where(tts.y_train[rows] == a, 1.0, -1.0)))
    cancer = load_csv(CANCER, "diagnosis", positive_class="malignant")
    for k in (2, 6, 8):
        for _ in range(4):
            features = sorted(rng.choice(30, size=k, replace=False))
            scaled = minmax_scale(subset_features(cancer, features), 0.0, np.pi)
            tts = make_split(scaled, SplitSpec(100, 50, seed=k))
            template = decode(Genome(k, rng.integers(0, 2, size=genome_length(k))))
            problems.append((quantum_gram(template, tts.X_train), tts.y_train))
    return problems


def test_solver_matches_mask_oracle_bit_for_bit():
    cases = [(K, y, 1.0, 100_000) for K, y in _quantum_pair_problems()]
    cases += [(K, y, 1.0, 100_000) for K, y in _kkt_problems()]
    cases += [(classical_kernel("rbf", X, X), y, C, 100_000)
              for X, y, C in _random_problems()]
    # One run that the cap stops: the first quantum problem needs more steps.
    K, y = cases[0][:2]
    cases.append((K, y, 1.0, 5))
    for K, y, C, cap in cases:
        K, y = np.asarray(K, dtype=float), np.asarray(y, dtype=float)
        alphas, steps = _solve(K, y, C, 1e-3, cap)
        want_alphas, want_steps = smo_by_masks(K, y, C, 1e-3, cap)
        assert np.array_equal(alphas, want_alphas)
        assert steps == want_steps
    assert steps == 5


def test_model_reports_smo_iterations():
    K, y = _kkt_problems()[0]
    converged = train_dual(K, y)
    assert 3 < converged.iterations < TrainConfig.max_iterations
    with pytest.warns(RuntimeWarning, match="max_iterations=3"):
        assert train_dual(K, y, TrainConfig(max_iterations=3)).iterations == 3


def test_capped_smo_warns_once_per_run():
    # The warning text is the same for every solve of a run, so Python's
    # default filter prints it once; a solve that converges prints nothing.
    script = "\n".join((
        "import numpy as np",
        "from qkevo.svm import TrainConfig, train_dual",
        "X = np.random.default_rng(0).normal(size=(12, 2))",
        "y = np.where(X[:, 0] > 0, 1.0, -1.0)",
        "assert train_dual(X @ X.T, y).iterations > 1",
        "print('converged', flush=True)",
        "for _ in range(3):",
        "    train_dual(X @ X.T, y, TrainConfig(max_iterations=1))"))
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "converged\n"
    assert done.stderr.count("RuntimeWarning") == 1
    assert "RuntimeWarning: SMO stopped at max_iterations=1 " in done.stderr


def test_update_that_reaches_the_tolerance_at_the_cap_does_not_warn():
    # One update closes the gap, so a cap of 1 stops nothing early: the
    # model equals the uncapped one and no warning is raised.
    gram, y = np.eye(2), np.array([1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = train_dual(gram, y, TrainConfig(max_iterations=1))
    free = train_dual(gram, y, TrainConfig(max_iterations=2))
    assert np.array_equal(capped.alphas, [1.0, 1.0])
    assert np.array_equal(capped.alphas, free.alphas)
    assert capped.iterations == free.iterations == 1
    K, y = _kkt_problems()[0]
    with pytest.warns(RuntimeWarning, match="SMO stopped at max_iterations=3 "):
        assert train_dual(K, y, TrainConfig(max_iterations=3)).iterations == 3


@st.composite
def _smo_problems(draw):
    """(K, y, C, tol, cap): an rbf or quantum Gram of 2-40 rows, some of
    them repeated so that pairs of zero curvature occur."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 3))
    X = draw(arrays(float, (n, n_features), elements=st.floats(0.0, np.pi)))
    repeats = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                            max_size=n // 2))
    for src, dst in repeats:
        X[dst] = X[src]
    if draw(st.booleans()):
        K = classical_kernel("rbf", X, X, gamma=draw(st.floats(0.05, 5.0)))
    else:
        bits = draw(st.lists(st.integers(0, 1), min_size=genome_length(n_features),
                             max_size=genome_length(n_features)))
        K = quantum_gram(decode(Genome(n_features, np.array(bits))), X)
    y = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)
                      .filter(lambda labels: len(set(labels)) == 2)))
    C = 10.0 ** draw(st.floats(-3.0, 3.0))
    tol = draw(st.sampled_from((1e-1, 1e-3, 1e-6)))
    return K, y, C, tol, draw(st.integers(1, 50))


@settings(max_examples=100, deadline=None)
@given(_smo_problems())
def test_solver_matches_mask_oracle_on_any_problem(problem):
    alphas, steps = _solve(*problem)
    want_alphas, want_steps = smo_by_masks(*problem)
    assert np.array_equal(alphas, want_alphas)
    assert np.array_equal(np.signbit(alphas), np.signbit(want_alphas))
    assert steps == want_steps


def test_multiclass_models_equal_binary_models_on_sub_grams():
    iris = load_csv(IRIS, "species")
    tts = make_split(minmax_scale(subset_features(iris, [0, 1, 2]), 0.0, np.pi),
                     SplitSpec(100, 50))
    gram = quantum_gram(decode(Genome(3, np.arange(genome_length(3)) % 2)), tts.X_train)
    ensemble = train_multiclass(gram, tts.y_train)
    assert len(ensemble.models) == 3
    for (ia, _), model, rows in zip(ensemble.pairs, ensemble.models, ensemble.pair_rows):
        sub_y = np.where(tts.y_train[rows] == ensemble.classes[ia], 1.0, -1.0)
        want = train_dual(gram[np.ix_(rows, rows)], sub_y)
        assert np.array_equal(model.alphas, want.alphas)
        assert model.bias == want.bias and model.iterations == want.iterations
        assert np.array_equal(model.support_indices, want.support_indices)
        assert np.array_equal(model.train_labels, want.train_labels)


def test_single_class_labels_raise():
    with pytest.raises(TrainingError):
        train_dual(np.eye(3), np.array([1.0, 1.0, 1.0]))


def test_shape_validation():
    with pytest.raises(ValueError):
        train_dual(np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        train_dual(np.eye(2), np.array([1.0, 2.0]))  # labels not in {-1,+1}
    with pytest.raises(ValueError, match="labels must be -1 or"):
        train_dual(np.eye(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="symmetric"):
        train_dual(np.array([[1.0, 0.5], [0.4, 1.0]]), np.array([1.0, -1.0]))
    model = train_dual(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                       np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        decision_values(model, np.ones((2, 3)))
    with pytest.raises(ValueError):
        accuracy(np.array([1, -1]), np.array([1]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gram_raises(bad):
    # allclose(inf, inf) is true, so symmetry alone would let this Gram
    # through to 100 000 SMO steps that return all-zero alphas.
    gram = np.array([[bad, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.0]])
    y = np.array([1.0, -1.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        train_dual(gram, y)
    with pytest.raises(ValueError, match="finite"):
        train_multiclass(gram, y)


def test_all_ones_gram_predicts_majority():
    # Constant kernel: decision collapses to the bias, whose KKT interval
    # midpoint lands on the majority class.
    K = np.ones((10, 10))
    y_maj_pos = np.array([1.0] * 7 + [-1.0] * 3)
    model = train_dual(K, y_maj_pos)
    assert model.bias == 1.0
    assert np.all(predict(model, np.ones((5, 10))) == 1)
    y_maj_neg = -y_maj_pos
    model = train_dual(K, y_maj_neg)
    assert model.bias == -1.0
    assert np.all(predict(model, np.ones((5, 10))) == -1)


def test_decision_values_constant_for_zero_alphas():
    model = train_dual(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, 1.0]))
    model.alphas = np.zeros(2)
    model.bias = 0.25
    np.testing.assert_allclose(decision_values(model, np.eye(2)), [0.25, 0.25])


def test_single_support_vector_formula():
    model = train_dual(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, 1.0]))
    model.alphas = np.array([0.0, 1.0])
    model.bias = 0.0
    # f = alpha * y * k = 1 * 1 * 0.5
    assert decision_values(model, np.array([[0.0, 0.5]]))[0] == 0.5


def test_tie_decision_value_maps_to_plus_one():
    model = train_dual(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, 1.0]))
    model.alphas = np.zeros(2)
    model.bias = 0.0
    assert np.all(predict(model, np.zeros((3, 2))) == 1)


def test_label_flip_symmetry():
    rng = np.random.default_rng(36)
    X = rng.normal(size=(14, 2))
    y = np.where(rng.random(14) < 0.5, -1.0, 1.0)
    y[0], y[1] = 1.0, -1.0
    K = classical_kernel("rbf", X, X)
    m_plus = train_dual(K, y)
    m_minus = train_dual(K, -y)
    np.testing.assert_allclose(decision_values(m_plus, K),
                               -decision_values(m_minus, K), atol=1e-9)


def test_accuracy_values():
    assert accuracy(np.array([1, 1, -1]), np.array([1, 1, -1])) == 1.0
    assert accuracy(np.array([1, 1]), np.array([-1, -1])) == 0.0
    assert accuracy(np.array([1, 1, 1, -1]), np.array([1, 1, 1, 1])) == 0.75


def _blobs(rng, centers, n_per, sigma=1.0):
    X = np.vstack([rng.normal(loc=c, scale=sigma, size=(n_per, len(c)))
                   for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


def test_multiclass_reduces_to_binary_for_two_classes():
    rng = np.random.default_rng(38)
    X, y_ids = _blobs(rng, [(0.0, 0.0), (6.0, 6.0)], 8)
    K = classical_kernel("linear", X, X)
    ensemble = train_multiclass(K, y_ids)
    assert len(ensemble.models) == 1
    y_signed = np.where(y_ids == 0, 1.0, -1.0)  # first class codes +1
    binary = train_dual(K, y_signed)
    np.testing.assert_allclose(ensemble.models[0].alphas, binary.alphas)
    pred_ids = predict_multiclass(ensemble, K)
    pred_signed = predict(binary, K)
    assert np.array_equal(pred_ids == 0, pred_signed == 1)


def test_multiclass_separated_blobs_perfect():
    rng = np.random.default_rng(39)
    X, y = _blobs(rng, [(0.0, 0.0), (12.0, 0.0), (0.0, 12.0)], 10, sigma=1.0)
    K = classical_kernel("linear", X, X)
    ensemble = train_multiclass(K, y)
    assert accuracy(predict_multiclass(ensemble, K), y) == 1.0


def test_multiclass_unanimous_vote_wins():
    rng = np.random.default_rng(40)
    X, y = _blobs(rng, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 6)
    K = classical_kernel("rbf", X, X)
    ensemble = train_multiclass(K, y)
    cross = classical_kernel("rbf", X[:1], X)
    # the first blob's own point: both its pair models vote class 0
    assert predict_multiclass(ensemble, cross)[0] == y[0]


def test_multiclass_vote_tie_breaks():
    # Pair model k reads only cross column k with weight 1 and bias 0, so
    # cross[r, k] is its decision value: >= 0 votes for the pair's first class.
    unit = SvmModel(alphas=np.array([1.0]), bias=0.0, support_indices=np.array([0]),
                    train_labels=np.array([1.0]), regularization=1.0)
    pairs = [(0, 1), (0, 2), (1, 2)]
    ensemble = MulticlassModel(classes=np.array(["a", "b", "c"]), pairs=pairs,
                               models=[unit] * 3,
                               pair_rows=[np.array([k]) for k in range(3)])
    cross = np.array([
        [0.1, 0.1, -5.0],   # votes a=2, c=1: votes win over c's strength
        [0.5, -2.0, 1.0],   # one vote each: strength a=0.5, b=1, c=2
        [1.0, -1.0, 1.0],   # one vote each, equal strength: first class
        [-1.0, 1.0, -1.0],  # one vote each (b, a, c), equal strength: first class
    ])
    assert list(predict_multiclass(ensemble, cross)) == ["a", "c", "a", "a"]


def test_multiclass_needs_two_classes():
    with pytest.raises(TrainingError):
        train_multiclass(np.eye(3), np.zeros(3))


def test_fit_score_picks_binary_or_one_vs_one_by_label_coding():
    rng = np.random.default_rng(41)
    X, y_ids = _blobs(rng, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)], 12, sigma=1.5)
    train, test = np.arange(0, 36, 2), np.arange(1, 36, 2)
    K = classical_kernel("rbf", X[train], X[train])
    cross = classical_kernel("rbf", X[test], X[train])
    config = TrainConfig(C=2.0)
    ensemble = train_multiclass(K, y_ids[train], config)
    assert fit_score(K, cross, y_ids[train], y_ids[test], config) == \
        accuracy(predict_multiclass(ensemble, cross), y_ids[test])
    y_signed = np.where(y_ids == 0, 1, -1)
    model = train_dual(K, y_signed[train], config)
    assert fit_score(K, cross, y_signed[train], y_signed[test], config) == \
        accuracy(predict(model, cross), y_signed[test])
    with pytest.raises(TrainingError):
        fit_score(K, cross, np.ones(train.size), np.ones(test.size))
