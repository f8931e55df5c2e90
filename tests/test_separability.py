"""SI, HMI, KS and DSI against hand values, scipy's KS and the
full-matrix code in ``oracles`` as oracles."""
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qkevo.data import load_csv, minmax_scale, sample_feature_combos, subset_features
from qkevo.separability import (KS_PIECE, compute_indexes, dsi, dsi_two_class,
                                hypothesis_margin_index, ks_statistic,
                                separability_index)

from conftest import REPO_ROOT
from oracles import indexes_by_full_matrix, ks_by_definition, ks_by_searchsorted


def _two_far_clusters(rng, n_per=10, gap=50.0):
    a = rng.normal(size=(n_per, 2))
    b = rng.normal(size=(n_per, 2)) + gap
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def test_si_far_clusters_is_one():
    rng = np.random.default_rng(50)
    X, y = _two_far_clusters(rng)
    assert separability_index(X, y) == 1.0


def test_si_alternating_line_is_zero():
    X = np.arange(10, dtype=float)[:, None]
    y = np.array([0, 1] * 5)
    assert separability_index(X, y) == 0.0


def test_si_needs_two_instances():
    with pytest.raises(ValueError):
        separability_index(np.zeros((1, 2)), np.zeros(1))


def test_si_rigid_motion_invariance():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0],
                  [0, 0, 1.0]])
    moved = X @ R.T + np.array([5.0, -3.0, 2.0])
    assert abs(separability_index(X, y) - separability_index(moved, y)) < 1e-9


def test_si_uniform_scaling_invariance():
    rng = np.random.default_rng(52)
    X = rng.normal(size=(25, 2))
    y = rng.integers(0, 3, size=25)
    assert separability_index(X, y) == separability_index(7.3 * X, y)


def test_hmi_single_point_term():
    # nearhit at distance 1, nearmiss at 3 for the origin point
    X = np.array([[0.0], [1.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    # features scaled to [0,1]: distances shrink by 4
    total = hypothesis_margin_index(X, y)
    per_point = [0.5 * (3 - 1), 0.5 * (2 - 1), 0.5 * (2 - 1), 0.5 * (3 - 1)]
    assert abs(total - sum(p / 4.0 for p in per_point)) < 1e-12


def test_hmi_interleaved_is_negative():
    X = np.arange(8, dtype=float)[:, None]
    y = np.array([0, 1] * 4)
    assert hypothesis_margin_index(X, y) < 0.0


def test_hmi_mean_mode():
    rng = np.random.default_rng(53)
    X, y = _two_far_clusters(rng)
    total = hypothesis_margin_index(X, y, mode="sum")
    mean = hypothesis_margin_index(X, y, mode="mean")
    assert abs(mean - total / len(y)) < 1e-12
    with pytest.raises(ValueError):
        hypothesis_margin_index(X, y, mode="median")


def test_hmi_end_to_end_scale_invariance():
    rng = np.random.default_rng(54)
    X = rng.normal(size=(20, 3))
    y = np.array([0] * 10 + [1] * 10)
    assert abs(hypothesis_margin_index(X, y)
               - hypothesis_margin_index(4.2 * X, y)) < 1e-9


def test_hmi_preconditions():
    with pytest.raises(ValueError):
        hypothesis_margin_index(np.zeros((3, 1)), np.array([0, 0, 0]))
    with pytest.raises(ValueError):
        hypothesis_margin_index(np.arange(3.0)[:, None], np.array([0, 0, 1]))


def test_ks_hand_values():
    assert ks_statistic([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert ks_statistic([1, 2, 3, 4], [3, 4, 5, 6]) == 0.5


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], [1.0])


def test_ks_symmetry_and_range():
    rng = np.random.default_rng(55)
    for _ in range(20):
        a = rng.normal(size=rng.integers(1, 40))
        b = rng.normal(size=rng.integers(1, 40))
        d_ab = ks_statistic(a, b)
        assert d_ab == ks_statistic(b, a)
        assert 0.0 <= d_ab <= 1.0


def test_ks_matches_scipy():
    rng = np.random.default_rng(56)
    for _ in range(25):
        a = rng.normal(size=rng.integers(2, 50))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(2, 50))
        want = stats.ks_2samp(a, b, method="exact").statistic
        assert abs(ks_statistic(a, b) - want) < 1e-12


def test_ks_matches_definition_with_ties():
    # Small integer ranges make most values repeat within and across samples.
    rng = np.random.default_rng(63)
    for size_a in range(1, 61):
        size_b = int(rng.integers(1, 61))
        top = int(rng.integers(1, 8))
        a = rng.integers(0, top, size=size_a)
        b = rng.integers(0, top, size=size_b)
        assert ks_statistic(a, b) == ks_by_definition(a, b)
        assert ks_statistic(b, a) == ks_by_definition(b, a)


def test_ks_across_piece_boundaries():
    # Samples several pieces long, drawn from few values, so tie runs far
    # longer than a piece straddle the piece edges and most values occur in
    # both samples; one pair is lopsided so one sample runs out first.  With
    # equal ranges the true distance is small, so a count taken inside a
    # tie run would be the largest.
    rng = np.random.default_rng(64)
    sizes = [(3 * KS_PIECE + 17, 4 * KS_PIECE - 5), (5 * KS_PIECE, 2 * KS_PIECE + 1),
             (6 * KS_PIECE + 3, KS_PIECE // 3)]
    for (size_a, size_b), top, shift in itertools.product(sizes, (7, 60), (0, 2)):
        a = rng.integers(0, top, size=size_a)
        b = rng.integers(shift, top + shift, size=size_b)
        cut = np.sort(a)
        assert cut[KS_PIECE - 1] == cut[KS_PIECE]  # a tie run straddles the first edge
        want = ks_by_searchsorted(a, b)
        assert ks_statistic(a, b) == want
        assert ks_statistic(b, a) == ks_by_searchsorted(b, a) == want


@pytest.mark.parametrize("call", [
    lambda X, y: compute_indexes(X, y),
    lambda X, y: separability_index(X, y),
    lambda X, y: hypothesis_margin_index(X, y),
    lambda X, y: dsi(X, y),
    lambda X, y: dsi_two_class(X[y == 0], X[y == 1]),
], ids=["compute_indexes", "separability_index", "hypothesis_margin_index", "dsi",
        "dsi_two_class"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(call, bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.array([0, 0, 0, 1, 1, 1])
    X[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        call(X, y)


@pytest.mark.parametrize("a, b", [([np.nan, 1.0], [1.0, 2.0]), ([1.0, 2.0], [np.inf]),
                                  ([-np.inf, 0.0], [0.0])])
def test_ks_non_finite_rejected(a, b):
    with pytest.raises(ValueError, match="finite"):
        ks_statistic(a, b)


def test_dsi_two_class_disjoint_supports():
    eps = 1e-4
    X = np.array([[0.0, 0.0], [0.0, eps]])
    Y = np.array([[10.0, 0.0], [10.0, eps]])
    assert abs(dsi_two_class(X, Y) - 1.0) < 1e-9


def test_dsi_two_class_same_distribution_small():
    rng = np.random.default_rng(57)
    X = rng.uniform(size=(200, 2))
    Y = rng.uniform(size=(200, 2))
    assert dsi_two_class(X, Y) <= 0.1


def test_dsi_distance_set_sizes():
    from qkevo.separability import _cross_distances, _intra_distances
    rng = np.random.default_rng(58)
    X = rng.normal(size=(7, 2))
    Y = rng.normal(size=(5, 2))
    assert _intra_distances(X).size == 7 * 6 // 2
    assert _cross_distances(X, Y).size == 7 * 5


def test_dsi_symmetry():
    rng = np.random.default_rng(59)
    X = rng.normal(size=(9, 3))
    Y = rng.normal(size=(6, 3)) + 0.5
    assert dsi_two_class(X, Y) == dsi_two_class(Y, X)


def test_dsi_small_class_rejected():
    with pytest.raises(ValueError):
        dsi_two_class(np.zeros((1, 2)), np.zeros((4, 2)))


def test_dsi_multiclass_reduces_to_two_class():
    rng = np.random.default_rng(60)
    X, y = _two_far_clusters(rng)
    assert dsi(X, y) == dsi_two_class(X[y == 0], X[y == 1])


def test_dsi_three_far_blobs_high():
    # Under the one-vs-rest reduction the "rest" group is multimodal: its
    # intra-class set keeps the cross-blob distances, so for three equal
    # far-separated blobs each class contributes (1 + KS_rest)/2 with
    # KS_rest ~ (n-1)/(2n-1) ~ 1/2, capping DSI near 0.77 regardless of
    # how far apart the blobs are.  Assert the separation floor.
    rng = np.random.default_rng(61)
    centers = [(0.0, 0.0), (80.0, 0.0), (0.0, 80.0)]
    X = np.vstack([rng.normal(loc=c, size=(12, 2)) for c in centers])
    y = np.repeat(np.arange(3), 12)
    value = dsi(X, y)
    assert value >= 0.75
    # blending the blobs together destroys the separation signal
    blended = np.vstack([rng.normal(size=(12, 2)) for _ in centers])
    assert dsi(blended, y) < 0.35 < value


def test_dsi_rigid_motion_invariance():
    rng = np.random.default_rng(62)
    X = rng.normal(size=(24, 2))
    y = rng.integers(0, 2, size=24)
    theta = 1.1
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    assert abs(dsi(X, y) - dsi(X @ R.T + 3.0, y)) < 1e-9


def test_compute_indexes_full_iris(iris_csv):
    from qkevo.data import load_csv
    iris = load_csv(iris_csv, "species")
    si, hmi, dsi_val = compute_indexes(iris.X, iris.y)
    assert abs(si - 0.96) < 1e-12  # frozen: scaled 4-feature value
    assert 0.0 <= dsi_val <= 1.0
    assert hmi > 0.0


# (SI, HMI, DSI) exactly as computed before SI and HMI shared one distance
# matrix and KS became one merged sweep; the rewrite must keep every bit.
_IRIS = ("iris.csv", "species", None)
_IRIS_SETOSA = ("iris.csv", "species", "setosa")
_CANCER = ("breast_cancer.csv", "diagnosis", None)
_GOLDEN = [
    (_IRIS, (0, 1, 2, 3), "sum", (0.96, 20.964919710348283, 0.6350652786367071)),
    (_IRIS, (0, 1, 2, 3), "mean", (0.96, 0.13976613140232189, 0.6350652786367071)),
    (_IRIS_SETOSA, (0, 1, 2, 3), "sum", (1.0, 51.81400692936839, 0.8923979591836735)),
    (_IRIS_SETOSA, (0, 1, 2, 3), "mean", (1.0, 0.3454267128624559, 0.8923979591836735)),
    (_CANCER, (0, 1), "sum", (0.8629173989455184, 16.357402627829785, 0.3540331172552937)),
    (_CANCER, (0, 1), "mean",
     (0.8629173989455184, 0.028747632034850236, 0.3540331172552937)),
    (_CANCER, (7, 27), "sum", (0.8611599297012302, 21.07237068905677, 0.5342129462459091)),
    (_CANCER, (7, 27), "mean",
     (0.8611599297012302, 0.03703404339025794, 0.5342129462459091)),
    (_CANCER, (0, 5, 10, 15, 20, 25), "sum",
     (0.9367311072056239, 32.60124866194109, 0.42126119110854043)),
    (_CANCER, (0, 5, 10, 15, 20, 25), "mean",
     (0.9367311072056239, 0.05729569184875412, 0.42126119110854043)),
    (_CANCER, (2, 3, 8, 13, 21, 29), "sum",
     (0.9314586994727593, 32.00893573865251, 0.37777934836858107)),
    (_CANCER, (2, 3, 8, 13, 21, 29), "mean",
     (0.9314586994727593, 0.05625472010307998, 0.37777934836858107)),
]


@pytest.mark.parametrize("source, features, mode, want", _GOLDEN, ids=[
    f"{name.split('.')[0]}{'-' + positive if positive else ''}"
    f"-{'.'.join(map(str, features))}-{mode}"
    for (name, _, positive), features, mode, _ in _GOLDEN])
def test_compute_indexes_golden_values(source, features, mode, want):
    name, label, positive = source
    data = subset_features(load_csv(REPO_ROOT / "data" / name, label, positive),
                           list(features))
    got = compute_indexes(data.X, data.y, hmi_mode=mode)
    assert got == want
    scaled = minmax_scale(data, 0.0, 1.0).X
    assert got == (separability_index(scaled, data.y),
                   hypothesis_margin_index(scaled, data.y, mode=mode),
                   dsi(scaled, data.y))


def _cancer():
    return load_csv(REPO_ROOT / "data" / "breast_cancer.csv", "diagnosis")


def test_compute_indexes_equal_full_matrix_oracle():
    cancer = _cancer()
    iris = load_csv(REPO_ROOT / "data" / "iris.csv", "species")
    cases = [(cancer, combo) for k in range(1, 9)
             for combo in sample_feature_combos(30, k, 3, seed=70 + k)]
    cases += [(iris, combo) for r in range(1, 5)
              for combo in itertools.combinations(range(4), r)]
    for data, combo in cases:
        part = subset_features(data, list(combo))
        for mode in ("sum", "mean"):
            assert (compute_indexes(part.X, part.y, hmi_mode=mode)
                    == indexes_by_full_matrix(part.X, part.y, hmi_mode=mode)), (combo, mode)


def test_compute_indexes_holds_less_than_two_distance_matrices():
    part = subset_features(_cancer(), [0, 5, 10, 15, 20, 25])
    n = part.X.shape[0]
    tracemalloc.start()
    try:
        compute_indexes(part.X, part.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 569
    assert peak < 2 * n * n * 8
