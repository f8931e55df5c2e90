"""CSV loading errors, scaling, splits and combo sampling."""
import math
from itertools import product

import numpy as np
import pytest

from qkevo.data import (Dataset, SplitSpec, _quotas, load_csv, make_split, minmax_columns,
                        minmax_scale, sample_feature_combos, split, subset_features)
from qkevo.errors import ConfigError, DataError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_small_csv(tmp_path):
    path = _write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
    ds = load_csv(path, "label")
    assert ds.feature_names == ["a", "b"]
    assert ds.X.shape == (3, 2)
    assert ds.class_names == ["x", "y"]
    assert list(ds.y) == [0, 1, 0]


def test_load_with_positive_class(tmp_path):
    path = _write(tmp_path, "a,label\n1,x\n2,y\n3,x\n")
    ds = load_csv(path, "label", positive_class="y")
    assert list(ds.y) == [-1, 1, -1]
    with pytest.raises(DataError):
        load_csv(path, "label", positive_class="z")


def test_load_label_by_index(tmp_path):
    path = _write(tmp_path, "label,a\nx,1\ny,2\n")
    ds = load_csv(path, 0)
    assert ds.feature_names == ["a"]
    assert ds.X.shape == (2, 1)


def test_load_error_empty(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, "label")


def test_load_error_missing_label(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="no column"):
        load_csv(path, "label")


def test_load_error_ragged(tmp_path):
    path = _write(tmp_path, "a,b,label\n1,2,x\n1,x\n")
    with pytest.raises(DataError, match="ragged"):
        load_csv(path, "label")


def test_load_error_unparseable(tmp_path):
    path = _write(tmp_path, "a,label\nfoo,x\n")
    with pytest.raises(DataError, match="unparseable"):
        load_csv(path, "label")


@pytest.mark.parametrize("text, match", [
    pytest.param("a,b,label\n1,2,x\n\n\n3,4,y\n1,x\n", "ragged row at line 6 ",
                 id="ragged-after-two-blank-lines"),
    pytest.param("a,label\n1,x\n\nfoo,y\n", "unparseable numeric at line 4:",
                 id="unparseable-after-a-blank-line")])
def test_load_error_names_the_file_line(tmp_path, text, match):
    # Before, blank lines were dropped before numbering: lines 4 and 3.
    with pytest.raises(DataError, match=match):
        load_csv(_write(tmp_path, text), "label")


@pytest.mark.parametrize("text, label, match", [
    pytest.param("a,label\n", "label", "no data rows", id="header-only"),
    pytest.param("a,label\n1,x\n", 2, "out of range", id="label-index"),
    pytest.param("a,label\n1,x\nnan,y\n", "label", "non-finite", id="nan-feature")])
def test_load_error(tmp_path, text, label, match):
    with pytest.raises(DataError, match=match):
        load_csv(_write(tmp_path, text), label)


def test_load_breast_cancer(breast_cancer_csv):
    ds = load_csv(breast_cancer_csv, "diagnosis", positive_class="malignant")
    assert ds.X.shape == (569, 30)
    assert int(np.sum(ds.y == 1)) == 212
    assert int(np.sum(ds.y == -1)) == 357


def test_load_iris(iris_csv):
    ds = load_csv(iris_csv, "species")
    assert ds.X.shape == (150, 4)
    assert ds.class_names == ["setosa", "versicolor", "virginica"]
    assert all(int(np.sum(ds.y == c)) == 50 for c in range(3))


def _toy(X, y=None):
    X = np.asarray(X, dtype=float)
    y = np.zeros(X.shape[0], dtype=int) if y is None else np.asarray(y)
    return Dataset(feature_names=[f"f{i}" for i in range(X.shape[1])],
                   X=X, y=y, class_names=["only"])


def test_minmax_scale_basic():
    ds = _toy([[0.0], [5.0], [10.0]])
    out = minmax_scale(ds, 0.0, 1.0)
    np.testing.assert_allclose(out.X[:, 0], [0.0, 0.5, 1.0])


def test_minmax_scale_idempotent_on_exact_range():
    ds = _toy([[0.0, 1.0], [1.0, 0.0], [0.25, 0.75]])
    out = minmax_scale(ds, 0.0, 1.0)
    np.testing.assert_allclose(out.X, ds.X, atol=1e-12)


def test_minmax_scale_constant_column():
    ds = _toy([[3.0, 1.0], [3.0, 2.0]])
    out = minmax_scale(ds, 0.5, 2.0)
    assert np.all(out.X[:, 0] == 0.5)
    np.testing.assert_allclose(out.X[:, 1], [0.5, 2.0])


def test_minmax_scale_bad_range():
    with pytest.raises(ValueError):
        minmax_scale(_toy([[1.0]]), 1.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan), (-math.inf, math.inf)])
def test_minmax_columns_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        minmax_columns(np.array([[0.0, 1.0], [1.0, 2.0]]), lo, hi)


def _labeled(n_a, n_b):
    X = np.arange(float(n_a + n_b))[:, None]
    y = np.array([0] * n_a + [1] * n_b)
    return Dataset(feature_names=["f"], X=X, y=y, class_names=["a", "b"])


def test_split_exact_sizes_and_disjoint():
    ds = _labeled(300, 269)
    train, test = split(ds, SplitSpec(100, 50, seed=3))
    assert train.size == 100 and test.size == 50
    assert np.intersect1d(train, test).size == 0


def test_split_deterministic():
    ds = _labeled(40, 40)
    a = split(ds, SplitSpec(30, 10, seed=7))
    b = split(ds, SplitSpec(30, 10, seed=7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = split(ds, SplitSpec(30, 10, seed=8))
    assert not np.array_equal(a[0], c[0])


def test_split_stratified_proportions():
    ds = _labeled(25, 25)
    train, _ = split(ds, SplitSpec(10, 10, seed=1))
    assert int(np.sum(ds.y[train] == 0)) == 5
    assert int(np.sum(ds.y[train] == 1)) == 5


def test_split_stratified_proportions_random_specs():
    rng = np.random.default_rng(64)
    for _ in range(25):
        n_a, n_b = int(rng.integers(20, 60)), int(rng.integers(20, 60))
        ds = _labeled(n_a, n_b)
        n = n_a + n_b
        n_train = int(rng.integers(10, n - 10))
        n_test = int(rng.integers(1, n - n_train))
        train, test = split(ds, SplitSpec(n_train, n_test, seed=int(rng.integers(1000))))
        assert train.size == n_train and test.size == n_test
        assert np.intersect1d(train, test).size == 0
        for cls, count in ((0, n_a), (1, n_b)):
            ideal = n_train * count / n
            assert abs(int(np.sum(ds.y[train] == cls)) - ideal) <= 1.0


def test_split_infeasible_sizes():
    ds = _labeled(5, 5)
    with pytest.raises(DataError):
        split(ds, SplitSpec(8, 5))


@pytest.mark.parametrize("sizes, setting", [
    pytest.param((0, 5), "split.n_train", id="no-train-rows"),
    pytest.param((5, -1), "split.n_test", id="negative-test-rows"),
    pytest.param((5, 5, -2), "split.seed", id="negative-seed")])
def test_split_spec_refuses_bad_sizes_and_seeds(sizes, setting):
    # Before, SplitSpec held them and split raised DataError for the sizes.
    with pytest.raises(ConfigError, match=setting):
        SplitSpec(*sizes)


def test_split_stratified_tiny_class():
    # Proportional quotas can exhaust a tiny class in the training draw;
    # the test draw then comes from the remaining capacity.
    ds = _labeled(2, 48)
    train, test = split(ds, SplitSpec(40, 10, stratified=True))
    assert train.size == 40 and test.size == 10
    assert np.intersect1d(train, test).size == 0
    assert int(np.sum(ds.y[train] == 0)) == 2  # both tiny-class rows trained on


def test_split_quotas_fit_every_class():
    # ``split`` draws each class's quotas without checking them against the
    # class's size: this invariant is what makes that safe.  Every split of
    # every small class-count vector, and the Cancer and Iris counts.
    cases = [(np.array(c), n_train, n_test)
             for k, top in ((1, 12), (2, 8), (3, 5), (4, 3))
             for c in product(range(1, top + 1), repeat=k)
             for n_train in range(1, sum(c) + 1)
             for n_test in range(sum(c) - n_train + 1)]
    for c in ((357, 212), (50, 50, 50)):
        cases += [(np.array(c), n_train, n_test) for n_train in range(1, sum(c) + 1)
                  for left in [sum(c) - n_train]
                  for n_test in {0, min(1, left), left // 2, left}]
    for counts, n_train, n_test in cases:
        train = _quotas(counts, n_train)
        test = _quotas(counts - train, n_test) if n_test else np.zeros_like(train)
        assert (train.sum(), test.sum()) == (n_train, n_test)
        assert np.all(train >= 0) and np.all(test >= 0)
        assert np.all(train + test <= counts), (counts, n_train, n_test)


def test_make_split_shapes():
    ds = _labeled(30, 30)
    tts = make_split(ds, SplitSpec(40, 20, seed=2))
    assert tts.X_train.shape == (40, 1) and tts.X_test.shape == (20, 1)
    assert tts.y_train.size == 40 and tts.y_test.size == 20


def test_subset_features_out_of_range():
    ds = _toy([[1.0, 2.0]])
    with pytest.raises(DataError):
        subset_features(ds, [2])


def test_combos_single_choice():
    assert sample_feature_combos(4, 4, 1) == [(0, 1, 2, 3)]


def test_combos_exhaustive():
    got = sample_feature_combos(4, 2, 6, seed=5)
    assert sorted(got) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_combos_fifty_distinct_pairs():
    got = sample_feature_combos(30, 2, 50, seed=11)
    assert len(got) == 50
    assert len(set(got)) == 50
    assert all(a < b for a, b in got)


def test_combos_deterministic():
    assert sample_feature_combos(20, 3, 12, seed=9) == \
        sample_feature_combos(20, 3, 12, seed=9)


def test_combos_infeasible_count():
    with pytest.raises(DataError):
        sample_feature_combos(4, 2, 7)
    with pytest.raises(DataError):
        sample_feature_combos(4, 5, 1)


@pytest.mark.parametrize("count, seed, match", [
    pytest.param(0, 0, "combo count must be >= 1", id="no-combos"),
    pytest.param(3, -1, "combo seed must be >= 0", id="negative-seed")])
def test_combos_refuse_a_count_below_one_or_a_negative_seed(count, seed, match):
    # Before, a count of 0 raised DataError and a seed of -1 numpy's ValueError.
    with pytest.raises(ConfigError, match=match):
        sample_feature_combos(4, 2, count, seed=seed)


def test_combos_large_space_rejection_path():
    got = sample_feature_combos(30, 6, 40, seed=13)
    assert len(got) == 40 and len(set(got)) == 40
    assert math.comb(30, 6) > 4 * 40  # exercises the rejection branch
