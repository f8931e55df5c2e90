"""Domination, sorting, crowding, evaluation and the evolve loop."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkevo import kernel
from qkevo.data import SplitSpec, TrainTestSplit, load_csv, make_split, \
    minmax_scale, subset_features
from qkevo.errors import ConfigError, EvaluationError
from qkevo.featuremap import Genome, decode, gate_counts, genome_length
from qkevo.nsga2 import (EarlyStop, EvolveConfig, Individual, Objectives,
                         _make_offspring, crowding_distance, dominates,
                         evaluate_genome, evolve, fast_nondominated_sort,
                         svm_evaluator)

from conftest import REPO_ROOT
from oracles import crowding_by_definition, peel_fronts


def test_dominates_basics():
    assert dominates(Objectives(0.9, 5, 2), Objectives(0.8, 6, 3))
    a = Objectives(0.7, 4, 4)
    assert not dominates(a, a)
    assert not dominates(Objectives(0.9, 5, 2), Objectives(0.95, 4, 1))
    assert dominates(Objectives(0.95, 4, 1), Objectives(0.9, 5, 2))


def test_dominates_requires_strict_improvement():
    assert not dominates(Objectives(0.5, 3, 3), Objectives(0.5, 3, 3))
    assert dominates(Objectives(0.5, 2, 3), Objectives(0.5, 3, 3))


def test_sort_hand_example():
    # equal accuracy; minimise the two gate counts
    objs = [Objectives(0.5, 1, 1), Objectives(0.5, 1.5, 0.5), Objectives(0.5, 2, 2)]
    fronts = fast_nondominated_sort(objs)
    assert fronts == [[0, 1], [2]]


def test_sort_identical_objectives_single_front():
    objs = [Objectives(0.5, 3, 3)] * 5
    assert fast_nondominated_sort(objs) == [[0, 1, 2, 3, 4]]


def test_sort_empty_population_rejected():
    with pytest.raises(ValueError):
        fast_nondominated_sort([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=60))
def test_sort_matches_bruteforce_peeling(rows):
    # Both list each front in ascending index order.
    objs = [Objectives(accuracy / 5.0, local, cnot) for accuracy, local, cnot in rows]
    assert fast_nondominated_sort(objs) == peel_fronts(objs)


def test_crowding_front_of_two():
    dist = crowding_distance([Objectives(0.2, 1, 0), Objectives(0.8, 0, 1)])
    assert np.all(np.isinf(dist))


def test_crowding_three_evenly_spaced():
    objs = [Objectives(0.1, 5, 5), Objectives(0.2, 5, 5), Objectives(0.3, 5, 5)]
    dist = crowding_distance(objs)
    assert np.isinf(dist[0]) and np.isinf(dist[2])
    assert abs(dist[1] - 1.0) < 1e-12


def test_crowding_duplicates_equal():
    objs = [Objectives(0.1, 5, 5), Objectives(0.2, 5, 5),
            Objectives(0.2, 5, 5), Objectives(0.4, 5, 5)]
    dist = crowding_distance(objs)
    assert dist[1] == dist[2]


def test_crowding_matches_definition():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        objs = [Objectives(float(rng.integers(0, 6)) / 5.0,
                           int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                for _ in range(n)]
        assert crowding_distance(objs).tolist() == crowding_by_definition(objs)


def _iris_split(k=2):
    iris = load_csv(REPO_ROOT / "data" / "iris.csv", "species")
    scaled = minmax_scale(subset_features(iris, list(range(k))), 0.0, np.pi)
    return make_split(scaled, SplitSpec(60, 30, seed=5))


def test_evaluate_constant_kernel_gives_majority_fraction():
    X = np.vstack([np.linspace(0, 1, 20), np.linspace(1, 0, 20)]).T * np.pi
    y = np.array([1.0] * 12 + [-1.0] * 8)
    split = TrainTestSplit(X_train=X, y_train=y,
                           X_test=X[:10], y_test=np.array([1.0] * 6 + [-1.0] * 4))
    genome = Genome(2, np.zeros(genome_length(2), dtype=int))  # Hadamard-only
    objectives = svm_evaluator(split)(genome)
    # the constant Gram collapses to a majority-class predictor
    assert objectives.accuracy == 0.6
    assert (objectives.local_gates, objectives.cnot_gates) == (2, 0)


def test_evaluate_passes_through_gate_counts():
    split = _iris_split()
    rng = np.random.default_rng(44)
    for _ in range(3):
        genome = Genome(2, rng.integers(0, 2, size=genome_length(2)))
        counts = gate_counts(decode(genome))
        objectives = evaluate_genome(genome, split)
        assert (objectives.local_gates, objectives.cnot_gates) == \
            (counts.local, counts.cnot)


def test_evaluate_deterministic():
    split = _iris_split()
    genome = Genome(2, [1, 0, 1, 0, 1, 0, 1])
    assert evaluate_genome(genome, split) == evaluate_genome(genome, split)


def test_evaluation_prepares_train_and_test_rows_once(monkeypatch):
    split = _iris_split()
    prepare = kernel.prepare_states
    rows = []

    def counting(template, X):
        rows.append(len(X))
        return prepare(template, X)

    monkeypatch.setattr(kernel, "prepare_states", counting)
    kernel._cached_states.cache_clear()
    svm_evaluator(split)(Genome(2, [1, 0, 1, 0, 1, 0, 1]))
    assert rows == [len(split.X_train), len(split.X_test)] == [60, 30]


def test_evaluate_single_class_train_raises():
    # Refused when the evaluator is built, before any genome is scored.
    X = np.random.default_rng(0).uniform(0, np.pi, size=(8, 2))
    split = TrainTestSplit(X_train=X, y_train=np.ones(8),
                           X_test=X, y_test=np.ones(8))
    with pytest.raises(ConfigError, match="single class"):
        svm_evaluator(split)


def onemax(genome):
    return Objectives(float(np.mean(genome.bits)), 0, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolveConfig(n_qubits=3, population_size=5)
    with pytest.raises(ConfigError):
        EvolveConfig(n_qubits=3, crossover_prob=1.2)
    with pytest.raises(ConfigError):
        EvolveConfig(n_qubits=3, generations=-1)
    with pytest.raises(ConfigError, match="mutation_prob"):
        EvolveConfig(n_qubits=3, mutation_prob=1.5)
    with pytest.raises(ConfigError, match="tournament_size"):
        EvolveConfig(n_qubits=3, tournament_size=0)


def test_generations_zero_returns_initial_population():
    cfg = EvolveConfig(n_qubits=3, population_size=8, generations=0, seed=2)
    res = evolve(cfg, onemax)
    assert len(res.history) == 1
    assert len(res.population) == 8
    assert all(ind.rank >= 1 for ind in res.population)


def test_same_seed_identical_runs():
    cfg = EvolveConfig(n_qubits=4, population_size=12, generations=8, seed=9)
    res_a = evolve(cfg, onemax)
    res_b = evolve(cfg, onemax)
    assert [i.genome.to_string() for i in res_a.population] == \
        [i.genome.to_string() for i in res_b.population]
    assert res_a.history == res_b.history
    assert res_a.first_seen == res_b.first_seen


def test_surrogate_trajectory_golden():
    """Selection order pinned across code versions: the final population and
    the full history of one seeded run on an exact-arithmetic surrogate."""
    def surrogate(genome):
        counts = gate_counts(decode(genome))
        return Objectives(float(np.mean(genome.bits)), counts.local, counts.cnot)

    res = evolve(EvolveConfig(n_qubits=4, population_size=12, generations=8, seed=9),
                 surrogate)
    assert [i.genome.to_string() for i in res.population] == [
        "11111111111111", "11111111111111", "11111110000000", "11111110000000",
        "11111110000000", "11111110000000", "11101110000000", "01111110000000",
        "11101110000000", "00111110000000", "11111111111000", "11111111111110"]
    assert [(s.generation, s.best_accuracy, s.front_size, s.min_local, s.min_cnot)
            for s in res.history] == [
        (0, 5 / 7, 6, 8, 4), (1, 11 / 14, 7, 8, 4), (2, 11 / 14, 7, 8, 4),
        (3, 1.0, 12, 8, 4), (4, 1.0, 12, 5, 2), (5, 1.0, 12, 5, 2),
        (6, 1.0, 12, 5, 2), (7, 1.0, 12, 7, 2), (8, 1.0, 12, 7, 2)]
    front = [ind.objectives for ind in res.pareto_front]
    last = res.history[-1]
    assert (last.best_accuracy, last.front_size, last.min_local, last.min_cnot) == (
        max(o.accuracy for o in front), len(front),
        min(o.local_gates for o in front), min(o.cnot_gates for o in front))


def _flaky(genome):
    """Demotes every genome with its first and last bit set."""
    if genome.bits[0] == 1 and genome.bits[-1] == 1:
        raise EvaluationError("first and last bit set")
    counts = gate_counts(decode(genome))
    return Objectives(float(np.mean(genome.bits)), counts.local, counts.cnot)


def _demoting_config(early=None):
    return EvolveConfig(n_qubits=4, population_size=10, generations=40,
                        crossover_prob=0.5, tournament_size=3, seed=5,
                        early_stop=early or EarlyStop())


def test_demoting_trajectory_golden():
    """Paths the first golden run does not take, pinned across code versions:
    crossover that sometimes does not happen, three-way tournaments, demoted
    evaluations, and both early-stop rules."""
    def run(early):
        with pytest.warns(RuntimeWarning, match="raised EvaluationError"):
            return evolve(_demoting_config(early), _flaky)

    def population(res):
        return [(i.genome.to_string(), tuple(i.objectives), i.rank) for i in res.population]

    best, mid, top = 11 / 14, 5 / 7, 6 / 7
    history = [(0, mid, 1, 12, 8), (1, mid, 3, 10, 6), (2, mid, 8, 8, 6),
               (3, mid, 10, 8, 4), (4, mid, 10, 8, 4), (5, best, 10, 8, 2),
               (6, best, 10, 8, 2), (7, best, 10, 9, 2), (8, best, 10, 9, 2),
               (9, best, 10, 13, 10), (10, best, 10, 13, 10), (11, top, 10, 10, 6)]
    first_seen = {
        "11111101111000": 0, "01011101111000": 1, "11100101011000": 1,
        "10011101111000": 2, "00010100111000": 2, "11111101011000": 2,
        "01101101100100": 2, "00010101011000": 3, "01111100111000": 3,
        "11111101011100": 3, "11101101100000": 3, "11101101100100": 3,
        "01111101011000": 3, "00111101010000": 4, "11111100110000": 4,
        "11111101100000": 4, "11111101111100": 5, "11111100100000": 5,
        "11111100111000": 5, "11011100100000": 6, "11111111111100": 11,
        "11111101101000": 11, "11001000111100": 11}
    leader = ("11111101111100", (best, 13, 10), 1)

    stagnant = run(EarlyStop(stagnation_generations=2))
    assert population(stagnant) == [leader] * 8 + [("11111100100000", (0.5, 9, 2), 1)] * 2
    assert [tuple(vars(s).values()) for s in stagnant.history] == history[:8]
    assert stagnant.first_seen == {g: k for g, k in first_seen.items() if k <= 7}

    reached = run(EarlyStop(target_accuracy=0.85))
    assert population(reached) == [
        ("11111111111100", (top, 14, 12), 1), ("11111101101000", (9 / 14, 11, 6), 1),
        ("11001000111100", (0.5, 10, 8), 1)] + [leader] * 7
    assert [tuple(vars(s).values()) for s in reached.history] == history
    assert reached.first_seen == first_seen


def test_demoted_evaluations_warn_once_per_run():
    calls, raised = 0, 0

    def counted(genome):
        nonlocal calls, raised
        calls += 1
        try:
            return _flaky(genome)
        except EvaluationError:
            raised += 1
            raise

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve(_demoting_config(), counted)
        assert raised > 0
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, f"{raised} of {calls} evaluations raised EvaluationError "
                             "and were scored with accuracy 0")]
        caught.clear()
        evolve(_demoting_config(), onemax)
        assert caught == []


def test_offspring_match_per_pair_crossover():
    """The vectorised crossover equals a per-pair loop over the same draws."""
    cfg = EvolveConfig(n_qubits=4, population_size=12, crossover_prob=0.5)
    length = genome_length(4)
    rng = np.random.default_rng(3)
    parents = [Individual(Genome(4, bits), Objectives(0.0, 0, 0))
               for bits in rng.integers(0, 2, size=(12, length))]
    children = _make_offspring(parents, cfg, 0.1, np.random.default_rng(8))

    rng = np.random.default_rng(8)
    crosses, cuts = rng.random(6), rng.integers(1, length, size=6)
    want = []
    for pair in range(6):
        a, b = parents[2 * pair].genome.bits, parents[2 * pair + 1].genome.bits
        if crosses[pair] < cfg.crossover_prob:
            a, b = (np.concatenate([a[:cuts[pair]], b[cuts[pair]:]]),
                    np.concatenate([b[:cuts[pair]], a[cuts[pair]:]]))
        want += [a, b]
    flips = rng.random((12, length)) < 0.1
    assert 0 < (crosses < cfg.crossover_prob).sum() < 6
    assert np.array_equal(children, np.array(want) ^ flips)


def test_onemax_progress():
    cfg = EvolveConfig(n_qubits=10, population_size=32, generations=50, seed=3)
    res = evolve(cfg, onemax)
    best = max(ind.objectives.accuracy for ind in res.pareto_front)
    assert best >= 0.95


def test_front_one_mutually_nondominating():
    cfg = EvolveConfig(n_qubits=4, population_size=12, generations=6, seed=13)

    def surrogate(genome):
        counts = gate_counts(decode(genome))
        return Objectives(float(np.mean(genome.bits)), counts.local, counts.cnot)

    res = evolve(cfg, surrogate)
    front = [ind.objectives for ind in res.pareto_front]
    for i, a in enumerate(front):
        for j, b in enumerate(front):
            if i != j:
                assert not dominates(a, b)


def test_best_accuracy_monotone_and_elitist():
    cfg = EvolveConfig(n_qubits=5, population_size=16, generations=25, seed=21)

    def surrogate(genome):
        counts = gate_counts(decode(genome))
        return Objectives(float(np.mean(genome.bits)), counts.local, counts.cnot)

    res = evolve(cfg, surrogate)
    best = [s.best_accuracy for s in res.history]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))


def test_early_stop_target_accuracy():
    cfg = EvolveConfig(n_qubits=10, population_size=16, generations=200, seed=2,
                       early_stop=EarlyStop(target_accuracy=0.8))
    res = evolve(cfg, onemax)
    assert len(res.history) - 1 < 200
    assert res.history[-1].best_accuracy >= 0.8


def test_early_stop_stagnation():
    def constant(genome):
        return Objectives(0.5, 1, 1)

    cfg = EvolveConfig(n_qubits=3, population_size=8, generations=100, seed=4,
                       early_stop=EarlyStop(stagnation_generations=3))
    res = evolve(cfg, constant)
    assert len(res.history) - 1 <= 6


def test_evaluation_errors_demote_not_abort():
    def flaky(genome):
        if genome.bits[0] == 1:
            raise EvaluationError("boom")
        return Objectives(float(np.mean(genome.bits)), 1, 1)

    cfg = EvolveConfig(n_qubits=3, population_size=8, generations=4, seed=6)
    with pytest.warns(RuntimeWarning, match="raised EvaluationError"):
        res = evolve(cfg, flaky)
    assert len(res.population) == 8
    for ind in res.population:
        if ind.genome.bits[0] == 1:
            assert ind.objectives.accuracy == 0.0


def test_first_seen_tracks_rank_one_entry():
    cfg = EvolveConfig(n_qubits=3, population_size=8, generations=5, seed=12)
    res = evolve(cfg, onemax)
    for ind in res.pareto_front:
        assert ind.genome.to_string() in res.first_seen
        gen = res.first_seen[ind.genome.to_string()]
        assert 0 <= gen <= len(res.history) - 1
