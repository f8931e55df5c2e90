"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 9 and 10
drive full evolution runs and dominate the suite's runtime (several
minutes); everything else completes in seconds.

The evolution criteria split every dataset into 100 training rows and test
on every remaining row: 100/50 on Iris, 100/469 on the cancer data.  A
50-row cancer test set lets fitness saturate at accuracy 1.0, and once a
CNOT-free circuit scores 1.0 the best record is simply the circuit with
the fewest gates, whatever entanglement could offer.
"""
import json
import time

import numpy as np

from qkevo.cli import main
from qkevo.data import (SplitSpec, load_csv, make_split, minmax_scale,
                        sample_feature_combos, subset_features)
from qkevo.featuremap import Genome, bind, decode, genome_length
from qkevo.kernel import CLASSICAL_KINDS, classical_kernel, quantum_gram
from qkevo.nsga2 import (EvolveConfig, Objectives, evolve,
                         fast_nondominated_sort, svm_evaluator)
from qkevo.report import best_pareto_record, pareto_records, spearman
from qkevo.separability import compute_indexes
from qkevo.simulator import Hadamard, Rotation, fidelity_overlap, prepare_state
from qkevo.svm import dual_objective, fit_score, train_dual

from conftest import REPO_ROOT
from oracles import peel_fronts, random_circuit, random_feasible_alphas, \
    statevector_by_matrix
from test_report import GENOMES_BY_CNOT, _write_run

IRIS = str(REPO_ROOT / "data" / "iris.csv")
CANCER = str(REPO_ROOT / "data" / "breast_cancer.csv")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_simulator_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        ops = random_circuit(rng, n, int(rng.integers(1, 13)))
        got = prepare_state(ops, n).amplitudes
        want = statevector_by_matrix(ops, n)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(1, ok, f"200 circuits, max |amp error| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_kernel():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        x1, x2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        got = fidelity_overlap([Hadamard(0), Rotation("Z", 0, x1)],
                               [Hadamard(0), Rotation("Z", 0, x2)], 1)
        worst = max(worst, abs(got - np.cos((x1 - x2) / 2.0) ** 2))
    _report(2, worst < 1e-10, f"100 angle pairs, max |K error| {worst:.2e}")


def test_criterion_03_gram_validity():
    rng = np.random.default_rng(1003)
    sym_ok = True
    diag_worst = eig_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        template = decode(Genome(n, rng.integers(0, 2, size=genome_length(n))))
        X = rng.uniform(0, np.pi, size=(20, n))
        K = quantum_gram(template, X)
        sym_ok = sym_ok and np.array_equal(K, K.T)
        diag_worst = max(diag_worst, float(np.max(np.abs(np.diag(K) - 1.0))))
        eig_worst = min(eig_worst, float(np.linalg.eigvalsh(K).min()))
    ok = sym_ok and diag_worst < 1e-10 and eig_worst >= -1e-8
    _report(3, ok, f"50 templates: symmetric {sym_ok}, "
                   f"max diag error {diag_worst:.2e}, min eig {eig_worst:.2e}")


def test_criterion_04_product_factorisation():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        bits = rng.integers(0, 2, size=genome_length(n))
        bits[n + 2: n + 2 + n * (n - 1) // 2] = 0  # no entanglement flags
        template = decode(Genome(n, bits))
        x_a = rng.uniform(0, np.pi, size=n)
        x_b = rng.uniform(0, np.pi, size=n)
        full = fidelity_overlap(bind(template, x_a), bind(template, x_b), n)

        def single_qubit_slice(ops, q):
            return [Hadamard(0) if isinstance(op, Hadamard)
                    else Rotation(op.axis, 0, op.angle)
                    for op in ops if op.target == q]

        product = 1.0
        for q in range(n):
            product *= fidelity_overlap(single_qubit_slice(bind(template, x_a), q),
                                        single_qubit_slice(bind(template, x_b), q), 1)
        worst = max(worst, abs(full - product))
    _report(4, worst < 1e-10, f"50 CNOT-free cases, max |error| {worst:.2e}")


def test_criterion_05_svm_feasibility_and_optimality():
    rng = np.random.default_rng(1005)
    box_ok, beats = True, True
    eq_worst = 0.0
    for _ in range(100):
        X = rng.normal(size=(20, 3))
        y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        K = classical_kernel("rbf", X, X)
        model = train_dual(K, y)
        box_ok = box_ok and bool(np.all(model.alphas >= 0.0)
                                 and np.all(model.alphas <= 1.0))
        eq_worst = max(eq_worst, abs(float(np.dot(model.alphas, y))))
        trained = dual_objective(model.alphas, K, y)
        best_rand = max(dual_objective(a, K, y)
                        for a in random_feasible_alphas(rng, y, 1.0, 1000))
        beats = beats and trained >= best_rand
    ok = box_ok and eq_worst <= 1e-8 and beats
    _report(5, ok, f"100 problems: box exact {box_ok}, "
                   f"max |sum(alpha*y)| {eq_worst:.2e}, beats 1000 random {beats}")


def test_criterion_06_sort_matches_bruteforce():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        size = int(rng.integers(2, 201))
        objs = [Objectives(float(rng.integers(0, 8)) / 7.0,
                           int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                for _ in range(size)]
        got = [sorted(f) for f in fast_nondominated_sort(objs)]
        want = [sorted(f) for f in peel_fronts(objs)]
        ok = ok and got == want
    _report(6, ok, "100 random populations (up to 200 points) match peeling oracle")


def test_criterion_07_determinism_and_onemax(tmp_path):
    args = ["evolve", "--dataset", IRIS, "--label-col", "species",
            "--features", "0,1", "--population", "8", "--generations", "3",
            "--seed", "11", "--train-size", "60", "--test-size", "30"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    identical = ((tmp_path / "a" / "pareto.json").read_bytes()
                 == (tmp_path / "b" / "pareto.json").read_bytes())

    def onemax(genome):
        return Objectives(float(np.mean(genome.bits)), 0, 0)

    res = evolve(EvolveConfig(n_qubits=10, population_size=32, generations=50,
                              seed=3), onemax)
    best = max(ind.objectives.accuracy for ind in res.pareto_front)
    ok = identical and best >= 0.95
    _report(7, ok, f"byte-identical archives {identical}, ONEMAX best {best:.3f}")


def test_criterion_08_iris_separability():
    iris = load_csv(IRIS, "species")
    t0 = time.perf_counter()
    si, hmi, dsi_val = compute_indexes(iris.X, iris.y, hmi_mode="sum")
    elapsed = time.perf_counter() - t0
    ok = abs(si - 0.95) <= 0.02 and elapsed < 1.0
    _report(8, ok,
            f"SI {si:.4f} (target 0.95+-0.02); informational: HMI {hmi:.2f} "
            f"(reported 12.19+-1.5), DSI {dsi_val:.2f} (reported 0.82); "
            f"{elapsed:.2f}s")


def _evolve_best(dataset, features, seed, svm_config=None, generations=30):
    scaled = minmax_scale(subset_features(dataset, list(features)), 0.0, np.pi)
    tts = make_split(scaled, SplitSpec(100, dataset.X.shape[0] - 100, seed=0))
    config = EvolveConfig(n_qubits=len(features), population_size=32,
                          generations=generations, seed=seed)
    result = evolve(config, svm_evaluator(tts, svm_config))
    return best_pareto_record(pareto_records(result)), tts


def test_criterion_09_iris_evolution():
    t0 = time.perf_counter()
    iris = load_csv(IRIS, "species")
    best_three = [
        _evolve_best(iris, (0, 1, 2), seed)[0]["accuracy"] for seed in range(5)
    ]
    median = float(np.median(best_three))
    zero_cnot = sum(_evolve_best(iris, (2, 3), seed)[0]["cnot_gates"] == 0
                    for seed in range(5))
    elapsed = time.perf_counter() - t0
    ok = median >= 0.94 and zero_cnot >= 3 and elapsed < 600.0
    _report(9, ok, f"3-feature median best accuracy {median:.3f} (>=0.94), "
                   f"2-feature zero-CNOT best records {zero_cnot}/5 (>=3), "
                   f"{elapsed:.0f}s")


def _best_classical(tts) -> float:
    return max(fit_score(classical_kernel(kind, tts.X_train, tts.X_train),
                         classical_kernel(kind, tts.X_test, tts.X_train),
                         tts.y_train, tts.y_test)
               for kind in CLASSICAL_KINDS)


def test_criterion_10_breast_cancer_trend():
    t0 = time.perf_counter()
    cancer = load_csv(CANCER, "diagnosis", positive_class="malignant")
    wins = 0
    for i, combo in enumerate(sample_feature_combos(30, 4, 5, seed=101)):
        best, tts = _evolve_best(cancer, combo, seed=i)
        classical = _best_classical(tts)
        if best["accuracy"] >= classical - 0.03:
            wins += 1
    cnot_means, bests = {}, {}
    for k in (2, 6):
        bests[k] = [_evolve_best(cancer, combo, seed=i)[0] for i, combo in
                    enumerate(sample_feature_combos(30, k, 5, seed=202 + k))]
        cnot_means[k] = float(np.mean([b["cnot_gates"] for b in bests[k]]))
    elapsed = time.perf_counter() - t0
    trend = cnot_means[6] > cnot_means[2]
    ok = wins >= 4 and trend and elapsed < 1800.0

    def per_combo(k):
        return " ".join(f"({b['accuracy']:.3f},{b['cnot_gates']})" for b in bests[k])

    _report(10, ok, f"quantum within 0.03 of best classical in {wins}/5 combos "
                    f"(>=4), mean CNOT 6-feature {cnot_means[6]:.1f} "
                    f"{'>' if trend else '<='} 2-feature {cnot_means[2]:.1f} "
                    f"(need >); best (accuracy,cnot) k=2 {per_combo(2)}, "
                    f"k=6 {per_combo(6)}; {elapsed:.0f}s")


def test_criterion_11_report_correlations(tmp_path):
    runs_neg = tmp_path / "neg"
    for i, (genome, dsi_val) in enumerate(zip(reversed(GENOMES_BY_CNOT),
                                              [0.2, 0.5, 0.8])):
        _write_run(runs_neg / f"run{i}", genome, 2, 0.9, 0.1 * (i + 1),
                   float(i + 1), dsi_val)
    assert main(["report", str(runs_neg)]) == 0
    rows = (runs_neg / "correlations.csv").read_text().strip().splitlines()
    values = {line.split(",")[0]: line.split(",")[1] for line in rows[1:]}
    negative_exact = all(float(values[k]) == -1.0 for k in ("si", "hmi", "dsi"))

    runs_pos = tmp_path / "pos"
    for i, (genome, dsi_val) in enumerate(zip(GENOMES_BY_CNOT, [0.2, 0.5, 0.8])):
        _write_run(runs_pos / f"run{i}", genome, 2, 0.9, 0.1 * (i + 1),
                   float(i + 1), dsi_val)
    assert main(["report", str(runs_pos)]) == 0
    rows = (runs_pos / "correlations.csv").read_text().strip().splitlines()
    values = {line.split(",")[0]: line.split(",")[1] for line in rows[1:]}
    positive_exact = all(float(values[k]) == 1.0 for k in ("si", "hmi", "dsi"))
    _report(11, negative_exact and positive_exact,
            f"monotone synthetic runs: spearman -1 exact {negative_exact}, "
            f"+1 exact {positive_exact}")
