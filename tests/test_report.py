"""Spearman correlation and run-directory aggregation."""
import json

import numpy as np
import pytest
from scipy import stats

from qkevo.errors import DataError
from qkevo.featuremap import Genome, decode, gate_counts, genome_length
from qkevo.nsga2 import EvolveConfig, EvolveResult, Individual, Objectives, evolve
from qkevo.report import (RunRecord, average_ranks, best_pareto_record,
                          correlation_rows, gate_means, load_run, pareto_records,
                          scan_runs, spearman, write_run)


def test_average_ranks_with_ties():
    np.testing.assert_allclose(average_ranks([10.0, 20.0, 20.0, 30.0]),
                               [1.0, 2.5, 2.5, 4.0])


def test_average_ranks_match_scipy_rankdata():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        values = rng.integers(0, n // 3 + 1, size=n) * rng.choice([1.0, 0.25, -1.5])
        assert np.array_equal(average_ranks(values), stats.rankdata(values))


def test_spearman_exact_monotone():
    a = [1.0, 2.0, 5.0, 9.0]
    assert spearman(a, [2.0, 3.0, 10.0, 20.0]) == 1.0
    assert spearman(a, [5.0, 4.0, 2.0, 0.5]) == -1.0


def test_spearman_constant_is_undefined():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert spearman([4.0], [1.0]) is None


def test_spearman_matches_scipy():
    rng = np.random.default_rng(70)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n) + 0.5 * a
        want = stats.spearmanr(a, b).statistic
        assert abs(spearman(a, b) - want) < 1e-12


def test_best_pareto_record_tie_breaking():
    records = [
        {"genome": "b", "accuracy": 0.9, "local_gates": 4, "cnot_gates": 2},
        {"genome": "a", "accuracy": 0.9, "local_gates": 5, "cnot_gates": 0},
        {"genome": "c", "accuracy": 0.8, "local_gates": 1, "cnot_gates": 0},
    ]
    # equal accuracy: fewer total gates wins (5 vs 6)
    assert best_pareto_record(records)["genome"] == "a"
    records[0]["local_gates"] = 3  # both total 5: fewer CNOTs wins
    assert best_pareto_record(records)["genome"] == "a"


def _front_result(objectives, n_qubits=6) -> EvolveResult:
    """A rank-1 front of distinct genomes with the given objective vectors."""
    length = genome_length(n_qubits)
    front = [Individual(Genome.from_string(format(i, f"0{length}b"), n_qubits),
                        Objectives(*vector), rank=1)
             for i, vector in enumerate(objectives)]
    return EvolveResult(front, front, [], {ind.genome.to_string(): 0 for ind in front})


def test_pareto_records_list_the_best_record_first():
    # Tied on accuracy; fewer local gates on one side, fewer total on the other.
    records = pareto_records(_front_result([(0.9, 30, 28), (0.9, 32, 24)]))
    assert records[0] == best_pareto_record(records)
    assert (records[0]["local_gates"], records[0]["cnot_gates"]) == (32, 24)
    rng = np.random.default_rng(21)
    for _ in range(300):
        objectives = [(float(rng.choice([0.5, 0.75, 0.9])), int(rng.integers(0, 6)),
                       int(rng.integers(0, 6))) for _ in range(int(rng.integers(1, 9)))]
        result = _front_result(objectives)
        records = pareto_records(result)
        assert records[0] == best_pareto_record(records)
        assert sorted((r["genome"], r["accuracy"], r["local_gates"], r["cnot_gates"])
                      for r in records) == sorted(
            (ind.genome.to_string(), *ind.objectives) for ind in result.pareto_front)


def _write_run(run_dir, genome_str, n_qubits, accuracy, si, hmi, dsi,
               break_counts=False):
    counts = gate_counts(decode(Genome.from_string(genome_str, n_qubits)))
    record = {"genome": genome_str, "accuracy": accuracy,
              "local_gates": counts.local + (1 if break_counts else 0),
              "cnot_gates": counts.cnot, "rank": 1, "generation_found": 0}
    write_run(run_dir, [record], [], ["toy", "0;1", 100, si, hmi, dsi],
              {"n_qubits": n_qubits})


GENOMES_BY_CNOT = ["1110100", "1110101", "1110110"]  # depths 1, 2, 3 -> cnot 2, 4, 6


def test_load_run_round_trip(tmp_path):
    _write_run(tmp_path / "run0", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
    rec = load_run(tmp_path / "run0")
    assert rec.n_qubits == 2
    assert rec.cnot_gates == 2
    assert rec.si == 0.5


def test_scan_runs_skips_run_without_manifest(tmp_path):
    # write_run writes manifest.json last, so without it the run is unfinished.
    _write_run(tmp_path / "done", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
    _write_run(tmp_path / "unfinished", GENOMES_BY_CNOT[1], 2, 0.9, 0.5, 1.0, 0.4)
    (tmp_path / "unfinished" / "manifest.json").unlink()
    records, warnings = scan_runs(tmp_path)
    assert [r.run for r in records] == ["done"]
    assert len(warnings) == 1
    assert "unfinished" in warnings[0] and "missing manifest.json" in warnings[0]


def test_pareto_records_write_run_load_run_round_trip(tmp_path):
    def surrogate(genome):  # load_run checks the gate counts against the genome
        counts = gate_counts(decode(genome))
        return Objectives(float(genome.bits.mean()), counts.local, counts.cnot)

    result = evolve(EvolveConfig(n_qubits=3, population_size=8, generations=2, seed=3),
                    surrogate)
    records = pareto_records(result)
    write_run(tmp_path / "run", records, result.history,
              ["toy", "0;1;2", 150, 0.25, 1.5, 0.75], {"n_qubits": 3})
    best = best_pareto_record(records)
    assert load_run(tmp_path / "run") == RunRecord(
        "run", 3, 0.25, 1.5, 0.75, best["accuracy"], best["local_gates"], best["cnot_gates"])


@pytest.mark.parametrize("rows", [
    pytest.param(["toy,0;1,100,0.5,1.0,0.4", "toy,mean,100,0.5,1.0,0.4"], id="mean-row"),
    pytest.param(["toy,0;1,100,0.5,1.0,0.4", "toy,2;3,100,0.7,2.0,0.1"], id="two-combos"),
    pytest.param([], id="header-only"),
    pytest.param(["toy,0;1,100,0.5"], id="short-row"),
    pytest.param(["toy,0;1,100,0.5,1.0,0.4,9"], id="long-row")])
def test_load_run_reads_exactly_one_separability_row(tmp_path, rows):
    _write_run(tmp_path / "run", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
    (tmp_path / "run" / "separability.csv").write_text(
        "\n".join(["dataset,features,n_instances,si,hmi,dsi", *rows]) + "\n")
    with pytest.raises(DataError, match="expected one row"):
        load_run(tmp_path / "run")
    records, warnings = scan_runs(tmp_path)
    assert records == [] and len(warnings) == 1


def test_load_run_rejects_inconsistent_counts(tmp_path):
    _write_run(tmp_path / "bad", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4,
               break_counts=True)
    with pytest.raises(DataError):
        load_run(tmp_path / "bad")


def _records(genome=GENOMES_BY_CNOT[0], **fields):
    """A one-record pareto.json for a 2-qubit run, ``fields`` replaced."""
    counts = gate_counts(decode(Genome.from_string(genome, 2)))
    return [{"genome": genome, "accuracy": 0.9, "local_gates": counts.local,
             "cnot_gates": counts.cnot, **fields}]


def test_scan_runs_skips_invalid(tmp_path):
    _write_run(tmp_path / "good", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "pareto.json").write_text("not json", encoding="utf-8")
    broken_files = {
        "manifest_list": ("manifest.json", [1, 2]),
        "manifest_without_qubits": ("manifest.json", {"features": [0, 1]}),
        "manifest_string_qubits": ("manifest.json", {"n_qubits": "2"}),
        "manifest_bool_qubits": ("manifest.json", {"n_qubits": True}),
        "record_not_object": ("pareto.json", ["x"]),
        "record_string_accuracy": ("pareto.json", _records(accuracy="x")),
        "record_bool_accuracy": ("pareto.json", _records(accuracy=True)),
        "record_number_genome": ("pareto.json", [{**_records()[0], "genome": 1110100}]),
        "record_float_local_gates": ("pareto.json", _records(local_gates=5.0)),
        "record_bool_cnot_gates": ("pareto.json", _records("0000000", cnot_gates=False)),
        "separability_other_header": ("separability.csv", "si,hmi,dsi\n0.5,1.0,0.4\n"),
    }
    # The float and bool gate counts equal the genome's true counts (5 local,
    # 0 CNOT), so only their type is wrong.
    for name, (file_name, content) in broken_files.items():
        _write_run(tmp_path / name, GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name / file_name).write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            load_run(tmp_path / name)
    records, warnings = scan_runs(tmp_path)
    assert [r.run for r in records] == ["good"]
    assert len(warnings) == 1 + len(broken_files)


def test_correlations_monotone_decreasing(tmp_path):
    # DSI strictly increasing while CNOT strictly decreasing -> exactly -1
    for i, (genome, dsi_val) in enumerate(zip(reversed(GENOMES_BY_CNOT),
                                              [0.2, 0.5, 0.8])):
        _write_run(tmp_path / f"run{i}", genome, 2, 0.9, 0.1 * i, 2.0 * i, dsi_val)
    records, _ = scan_runs(tmp_path)
    rows = dict((name, value) for name, value in correlation_rows(records))
    assert rows["dsi"] == -1.0
    assert rows["si"] == -1.0


def test_correlations_constant_index_is_none(tmp_path):
    for i, genome in enumerate(GENOMES_BY_CNOT):
        _write_run(tmp_path / f"run{i}", genome, 2, 0.9, 0.5, 1.0, 0.3)
    records, _ = scan_runs(tmp_path)
    assert dict(correlation_rows(records))["dsi"] is None


def test_gate_means_grouping(tmp_path):
    _write_run(tmp_path / "a", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.4)
    _write_run(tmp_path / "b", GENOMES_BY_CNOT[1], 2, 0.9, 0.5, 1.0, 0.4)
    records, _ = scan_runs(tmp_path)
    (n, mean_local, mean_cnot, n_runs), = gate_means(records)
    assert n == 2 and n_runs == 2
    assert mean_cnot == 3.0  # (2 + 4) / 2


def test_scan_runs_missing_directory():
    with pytest.raises(DataError):
        scan_runs("/nonexistent/path/zzz")
