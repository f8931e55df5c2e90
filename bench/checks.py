"""Output check, run after every round outside its timed region.

For each evolve run: the ``pareto.json`` digest must repeat for the same
code and seed, every record's gate counts must match its genome, every
record's accuracy must equal a fresh ``evaluate_genome`` on the same split,
and the best genome's quantum Gram matrix must match per-row overlaps from
the reference simulator, be symmetric and have a unit diagonal.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from qkevo.featuremap import Genome, bind, decode, gate_counts
from qkevo.kernel import quantum_gram
from qkevo.nsga2 import evaluate_genome
from qkevo.report import best_pareto_record
from qkevo.simulator import prepare_state

GRAM_TOL = 1e-10


def source_digest(src_dir: Path) -> str:
    """sha256 over the Python sources under ``src_dir``."""
    h = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(path.relative_to(src_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """pareto.json digests by (code, workload, seed, round), kept across runs
    of the benchmark in the same checkout."""

    def __init__(self, path: Path, code: str):
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}
        self.known = self.data.setdefault(code, {})

    def check(self, key: str, digest: str) -> list[str]:
        previous = self.known.setdefault(key, digest)
        if previous != digest:
            return [f"{key}: pareto.json sha256 {digest[:12]} differs from "
                    f"{previous[:12]} of an earlier run of the same code and seed"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def gram_problems(template, X) -> list[str]:
    gram = quantum_gram(template, X)
    states = np.array([prepare_state(bind(template, x), template.n_qubits).amplitudes
                       for x in X])
    reference = np.abs(states.conj() @ states.T) ** 2
    problems = []
    err = float(np.max(np.abs(gram - reference)))
    if err > GRAM_TOL:
        problems.append(f"quantum_gram differs from per-row simulator overlaps by {err:.3g}")
    if not np.array_equal(gram, gram.T):
        problems.append("quantum_gram is not symmetric")
    diag_err = float(np.max(np.abs(np.diag(gram) - 1.0)))
    if diag_err > GRAM_TOL:
        problems.append(f"quantum_gram diagonal is off 1 by {diag_err:.3g}")
    return problems


def check_run(pareto_path: Path, split, n_qubits: int) -> tuple[list[str], list[dict], str]:
    """(problems, records, sha256) for one evolve run's pareto.json."""
    raw = pareto_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    records = json.loads(raw)
    if not isinstance(records, list) or not records:
        return [f"{pareto_path}: no Pareto records"], [], digest
    problems = []
    for rec in records:
        genome = Genome.from_string(rec["genome"], n_qubits)
        counts = gate_counts(decode(genome))
        if (counts.local, counts.cnot) != (rec["local_gates"], rec["cnot_gates"]):
            problems.append(f"{rec['genome']}: gate counts {rec['local_gates']}/"
                            f"{rec['cnot_gates']} != {counts.local}/{counts.cnot}")
        fresh = evaluate_genome(genome, split).accuracy
        if fresh != rec["accuracy"]:
            problems.append(f"{rec['genome']}: accuracy {rec['accuracy']} != "
                            f"fresh evaluation {fresh}")
    best = best_pareto_record(records)
    template = decode(Genome.from_string(best["genome"], n_qubits))
    problems += [f"{best['genome']}: {p}" for p in gram_problems(template, split.X_train)]
    return problems, records, digest
