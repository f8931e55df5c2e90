"""The run directory: its writer, its reader, and the reports over runs.

A run directory holds ``pareto.json``, ``history.csv``, ``separability.csv``
and ``manifest.json``.  :func:`pareto_records` ranks an evolved front into
records, best first by the rule of :func:`best_pareto_record`;
:func:`write_run` writes a directory and :func:`load_run` reads one back.
The reporter joins each run's separability indexes with the CNOT count of
its best Pareto record, computes Spearman rank correlations of each index
against the CNOT count, and averages gate counts per qubit size.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError
from .featuremap import Genome, decode, gate_counts
from .nsga2 import EvolveResult, GenerationStats

PARETO_JSON, HISTORY_CSV = "pareto.json", "history.csv"
SEPARABILITY_CSV, MANIFEST_JSON = "separability.csv", "manifest.json"
INDEXES = ("si", "hmi", "dsi")  # compute_indexes' order; RunRecord has a field each
SEPARABILITY_HEADER = ["dataset", "features", "n_instances", *INDEXES]


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n with ties assigned their average rank."""
    values = np.asarray(values, dtype=float)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(a, b) -> float | None:
    """Spearman rank correlation; None when undefined (constant input or
    fewer than 2 points).  Exactly +/-1.0 for perfectly monotone data."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise ValueError("samples must have equal length")
    if a.size < 2 or np.all(a == a[0]) or np.all(b == b[0]):
        return None
    ra, rb = average_ranks(a), average_ranks(b)
    if np.array_equal(ra, rb):
        return 1.0
    if np.array_equal(ra, a.size + 1.0 - rb):
        return -1.0
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


@dataclass
class RunRecord:
    """One run's row of ``aggregate.csv``, whose header is the field names."""
    run: str
    n_qubits: int
    si: float
    hmi: float
    dsi: float
    best_accuracy: float
    local_gates: int
    cnot_gates: int


def _best_first(record: dict) -> tuple:
    """The one ranking: highest accuracy, fewest total gates, fewest CNOTs, genome."""
    return (-record["accuracy"], record["local_gates"] + record["cnot_gates"],
            record["cnot_gates"], record["genome"])


def pareto_records(result: EvolveResult) -> list[dict]:
    """An evolved front as ``pareto.json`` records: one per member, keyed by
    the Objectives field names, best first, so the first is the best record."""
    return sorted(({"genome": ind.genome.to_string(), **ind.objectives._asdict(),
                    "rank": ind.rank,
                    "generation_found": result.first_seen[ind.genome.to_string()]}
                   for ind in result.pareto_front), key=_best_first)


def best_pareto_record(records: list[dict]) -> dict:
    """The first record under :func:`_best_first`."""
    if not records:
        raise DataError("empty pareto archive")
    return min(records, key=_best_first)


def _write_text(path: Path, text: str) -> None:
    """Write a temp file beside ``path`` and rename it onto ``path``, so a
    reader finds the old file or the whole new one, never part of one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def write_csv(path: Path, header: list[str], rows: list) -> None:
    """Every cell is written by ``csv``, which writes a float as its repr."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows([header, *rows])
    _write_text(path, buffer.getvalue())


def _write_json(path: Path, value) -> None:
    _write_text(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_run(out_dir: Path, records: list[dict], history: list[GenerationStats],
              separability_row: list, manifest: dict) -> None:
    """Write one run directory from finished content.  The manifest marks a
    finished run, so the old one goes first and the new one is written last."""
    (out_dir / MANIFEST_JSON).unlink(missing_ok=True)
    _write_json(out_dir / PARETO_JSON, records)
    write_csv(out_dir / HISTORY_CSV, [f.name for f in fields(GenerationStats)],
              [astuple(s) for s in history])
    write_csv(out_dir / SEPARABILITY_CSV, SEPARABILITY_HEADER, [separability_row])
    _write_json(out_dir / MANIFEST_JSON, manifest)


def _read_separability_row(path: Path) -> dict[str, float]:
    """The indexes of the one row ``write_run`` wrote; a table of combos has more."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [SEPARABILITY_HEADER] or [len(r) for r in rows[1:]] != [len(rows[0])]:
        raise DataError(f"{path}: expected one row under {','.join(SEPARABILITY_HEADER)}")
    return {name: float(value) for name, value in zip(*rows) if name in INDEXES}


def _well_typed_record(record) -> bool:
    """A pareto record as ``best_pareto_record`` reads it.  A bool is neither
    a number nor a count here, though Python makes it an int."""
    return (isinstance(record, dict) and isinstance(record.get("genome"), str)
            and type(record.get("accuracy")) in (int, float)
            and type(record.get("local_gates")) is int
            and type(record.get("cnot_gates")) is int)


def load_run(run_dir) -> RunRecord:
    """Read one finished run directory; raises DataError when anything is
    missing or inconsistent.  ``write_run`` writes ``manifest.json`` last,
    so a directory without one holds an unfinished run."""
    run_dir = Path(run_dir)
    pareto_path, manifest_path, sep_path = (
        run_dir / name for name in (PARETO_JSON, MANIFEST_JSON, SEPARABILITY_CSV))
    for path in (pareto_path, manifest_path, sep_path):
        if not path.is_file():
            raise DataError(f"{run_dir}: missing {path.name}")
    try:
        records = json.loads(pareto_path.read_text(encoding="utf-8"))
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{run_dir}: invalid JSON: {exc}") from exc
    if not (isinstance(records, list) and records
            and all(map(_well_typed_record, records))):
        raise DataError(f"{pareto_path}: expected a non-empty list of records, each "
                        "with a string genome, a numeric accuracy and integer gate counts")
    n_qubits = manifest.get("n_qubits") if isinstance(manifest, dict) else None
    if type(n_qubits) is not int:  # bool is an int subclass, so no isinstance
        raise DataError(f"{manifest_path}: expected an object with an integer n_qubits")
    best = best_pareto_record(records)
    counts = gate_counts(decode(Genome.from_string(best["genome"], n_qubits)))
    if counts.local != best["local_gates"] or counts.cnot != best["cnot_gates"]:
        raise DataError(f"{pareto_path}: gate counts disagree with genome")
    return RunRecord(run_dir.name, n_qubits, **_read_separability_row(sep_path),
                     best_accuracy=float(best["accuracy"]),
                     local_gates=best["local_gates"], cnot_gates=best["cnot_gates"])


def scan_runs(runs_dir) -> tuple[list[RunRecord], list[str]]:
    """Load every run under ``runs_dir``; the directory itself counts as a
    run when it holds a pareto.json.  Returns (records, warnings)."""
    runs_dir = Path(runs_dir)
    if not runs_dir.is_dir():
        raise DataError(f"{runs_dir}: not a directory")
    candidates = [runs_dir, *sorted(runs_dir.iterdir())]
    records, warnings = [], []
    for cand in (c for c in candidates if (c / PARETO_JSON).is_file()):
        try:
            records.append(load_run(cand))
        except (DataError, KeyError, ValueError) as exc:
            warnings.append(f"skipping {cand}: {exc}")
    return records, warnings


def correlation_rows(records: list[RunRecord]) -> list[tuple[str, float | None]]:
    cnot = [r.cnot_gates for r in records]
    return [(name, spearman([getattr(r, name) for r in records], cnot))
            for name in INDEXES]


def gate_means(records: list[RunRecord]) -> list[tuple[int, float, float, int]]:
    """(n_qubits, mean local, mean cnot, n_runs) per qubit size."""
    out = []
    for n in sorted({r.n_qubits for r in records}):
        group = [r for r in records if r.n_qubits == n]
        out.append((n, float(np.mean([r.local_gates for r in group])),
                    float(np.mean([r.cnot_gates for r in group])), len(group)))
    return out
