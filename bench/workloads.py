"""The three benchmark workloads.

Each is a closed loop in one process: a workload run is a sequence of
rounds, and a round starts only when the previous one has written its
outputs.  Every round draws its own split, GA and combo seeds from the
workload seed and its index, so a run averages over several independent
experiments and no round can reuse another's results.  The round sizes
keep each workload's defining property while letting a run of the
benchmark's ``--seconds`` hold seven or more of them:

* ``iris3-ovo`` - one-vs-one multiclass SVM on a 1024-genome space; the
  GA converges, so evaluations repeat.
* ``cancer8-wide`` - 8 qubits and 40-bit genomes: few repeats and a heavy
  statevector kernel.
* ``cancer-study`` - the paper's experiment through the CLI: ``evolve``
  over sampled k=2 and k=6 feature combos, then ``report``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qkevo.cli
import qkevo.data
import qkevo.nsga2
from qkevo.featuremap import Genome, decode, gate_counts, genome_length

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SCALE_HI = math.pi
N_TRAIN, N_TEST = 100, 50


def derive_seed(seed: int, workload: str, round_index: int, purpose: str) -> int:
    """A 32-bit seed for one purpose of one round, fixed by the workload seed."""
    text = f"{workload}:{seed}:{round_index}:{purpose}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def gate_maxima(n_qubits: int) -> tuple[int, int]:
    """(local, CNOT) gate counts of the largest circuit for ``n_qubits``."""
    counts = gate_counts(decode(Genome(n_qubits, np.ones(genome_length(n_qubits)))))
    return counts.local, counts.cnot


@dataclass
class RunOutput:
    """One evolve run's outputs, with what the output check needs."""

    label: str
    pareto_path: Path
    split: object  # qkevo.data.TrainTestSplit
    n_qubits: int


@dataclass
class Workload:
    name: str
    expected_spans: frozenset = field(default_factory=frozenset)
    # (quantity, low, high): the property the workload was chosen for, as
    # seen by a traced run.  Quantities are layer metrics, ``repeat_share_kN``
    # (repeat share of N-qubit evolve runs) or ``train_calls_per_eval``.
    limits: tuple = ()

    def seeds(self, seed: int, round_index: int) -> dict:
        raise NotImplementedError

    def setup(self, seed: int):
        """Everything before the first evaluation; returns the run context."""
        raise NotImplementedError

    def prepare_round(self, ctx, round_index: int) -> None:
        """Untimed per-round inputs made before the round starts."""

    def run_round(self, ctx, round_index: int, out_dir: Path) -> None:
        """Run one round and write its outputs under ``out_dir``."""
        raise NotImplementedError

    def outputs(self, ctx, round_index: int, out_dir: Path) -> list[RunOutput]:
        """The round's evolve runs, for the output check (untimed)."""
        raise NotImplementedError

    def check_round(self, out_dir: Path) -> list[str]:
        """Problems with round outputs beyond the per-run checks."""
        return []

    def property_problems(self, layer: dict, extras: dict) -> list[str]:
        """Ways a traced run shows the workload lost the property it was
        chosen for; ``layer`` maps metric name -> (value, unit)."""
        problems = []
        for what, low, high in self.limits:
            if what in layer:
                value = layer[what][0]
            elif what.startswith("repeat_share_k"):
                value = extras["repeat_share_by_qubits"].get(int(what[14:]), math.nan)
            else:  # train_calls_per_eval
                value = layer["svm.train_calls"][0] / max(layer["nsga2.evals"][0], 1)
            if not low <= value <= high:
                problems.append(f"{self.name}: {what} = {value:.4g} outside [{low}, {high}]")
        return problems


def _pareto_records(result) -> list[dict]:
    """pareto.json records in the layout and order ``qkevo evolve`` writes."""
    records = []
    for ind in result.pareto_front:
        genome = ind.genome.to_string()
        records.append({"genome": genome, "accuracy": ind.objectives.accuracy,
                        "local_gates": ind.objectives.local_gates,
                        "cnot_gates": ind.objectives.cnot_gates, "rank": ind.rank,
                        "generation_found": result.first_seen[genome]})
    records.sort(key=lambda r: (-r["accuracy"], r["local_gates"],
                                r["cnot_gates"], r["genome"]))
    return records


def _write_outputs(out_dir: Path, result) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    pareto = out_dir / "pareto.json"
    pareto.write_text(json.dumps(_pareto_records(result), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
    with open(out_dir / "history.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_accuracy", "front_size", "min_local",
                         "min_cnot"])
        writer.writerows([s.generation, repr(s.best_accuracy), s.front_size,
                          s.min_local, s.min_cnot] for s in result.history)
    return pareto


@dataclass
class LibraryWorkload(Workload):
    """Fixed features of one dataset, evolved through the library API."""

    dataset: str = ""
    label_column: str = ""
    positive_class: str | None = None
    features: tuple[int, ...] = ()
    population: int = 32
    generations: int = 10

    def seeds(self, seed, round_index):
        return {"split": derive_seed(seed, self.name, round_index, "split"),
                "ga": derive_seed(seed, self.name, round_index, "ga")}

    def setup(self, seed):
        data = qkevo.data
        ds = data.load_csv(DATA / self.dataset, self.label_column, self.positive_class)
        scaled = data.minmax_scale(data.subset_features(ds, list(self.features)),
                                   0.0, SCALE_HI)
        ctx = {"seed": seed, "scaled": scaled, "splits": {}}
        self.prepare_round(ctx, 0)
        return ctx

    def prepare_round(self, ctx, round_index):
        if round_index not in ctx["splits"]:
            data = qkevo.data
            seed = self.seeds(ctx["seed"], round_index)["split"]
            ctx["splits"][round_index] = data.make_split(
                ctx["scaled"], data.SplitSpec(N_TRAIN, N_TEST, seed=seed))

    def run_round(self, ctx, round_index, out_dir):
        config = qkevo.nsga2.EvolveConfig(
            n_qubits=len(self.features), population_size=self.population,
            generations=self.generations, seed=self.seeds(ctx["seed"], round_index)["ga"])
        evaluator = qkevo.nsga2.svm_evaluator(ctx["splits"][round_index])
        _write_outputs(out_dir, qkevo.nsga2.evolve(config, evaluator))

    def outputs(self, ctx, round_index, out_dir):
        return [RunOutput(f"round{round_index}", out_dir / "pareto.json",
                          ctx["splits"][round_index], len(self.features))]


@dataclass
class StudyWorkload(Workload):
    """``qkevo evolve --combos 1`` once per sampled combo, each into its own
    directory of one flat run directory, then ``qkevo report`` over it.

    One invocation per combo gives every combo its own GA and split seed:
    combos that share a seed start from the same genomes, so their costs
    move together and a run would average over fewer independent draws."""

    # (k, combos per round, population, generations)
    combos: tuple[tuple[int, int, int, int], ...] = ()

    dataset = "breast_cancer.csv"
    label_column = "diagnosis"
    positive_class = "malignant"

    def seeds(self, seed, round_index):
        return {f"k{k}-{i}": {purpose: derive_seed(seed, self.name, round_index,
                                                   f"k{k}-{i}:{purpose}")
                              for purpose in ("combo", "split", "ga")}
                for k, count, *_ in self.combos for i in range(count)}

    def setup(self, seed):
        # What each CLI invocation does before its first evaluation.
        data = qkevo.data
        ds = data.load_csv(DATA / self.dataset, self.label_column, self.positive_class)
        k = self.combos[0][0]
        seeds = self.seeds(seed, 0)[f"k{k}-0"]
        combo = data.sample_feature_combos(ds.X.shape[1], k, 1, seed=seeds["combo"])[0]
        scaled = data.minmax_scale(data.subset_features(ds, list(combo)), 0.0, SCALE_HI)
        data.make_split(scaled, data.SplitSpec(N_TRAIN, N_TEST, seed=seeds["split"]))
        return seed

    def _cli(self, argv: list[str]) -> None:
        # The CLI's progress lines go to stderr: stdout ends with the result.
        with contextlib.redirect_stdout(sys.stderr):
            code = qkevo.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qkevo {argv[0]} exited with {code}")

    def run_round(self, ctx, round_index, out_dir):
        seeds = self.seeds(ctx, round_index)
        for k, count, population, generations in self.combos:
            for i in range(count):
                run = f"k{k}-{i}"
                self._cli(["evolve", "--dataset", str(DATA / self.dataset),
                           "--label-col", self.label_column,
                           "--positive-class", self.positive_class,
                           "--qubits", str(k), "--combos", "1",
                           "--combo-seed", str(seeds[run]["combo"]),
                           "--seed", str(seeds[run]["ga"]),
                           "--split-seed", str(seeds[run]["split"]),
                           "--population", str(population),
                           "--generations", str(generations), "--out", str(out_dir / run)])
        self._cli(["report", str(out_dir)])

    def outputs(self, ctx, round_index, out_dir):
        """Rebuild each combo run's split from its manifest, as the check needs."""
        data = qkevo.data
        ds = data.load_csv(DATA / self.dataset, self.label_column, self.positive_class)
        outputs = []
        for run_dir in sorted(p for p in out_dir.iterdir() if (p / "pareto.json").is_file()):
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            scaled = data.minmax_scale(data.subset_features(ds, manifest["features"]),
                                       manifest["scaling"]["lo"], manifest["scaling"]["hi"])
            spec = manifest["split"]
            split = data.make_split(scaled, data.SplitSpec(
                spec["n_train"], spec["n_test"], seed=spec["seed"],
                stratified=spec["stratified"]))
            outputs.append(RunOutput(run_dir.name, run_dir / "pareto.json", split,
                                     manifest["n_qubits"]))
        return outputs

    def check_round(self, out_dir):
        expected = sum(count for _, count, *_ in self.combos)
        runs = sorted(p.name for p in out_dir.iterdir() if (p / "pareto.json").is_file())
        with open(out_dir / "aggregate.csv", newline="", encoding="utf-8") as fh:
            reported = sorted(row["run"] for row in csv.DictReader(fh))
        if len(runs) != expected or reported != runs:
            return [f"{out_dir.name}: report aggregated {reported}, "
                    f"expected the {expected} combo runs {runs}"]
        return []


_EVOLVE_PATH = frozenset({
    "nsga2.evolve", "nsga2.eval", "nsga2.fast_nondominated_sort",
    "nsga2.crowding_distance", "featuremap.decode", "featuremap.gate_counts",
    "kernel.quantum_gram", "kernel.quantum_cross", "kernel.prepare_states",
    "svm.train_dual", "svm.decision_values", "svm.accuracy",
    "data.load_csv", "data.subset_features", "data.minmax_scale",
    "data.make_split", "data.split"})

WORKLOADS = {w.name: w for w in (
    LibraryWorkload(
        name="iris3-ovo",
        expected_spans=_EVOLVE_PATH | {"svm.train_multiclass", "svm.predict_multiclass"},
        limits=(("nsga2.repeat_share", 0.3, 1.0), ("train_calls_per_eval", 3, 3)),
        dataset="iris.csv", label_column="species", features=(0, 1, 2),
        population=8, generations=12),
    LibraryWorkload(
        name="cancer8-wide",
        expected_spans=_EVOLVE_PATH | {"svm.predict"},
        limits=(("nsga2.repeat_share", 0.0, 0.25), ("kernel.share", 0.15, 1.0)),
        dataset="breast_cancer.csv", label_column="diagnosis",
        positive_class="malignant", features=(0, 4, 8, 11, 15, 19, 22, 26),
        population=8, generations=2),
    StudyWorkload(
        name="cancer-study",
        limits=(("repeat_share_k2", 0.3, 1.0), ("repeat_share_k6", 0.0, 0.3)),
        expected_spans=_EVOLVE_PATH | {
            "svm.predict", "data.sample_feature_combos", "separability.compute_indexes",
            "report.scan_runs", "report.load_run", "report.best_pareto_record",
            "report.correlation_rows", "report.gate_means", "cli.main",
            "cli.cmd_evolve", "cli.cmd_report"},
        combos=((2, 1, 8, 6), (6, 2, 8, 1))),
)}
