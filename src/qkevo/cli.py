"""Command-line experiment runner.

Subcommands
===========
evolve        evolve feature maps for a dataset; writes pareto.json,
              history.csv, separability.csv and manifest.json per run
kernels       accuracy table: four classical kernels vs the best evolved
              quantum kernel, one row per feature combo plus a mean row
separability  SI / HMI / DSI per feature combo plus a mean row
decode        print the circuit encoded by a genome bit string
report        aggregate run directories; Spearman correlation of each
              separability index against the best-record CNOT count

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 runtime error.
All data files are deterministic for a fixed config and seeds; run
metadata (including timestamps) lives only in manifest.json.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (Dataset, SplitSpec, check_scorable, load_csv, make_split,
                   minmax_scale, sample_feature_combos, subset_features)
from .errors import ConfigError, DataError, TrainingError
from .featuremap import Genome, decode, gate_counts
from .kernel import CLASSICAL_KINDS, classical_kernel, quantum_gram
from .nsga2 import (SENSE, EarlyStop, EvolveConfig, EvolveResult, evolve,
                    svm_evaluator)
from .report import best_pareto_record, correlation_rows, gate_means, scan_runs
from .separability import HMI_MODES, compute_indexes
from .svm import TrainConfig, fit_score

DEFAULT_SCALE_HI = math.pi
SEPARABILITY_HEADER = ["dataset", "features", "n_instances", "si", "hmi", "dsi"]


@dataclass
class RunConfig:
    dataset_path: str
    label_column: str | int
    positive_class: str | None
    features: list[int] | None  # explicit feature list ...
    combo_count: int | None     # ... or sampled combos of size n_qubits
    combo_seed: int
    n_qubits: int
    hmi_mode: str | None  # None for ``kernels``, which computes no indexes
    out_dir: str
    # Resolved only for the commands that split, scale, evolve and train.
    split: SplitSpec | None = None
    scale: tuple[float, float] | None = None  # (lo, hi) of the feature-angle range
    svm: TrainConfig | None = None
    evolve: EvolveConfig | None = None


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1, not 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of every table command: config, data, feature choice, output."""
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--dataset", help="CSV dataset path")
    sub.add_argument("--label-col", help="label column name (or integer index)")
    sub.add_argument("--positive-class", help="class coded +1 for binary runs")
    sub.add_argument("--qubits", type=int, help="number of qubits = features used")
    sub.add_argument("--features", help="explicit feature indices, e.g. 0,2,5")
    sub.add_argument("--combos", type=int,
                     help="sample this many random feature combinations instead")
    sub.add_argument("--combo-seed", type=int, help="seed for combo sampling")
    sub.add_argument("--out", help="output directory")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of the commands that split, scale, evolve and train."""
    sub.add_argument("--seed", type=int, help="evolution seed")
    sub.add_argument("--split-seed", type=int, help="train/test split seed")
    sub.add_argument("--train-size", type=int, help="training rows (default 100)")
    sub.add_argument("--test-size", type=int, help="test rows (default 50)")
    sub.add_argument("--no-stratify", action="store_true",
                     help="disable stratified splitting")
    sub.add_argument("--scale-lo", type=float, help="feature scaling lower bound")
    sub.add_argument("--scale-hi", type=float,
                     help="feature scaling upper bound (default pi)")
    sub.add_argument("--population", type=int, help="GA population size")
    sub.add_argument("--generations", type=int, help="GA generations")
    sub.add_argument("--crossover-prob", type=float)
    sub.add_argument("--mutation-prob", type=float)
    sub.add_argument("--tournament-size", type=int)
    sub.add_argument("--target-accuracy", type=float,
                     help="early stop once best accuracy reaches this")
    sub.add_argument("--stagnation", type=int,
                     help="early stop after this many stagnant generations")
    sub.add_argument("--svm-c", type=float, help="SVM box constraint C")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qkevo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command")

    p_evolve = subs.add_parser("evolve", help="evolve feature maps")
    _add_data_flags(p_evolve)
    _add_run_flags(p_evolve)
    p_evolve.add_argument("--hmi-mode", choices=HMI_MODES)
    p_evolve.set_defaults(func=cmd_evolve)

    p_kernels = subs.add_parser("kernels", help="classical vs quantum accuracy table")
    _add_data_flags(p_kernels)
    _add_run_flags(p_kernels)
    p_kernels.add_argument("--classical-only", action="store_true",
                           help="skip the evolved quantum column")
    p_kernels.add_argument("--dump-grams", metavar="DIR",
                           help="dump every training Gram matrix as CSV here")
    p_kernels.set_defaults(func=cmd_kernels)

    p_sep = subs.add_parser("separability", help="SI/HMI/DSI table")
    _add_data_flags(p_sep)
    p_sep.add_argument("--hmi-mode", choices=HMI_MODES)
    p_sep.set_defaults(func=cmd_separability)

    p_decode = subs.add_parser("decode", help="print the circuit for a genome")
    p_decode.add_argument("genome", help="bit string of '0'/'1'")
    p_decode.add_argument("--qubits", type=int, required=True)
    p_decode.set_defaults(func=cmd_decode)

    p_report = subs.add_parser("report", help="aggregate run directories")
    p_report.add_argument("runs_dir", help="directory of completed runs")
    p_report.add_argument("--out", help="output directory (default: runs_dir)")
    p_report.set_defaults(func=cmd_report)
    return parser


class _Section(dict):
    """One JSON object of the config file that records the keys read from
    it and the sections taken from it, so a key nothing reads is refused."""

    def __init__(self, value, name: str = ""):
        if not isinstance(value, dict):
            raise ConfigError(f"config {name or 'root'} must be an object, got {value!r}")
        super().__init__(value)
        self.prefix = f"{name}." if name else ""
        self.read: set[str] = set()
        self.sections: list[_Section] = []

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def section(self, key: str) -> _Section:
        self.sections.append(_Section(self.get(key, {}), self.prefix + key))
        return self.sections[-1]

    def unread(self) -> list[str]:
        """Dotted names of the keys never read, here and in every section."""
        return [self.prefix + key for key in sorted(self.keys() - self.read)] + [
            key for child in self.sections for key in child.unread()]


def _load_config_file(path: str | None) -> _Section:
    if not path:
        return _Section({})
    try:
        return _Section(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _parse_feature_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --features value {text!r}: {exc}") from exc


def _pick(args, name: str, cfg: _Section, key: str, default):
    """Flag ``name`` if given, else the config file's ``key``, else
    ``default``; a flag the subcommand does not have counts as not given.
    The key is read either way, so a flag does not make it unknown."""
    value = cfg.get(key, default)
    flag = getattr(args, name, None)
    return value if flag is None else flag


def _integer(value, key: str) -> int | None:
    """``value`` as an int, None kept; a number with a fractional part is
    refused rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return None if value is None else int(value)


def _pick_int(args, name: str, cfg: _Section, key: str, default) -> int | None:
    return _integer(_pick(args, name, cfg, key, default), key)


# The sections only the training commands read; ``separability`` skips them.
_RUN_SECTIONS = ("split", "scaling", "svm", "evolve")


def _resolve(args, training: bool) -> RunConfig:
    """Run settings from flags, the config file and defaults.  The split,
    scaling, SVM and GA sections are read, and so validated, only when
    ``training``: ``separability`` uses none of them.  A key nothing reads
    is refused, so a misspelt key cannot fall back to its default."""
    cfg = _load_config_file(args.config)
    ds_cfg = cfg.section("dataset")
    feat_cfg = cfg.section("features")

    dataset_path = _pick(args, "dataset", ds_cfg, "path", None)
    if not dataset_path:
        raise ConfigError("a dataset path is required (--dataset or config)")
    label_column = _pick(args, "label_col", ds_cfg, "label_column", None)
    if label_column is None:
        raise ConfigError("a label column is required (--label-col or config)")
    if isinstance(label_column, str) and label_column.lstrip("-").isdigit():
        label_column = int(label_column)

    features = None
    listed = feat_cfg.get("list")
    if listed is not None and not isinstance(listed, list):
        raise ConfigError(f"features.list must be a list, got {listed!r}")
    if args.features is not None:
        features = _parse_feature_list(args.features)
    elif listed is not None:
        features = [_integer(i, "list") for i in listed]
    combo_count = _pick_int(args, "combos", feat_cfg, "combos", None)
    if features is not None and combo_count is not None:
        raise ConfigError("choose either explicit --features or --combos, not both")
    n_qubits = _pick_int(args, "qubits", feat_cfg, "k", None)
    if features is not None:
        if n_qubits is not None and n_qubits != len(features):
            raise ConfigError(
                f"--qubits {n_qubits} disagrees with {len(features)} features"
            )
        n_qubits = len(features)
    if n_qubits is None:
        raise ConfigError("a qubit count is required (--qubits, --features or config)")
    if n_qubits < 1:
        raise ConfigError("n_qubits must be >= 1")
    if combo_count is None and features is None:
        features = list(range(n_qubits))

    # kernels computes no indexes: it reads hmi_mode, so the key is known,
    # and ignores it.
    hmi_mode = _pick(args, "hmi_mode", cfg, "hmi_mode", "sum")
    if not hasattr(args, "hmi_mode"):
        hmi_mode = None
    elif hmi_mode not in HMI_MODES:
        raise ConfigError(f"hmi_mode must be one of {HMI_MODES}, got {hmi_mode!r}")
    run = RunConfig(
        dataset_path=str(dataset_path),
        label_column=label_column,
        positive_class=_pick(args, "positive_class", ds_cfg, "positive_class", None),
        features=features,
        combo_count=combo_count,
        combo_seed=_pick_int(args, "combo_seed", feat_cfg, "seed", 0),
        n_qubits=n_qubits,
        hmi_mode=hmi_mode,
        out_dir=str(_pick(args, "out", cfg, "out", "runs")),
    )
    if training:
        _resolve_training(args, cfg, run)
    else:
        cfg.read.update(_RUN_SECTIONS)
    unread = cfg.unread()
    if unread:
        raise ConfigError(f"unknown config key(s): {', '.join(unread)}")
    return run


def _resolve_training(args, cfg: _Section, run: RunConfig) -> None:
    """Fill in ``run``'s split, scaling, SVM and GA settings."""
    split_cfg, scale_cfg, svm_cfg, ga_cfg = map(cfg.section, _RUN_SECTIONS)
    early = ga_cfg.section("early_stop")
    target_acc = _pick(args, "target_accuracy", early, "target_accuracy",
                       EarlyStop.target_accuracy)
    stagnation = _pick_int(args, "stagnation", early, "stagnation_generations",
                           EarlyStop.stagnation_generations)
    run.evolve = EvolveConfig(
        n_qubits=run.n_qubits,
        population_size=_pick_int(args, "population", ga_cfg, "population_size",
                                  EvolveConfig.population_size),
        generations=_pick_int(args, "generations", ga_cfg, "generations",
                              EvolveConfig.generations),
        crossover_prob=float(_pick(args, "crossover_prob", ga_cfg, "crossover_prob",
                                   EvolveConfig.crossover_prob)),
        mutation_prob=_pick(args, "mutation_prob", ga_cfg, "mutation_prob",
                            EvolveConfig.mutation_prob),
        tournament_size=_pick_int(args, "tournament_size", ga_cfg, "tournament_size",
                                  EvolveConfig.tournament_size),
        seed=_pick_int(args, "seed", ga_cfg, "seed", EvolveConfig.seed),
        early_stop=EarlyStop(
            target_accuracy=None if target_acc is None else float(target_acc),
            stagnation_generations=stagnation,
        ),
    )
    run.svm = TrainConfig(
        C=float(_pick(args, "svm_c", svm_cfg, "C", TrainConfig.C)),
        tolerance=float(svm_cfg.get("tolerance", TrainConfig.tolerance)),
        max_iterations=_integer(svm_cfg.get("max_iterations", TrainConfig.max_iterations),
                                "max_iterations"),
    )
    stratified = split_cfg.get("stratified", SplitSpec.stratified)
    if not isinstance(stratified, bool):
        raise ConfigError(f"stratified must be true or false, got {stratified!r}")
    run.split = SplitSpec(
        n_train=_pick_int(args, "train_size", split_cfg, "n_train", 100),
        n_test=_pick_int(args, "test_size", split_cfg, "n_test", 50),
        seed=_pick_int(args, "split_seed", split_cfg, "seed", SplitSpec.seed),
        stratified=not getattr(args, "no_stratify", False) and stratified,
    )
    run.scale = (float(_pick(args, "scale_lo", scale_cfg, "lo", 0.0)),
                 float(_pick(args, "scale_hi", scale_cfg, "hi", DEFAULT_SCALE_HI)))


def _feature_combos(run: RunConfig, dataset: Dataset) -> list[tuple[int, ...]]:
    if run.features is not None:
        return [tuple(run.features)]
    return sample_feature_combos(dataset.X.shape[1], run.n_qubits,
                                 run.combo_count, seed=run.combo_seed)


def _prepared_split(run: RunConfig, dataset: Dataset, combo):
    """Feature subset and its scaled split; a split that cannot be scored
    fails here, before any output is written."""
    sub = subset_features(dataset, combo)
    tts = make_split(minmax_scale(sub, *run.scale), run.split)
    check_scorable(tts)
    return sub, tts


def _combo_label(combo, sep: str = "-") -> str:
    return sep.join(str(i) for i in combo)


def _separability_row(name: str, features: str, n_instances: int, indexes) -> list:
    return [name, features, n_instances, *(repr(float(v)) for v in indexes)]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _pareto_records(result: EvolveResult) -> list[dict]:
    """One record per front member, keyed by the Objectives field names,
    best first by objective cost and then by genome."""
    front = sorted(result.pareto_front, key=lambda ind: (
        tuple(SENSE * ind.objectives), ind.genome.to_string()))
    return [{"genome": ind.genome.to_string(), **ind.objectives._asdict(),
             "rank": ind.rank,
             "generation_found": result.first_seen[ind.genome.to_string()]}
            for ind in front]


def _write_run_outputs(out_dir: Path, run: RunConfig, combo, sub: Dataset,
                       result: EvolveResult) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _pareto_records(result)
    (out_dir / "pareto.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_csv(out_dir / "history.csv",
               ["generation", "best_accuracy", "front_size", "min_local", "min_cnot"],
               [[s.generation, repr(s.best_accuracy), s.front_size,
                 s.min_local, s.min_cnot] for s in result.history])
    indexes = compute_indexes(sub.X, sub.y, hmi_mode=run.hmi_mode)
    _write_csv(out_dir / "separability.csv", SEPARABILITY_HEADER,
               [_separability_row(Path(run.dataset_path).stem, _combo_label(combo, ";"),
                                  sub.X.shape[0], indexes)])
    manifest = {
        "dataset": run.dataset_path,
        "label_column": run.label_column,
        "positive_class": run.positive_class,
        "features": list(combo),
        "n_qubits": run.evolve.n_qubits,
        "split": asdict(run.split),
        "scaling": {"lo": run.scale[0], "hi": run.scale[1]},
        "svm": asdict(run.svm),
        "evolve": asdict(run.evolve),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return records


def cmd_evolve(args) -> int:
    run = _resolve(args, training=True)
    dataset = load_csv(run.dataset_path, run.label_column, run.positive_class)
    combos = _feature_combos(run, dataset)
    base = Path(run.out_dir)
    for combo in combos:
        sub, tts = _prepared_split(run, dataset, combo)
        result = evolve(run.evolve, svm_evaluator(tts, run.svm))
        out_dir = base if len(combos) == 1 else base / f"combo_{_combo_label(combo)}"
        records = _write_run_outputs(out_dir, run, combo, sub, result)
        best = best_pareto_record(records)
        print(f"{out_dir}: front size {len(records)}, "
              f"best accuracy {best['accuracy']:.4f} "
              f"(local {best['local_gates']}, cnot {best['cnot_gates']})")
    return 0


def _dump_gram(dump_dir: str, combo, kind: str, gram: np.ndarray) -> None:
    _write_csv(Path(dump_dir) / f"gram_{_combo_label(combo)}_{kind}.csv",
               [f"c{i}" for i in range(gram.shape[1])],
               [[repr(v) for v in row] for row in gram.tolist()])


def cmd_kernels(args) -> int:
    run = _resolve(args, training=True)
    dataset = load_csv(run.dataset_path, run.label_column, run.positive_class)
    combos = _feature_combos(run, dataset)
    quantum = not args.classical_only
    header = ["features", *CLASSICAL_KINDS] + (["quantum"] if quantum else [])
    rows = []
    for combo in combos:
        _, tts = _prepared_split(run, dataset, combo)
        accs = []
        for kind in CLASSICAL_KINDS:
            gram = classical_kernel(kind, tts.X_train, tts.X_train)
            cross = classical_kernel(kind, tts.X_test, tts.X_train)
            accs.append(fit_score(gram, cross, tts.y_train, tts.y_test, run.svm))
            if args.dump_grams:
                _dump_gram(args.dump_grams, combo, kind, gram)
        if quantum:
            result = evolve(run.evolve, svm_evaluator(tts, run.svm))
            best = best_pareto_record(_pareto_records(result))
            accs.append(best["accuracy"])
            if args.dump_grams:
                template = decode(Genome.from_string(best["genome"], run.evolve.n_qubits))
                _dump_gram(args.dump_grams, combo, "quantum",
                           quantum_gram(template, tts.X_train))
        rows.append([_combo_label(combo, ";")] + [repr(a) for a in accs])
    means = [repr(float(np.mean([float(r[c]) for r in rows])))
             for c in range(1, len(header))]
    rows.append(["mean"] + means)
    out_path = Path(run.out_dir) / "kernels.csv"
    _write_csv(out_path, header, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_separability(args) -> int:
    run = _resolve(args, training=False)
    dataset = load_csv(run.dataset_path, run.label_column, run.positive_class)
    combos = _feature_combos(run, dataset)
    name = Path(run.dataset_path).stem
    rows = []
    values = []
    for combo in combos:
        sub = subset_features(dataset, combo)
        values.append(compute_indexes(sub.X, sub.y, hmi_mode=run.hmi_mode))
        rows.append(_separability_row(name, _combo_label(combo, ";"), sub.X.shape[0],
                                      values[-1]))
    rows.append(_separability_row(name, "mean", dataset.X.shape[0],
                                  [col.mean() for col in np.asarray(values).T]))
    out_path = Path(run.out_dir) / "separability.csv"
    _write_csv(out_path, SEPARABILITY_HEADER, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_decode(args) -> int:
    if args.qubits < 1:
        raise ConfigError("--qubits must be a positive integer")
    genome = Genome.from_string(args.genome, args.qubits)
    template = decode(genome)
    counts = gate_counts(template)
    axis = template.rotation_axis
    print(f"qubits: {template.n_qubits}  axis: {axis}  depth: {template.depth}")
    for rep in range(template.depth):
        print(f"repetition {rep + 1}:")
        print("  " + "  ".join(f"H q{q}" for q in range(template.n_qubits)))
        for q in range(template.n_qubits):
            if template.rotation_enabled[q]:
                print(f"  R{axis}(x{q}) q{q}")
        for i, j in template.entangle_pairs:
            print(f"  CNOT q{i}->q{j}   RZ(x{i}*x{j}) q{j}   CNOT q{i}->q{j}")
    print(f"local gates: {counts.local}")
    print(f"cnot gates: {counts.cnot}")
    return 0


def cmd_report(args) -> int:
    records, warnings = scan_runs(args.runs_dir)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not records:
        raise DataError(f"{args.runs_dir}: nothing to aggregate")
    out_dir = Path(args.out) if args.out else Path(args.runs_dir)
    _write_csv(out_dir / "aggregate.csv",
               ["run", "n_qubits", "si", "hmi", "dsi", "best_accuracy",
                "local_gates", "cnot_gates"],
               [[r.name, r.n_qubits, repr(r.si), repr(r.hmi), repr(r.dsi),
                 repr(r.accuracy), r.local_gates, r.cnot_gates] for r in records])
    corr = correlation_rows(records)
    _write_csv(out_dir / "correlations.csv",
               ["index", "spearman_vs_cnot", "n_runs"],
               [[name, "n/a" if value is None else repr(value), len(records)]
                for name, value in corr])
    _write_csv(out_dir / "gate_means.csv",
               ["n_qubits", "mean_local", "mean_cnot", "n_runs"],
               [[n, repr(loc), repr(cnt), cnt_runs]
                for n, loc, cnt, cnt_runs in gate_means(records)])
    for name, value in corr:
        shown = "n/a" if value is None else f"{value:+.4f}"
        print(f"spearman({name}, cnot) = {shown} over {len(records)} runs")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
