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
import json
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (Dataset, SplitSpec, check_scorable, load_csv, make_split,
                   minmax_scale, sample_feature_combos, subset_features)
from .errors import ConfigError, DataError, TrainingError
from .featuremap import Genome, decode, gate_counts
from .kernel import CLASSICAL_KINDS, classical_kernel, quantum_gram
from .nsga2 import EarlyStop, EvolveConfig, evolve, svm_evaluator
from .report import (SEPARABILITY_CSV, SEPARABILITY_HEADER, RunRecord,
                     best_pareto_record, correlation_rows, gate_means,
                     pareto_records, scan_runs, write_csv, write_run)
from .separability import HMI_MODES, compute_indexes
from .svm import TrainConfig, fit_score


class _Setting(NamedTuple):
    """One setting of the table commands: its dotted config-file key, JSON
    type, default and flag (None for a key only the config file sets)."""
    key: str
    kind: type | tuple
    default: object
    flag: str | None = None
    help: str | None = None
    choices: tuple | None = None


# The JSON type of each setting kind, as error messages name it.
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", (str, int): "a string or an integer",
               list: "a list of integers"}

_DATA_SETTINGS = (
    _Setting("dataset.path", str, None, "--dataset", "CSV dataset path"),
    _Setting("dataset.label_column", (str, int), None, "--label-col",
             "label column name (or integer index)"),
    _Setting("dataset.positive_class", str, None, "--positive-class",
             "class coded +1 for binary runs"),
    _Setting("features.k", int, None, "--qubits", "number of qubits = features used"),
    _Setting("features.list", list, None, "--features",
             "explicit feature indices, e.g. 0,2,5"),
    _Setting("features.combos", int, None, "--combos",
             "sample this many random feature combinations instead"),
    _Setting("features.seed", int, 0, "--combo-seed", "seed for combo sampling"),
    _Setting("out", str, "runs", "--out", "output directory"),
)
_HMI_MODE = _Setting("hmi_mode", str, "sum", "--hmi-mode",
                     "aggregation of the hypothesis margins", HMI_MODES)
_RUN_SETTINGS = (
    _Setting("split.n_train", int, 100, "--train-size", "training rows"),
    _Setting("split.n_test", int, 50, "--test-size", "test rows"),
    _Setting("split.seed", int, SplitSpec.seed, "--split-seed",
             "train/test split seed"),
    _Setting("split.stratified", bool, SplitSpec.stratified, "--no-stratify",
             "disable stratified splitting"),
    _Setting("scaling.lo", float, 0.0, "--scale-lo", "feature scaling lower bound"),
    _Setting("scaling.hi", float, math.pi, "--scale-hi", "feature scaling upper bound"),
    _Setting("svm.C", float, TrainConfig.C, "--svm-c", "SVM box constraint C"),
    _Setting("svm.tolerance", float, TrainConfig.tolerance),
    _Setting("svm.max_iterations", int, TrainConfig.max_iterations),
    _Setting("evolve.population_size", int, EvolveConfig.population_size,
             "--population", "GA population size"),
    _Setting("evolve.generations", int, EvolveConfig.generations, "--generations",
             "GA generations"),
    _Setting("evolve.crossover_prob", float, EvolveConfig.crossover_prob,
             "--crossover-prob", "GA crossover probability"),
    _Setting("evolve.mutation_prob", float, EvolveConfig.mutation_prob,
             "--mutation-prob",
             "GA per-bit mutation probability (default 1 / genome length)"),
    _Setting("evolve.tournament_size", int, EvolveConfig.tournament_size,
             "--tournament-size", "GA tournament size"),
    _Setting("evolve.seed", int, EvolveConfig.seed, "--seed", "evolution seed"),
    _Setting("evolve.early_stop.target_accuracy", float, EarlyStop.target_accuracy,
             "--target-accuracy", "early stop once best accuracy reaches this"),
    _Setting("evolve.early_stop.stagnation_generations", int,
             EarlyStop.stagnation_generations, "--stagnation",
             "early stop after this many stagnant generations"),
)
# The settings each table command reads.  A top-level config section that
# another command reads and this one does not is ignored, whatever it holds.
_COMMAND_SETTINGS = {
    "evolve": _DATA_SETTINGS + _RUN_SETTINGS + (_HMI_MODE,),
    "kernels": _DATA_SETTINGS + _RUN_SETTINGS,
    "separability": _DATA_SETTINGS + (_HMI_MODE,),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1, not 2."""

    def error(self, message):
        raise ConfigError(message)


def _feature_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad feature list {text!r}") from exc


# The parser of a flag's text, for the kinds that cannot parse it themselves.
_FLAG_TYPES = {list: _feature_list, (str, int): str}


def _build_parser() -> _Parser:
    parser = _Parser(prog="qkevo", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command")

    tables = {}
    for name, help_text, func in (
            ("evolve", "evolve feature maps", cmd_evolve),
            ("kernels", "classical vs quantum accuracy table", cmd_kernels),
            ("separability", "SI/HMI/DSI table", cmd_separability)):
        tables[name] = sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON config file; flags override it")
        # Each flag stores under its config key, None when not given; a
        # true/false setting's flag sets the opposite of its default.
        for s in _COMMAND_SETTINGS[name]:
            if s.flag and s.kind is bool:
                sub.add_argument(s.flag, dest=s.key, action="store_const",
                                 const=not s.default, help=s.help)
            elif s.flag:
                shown = "" if s.default is None else f" (default {s.default})"
                sub.add_argument(s.flag, dest=s.key, help=s.help + shown,
                                 type=_FLAG_TYPES.get(s.kind, s.kind), choices=s.choices)
        sub.set_defaults(func=func)
    tables["kernels"].add_argument("--classical-only", action="store_true",
                                   help="skip the evolved quantum column")
    tables["kernels"].add_argument("--dump-grams", metavar="DIR",
                                   help="dump every training Gram matrix as CSV here")

    p_decode = subs.add_parser("decode", help="print the circuit for a genome")
    p_decode.add_argument("genome", help="bit string of '0'/'1'")
    p_decode.add_argument("--qubits", type=int, required=True)
    p_decode.set_defaults(func=cmd_decode)

    p_report = subs.add_parser("report", help="aggregate run directories")
    p_report.add_argument("runs_dir", help="directory of completed runs")
    p_report.add_argument("--out", help="output directory (default: runs_dir)")
    p_report.set_defaults(func=cmd_report)
    return parser


def _config_file_values(path: str | None, settings: tuple[_Setting, ...]) -> dict:
    """The config file's values by dotted key.  Every section must be a JSON
    object, and a key no setting of ``settings`` names is refused, so a
    misspelt key cannot fall back to its default."""
    if not path:
        return {}
    try:
        pending = [((), json.loads(Path(path).read_text(encoding="utf-8")))]
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    keys = {tuple(s.key.split(".")): s.key for s in settings}
    sections = {key[:i] for key in keys for i in range(1, len(key))}
    ignored = {s.key.split(".")[0] for table in _COMMAND_SETTINGS.values()
               for s in table} - {key[0] for key in keys}
    found, unknown = {}, []
    while pending:
        where, section = pending.pop()
        if not isinstance(section, dict):
            raise ConfigError(f"config {'.'.join(where) or 'root'} must be an object, "
                              f"got {section!r}")
        for name, value in section.items():
            key = (*where, name)
            if key in sections:
                pending.append((key, value))
            elif key in keys:
                found[keys[key]] = value
            elif where or name not in ignored:
                unknown.append(".".join(key))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return found


def _typed(s: _Setting, value):
    """``value`` as ``s``'s JSON type.  An int is accepted where a float is
    read and a float with no fractional part where an int is; a bool is
    never a number, and null is accepted only where the default is None."""
    if value is None and s.default is None:
        return None
    if s.kind is list and isinstance(value, list):
        return [_typed(_Setting(f"{s.key}[{i}]", int, 0), item)
                for i, item in enumerate(value)]
    if isinstance(value, bool) == (s.kind is bool) and (
            s.choices is None or value in s.choices):
        if s.kind is float and isinstance(value, int):
            return float(value)
        if s.kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, s.kind):
            return value
    expected = f"one of {s.choices}" if s.choices else _KIND_NAMES[s.kind]
    raise ConfigError(f"{s.key} must be {expected}, got {value!r}")


def _section(values: dict, name: str) -> dict:
    """The values directly under section ``name``, keyed by their field."""
    return {key.rpartition(".")[2]: value for key, value in values.items()
            if key.rpartition(".")[0] == name}


def _resolve(args) -> dict:
    """The command's settings by config key, each from its flag, else the
    config file, else its default.  Every file value is type-checked, even
    where a flag wins.  A command that trains also gets its library configs
    under the section names ``split``, ``scaling``, ``svm`` and ``evolve``."""
    settings = _COMMAND_SETTINGS[args.command]
    in_file = _config_file_values(args.config, settings)
    run = {}
    for s in settings:
        value = _typed(s, in_file.get(s.key, s.default))
        flag = getattr(args, s.key, None)
        run[s.key] = value if flag is None else flag

    if not run["dataset.path"]:
        raise ConfigError("a dataset path is required (--dataset or config)")
    label_column = run["dataset.label_column"]
    if label_column is None:
        raise ConfigError("a label column is required (--label-col or config)")
    if isinstance(label_column, str) and label_column.lstrip("-").isdigit():
        run["dataset.label_column"] = int(label_column)
    features, n_qubits = run["features.list"], run["features.k"]
    if features is not None and run["features.combos"] is not None:
        raise ConfigError("choose either explicit --features or --combos, not both")
    if run["features.combos"] is None and (
            getattr(args, "features.seed") is not None or "features.seed" in in_file):
        raise ConfigError("--combo-seed (features.seed) samples combos: it needs --combos")
    if features is not None:
        if len(set(features)) != len(features):
            raise ConfigError(f"feature indices must not repeat, got {features}")
        if n_qubits is not None and n_qubits != len(features):
            raise ConfigError(
                f"--qubits {n_qubits} disagrees with {len(features)} features"
            )
        n_qubits = run["features.k"] = len(features)
    if n_qubits is None:
        raise ConfigError("a qubit count is required (--qubits, --features or config)")
    if n_qubits < 1:
        raise ConfigError("n_qubits must be >= 1")
    if run["features.combos"] is None and features is None:
        run["features.list"] = list(range(n_qubits))

    if "svm.C" in run:  # a command that splits, scales, evolves and trains
        if not -math.inf < run["scaling.lo"] < run["scaling.hi"] < math.inf:
            raise ConfigError(f"scaling.lo {run['scaling.lo']} must be below "
                              f"scaling.hi {run['scaling.hi']}, both finite")
        early_stop = EarlyStop(**_section(run, "evolve.early_stop"))
        run.update(
            split=SplitSpec(**_section(run, "split")), scaling=_section(run, "scaling"),
            svm=TrainConfig(**_section(run, "svm")),
            evolve=EvolveConfig(n_qubits, early_stop=early_stop,
                                **_section(run, "evolve")))
    return run


def _dataset_and_combos(run: dict) -> tuple[Dataset, list[tuple[int, ...]]]:
    dataset = load_csv(run["dataset.path"], run["dataset.label_column"],
                       run["dataset.positive_class"])
    if run["features.list"] is not None:
        return dataset, [tuple(run["features.list"])]
    return dataset, sample_feature_combos(
        dataset.X.shape[1], run["features.k"], run["features.combos"],
        seed=run["features.seed"])


def _prepared_split(run: dict, dataset: Dataset, combo):
    """Feature subset and its scaled split; a split that cannot be scored
    fails here, before any output is written."""
    sub = subset_features(dataset, combo)
    tts = make_split(minmax_scale(sub, **run["scaling"]), run["split"])
    check_scorable(tts)
    return sub, tts


def _combo_label(combo, sep: str = "-") -> str:
    return sep.join(str(i) for i in combo)


def _separability_row(run: dict, combo, sub: Dataset) -> list:
    """The combo's row under SEPARABILITY_HEADER."""
    return [Path(run["dataset.path"]).stem, _combo_label(combo, ";"), sub.X.shape[0],
            *compute_indexes(sub.X, sub.y, hmi_mode=run["hmi_mode"])]


def _write_table(out: str, name: str, header: list[str], rows: list[list],
                 mean_label: list) -> None:
    """Write ``rows`` and their mean row to ``out/name`` and say so.  The mean
    row is ``mean_label`` followed by the mean of each column after it."""
    values = np.asarray([row[len(mean_label):] for row in rows], dtype=float)
    rows = [*rows, [*mean_label, *(float(col.mean()) for col in values.T)]]
    path = Path(out) / name
    write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _manifest(run: dict, combo) -> dict:
    """The run's config echo and the time its content was computed."""
    return {"dataset": run["dataset.path"], "label_column": run["dataset.label_column"],
            "positive_class": run["dataset.positive_class"], "features": list(combo),
            "n_qubits": run["features.k"], "scaling": run["scaling"],
            **{name: asdict(run[name]) for name in ("split", "svm", "evolve")},
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def cmd_evolve(args) -> int:
    """Each combo's run is written once all its content is computed; its
    separability row comes first, so data the indexes refuse fails before
    the GA runs."""
    run = _resolve(args)
    dataset, combos = _dataset_and_combos(run)
    base = Path(run["out"])
    for combo in combos:
        sub, tts = _prepared_split(run, dataset, combo)
        separability = _separability_row(run, combo, sub)
        result = evolve(run["evolve"], svm_evaluator(tts, run["svm"]))
        records = pareto_records(result)
        out_dir = base if len(combos) == 1 else base / f"combo_{_combo_label(combo)}"
        write_run(out_dir, records, result.history, separability, _manifest(run, combo))
        best = best_pareto_record(records)
        print(f"{out_dir}: front size {len(records)}, "
              f"best accuracy {best['accuracy']:.4f} "
              f"(local {best['local_gates']}, cnot {best['cnot_gates']})")
    return 0


def _dump_gram(dump_dir: str, combo, kind: str, gram: np.ndarray) -> None:
    write_csv(Path(dump_dir) / f"gram_{_combo_label(combo)}_{kind}.csv",
              [f"c{i}" for i in range(gram.shape[1])], gram.tolist())


def cmd_kernels(args) -> int:
    run = _resolve(args)
    dataset, combos = _dataset_and_combos(run)
    quantum = not args.classical_only
    header = ["features", *CLASSICAL_KINDS] + (["quantum"] if quantum else [])
    rows = []
    for combo in combos:
        _, tts = _prepared_split(run, dataset, combo)
        accs = []
        for kind in CLASSICAL_KINDS:
            gram = classical_kernel(kind, tts.X_train, tts.X_train)
            cross = classical_kernel(kind, tts.X_test, tts.X_train)
            accs.append(fit_score(gram, cross, tts.y_train, tts.y_test, run["svm"]))
            if args.dump_grams:
                _dump_gram(args.dump_grams, combo, kind, gram)
        if quantum:
            best = best_pareto_record(pareto_records(
                evolve(run["evolve"], svm_evaluator(tts, run["svm"]))))
            accs.append(best["accuracy"])
            if args.dump_grams:
                template = decode(Genome.from_string(best["genome"], run["features.k"]))
                _dump_gram(args.dump_grams, combo, "quantum",
                           quantum_gram(template, tts.X_train))
        rows.append([_combo_label(combo, ";"), *accs])
    _write_table(run["out"], "kernels.csv", header, rows, ["mean"])
    return 0


def cmd_separability(args) -> int:
    run = _resolve(args)
    dataset, combos = _dataset_and_combos(run)
    rows = [_separability_row(run, combo, subset_features(dataset, combo))
            for combo in combos]
    _write_table(run["out"], SEPARABILITY_CSV, SEPARABILITY_HEADER, rows,
                 [Path(run["dataset.path"]).stem, "mean", dataset.X.shape[0]])
    return 0


def cmd_decode(args) -> int:
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
    write_csv(out_dir / "aggregate.csv", [f.name for f in fields(RunRecord)],
              [astuple(r) for r in records])
    corr = correlation_rows(records)
    write_csv(out_dir / "correlations.csv", ["index", "spearman_vs_cnot", "n_runs"],
              [[name, "n/a" if value is None else value, len(records)]
               for name, value in corr])
    write_csv(out_dir / "gate_means.csv", ["n_qubits", "mean_local", "mean_cnot", "n_runs"],
              gate_means(records))
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
