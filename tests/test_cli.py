"""End-to-end checks of the qkevo command line."""
import contextlib
import hashlib
import json
import re

import numpy as np
import pytest

from qkevo.cli import main
from qkevo.data import SplitSpec, load_csv, make_split, minmax_scale, subset_features
from qkevo.errors import DataError
from qkevo.featuremap import Genome, decode, gate_counts
from qkevo.kernel import CLASSICAL_KINDS, classical_kernel
from qkevo.nsga2 import Objectives, dominates
from qkevo.report import best_pareto_record, load_run, write_csv

from conftest import REPO_ROOT

IRIS = str(REPO_ROOT / "data" / "iris.csv")
CANCER = str(REPO_ROOT / "data" / "breast_cancer.csv")


def _evolve_args(out, features="0,1", generations="3", seed="7", extra=()):
    return ["evolve", "--dataset", IRIS, "--label-col", "species",
            "--features", features, "--population", "8",
            "--generations", generations, "--seed", seed,
            "--train-size", "60", "--test-size", "30",
            "--out", str(out), *extra]


def test_evolve_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_evolve_args(out)) == 0
    records = json.loads((out / "pareto.json").read_text())
    assert records
    best = best_pareto_record(records)
    assert (f"best accuracy {best['accuracy']:.4f} (local {best['local_gates']}, "
            f"cnot {best['cnot_gates']})") in capsys.readouterr().out
    assert all(r["rank"] == 1 for r in records)
    history = (out / "history.csv").read_text().strip().splitlines()
    assert history[0] == "generation,best_accuracy,front_size,min_local,min_cnot"
    assert len(history) >= 2
    assert (out / "manifest.json").is_file()
    assert (out / "separability.csv").is_file()


def test_evolve_pareto_records_consistent(tmp_path):
    out = tmp_path / "run"
    main(_evolve_args(out))
    records = json.loads((out / "pareto.json").read_text())
    objs = [Objectives(r["accuracy"], r["local_gates"], r["cnot_gates"])
            for r in records]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            if i != j:
                assert not dominates(a, b)
    for r in records:
        counts = gate_counts(decode(Genome.from_string(r["genome"], 2)))
        assert (counts.local, counts.cnot) == (r["local_gates"], r["cnot_gates"])


def test_evolve_generations_zero_single_history_row(tmp_path):
    out = tmp_path / "run"
    assert main(_evolve_args(out, generations="0")) == 0
    history = (out / "history.csv").read_text().strip().splitlines()
    assert len(history) == 2  # header + generation 0


def test_evolve_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(_evolve_args(out_a))
    main(_evolve_args(out_b))
    assert (out_a / "pareto.json").read_bytes() == (out_b / "pareto.json").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_failed_rerun_leaves_no_manifest_of_the_earlier_run(tmp_path):
    # The rerun fails inside the write, after pareto.json is written; report
    # must not read the new front under the old run's manifest.
    out = tmp_path / "run"
    assert main(_evolve_args(out)) == 0
    load_run(out)
    (out / "separability.csv").unlink()
    (out / "separability.csv").mkdir()  # renaming a file onto a directory fails
    assert main(_evolve_args(out, seed="8")) == 3
    with pytest.raises(DataError, match="missing manifest.json"):
        load_run(out)
    assert sorted(p.name for p in out.iterdir()) == ["history.csv", "pareto.json",
                                                      "separability.csv"]


def test_rerun_failing_before_the_write_leaves_the_earlier_run_whole(tmp_path,
                                                                     monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("indexes failed")

    out = tmp_path / "run"
    assert main(_evolve_args(out)) == 0
    before, record = {p.name: p.read_bytes() for p in out.iterdir()}, load_run(out)
    monkeypatch.setattr("qkevo.cli.compute_indexes", failing)
    assert main(_evolve_args(out, seed="8")) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before and len(before) == 4
    assert load_run(out) == record


def test_data_the_indexes_refuse_fails_before_the_ga(tmp_path, capsys, monkeypatch):
    # Before, the whole GA ran and only then did the indexes refuse the data.
    lines = (REPO_ROOT / "data" / "iris.csv").read_text().splitlines()
    odd = tmp_path / "odd.csv"
    odd.write_text("\n".join([*lines[:21], *lines[51:71], "5.0,3.0,1.5,0.3,odd"]) + "\n")
    calls = []
    monkeypatch.setattr("qkevo.cli.evolve", lambda *args: calls.append(args))
    out = tmp_path / "run"
    assert main(["evolve", "--dataset", str(odd), "--label-col", "species",
                 "--features", "0,1", "--population", "4", "--generations", "0",
                 "--train-size", "20", "--test-size", "10", "--out", str(out)]) == 3
    assert "every class needs at least 2 members" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "table.csv"
    target.mkdir()  # renaming a file onto a directory fails
    with pytest.raises(OSError):
        write_csv(target, ["a"], [[1]])
    assert list(tmp_path.iterdir()) == [target]


def test_evolve_missing_dataset_exit_code():
    code = main(["evolve", "--dataset", "/nope/missing.csv", "--label-col", "x",
                 "--qubits", "2"])
    assert code == 2  # unreadable file is a data error
    code = main(["evolve", "--label-col", "x", "--qubits", "2"])
    assert code == 1  # no dataset given: usage error


_SPECIES = ("--label-col", "species")


@pytest.mark.parametrize("flags, message", [
    pytest.param((*_SPECIES, "--features", "0,1", "--combos", "2"),
                 "either explicit --features", id="features-and-combos"),
    pytest.param((*_SPECIES, "--features", "0,1", "--qubits", "3"),
                 "--qubits 3 disagrees", id="qubits-disagree"),
    pytest.param(("--qubits", "2"), "a label column is required", id="no-label-column"),
    pytest.param(_SPECIES, "a qubit count is required", id="no-qubits"),
    pytest.param((*_SPECIES, "--features", "0,x"), "bad feature list",
                 id="bad-feature-list"),
    pytest.param((*_SPECIES, "--qubits", "2", "--config", "missing.json"),
                 "cannot read config file", id="unreadable-config"),
    pytest.param((*_SPECIES, "--qubits", "2", "--config", "broken.json"),
                 "invalid JSON", id="invalid-json-config")])
def test_missing_or_conflicting_data_setting_is_usage_error(tmp_path, monkeypatch,
                                                            capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{")
    assert main(["evolve", "--dataset", IRIS, *flags, "--population", "4",
                 "--generations", "0", "--out", "run"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_label_column_by_index_writes_the_same_bytes(tmp_path):
    assert main(_evolve_args(tmp_path / "name")) == 0
    args = _evolve_args(tmp_path / "index")
    args[args.index("species")] = "4"
    assert main(args) == 0
    for name in ("pareto.json", "history.csv", "separability.csv"):
        assert ((tmp_path / "index" / name).read_bytes()
                == (tmp_path / "name" / name).read_bytes())


def test_evolve_bad_label_column_is_data_error(tmp_path):
    code = main(["evolve", "--dataset", IRIS, "--label-col", "nope",
                 "--qubits", "2", "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("qubits", ["13", "0", "-1"])
def test_evolve_too_many_qubits_is_usage_error(tmp_path, qubits):
    out = tmp_path / "r"
    code = main(["evolve", "--dataset", CANCER, "--label-col", "diagnosis",
                 "--qubits", qubits, "--population", "4", "--generations", "0",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_evolve_config_file_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "split": {"n_train": 60, "n_test": 30, "seed": 3},
        "svm": {"C": 2.0},
        "evolve": {"population_size": 8, "generations": 2, "seed": 5},
    }))
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(config), "--dataset", IRIS,
                 "--label-col", "species", "--features", "0,1",
                 "--generations", "1", "--split-seed", "4", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # a file value beats the default ...
    assert manifest["evolve"]["population_size"] == 8
    assert manifest["evolve"]["seed"] == 5
    assert manifest["svm"]["C"] == 2.0
    assert manifest["split"] == {"n_train": 60, "n_test": 30, "seed": 4,
                                 "stratified": True}
    # ... and a flag beats the file
    assert manifest["evolve"]["generations"] == 1
    assert manifest["evolve"]["tournament_size"] == 2
    assert manifest["scaling"] == {"lo": 0.0, "hi": np.pi}


def test_unknown_hmi_mode_in_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hmi_mode": "median"}))
    out = tmp_path / "run"
    assert main(_evolve_args(out, extra=("--config", str(config)))) == 1
    assert "hmi_mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", [
    pytest.param({"svm": {"max_iterations": 2.5}}, id="max_iterations"),
    pytest.param({"evolve": {"tournament_size": 2.5}}, id="tournament_size"),
    pytest.param({"evolve": {"early_stop": {"stagnation_generations": 1.5}}},
                 id="stagnation_generations"),
    pytest.param({"split": {"stratified": "false"}}, id="stratified-string"),
    pytest.param({"split": {"stratified": 0}}, id="stratified-number"),
    pytest.param({"svm": {"C": "abc"}}, id="C-string"),
    pytest.param({"svm": {"C": True}}, id="C-bool"),
    pytest.param({"evolve": {"mutation_prob": "0.1"}}, id="mutation_prob-string"),
    pytest.param({"evolve": {"seed": True}}, id="seed-bool"),
    pytest.param({"scaling": {"hi": "3"}}, id="hi-string"),
    pytest.param({"out": None}, id="out-null")])
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, section):
    # Before, int() and bool() coerced these: 2.5 steps became 2 and the
    # string "false" ran a stratified split.  True ran as C = 1.0 and seed 1,
    # "3" as hi = 3.0, "abc" failed as a runtime error, "0.1" with a
    # traceback, and a null out was read although --out overrode it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section))
    out = tmp_path / "run"
    assert main(_evolve_args(out, extra=("--config", str(config)))) == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "kernels"])
@pytest.mark.parametrize("bounds", [
    pytest.param(("--scale-lo", "2", "--scale-hi", "1"), id="flags"),
    pytest.param({"scaling": {"lo": 2, "hi": 1}}, id="config"),
    pytest.param({"scaling": {"lo": 1.5, "hi": 1.5}}, id="config-equal")])
def test_reversed_scaling_bounds_are_usage_error(tmp_path, capsys, command, bounds):
    # Before, the scaler refused them as a runtime error (exit 3).
    if isinstance(bounds, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bounds))
        bounds = ("--config", str(config))
    out = tmp_path / "run"
    only = ("--classical-only",) if command == "kernels" else ()
    args = _evolve_args(out, extra=(*bounds, *only))
    assert main([command, *args[1:]]) == 1
    assert "scaling.lo" in capsys.readouterr().err
    assert not out.exists()


def _table_args(command, out, config):
    """``command`` on Iris features 0,1 with a config file, small enough
    for every table command to finish at once."""
    args = [command, "--dataset", IRIS, "--label-col", "species", "--features", "0,1",
            "--config", str(config), "--out", str(out)]
    if command == "separability":
        return args
    only = ["--classical-only"] if command == "kernels" else []
    return [*args, "--population", "4", "--generations", "0",
            "--train-size", "60", "--test-size", "30", *only]


@pytest.mark.parametrize("command", ["evolve", "kernels", "separability"])
@pytest.mark.parametrize("flags, cfg", [
    pytest.param(("--combo-seed", "3"), {}, id="flag"),
    pytest.param((), {"features": {"seed": 3}}, id="config")])
def test_combo_seed_without_combos_is_usage_error(tmp_path, capsys, command, flags, cfg):
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(cfg))
    assert main([*_table_args(command, out, config), *flags]) == 1
    assert "needs --combos" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "kernels", "separability"])
@pytest.mark.parametrize("flags, cfg", [
    pytest.param(("--features", "0,0"), {}, id="flag"),
    pytest.param((), {"features": {"list": [1, 0, 1]}}, id="config")])
def test_repeated_feature_index_is_usage_error(tmp_path, capsys, command, flags, cfg):
    # Before, evolve ran a 2-qubit GA on one feature twice and exited 0.
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(cfg))
    args = _table_args(command, out, config)
    at = args.index("--features")
    del args[at:at + 2]
    assert main([*args, *flags]) == 1
    assert "feature indices must not repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "kernels"])
@pytest.mark.parametrize("flags, cfg", [
    pytest.param(("--train-size", "0"), {}, id="train-size-flag"),
    pytest.param(("--test-size", "-3"), {}, id="test-size-flag"),
    pytest.param((), {"split": {"n_train": 0}}, id="train-size-config"),
    pytest.param((), {"split": {"n_test": -3}}, id="test-size-config")])
def test_bad_split_size_is_usage_error(tmp_path, capsys, command, flags, cfg):
    # Before, each exited 2 with "data error: infeasible split sizes".
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(cfg))
    args = _table_args(command, out, config)
    at = args.index("--train-size")
    del args[at:at + 4]  # the train and test sizes
    assert main([*args, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: split.n_t")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, cfg, setting", [
    pytest.param("evolve", ("--seed", "-1"), {}, "seed", id="seed-flag"),
    pytest.param("evolve", (), {"evolve": {"seed": -1}}, "seed", id="seed-config"),
    pytest.param("evolve", ("--split-seed", "-1"), {}, "split.seed", id="split-seed-flag"),
    pytest.param("kernels", (), {"split": {"seed": -1}}, "split.seed",
                 id="split-seed-config"),
    pytest.param("evolve", ("--combos", "2", "--combo-seed", "-1"), {}, "combo seed",
                 id="combo-seed-flag"),
    pytest.param("separability", ("--combos", "2"), {"features": {"seed": -1}},
                 "combo seed", id="combo-seed-config"),
    pytest.param("evolve", ("--combos", "0"), {}, "combo count", id="combos-flag"),
    pytest.param("kernels", (), {"features": {"combos": 0}}, "combo count",
                 id="combos-config")])
def test_negative_seed_or_no_combos_is_usage_error(tmp_path, capsys, command, flags,
                                                   cfg, setting):
    # Before, the seeds exited 3 with numpy's "expected non-negative integer"
    # and a combo count of 0 exited 2.
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(cfg))
    args = _table_args(command, out, config)
    if "--combos" in flags or "features" in cfg:
        at = args.index("--features")
        args[at:at + 2] = ["--qubits", "2"]
    assert main([*args, *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {setting} must be >= ")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    pytest.param("evolve", {"split": 5}, id="evolve-split"),
    pytest.param("evolve", {"evolve": {"early_stop": 3}}, id="evolve-early_stop"),
    pytest.param("kernels", {"svm": [1.0]}, id="kernels-svm"),
    pytest.param("separability", {"features": [0, 1]}, id="separability-features"),
    pytest.param("separability", {"features": {"list": 5}}, id="separability-list"),
    pytest.param("evolve", [1, 2], id="evolve-root")])
def test_config_section_not_an_object_is_usage_error(tmp_path, capsys, command, cfg):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(_table_args(command, out, config)) == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, key", [
    pytest.param("evolve", {"evolve": {"populaton_size": 64, "generations": 0}},
                 "evolve.populaton_size", id="evolve-in-section"),
    pytest.param("evolve", {"evolve": {"early_stop": {"stagnation": 2}}},
                 "evolve.early_stop.stagnation", id="evolve-nested"),
    pytest.param("kernels", {"svm": {"c": 2.0}}, "svm.c", id="kernels-in-section"),
    pytest.param("separability", {"dataset": {"label": "species"}}, "dataset.label",
                 id="separability-in-section"),
    pytest.param("evolve", {"outdir": "elsewhere"}, "outdir", id="evolve-top-level"),
    pytest.param("separability", {"hmi": "mean"}, "hmi", id="separability-top-level")])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, cfg, key):
    # Before, each of these ran on the default the misspelt key stood for.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(_table_args(command, out, config)) == 1
    assert f"unknown config key(s): {key}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_example_runs(tmp_path):
    # The README's config block must stay a config the resolver accepts.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config file"):]
    start = section.index("```json\n") + len("```json\n")
    block = json.loads(section[start:section.index("```", start)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(block))
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(config), "--dataset", IRIS,
                 "--population", "4", "--generations", "0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["split"] == block["split"]
    assert manifest["svm"] == block["svm"]
    assert manifest["evolve"] == {**block["evolve"], "population_size": 4,
                                  "generations": 0,
                                  "n_qubits": len(block["features"]["list"])}


def test_kernels_ignores_hmi_mode_in_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hmi_mode": "median"}))
    args = _evolve_args(tmp_path / "plain", extra=("--classical-only",))
    assert main(["kernels", *args[1:]]) == 0
    args = _evolve_args(tmp_path / "cfg", extra=("--classical-only", "--config", str(config)))
    assert main(["kernels", *args[1:]]) == 0
    assert ((tmp_path / "cfg" / "kernels.csv").read_bytes()
            == (tmp_path / "plain" / "kernels.csv").read_bytes())


@pytest.mark.parametrize("command, flags", [
    ("evolve", ("--svm-c", "-1")), ("kernels", ("--svm-c", "0", "--classical-only"))],
    ids=["evolve", "kernels"])
def test_non_positive_svm_c_is_usage_error(tmp_path, capsys, command, flags):
    out = tmp_path / "run"
    args = _evolve_args(out, extra=flags)
    assert main([command, *args[1:]]) == 1
    assert "C and tolerance must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    pytest.param("evolve", ("--svm-c", "nan"), id="svm-c-nan"),
    pytest.param("evolve", ("--svm-c", "1e400"), id="svm-c-overflow"),
    pytest.param("kernels", ("--svm-c", "inf", "--classical-only"), id="kernels-svm-c-inf"),
    pytest.param("evolve", {"svm": {"C": float("nan")}}, id="config-svm-c-nan"),
    pytest.param("evolve", {"svm": {"tolerance": float("inf")}}, id="config-tolerance-inf"),
    pytest.param("evolve", ("--target-accuracy", "nan"), id="target-accuracy-nan"),
    pytest.param("evolve", ("--target-accuracy", "inf"), id="target-accuracy-inf"),
    pytest.param("evolve", ("--scale-lo", "nan"), id="scale-lo-nan"),
    pytest.param("evolve", ("--scale-hi", "inf"), id="scale-hi-inf"),
    pytest.param("evolve", {"scaling": {"hi": float("inf")}}, id="config-hi-inf"),
    pytest.param("kernels", {"scaling": {"lo": float("-inf")}}, id="kernels-config-lo-inf"),
    pytest.param("evolve", ("--stagnation", "0"), id="stagnation-zero"),
    pytest.param("evolve", ("--stagnation", "-3"), id="stagnation-negative"),
    pytest.param("evolve", {"evolve": {"early_stop": {"stagnation_generations": 0}}},
                 id="config-stagnation-zero")])
def test_non_finite_or_bad_early_stop_setting_is_usage_error(tmp_path, capsys,
                                                            command, setting):
    # Before, NaN and 1e400 C and a NaN target ran (exit 0, with NaN or
    # Infinity in manifest.json), non-finite scaling bounds exited 3, and a
    # stagnation of 0 or -3 stopped the run after generation 0.
    if isinstance(setting, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        setting = ("--config", str(config))
    out = tmp_path / "run"
    args = _evolve_args(out, extra=setting)
    assert main([command, *args[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("evolve", ()), ("kernels", ("--classical-only",)), ("kernels", ("--dump-grams",))],
    ids=["evolve", "kernels-classical-only", "kernels-dump-grams"])
def test_evolve_without_test_rows_is_usage_error(tmp_path, command, flags):
    out, dump = tmp_path / "run", tmp_path / "grams"
    if flags == ("--dump-grams",):
        flags += (str(dump),)
    args = _evolve_args(out, extra=("--test-size", "0", *flags))
    assert main([command, *args[1:]]) == 1
    assert not out.exists()
    assert not dump.exists()


@pytest.mark.parametrize("command", ["evolve", "kernels"])
@pytest.mark.parametrize("split_flags", [
    pytest.param(("--train-size", "1"), id="stratified"),
    pytest.param(("--train-size", "2", "--no-stratify", "--split-seed", "5"),
                 id="unstratified")])
def test_single_class_training_split_is_usage_error(tmp_path, capsys, command,
                                                    split_flags):
    # Before, evolve demoted every genome and wrote a front of accuracy 0.0
    # (exit 0), and kernels failed in the solver (exit 3).
    out = tmp_path / "run"
    only = ("--classical-only",) if command == "kernels" else ()
    assert main([command, "--dataset", CANCER, "--label-col", "diagnosis",
                 "--positive-class", "malignant", "--qubits", "2",
                 "--population", "4", "--generations", "0", *split_flags, *only,
                 "--out", str(out)]) == 1
    assert "single class" in capsys.readouterr().err
    assert not out.exists()


def test_kernels_classical_only(tmp_path):
    out = tmp_path / "k"
    code = main(["kernels", "--dataset", IRIS, "--label-col", "species",
                 "--features", "0,1,2,3", "--classical-only",
                 "--train-size", "60", "--test-size", "30", "--out", str(out)])
    assert code == 0
    rows = (out / "kernels.csv").read_text().strip().splitlines()
    assert rows[0] == "features,linear,poly,rbf,sigmoid"
    assert len(rows) == 3  # header + 1 combo + mean row
    values = rows[1].split(",")[1:]
    assert all(0.0 <= float(v) <= 1.0 for v in values)
    assert rows[2].startswith("mean,")


def test_kernels_with_quantum_column(tmp_path):
    out = tmp_path / "kq"
    code = main(["kernels", "--dataset", IRIS, "--label-col", "species",
                 "--features", "0,1", "--population", "8", "--generations", "2",
                 "--train-size", "60", "--test-size", "30", "--out", str(out)])
    assert code == 0
    rows = (out / "kernels.csv").read_text().strip().splitlines()
    assert rows[0].endswith(",quantum")
    assert len(rows) == 3


def test_kernels_dump_grams(tmp_path):
    dump = tmp_path / "grams"
    assert main(["kernels", "--dataset", IRIS, "--label-col", "species",
                 "--features", "0,1", "--population", "4", "--generations", "0",
                 "--train-size", "60", "--test-size", "30",
                 "--out", str(tmp_path / "k"), "--dump-grams", str(dump)]) == 0
    names = sorted(p.name for p in dump.iterdir())
    assert names == sorted(f"gram_0-1_{kind}.csv"
                           for kind in (*CLASSICAL_KINDS, "quantum"))
    iris = minmax_scale(subset_features(load_csv(IRIS, "species"), [0, 1]), 0.0, np.pi)
    tts = make_split(iris, SplitSpec(60, 30))
    for kind in CLASSICAL_KINDS:
        lines = (dump / f"gram_0-1_{kind}.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(f"c{i}" for i in range(60))
        dumped = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(dumped, classical_kernel(kind, tts.X_train, tts.X_train))


def test_separability_rows(tmp_path):
    out = tmp_path / "s"
    code = main(["separability", "--dataset", IRIS, "--label-col", "species",
                 "--qubits", "2", "--combos", "3", "--out", str(out)])
    assert code == 0
    rows = (out / "separability.csv").read_text().strip().splitlines()
    assert rows[0] == "dataset,features,n_instances,si,hmi,dsi"
    assert len(rows) == 5  # header + 3 combos + mean
    assert rows[-1].split(",")[1] == "mean"


@pytest.mark.parametrize("section", [{"evolve": {"population_size": 3}},
                                     {"svm": {"C": -1}},
                                     {"split": 5, "evolve": {"populaton_size": 3}}],
                         ids=["evolve", "svm", "malformed"])
def test_separability_ignores_sections_it_never_reads(tmp_path, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section))
    args = ["separability", "--dataset", IRIS, "--label-col", "species",
            "--qubits", "2", "--combos", "3"]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, "--config", str(config), "--out", str(tmp_path / "cfg")]) == 0
    assert ((tmp_path / "cfg" / "separability.csv").read_bytes()
            == (tmp_path / "plain" / "separability.csv").read_bytes())


@pytest.mark.parametrize("qubits", ["0", "-1"])
def test_separability_without_qubits_is_usage_error(tmp_path, qubits):
    out = tmp_path / "s"
    assert main(["separability", "--dataset", IRIS, "--label-col", "species",
                 "--qubits", qubits, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=command + flag[0]) for command, flag in (
        *(("separability", flag) for flag in (
            ("--seed", "5"), ("--split-seed", "5"), ("--train-size", "140"),
            ("--test-size", "10"), ("--no-stratify",), ("--scale-lo", "1"),
            ("--scale-hi", "2"), ("--population", "3"), ("--generations", "2"),
            ("--crossover-prob", "0.5"), ("--mutation-prob", "0.1"),
            ("--tournament-size", "3"), ("--target-accuracy", "0.9"),
            ("--stagnation", "2"), ("--svm-c", "9"))),
        ("kernels", ("--hmi-mode", "mean")))])
def test_flag_the_command_never_reads_is_usage_error(tmp_path, command, flag):
    out = tmp_path / "out"
    only = ("--classical-only",) if command == "kernels" else ()
    assert main([command, "--dataset", IRIS, "--label-col", "species", "--features",
                 "0,1", "--out", str(out), *only, *flag]) == 1
    assert not out.exists()


_DATA_FLAGS = {"--config", "--dataset", "--label-col", "--positive-class", "--qubits",
               "--features", "--combos", "--combo-seed", "--out"}
_RUN_FLAGS = {"--seed", "--split-seed", "--train-size", "--test-size", "--no-stratify",
              "--scale-lo", "--scale-hi", "--population", "--generations",
              "--crossover-prob", "--mutation-prob", "--tournament-size",
              "--target-accuracy", "--stagnation", "--svm-c"}
# Every subcommand's option strings but -h/--help, as the hand-written
# parser had them before the settings table generated the flags.
PINNED_FLAGS = {
    "evolve": _DATA_FLAGS | _RUN_FLAGS | {"--hmi-mode"},
    "kernels": _DATA_FLAGS | _RUN_FLAGS | {"--classical-only", "--dump-grams"},
    "separability": _DATA_FLAGS | {"--hmi-mode"},
    "decode": {"--qubits"},
    "report": {"--out"},
}


@pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
def test_flag_sets_are_pinned_and_documented(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    shown = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    assert shown - {"-h", "--help"} == PINNED_FLAGS[command]
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command line"):readme.index("\n## Data files")]
    assert [flag for flag in sorted(PINNED_FLAGS[command])
            if not re.search(rf"(?<![\w-]){flag}(?![\w-])", section)] == []


def test_decode_listing(capsys):
    assert main(["decode", "1111001110", "--qubits", "3"]) == 0
    out = capsys.readouterr().out
    assert "local gates: 24" in out
    assert "cnot gates: 12" in out
    assert "repetition 3:" in out
    assert "RZ(x0*x2) q2" in out


def test_decode_hadamard_only(capsys):
    assert main(["decode", "0000000", "--qubits", "2"]) == 0
    out = capsys.readouterr().out
    assert "local gates: 2" in out
    assert "cnot gates: 0" in out


def test_decode_usage_errors():
    assert main(["decode", "00x0000", "--qubits", "2"]) == 1
    assert main(["decode", "000", "--qubits", "2"]) == 1
    assert main(["decode", "0000000", "--qubits", "0"]) == 1
    assert main(["decode", "0000000", "--qubits", "-1"]) == 1
    assert main(["decode", "", "--qubits", "2"]) == 1


def test_report_on_synthetic_runs(tmp_path, capsys):
    from test_report import GENOMES_BY_CNOT, _write_run
    runs = tmp_path / "runs"
    for i, (genome, dsi_val) in enumerate(zip(reversed(GENOMES_BY_CNOT),
                                              [0.2, 0.5, 0.8])):
        _write_run(runs / f"run{i}", genome, 2, 0.9, 0.5, 1.0, dsi_val)
    _write_run(runs / "broken", GENOMES_BY_CNOT[0], 2, 0.9, 0.5, 1.0, 0.1,
               break_counts=True)
    assert main(["report", str(runs)]) == 0
    out, err = capsys.readouterr()
    assert "spearman(dsi, cnot) = -1.0000" in out
    assert err.startswith(f"warning: skipping {runs / 'broken'}: ")
    assert err.count("\n") == 1
    agg = (runs / "aggregate.csv").read_text().strip().splitlines()
    assert len(agg) == 4
    corr = (runs / "correlations.csv").read_text()
    assert "-1.0" in corr and "n/a" not in corr.split("\n")[3]


def test_report_skips_a_run_under_a_separability_table(tmp_path, capsys):
    """``separability --combos`` into a run directory replaces the run's one
    row with a table of other combos; ``report`` must not join either."""
    run = tmp_path / "run"
    cancer = ["--dataset", CANCER, "--label-col", "diagnosis",
              "--positive-class", "malignant", "--out", str(run)]
    assert main(["evolve", *cancer, "--features", "3,12", "--population", "4",
                 "--generations", "0"]) == 0
    assert main(["separability", *cancer, "--qubits", "2", "--combos", "3"]) == 0
    capsys.readouterr()
    assert main(["report", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"warning: skipping {run}: ") and "expected one row" in err
    assert not (run / "aggregate.csv").exists()


def test_report_empty_directory(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["decode", "0000000", "--qubits", "2", "--bogus"]) == 1


# The runs ``test_outputs_byte_identical`` makes, each with the stdout it
# prints; paths are relative to a directory holding a link to ``data``.
_GOLDEN_RUNS = (
    (["evolve", "--dataset", "data/iris.csv", "--label-col", "species",
      "--features", "0,1,2", "--population", "8", "--generations", "3",
      "--out", "iris"],
     "iris: front size 5, best accuracy 0.9800 (local 8, cnot 0)\n"),
    (["evolve", "--dataset", "data/breast_cancer.csv", "--label-col", "diagnosis",
      "--qubits", "2", "--combos", "2", "--population", "4", "--generations", "2",
      "--out", "combos"],
     "combos/combo_18-19: front size 4, best accuracy 0.6200 (local 3, cnot 2)\n"
     "combos/combo_11-25: front size 4, best accuracy 0.8000 (local 12, cnot 6)\n"),
    (["kernels", "--dataset", "data/iris.csv", "--label-col", "species",
      "--features", "0,1", "--population", "4", "--generations", "1",
      "--out", "kernels", "--dump-grams", "grams"],
     "wrote kernels/kernels.csv (2 rows)\n"),
    (["kernels", "--dataset", "data/breast_cancer.csv", "--label-col", "diagnosis",
      "--qubits", "3", "--combos", "3", "--classical-only", "--out", "classical"],
     "wrote classical/kernels.csv (4 rows)\n"),
    (["separability", "--dataset", "data/breast_cancer.csv", "--label-col",
      "diagnosis", "--qubits", "4", "--combos", "5", "--hmi-mode", "mean",
      "--out", "separability"],
     "wrote separability/separability.csv (6 rows)\n"),
    (["report", "combos"],
     "spearman(si, cnot) = +1.0000 over 2 runs\n"
     "spearman(hmi, cnot) = +1.0000 over 2 runs\n"
     "spearman(dsi, cnot) = +1.0000 over 2 runs\n"),
)
# The leading 16 hex digits of the sha256 of every file the runs write;
# manifest.json is hashed without its "created" line.
_GOLDEN_DIGESTS = {
    "classical/kernels.csv": "b02aef3c9bb28d28",
    "combos/aggregate.csv": "4f8cdfbe50546657",
    "combos/combo_11-25/history.csv": "eb9d45f08a5b4bc4",
    "combos/combo_11-25/manifest.json": "3d9cedfc3994e2d3",
    "combos/combo_11-25/pareto.json": "14bac07c7b560f69",
    "combos/combo_11-25/separability.csv": "76334318302aa6f3",
    "combos/combo_18-19/history.csv": "909f19001f087d1b",
    "combos/combo_18-19/manifest.json": "a9a1b45d6abe8cab",
    "combos/combo_18-19/pareto.json": "217e21746eab97b5",
    "combos/combo_18-19/separability.csv": "d89541411f6b6b22",
    "combos/correlations.csv": "cb422be00fc0d7af",
    "combos/gate_means.csv": "bbda8ef06695eaf4",
    "grams/gram_0-1_linear.csv": "f6d03961286fd117",
    "grams/gram_0-1_poly.csv": "62154376e4475ae1",
    "grams/gram_0-1_quantum.csv": "4a5c1d0e9fb917c9",
    "grams/gram_0-1_rbf.csv": "2c563633ba7c56d4",
    "grams/gram_0-1_sigmoid.csv": "33f53994101f7331",
    "iris/history.csv": "7b36f06b0a062094",
    "iris/manifest.json": "a1457077d9998bff",
    "iris/pareto.json": "9bdb160fcf1d408c",
    "iris/separability.csv": "3e992d3f5a0d7e5c",
    "kernels/kernels.csv": "bcf45e513261be5e",
    "separability/separability.csv": "f5cb192047bf24e7",
}


def test_outputs_byte_identical(tmp_path, monkeypatch, capsys):
    # Pins every output byte, so a change meant to keep behaviour proves it.
    (tmp_path / "data").symlink_to(REPO_ROOT / "data")
    monkeypatch.chdir(tmp_path)
    for argv, stdout in _GOLDEN_RUNS:
        # The poly kernel runs SMO to its cap on one of the cancer combos.
        with (pytest.warns(RuntimeWarning, match="SMO stopped")
              if "--classical-only" in argv else contextlib.nullcontext()):
            assert main(argv) == 0
        assert capsys.readouterr().out == stdout, argv
    digests = {}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and not path.is_relative_to(tmp_path / "data"):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = re.sub(rb'\n  "created": "[^"]*",', b"", data)
            digests[path.relative_to(tmp_path).as_posix()] = (
                hashlib.sha256(data).hexdigest()[:16])
    assert digests == _GOLDEN_DIGESTS
