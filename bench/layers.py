"""Per-layer metrics from the spans of a traced pass.

Each layer metric is meant to move one end-to-end metric on named
workloads; ``METRICS.md`` in this directory lists which.
"""
from __future__ import annotations

from collections import defaultdict

from benchmath import percentile, self_time, tail_percentile

NAME, START, END, PARENT, ATTRS = 1, 2, 3, 4, 6
AMPLITUDE_BYTES = 32  # one complex128 read and written per amplitude update


def _dur(span) -> float:
    return span[END] - span[START]


def _named(spans, *names):
    return [s for s in spans if s[NAME] in names]


def _outer(spans, names: set, by_id: dict):
    """Spans in ``names`` not nested directly in another span of ``names``."""
    return [s for s in spans if s[NAME] in names
            and (s[PARENT] is None or by_id[s[PARENT]][NAME] not in names)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _pct(values, pct: float) -> float:
    return percentile(values, pct) if values else 0.0


def layer_metrics(spans, untraced_wall_s: float, traced_wall_s: float):
    """(metrics, extras): metrics map name -> (value, unit); extras hold the
    tail percentiles picked by the sample-count rule and per-size repeats."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    evolves = _named(spans, "nsga2.evolve")
    evolve_s = sum(_dur(s) for s in evolves)
    evals = _named(spans, "nsga2.eval")
    eval_ms = [_dur(s) * 1e3 for s in evals]
    self_s = sum(self_time(s[START], s[END], [(c[START], c[END]) for c in children[s[0]]
                                              if c[NAME] == "nsga2.eval"])
                 for s in evolves)

    preps = _named(spans, "kernel.prepare_states")
    kernels = _outer(spans, {"kernel.quantum_gram", "kernel.quantum_cross"}, by_id)
    kernel_s = sum(_dur(s) for s in kernels)
    overlap_s = sum(self_time(s[START], s[END], [(c[START], c[END]) for c in children[s[0]]])
                    for s in kernels)
    amp_updates = sum(s[ATTRS]["rows"] * 2 ** s[ATTRS]["n_qubits"] * s[ATTRS]["gates"]
                      for s in preps)

    trains = _outer(spans, {"svm.train_dual", "svm.train_multiclass"}, by_id)
    train_s = sum(_dur(s) for s in trains)
    duals = _named(spans, "svm.train_dual")
    train_ms = [_dur(s) * 1e3 for s in duals]
    predict_s = sum(_dur(s) for s in _outer(
        spans, {"svm.predict", "svm.predict_multiclass", "svm.decision_values"}, by_id))

    cli_self = sum(self_time(s[START], s[END], [(c[START], c[END]) for c in children[s[0]]])
                   for s in _named(spans, "cli.main"))

    metrics = {
        "nsga2.evals": (len(evals), "count"),
        "nsga2.repeat_share": (_ratio(sum(s[ATTRS]["repeat"] for s in evals), len(evals)),
                               "share"),
        "nsga2.template_repeat_share": (
            _ratio(sum(s[ATTRS]["template_repeat"] for s in evals), len(evals)), "share"),
        "nsga2.eval_ms_p50": (_pct(eval_ms, 50), "ms"),
        "nsga2.eval_ms_p95": (_pct(eval_ms, 95), "ms"),
        "nsga2.self_s": (self_s, "s"),
        "kernel.prepare_states_s": (sum(_dur(s) for s in preps), "s"),
        "kernel.overlap_s": (overlap_s, "s"),
        "kernel.rows_prepared": (sum(s[ATTRS]["rows"] for s in preps), "count"),
        "kernel.amp_updates": (amp_updates, "count"),
        "kernel.bytes_moved_computed": (amp_updates * AMPLITUDE_BYTES, "B"),
        "kernel.share": (_ratio(kernel_s, evolve_s), "share"),
        "svm.train_s": (train_s, "s"),
        "svm.train_calls": (len(duals), "count"),
        "svm.rows_per_call_mean": (_mean(s[ATTRS]["rows"] for s in duals), "rows"),
        "svm.train_ms_p50": (_pct(train_ms, 50), "ms"),
        "svm.train_ms_p95": (_pct(train_ms, 95), "ms"),
        "svm.support_share": (_mean(s[ATTRS]["support"] / s[ATTRS]["rows"] for s in duals),
                              "share"),
        "svm.bound_share": (_mean(s[ATTRS]["bound"] / s[ATTRS]["rows"] for s in duals),
                            "share"),
        "svm.dual_objective_mean": (_mean(s[ATTRS]["dual"] for s in duals), "value"),
        "svm.predict_s": (predict_s, "s"),
        "svm.share": (_ratio(train_s + predict_s, evolve_s), "share"),
        "separability.compute_s": (sum(_dur(s) for s in _named(
            spans, "separability.compute_indexes")), "s"),
        "report.scan_s": (sum(_dur(s) for s in _named(spans, "report.scan_runs")), "s"),
        "report.runs": (sum(s[ATTRS]["runs"] for s in _named(spans, "report.scan_runs")),
                        "count"),
        "cli.self_s": (cli_self, "s"),
        "data.load_s": (sum(_dur(s) for s in _named(spans, "data.load_csv")), "s"),
        "data.split_s": (sum(_dur(s) for s in _outer(
            spans, {"data.make_split", "data.split"}, by_id)), "s"),
        "trace.overhead_share": (_ratio(traced_wall_s, untraced_wall_s) - 1.0, "share"),
    }

    extras = {"evolve_s": evolve_s, "tails": {}, "repeat_share_by_qubits": {}}
    for name, values in (("nsga2.eval_ms", eval_ms), ("svm.train_ms", train_ms)):
        pct = tail_percentile(len(values))
        extras["tails"][name] = {"n": len(values), "pct": pct,
                                 "value": None if pct is None else percentile(values, pct)}
    by_size = defaultdict(list)
    for s in evals:
        by_size[s[ATTRS]["n_qubits"]].append(s[ATTRS]["repeat"])
    extras["repeat_share_by_qubits"] = {n: sum(v) / len(v) for n, v in sorted(by_size.items())}
    return metrics, extras


def missing_spans(spans, expected) -> list[str]:
    """Wrapped functions the workload should reach but that recorded no span."""
    seen = {s[NAME] for s in spans}
    return sorted(set(expected) - seen)
