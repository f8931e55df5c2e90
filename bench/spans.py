"""Spans and counters recorded from outside qkevo, at its public functions.

qkevo modules import each other's functions by value (``from .kernel
import quantum_gram``), so a wrapper must replace the function in every
loaded ``qkevo`` module that holds it, not only in the defining one.
:func:`instrument` does that and restores the originals on exit.

Two levels exist.  ``Probe`` alone counts what the end-to-end metrics
need (evaluator calls, demoted evaluations, evolve time, genomes scored)
and records no spans; it stays on for untraced runs.  With a ``Tracer``
every wrapped call also records a span: name, start, end, parent and the
id of the genome evaluation it belongs to.  Spans stay in memory until
the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, public function) pairs wrapped by a traced run.  ``svm_evaluator``
# and ``evolve`` are also wrapped untraced, by the probe.
TRACED = (
    ("qkevo.data", "load_csv"), ("qkevo.data", "subset_features"),
    ("qkevo.data", "minmax_scale"), ("qkevo.data", "make_split"),
    ("qkevo.data", "split"), ("qkevo.data", "sample_feature_combos"),
    ("qkevo.featuremap", "decode"), ("qkevo.featuremap", "gate_counts"),
    ("qkevo.kernel", "prepare_states"), ("qkevo.kernel", "quantum_gram"),
    ("qkevo.kernel", "quantum_cross"),
    ("qkevo.svm", "train_dual"), ("qkevo.svm", "train_multiclass"),
    ("qkevo.svm", "predict"), ("qkevo.svm", "predict_multiclass"),
    ("qkevo.svm", "decision_values"), ("qkevo.svm", "accuracy"),
    ("qkevo.nsga2", "fast_nondominated_sort"), ("qkevo.nsga2", "crowding_distance"),
    ("qkevo.separability", "compute_indexes"),
    ("qkevo.report", "scan_runs"), ("qkevo.report", "load_run"),
    ("qkevo.report", "best_pareto_record"), ("qkevo.report", "correlation_rows"),
    ("qkevo.report", "gate_means"),
    ("qkevo.cli", "main"), ("qkevo.cli", "cmd_evolve"), ("qkevo.cli", "cmd_report"),
)

# Alphas this close to C count as bound (matches qkevo.svm's support cut).
BOUND_EPS = 1e-8


def span_name(module: str, func: str) -> str:
    return f"{module.split('.', 1)[1]}.{func}"


def template_key(template) -> tuple:
    """Decoded circuit identity: the axis only matters when some rotation
    flag is set (``decode`` already maps axis codes 10 and 11 to Z)."""
    axis = template.rotation_axis if any(template.rotation_enabled) else "-"
    return (template.n_qubits, template.rotation_enabled, axis,
            template.entangle_pairs, template.depth)


class Tracer:
    """In-memory span store.  A span is the list
    ``[id, name, start_s, end_s, parent_id, eval_id, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._eval_id: int | None = None
        self._next_eval = 0
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._stack[-1][0] if self._stack else None
        record = [len(self.spans), name, 0.0, 0.0, parent, self._eval_id, attrs or {}]
        self.spans.append(record)
        self._stack.append(record)
        record[2] = time.perf_counter() - self._t0
        try:
            yield record
        finally:
            record[3] = time.perf_counter() - self._t0
            self._stack.pop()

    @contextlib.contextmanager
    def evaluation(self, attrs: dict):
        """Span of one genome evaluation; nested spans share its id."""
        self._eval_id = self._next_eval
        self._next_eval += 1
        try:
            with self.span("nsga2.eval", attrs) as record:
                yield record
        finally:
            self._eval_id = None


class Probe:
    """Counters at the evaluator and evolve boundaries, plus an optional
    tracer.  One probe serves one benchmark pass."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.evals = 0
        self.demoted = 0
        self.evolve_s = 0.0
        self.genomes_scored = 0
        self.evolve_runs: list[dict] = []


def _replace_everywhere(original, replacement) -> list[tuple[object, str]]:
    hits = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qkevo" or name.startswith("qkevo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits.append((module, attr))
    return hits


def _plain_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _prepare_states_wrapper(tracer: Tracer, fn, gate_counts):
    @functools.wraps(fn)
    def wrapper(template, X):
        with tracer.span("kernel.prepare_states") as record:
            states = fn(template, X)
        counts = gate_counts(template)
        record[6].update(rows=int(states.shape[0]), n_qubits=template.n_qubits,
                         gates=counts.local + counts.cnot)
        return states
    return wrapper


def _train_dual_wrapper(tracer: Tracer, fn, dual_objective):
    @functools.wraps(fn)
    def wrapper(gram, y, config=None):
        with tracer.span("svm.train_dual") as record:
            model = fn(gram, y, config)
        # Outside the span: model statistics are tracing work, not training.
        alphas = model.alphas
        record[6].update(
            rows=int(alphas.size),
            support=int(model.support_indices.size),
            bound=int((alphas >= model.regularization - BOUND_EPS).sum()),
            dual=dual_objective(alphas, gram, y))
        return model
    return wrapper


def _scan_runs_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(runs_dir):
        with tracer.span("report.scan_runs") as record:
            records, warnings = fn(runs_dir)
        record[6]["runs"] = len(records)
        return records, warnings
    return wrapper


def _evaluator_factory_wrapper(probe: Probe, fn, decode, evaluation_error):
    """Wraps ``svm_evaluator`` so every evaluator it builds counts its calls
    and demotions, and under a tracer opens one span per evaluation keyed by
    genome and by decoded circuit."""
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        evaluate = fn(*args, **kwargs)
        tracer = probe.tracer
        seen_genomes: set[str] = set()
        seen_templates: set[tuple] = set()

        def counted(genome):
            probe.evals += 1
            span = contextlib.nullcontext()
            if tracer is not None:
                bits = genome.to_string()
                key = template_key(decode(genome))
                span = tracer.evaluation({"n_qubits": genome.n_qubits,
                                          "repeat": bits in seen_genomes,
                                          "template_repeat": key in seen_templates})
                seen_genomes.add(bits)
                seen_templates.add(key)
            with span:
                try:
                    return evaluate(genome)
                except evaluation_error:
                    probe.demoted += 1
                    raise
        return counted
    return factory


def _evolve_wrapper(probe: Probe, fn):
    @functools.wraps(fn)
    def wrapper(config, evaluator):
        tracer = probe.tracer
        start = time.perf_counter()
        if tracer is None:
            result = fn(config, evaluator)
        else:
            with tracer.span("nsga2.evolve", {"n_qubits": config.n_qubits}):
                result = fn(config, evaluator)
        elapsed = time.perf_counter() - start
        scored = config.population_size * len(result.history)
        probe.evolve_s += elapsed
        probe.genomes_scored += scored
        probe.evolve_runs.append({"n_qubits": config.n_qubits, "evolve_s": elapsed,
                                  "genomes_scored": scored})
        return result
    return wrapper


@contextlib.contextmanager
def instrument(probe: Probe):
    """Install the probe's wrappers in every qkevo module for the duration
    of the block; with a tracer, wrap every function in ``TRACED`` too."""
    import qkevo  # noqa: F401  (loads every submodule the wrappers patch)
    import qkevo.cli  # noqa: F401
    from qkevo.errors import EvaluationError
    from qkevo.featuremap import decode, gate_counts
    from qkevo.nsga2 import evolve, svm_evaluator
    from qkevo.svm import dual_objective

    replacements = [
        (svm_evaluator, _evaluator_factory_wrapper(probe, svm_evaluator, decode,
                                                   EvaluationError)),
        (evolve, _evolve_wrapper(probe, evolve)),
    ]
    tracer = probe.tracer
    if tracer is not None:
        for module_name, func in TRACED:
            fn = getattr(importlib.import_module(module_name), func)
            name = span_name(module_name, func)
            if name == "kernel.prepare_states":
                wrapped = _prepare_states_wrapper(tracer, fn, gate_counts)
            elif name == "svm.train_dual":
                wrapped = _train_dual_wrapper(tracer, fn, dual_objective)
            elif name == "report.scan_runs":
                wrapped = _scan_runs_wrapper(tracer, fn)
            else:
                wrapped = _plain_wrapper(tracer, name, fn)
            replacements.append((fn, wrapped))
    undo = []
    try:
        for original, wrapped in replacements:
            undo.extend((module, attr, original)
                        for module, attr in _replace_everywhere(original, wrapped))
        yield probe
    finally:
        for module, attr, original in undo:
            setattr(module, attr, original)
