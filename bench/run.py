#!/usr/bin/env python3
"""qkevo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload iris3-ovo --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; qkevo is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs each round untraced and then traced, and reports the
per-layer metrics from the traced spans.  Every round's outputs are
checked outside the timed region.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full record
(environment, rounds, digests, spans) goes to ``bench/out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Probe, Tracer, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
# Rounds run until ``--seconds`` have passed, but at least this many, so the
# interquartile mean has a middle half to average.
MIN_ROUNDS = 4
MAX_ROUNDS = 500
SETUP_TIMEOUT_S = 60
# One BLAS thread and one worker process: together at most nproc (2).
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it (internal)")
    return p.parse_args(argv)


def _bootstrap() -> None:
    if not (SRC / "qkevo" / "__init__.py").is_file():
        sys.exit(f"bench: no qkevo package under {SRC}; run from a source checkout")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def _setup_only(args) -> int:
    start = time.perf_counter()
    import qkevo  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _time_setup(args) -> float:
    """One set-up timed in a fresh interpreter, so the qkevo import is cold."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(start: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine since ``start``."""
    end = _cpu_times()
    if start is None or end is None or len(end) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _environment(code: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": _git_commit(),
        "source_sha256": code,
    }


def _median(values) -> float:
    """Median, or 0 when every round failed and nothing was measured."""
    return statistics.median(values) if values else 0.0


def _round_mean(values) -> float:
    """Interquartile mean over rounds, or 0 when nothing was measured."""
    from benchmath import interquartile_mean
    return interquartile_mean(values) if values else 0.0


class Pass:
    """One untraced or traced sweep over the rounds, with each round's wall
    time and evolve throughput (genomes scored per second of evolve)."""

    def __init__(self, probe, label: str):
        self.probe = probe
        self.label = label
        self.walls: list[float] = []
        self.cpu: list[float] = []
        self.rates: list[float] = []

    def run(self, workload, ctx, r: int, out_dir: Path) -> None:
        scored, evolve_s = self.probe.genomes_scored, self.probe.evolve_s
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with instrument(self.probe):
                workload.run_round(ctx, r, out_dir)
        finally:
            self.walls.append(time.perf_counter() - start)
            self.cpu.append(time.process_time() - cpu)
            spent = self.probe.evolve_s - evolve_s
            if spent > 0:
                self.rates.append((self.probe.genomes_scored - scored) / spent)


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    if args.setup_only:
        return _setup_only(args)

    import qkevo
    if Path(qkevo.__file__).resolve().parent != (SRC / "qkevo").resolve():
        sys.exit(f"bench: imported qkevo from {qkevo.__file__}, not {SRC}")
    import checks
    import layers
    from benchmath import front_hypervolume
    from qkevo.report import best_pareto_record
    from workloads import WORKLOADS, gate_maxima

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    # Digests belong to the program and the benchmark's workload definitions.
    code = checks.source_digest(SRC / "qkevo") + checks.source_digest(BENCH)
    env = _environment(code)
    print(json.dumps({"bench_env": env}), file=sys.stderr)
    digests = checks.DigestStore(OUT / "digests.json", code)

    steal_at_start = _cpu_times()
    tracer = Tracer() if traced else None
    passes = [Pass(Probe(), "untraced")] + ([Pass(Probe(tracer), "traced")] if traced else [])
    if traced:
        with instrument(passes[1].probe):
            ctx = workload.setup(args.seed)
    else:
        ctx = workload.setup(args.seed)

    problems: list[str] = []
    runs_checked = runs_failed = 0
    best_acc, hypervolumes, round_log, setup_times = [], [], [], []
    # A closed loop for --seconds: round r's inputs depend only on the seed
    # and r, so a faster program runs more rounds of the same sequence.
    # Traced runs spend the time on untraced and traced passes alike.
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MAX_ROUNDS and (rounds < MIN_ROUNDS or time.perf_counter() < deadline):
        r, rounds = rounds, rounds + 1
        # Set-up samples are spread over the run, so one slow spell of the
        # machine does not hold all of them.
        if not traced and len(setup_times) < SETUP_REPEATS:
            setup_times.append(_time_setup(args))
        workload.prepare_round(ctx, r)
        # Alternate which pass goes first, so warm-up favours neither.
        for ps in (passes if r % 2 == 0 else passes[::-1]):
            out_dir = work / ps.label / f"round{r}"
            try:
                ps.run(workload, ctx, r, out_dir)
            except Exception:  # the program failed this round: report, keep going
                runs_checked += 1
                runs_failed += 1
                problems.append(f"{ps.label} round {r}: {traceback.format_exc(limit=3)}")
                continue

            round_problems = workload.check_round(out_dir)
            for out in workload.outputs(ctx, r, out_dir):
                found, records, digest = checks.check_run(out.pareto_path, out.split,
                                                          out.n_qubits)
                found += digests.check(f"{workload.name}:{args.seed}:{r}:{out.label}", digest)
                runs_checked += 1
                runs_failed += bool(found)
                problems += [f"{ps.label} {out.label}: {p}" for p in found]
                entry = {"pass": ps.label, "round": r, "run": out.label,
                         "pareto_sha256": digest, "problems": found}
                if records:
                    entry["best_accuracy"] = best_pareto_record(records)["accuracy"]
                    entry["hypervolume"] = front_hypervolume(records,
                                                             *gate_maxima(out.n_qubits))
                if ps.label == "untraced" and records:
                    best_acc.append(entry["best_accuracy"])
                    hypervolumes.append(entry["hypervolume"])
                round_log.append(entry)
            if round_problems:
                runs_checked += 1
                runs_failed += 1
                problems += [f"{ps.label}: {p}" for p in round_problems]
    digests.save()
    env["seeds"] = {"workload": args.seed,
                    "rounds": [workload.seeds(args.seed, r) for r in range(rounds)]}
    while not traced and len(setup_times) < SETUP_REPEATS:
        setup_times.append(_time_setup(args))

    evals = sum(ps.probe.evals for ps in passes)
    demoted = sum(ps.probe.demoted for ps in passes)
    attempted = evals + runs_checked
    failed = demoted + runs_failed
    untraced = passes[0]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "env": env,
              "walls": {ps.label: ps.walls for ps in passes},
              "rates": {ps.label: ps.rates for ps in passes},
              "cpu_s": {ps.label: ps.cpu for ps in passes},
              "steal_share": _steal_share(steal_at_start),
              "setup_s_samples": setup_times, "runs": round_log, "problems": problems,
              "evolve_runs": untraced.probe.evolve_runs}

    if traced:
        untraced_wall, traced_wall = sum(untraced.walls), sum(passes[1].walls)
        values, extras = layers.layer_metrics(tracer.spans, untraced_wall, traced_wall)
        missing = layers.missing_spans(tracer.spans, workload.expected_spans)
        lost = workload.property_problems(values, extras)
        record.update(extras=extras, missing_spans=missing, properties_lost=lost,
                      spans=tracer.spans)
        if missing:
            problems.append(f"wrapped functions recorded no span: {missing}")
        if lost:
            problems.append(f"workload lost its defining property: {lost}")
    else:
        values = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_round_mean(untraced.walls), "s"),
            "evals_per_s": (_round_mean(untraced.rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "best_accuracy": (statistics.fmean(best_acc) if best_acc else 0.0, "share"),
            "front_hypervolume": (_median(hypervolumes), "share"),
            "ok_share": (1.0 - failed / attempted, "share"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    record["metrics"] = metrics
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    if traced and (record["missing_spans"] or record["properties_lost"]):
        print("bench: coverage or workload-property check failed", file=sys.stderr)
        return 3
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
