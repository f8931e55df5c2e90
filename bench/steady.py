#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 bench/steady.py --workload iris3-ovo --seeds 1-10 --seconds 40

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, which is
the steadiness figure the benchmark's bounds are checked against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmath import quartile_spread

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    series: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent,
                              timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed the check", file=sys.stderr)
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                          for n, m in result["metrics"].items()), flush=True)
    for name, values in series.items():
        med = statistics.median(values)
        spread = quartile_spread(values) if len(values) > 1 and med else float("nan")
        print(f"{name:32s} median {med:12.6g} {units[name]:6s} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
