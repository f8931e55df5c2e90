"""Arithmetic the benchmark reports with: percentiles, span self time,
hypervolume, the interquartile mean and run-to-run spread.  Pure Python, no qkevo import, so the
tests in ``test_benchmath.py`` pin it down on hand-computed cases.
"""
from __future__ import annotations

import statistics

# Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it; None when even the median lacks them."""
    for pct in TAIL_CANDIDATES:
        if n * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            return pct
    return None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


def hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` and bounded by ``ref``, all objectives
    minimised.  Points not strictly better than ``ref`` on every axis add
    nothing.  Exact, by slicing along the last axis."""
    pts = [tuple(p) for p in points if all(a < r for a, r in zip(p, ref))]
    if not pts:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in pts)
    pts.sort(key=lambda p: p[-1])
    volume = 0.0
    for i, p in enumerate(pts):
        upper = pts[i + 1][-1] if i + 1 < len(pts) else ref[-1]
        if upper > p[-1]:
            volume += hypervolume([q[:-1] for q in pts[:i + 1]], ref[:-1]) * (upper - p[-1])
    return volume


# Reference point beyond the largest circuit on the gate axes, so a front
# point that uses every gate still adds volume.
GATE_MARGIN = 0.1


def front_hypervolume(records, max_local: int, max_cnot: int) -> float:
    """Hypervolume of Pareto records over (accuracy, local gates, CNOT
    gates) as a share of the reference box: accuracy counts down from 1,
    the gate axes are divided by their maxima, and the reference point is
    accuracy 0 at ``1 + GATE_MARGIN`` times the maximal gate counts."""
    points = [(1.0 - r["accuracy"], r["local_gates"] / max_local,
               r["cnot_gates"] / max_cnot if max_cnot else 0.0) for r in records]
    edge = 1.0 + GATE_MARGIN
    return hypervolume(points, (1.0, edge, edge)) / (edge * edge)


def interquartile_mean(values) -> float:
    """Mean of the middle half: the values sorted and a quarter of them
    (rounded down) dropped from each end.  Like the median, one stalled
    round does not move it; unlike the median, it averages the rounds it
    keeps, so it varies less from run to run."""
    data = sorted(values)
    if not data:
        raise ValueError("interquartile mean of no samples")
    cut = len(data) // 4
    return statistics.fmean(data[cut:len(data) - cut])


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
