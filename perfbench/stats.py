"""Summary statistics and span arithmetic for the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``sorted_values`` by nearest rank."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: Sequence[float], target: int) -> Tuple[int, float]:
    """``(q, value)``: the highest whole percentile ``q <= target`` that
    still has at least :data:`TAIL_MIN_BEYOND` samples beyond it.  With
    too few samples for any such ``q`` above the median, the median."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    for q in range(target, 50, -1):
        if n - math.ceil(q / 100.0 * n) >= TAIL_MIN_BEYOND:
            return q, nearest_rank(ordered, q)
    return 50, statistics.median(ordered)


def covered(intervals: Sequence[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of it
    that its direct children cover.  Children may overlap each other
    (their union is subtracted once) and nest (a grandchild lies
    inside its parent, which is already subtracted)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) - covered(
            children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
