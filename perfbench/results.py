"""How a run's outcome is collected and printed."""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark() -> dict:
    """``BENCHMARK.json``: the metric names and units every run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Run:
    """Accumulates one run's outcome: printed lines, counts, metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list = []
        self.metrics: dict = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, name: str, value, unit: str, extra: str = "") -> None:
        """Print one metric line (also for the named metrics that
        ``BENCHMARK.json`` does not gate; see ``METRICS.md``)."""
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{self.workload:12s} {name:28s} {text:>14s} {unit:9s} "
              f"{extra}".rstrip(), flush=True)

    def metric(self, name: str, value: float, unit: str,
               extra: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.note(name, value, unit, extra)


def emit_e2e(run: Run, values: dict, samples: int) -> None:
    """Every end-to-end metric of ``BENCHMARK.json``, from ``values``."""
    n, q = values["_n"], values["_tail_q"]
    extra = {"setup_s": f"median of {samples}", "op_p50_ms": f"p50 n={n}",
             "op_tail_ms": f"p{q} n={n}",
             "batch_ms": values.get("_batch_note", "")}
    for metric in benchmark()["end_to_end"]:
        name = metric["name"]
        run.metric(name, values[name], metric["unit"], extra.get(name, ""))
    if run.workload == "decide_zoo":
        run.note("decide_p50_ms", values["op_p50_ms"], "ms", f"n={n}")
        run.note(f"decide_p{q}_ms", values["op_tail_ms"], "ms", f"n={n}")


def emit_layers(run: Run, values: dict) -> None:
    """Every per-layer metric of ``BENCHMARK.json``; a layer the
    workload does not use reads 0."""
    for metric in benchmark()["per_layer"]:
        name = metric["name"]
        run.metric(name, float(values.get(name, 0.0)), metric["unit"])
