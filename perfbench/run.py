"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chase_batch|serve_rw|decide_zoo \\
        --seed N --seconds S --trace 0|1 [--scale F]

The program under test is ``src/repro`` of the same checkout, driven
the way its users drive it: ``chase_batch`` and ``decide_zoo`` through
the public library API in a fresh process per sample (``child.py``),
``serve_rw`` through a real ``python -m repro serve`` process.  No
kernel, planner or scheduler knob is set.  Every output is checked;
a wrong one counts as failed and makes the command exit 1.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans
around each layer's entry points (``tracing.py``) and prints every
per-layer metric.  Human-readable lines come first, each metric by
name with its unit; the last line is one JSON object.  ``METRICS.md``
says what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from results import Run, emit_e2e, emit_layers  # noqa: E402
from stats import self_times, tail_percentile  # noqa: E402


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def filesystem_of(path: str) -> str:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        ) and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def environment(workdir: str) -> dict:
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": has_numpy,
        "store_fs": filesystem_of(workdir),
    }


# -- library workloads: one fresh process per sample -------------------------

def library_samples(run: Run, inputs: dict, seconds: float, workdir: str,
                    traced: bool, minimum: int) -> list:
    """Run ``child.py`` back to back for ``seconds`` (at least
    ``minimum`` times); returns the samples' outputs."""
    tag = "traced" if traced else "plain"
    input_path = os.path.join(workdir, "input.json")
    if not os.path.exists(input_path):
        with open(input_path, "w") as handle:
            json.dump(inputs, handle)
    samples = []
    began = time.perf_counter()
    while len(samples) < minimum or time.perf_counter() - began < seconds:
        index = len(samples)
        output = os.path.join(workdir, f"{tag}{index}.out.json")
        trace = os.path.join(workdir, f"{tag}{index}.spans.json") \
            if traced else "-"
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                run.workload, input_path, output, trace,
                "1" if index == 0 else "0"]
        spawned = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=program_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=170,
                              text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{run.workload} sample failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")
        with open(output) as handle:
            sample = json.load(handle)
        sample["setup_s"] = sample["ready"] - spawned
        if traced:
            with open(trace) as handle:
                sample["trace"] = json.load(handle)
        run.attempted += sample["attempted"]
        for failure in sample["failures"]:
            run.fail(failure)
        samples.append(sample)
    return samples


def _common_e2e(samples: list, latencies: list) -> dict:
    """Set-up and memory over the samples, and operation latency."""
    q, tail = tail_percentile(latencies, 90)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "_tail_q": q, "_n": len(latencies), "_busy_s": sum(latencies),
    }


def chase_batch_e2e(samples: list) -> dict:
    # Each query's latency is its median over every pass of every
    # sample, so a collection that lands on one pass does not move it.
    size = samples[0]["battery_size"]
    per_query = [statistics.median(t for s in samples
                                   for t in s["latencies"][q::size])
                 for q in range(size)]
    values = _common_e2e(samples, per_query)
    # The battery rate, not the chase rate: batch_ms already carries the
    # chase, and the fat joins sit above the latency tail.
    values["throughput_per_s"] = size / values["_busy_s"]
    values["batch_ms"] = statistics.median(
        s["chase_s"] for s in samples) * 1e3
    return values


def decide_zoo_e2e(samples: list) -> dict:
    values = _common_e2e(samples, [x for s in samples
                                   for x in s["latencies"]])
    values["throughput_per_s"] = values["_n"] / values["_busy_s"]
    values["batch_ms"] = statistics.median(
        sum(s["latencies"]) for s in samples) * 1e3
    return values


def _spans_by_name(trace: dict) -> dict:
    selfs = self_times(trace["spans"])
    total: dict = {}
    own: dict = {}
    for span in trace["spans"]:
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
    return {"total": total, "self": own}


def chase_batch_layers(samples: list) -> dict:
    """Per-sample layer totals, median over the traced samples."""
    rows = []
    for sample in samples:
        trace = sample["trace"]
        spans = _spans_by_name(trace)["total"]
        queries = [s for s in trace["spans"] if s["name"].startswith("query.")]
        builds = sum(s["extra"][0] for s in queries)
        hits = sum(s["extra"][1] for s in queries)
        rows.append({
            "parser.parse_s": sum(v for k, v in spans.items()
                                  if k.startswith("parser.")),
            "chase.run_s": spans.get("chase.run_chase", 0.0),
            "chase.rounds": trace["counters"].get("chase.rounds", 0),
            "chase.triggers_fired": sample["triggers"],
            "chase.facts_per_trigger": sample["derived"] / sample["triggers"],
            "query.eval_s": sum(v for k, v in spans.items()
                                if k.startswith("query.")),
            "query.plan_builds": builds,
            "query.plan_hit_ratio": hits / max(1, builds + hits),
            "query.answers": sample["answers"],
        })
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def decide_zoo_layers(samples: list) -> dict:
    rows = []
    for sample in samples:
        spans = _spans_by_name(sample["trace"])

        def total(prefix, spans=spans):
            return sum(v for k, v in spans["total"].items()
                       if k.startswith(prefix))

        rows.append({
            "parser.parse_s": total("parser."),
            "classes.classify_s": total("classes."),
            "graphs.acyclicity_s": total("graphs."),
            "termination.mfa_s": total("termination.is_mfa"),
            "termination.decide_s": spans["self"].get(
                "termination.decide", 0.0),
            "termination.saturate_s": total("termination.saturate"),
            "termination.types": sample["types"],
            "termination.pattern_joins": sample["pattern_joins"],
        })
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def run_library(run: Run, args, workdir: str) -> None:
    if run.workload == "chase_batch":
        inputs = gen.chase_batch(args.seed, args.scale)
        e2e, layers = chase_batch_e2e, chase_batch_layers
    else:
        inputs = {"programs": gen.decide_zoo(args.seed, args.scale)}
        e2e, layers = decide_zoo_e2e, decide_zoo_layers
    if args.trace:
        plain = e2e(library_samples(run, inputs, args.seconds / 2, workdir,
                                    False, 2))
        samples = library_samples(run, inputs, args.seconds / 2, workdir,
                                  True, 2)
        traced = e2e(samples)
        values = layers(samples)
        values["trace.overhead_frac"] = (
            traced["op_p50_ms"] / plain["op_p50_ms"] - 1.0)
        emit_layers(run, values)
        return
    samples = library_samples(run, inputs, args.seconds, workdir, False, 3)
    values = e2e(samples)
    emit_e2e(run, values, len(samples))
    if run.workload == "chase_batch":
        passes = sum(len(s["latencies"]) for s in samples) // values["_n"]
        run.note("chase_facts_per_s", statistics.median(
            s["derived"] / s["chase_s"] for s in samples), "facts/s",
            f"median of {len(samples)} chases")
        run.note("battery_queries_per_s", values["throughput_per_s"],
                 "queries/s", f"per-query medians of {passes} passes")


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chase_batch", "serve_rw", "decide_zoo"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (1.0 is the benchmark; "
                             "smaller sizes are for smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is missing: no {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run(args.workload)
    try:
        env = environment(workdir)
        print(f"% {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} scale={args.scale} "
              + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
        if args.workload == "serve_rw":
            import serve_rw

            serve_rw.run(run, args, workdir, program_env(), ROOT)
        else:
            run_library(run, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    failed = min(len(run.failures), run.attempted)
    for failure in run.failures[:20]:
        print(f"WRONG: {failure}", file=sys.stderr)
    run.note("failed_frac", failed / max(1, run.attempted), "fraction",
             f"{failed} of {run.attempted}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": run.metrics,
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
