"""One fresh-process run of a library workload.

Usage: ``python perfbench/child.py WORKLOAD INPUT.json OUTPUT.json
TRACE_FILE|- CHECK_MODEL``.  The parent (:mod:`run`) starts one of these per
sample, with ``src`` on ``PYTHONPATH``, so every sample pays import
and parse exactly as a user's process does.  ``INPUT.json`` holds the
generated text; ``OUTPUT.json`` receives timings, counts and the
result of every output check.  With a trace file, the entry points of
:data:`tracing.POINTS` are wrapped first and the spans are written
there at exit.  ``CHECK_MODEL`` 1 also checks, untimed, that the
chase result is a model of the rules.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

# A sample has a fixed number of steps; no chase here stops on it.
MAX_STEPS = 10 ** 9
#: Passes over the chase_batch battery per sample: the first builds the
#: plans, the others run warm; several passes per sample give each
#: query's median enough values in a run of a few samples.
BATTERY_PASSES = 3


def chase_batch(repro, inputs: dict, out: dict, check_model: bool) -> None:
    rules = repro.parse_program(inputs["rules"])
    database = repro.parse_database(inputs["facts"])
    queries = [repro.parse_query(item["query"])
               for item in inputs["battery"]]
    out["ready"] = time.monotonic()
    start = time.perf_counter()
    result = repro.run_chase(database, rules, max_steps=MAX_STEPS)
    out["chase_s"] = time.perf_counter() - start
    out["facts"] = len(result.instance)
    out["derived"] = len(result.instance) - len(database)
    out["triggers"] = result.step_count
    failures = []
    if not result.terminated:
        failures.append(f"chase stopped: {result.stop_reason}")
    if out["facts"] != inputs["expect_facts"]:
        failures.append(
            f"{out['facts']} facts at fixpoint, expected "
            f"{inputs['expect_facts']}")
    latencies = []
    answers = 0
    instance = result.instance
    # A full collection rescans the chase's ~1.7M new objects (about
    # 0.5 s) and lands on whichever battery query trips it: on one query
    # in one sample and on none in the next.  Collect here, untimed, and
    # freeze what survives, so a collection during the battery costs
    # what the battery itself allocated.
    gc.collect()
    gc.freeze()
    for _ in range(BATTERY_PASSES):
        for item, query in zip(inputs["battery"], queries):
            start = time.perf_counter()
            if item["boolean"]:
                got = query.holds_in(instance)
            else:
                got = query.certain_answers(instance)
            latencies.append(time.perf_counter() - start)
            if not item["boolean"]:
                answers += len(got)
                got = len(got)
            if got != item["expect"]:
                failures.append(
                    f"{item['query']}: got {got}, expected {item['expect']}")
    out["latencies"] = latencies
    out["battery_size"] = len(queries)
    out["answers"] = answers
    out["attempted"] = 1 + len(latencies)
    if check_model and not result.satisfies(rules):
        failures.append("the chase result is not a model of the rules")
    out["failures"] = failures


def decide_zoo(repro, inputs: dict, out: dict, check_model: bool) -> None:
    import repro.termination as termination

    programs = [(item, repro.parse_program(item["rules"]))
                for item in inputs["programs"]]
    out["ready"] = time.monotonic()
    latencies = []
    failures = []
    types = joins = 0
    for item, rules in programs:
        start = time.perf_counter()
        report = termination.termination_report(rules)
        latencies.append(time.perf_counter() - start)
        problem = check_report(item, report)
        if problem:
            failures.append(f"{item['name']}: {problem}")
        for verdict in (report.oblivious, report.semi_oblivious):
            if verdict is not None:
                types += verdict.stats.get("types", 0)
                joins += verdict.stats.get("pattern_joins", 0)
    out["latencies"] = latencies
    out["attempted"] = len(latencies)
    out["failures"] = failures
    out["types"] = types
    out["pattern_joins"] = joins


def check_report(item: dict, report) -> str:
    """Why ``report`` is wrong for ``item``, or ``""``.

    Every zoo program is guarded, so both exact verdicts must exist;
    a family with a known label must get it from both; an MFA "yes"
    must imply semi-oblivious termination, and so must oblivious
    termination."""
    oblivious, semi = report.oblivious, report.semi_oblivious
    if oblivious is None or semi is None:
        return "no exact verdict for a guarded program"
    expect = item["expect"]
    if expect is not None and (
        oblivious.terminating != expect or semi.terminating != expect
    ):
        return (f"verdicts o={oblivious.terminating} "
                f"so={semi.terminating}, expected {expect}")
    if report.conditions.get("mfa") and not semi.terminating:
        return "MFA holds but the semi-oblivious verdict diverges"
    if oblivious.terminating and not semi.terminating:
        return "oblivious terminates but semi-oblivious diverges"
    return ""


def main(argv) -> int:
    workload, input_path, output_path, trace_path, check_model = argv
    import repro

    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(workload)
    with open(input_path) as handle:
        inputs = json.load(handle)
    out: dict = {}
    {"chase_batch": chase_batch, "decide_zoo": decide_zoo}[workload](
        repro, inputs, out, check_model == "1")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.dump(trace_path)
    with open(output_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
