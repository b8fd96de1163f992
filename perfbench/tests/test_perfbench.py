"""Tests of the benchmark's own code: statistics, span arithmetic,
input determinism, output checks, and a tiny run of every workload."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import gen  # noqa: E402
import results  # noqa: E402
import serve_rw  # noqa: E402
from stats import covered, self_times, tail_percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Metrics that may read 0 on a workload that uses their layer: a
#: counter of sheds, and a difference of two timings.
MAY_BE_ZERO = {"serve.shed", "trace.overhead_frac"}


def layer_map() -> list:
    """(layer metric, workload) rows of the layer map in METRICS.md."""
    with open(os.path.join(BENCH, "METRICS.md")) as handle:
        text = handle.read().split("## Layer map", 1)[1]
    rows = []
    for line in text.splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows.append((cells[0], cells[1]))
    return rows


# -- the percentile chooser --------------------------------------------------

def test_tail_percentile_keeps_target_with_enough_samples():
    values = list(range(1, 1001))  # 1..1000
    q, value = tail_percentile(values, 99)
    assert (q, value) == (99, 990)  # 10 samples beyond


def test_tail_percentile_steps_down_when_short():
    values = list(range(1, 101))  # 100 samples: p99 has 1 beyond
    q, value = tail_percentile(values, 99)
    assert q == 90 and value == 90
    assert len([v for v in values if v > value]) == 10


def test_tail_percentile_highest_admissible_for_odd_sizes():
    values = [float(v) for v in range(33)]
    q, value = tail_percentile(values, 90)
    beyond = len([v for v in values if v > value])
    assert beyond >= 10
    # one whole percentile higher would leave fewer than ten beyond
    assert len(values) - int(-(-(q + 1) * len(values) // 100)) < 10


def test_tail_percentile_falls_back_to_median():
    assert tail_percentile([3.0, 1.0, 2.0], 99) == (50, 2.0)
    with pytest.raises(ValueError):
        tail_percentile([], 90)


# -- self-time arithmetic ------------------------------------------------------

def _span(sid, start, end, parent=None):
    return {"id": sid, "name": f"s{sid}", "start": start, "end": end,
            "parent": parent, "rid": 1}


def test_self_time_subtracts_overlapping_children_once():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1),
             _span(3, 3.0, 6.0, 1)]  # children overlap on [3, 4]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_self_time_with_nested_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 8.0, 1),
             _span(3, 3.0, 5.0, 2), _span(4, 6.0, 7.0, 2)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(4.0)   # only the direct child
    assert selfs[2] == pytest.approx(3.0)   # 6 - (2 + 1)
    assert selfs[3] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == \
        pytest.approx(3.0)
    assert covered([(0.0, 5.0), (1.0, 2.0)], 0.0, 10.0) == \
        pytest.approx(5.0)


# -- generator determinism across hash seeds --------------------------------

_DIGEST = """
import hashlib, itertools, json, sys
sys.path.insert(0, {bench!r})
import gen
state = gen.serve_rw(7, 0.2)
text = json.dumps([
    gen.chase_batch(7, 0.2),
    state,
    list(itertools.islice(gen.serve_reads(7, state["state"]), 200)),
    list(itertools.islice(gen.serve_writes(7, state["state"]), 50)),
    gen.decide_zoo(7),
], sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_generators_are_independent_of_hash_randomisation():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST.format(bench=BENCH)],
            env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_sizes_do_not_depend_on_the_seed():
    a, b = gen.chase_batch(1, 0.1), gen.chase_batch(2, 0.1)
    assert a["facts"] != b["facts"]
    assert a["expect_facts"] == b["expect_facts"]
    assert len(a["battery"]) == len(b["battery"])
    zoo_a, zoo_b = gen.decide_zoo(1), gen.decide_zoo(2)
    assert sorted(p["kind"] for p in zoo_a) == \
        sorted(p["kind"] for p in zoo_b)


# -- output checks -------------------------------------------------------------

def test_chase_batch_check_catches_a_wrong_count():
    import repro

    inputs = gen.chase_batch(5, 0.02)
    inputs["battery"][0]["expect"] += 1
    inputs["expect_facts"] += 1
    out: dict = {}
    child.chase_batch(repro, inputs, out, check_model=True)
    # the fixpoint size once, the first query on every battery pass
    assert len(out["failures"]) == 1 + child.BATTERY_PASSES


class _Report:
    def __init__(self, oblivious, semi, mfa):
        self.oblivious, self.semi_oblivious = oblivious, semi
        self.conditions = {"mfa": mfa}


class _Verdict:
    def __init__(self, terminating):
        self.terminating = terminating


def test_decide_zoo_check_catches_wrong_and_inconsistent_verdicts():
    yes, no = _Verdict(True), _Verdict(False)
    assert child.check_report({"expect": True}, _Report(yes, yes, True)) \
        == ""
    assert child.check_report({"expect": True}, _Report(no, no, False))
    assert child.check_report({"expect": None}, _Report(no, no, True))
    assert child.check_report({"expect": None}, _Report(yes, no, False))
    assert child.check_report({"expect": None}, _Report(None, no, False))


def test_serve_check_catches_stale_and_wrong_reads():
    inputs = gen.serve_rw(3, 0.05)
    state = inputs["state"]
    delta = next(gen.serve_writes(3, state))
    after = json.loads(json.dumps(state))
    facts = gen.apply_write(after, delta)
    read = {"op": "join", "query": "q"}
    loop = {
        "writes": [(delta, facts, 200,
                    {"terminated": True, "watermark": 110,
                     "new_facts": 0}, 0.1, 0)],
        "reads": [
            (read, 200, 100, len(state["dept_of"]), 0.1, "q"),
            (read, 200, 110, len(after["dept_of"]), 0.1, "q"),
            (read, 200, 110, len(state["dept_of"]) + 9, 0.1, "q"),
            (read, 200, 105, len(state["dept_of"]), 0.1, "q"),
            (read, 503, 110, None, 0.1, "q"),
        ],
    }
    run = results.Run("serve_rw")
    acked, _ = serve_rw.check_loop(run, loop, state, 100)
    assert acked == [facts]
    assert len(run.failures) == 3  # wrong count, unknown watermark, 503


# -- the benchmark's declared shape -----------------------------------------

def test_every_layer_metric_has_a_row_in_the_layer_map():
    mapped = {layer for layer, _ in layer_map()}
    assert mapped == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w for _, w in layer_map()} <= set(WORKLOADS) | {"all"}


def test_bounds_are_sane():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- a tiny run of every workload -------------------------------------------

def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "11", "--seconds", "0.5", "--trace",
         str(trace), "--scale", "0.03"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(workload):
    result = _run(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # A wrapper on an import path the program never calls would read 0.
    used = {layer for layer, w in layer_map() if w == workload}
    dead = sorted(name for name in used - MAY_BE_ZERO
                  if not result["metrics"][name]["value"] > 0)
    assert not dead, f"layers that read 0 on {workload}: {dead}"
