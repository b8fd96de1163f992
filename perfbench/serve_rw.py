"""The ``serve_rw`` workload: a real ``repro serve`` process under a
closed-loop reader and writer.

One run starts the server on a generated resident (``--save`` into the
run's directory, so every ingest pays the write-ahead journal and the
round checkpoints), drives it for ``--seconds`` with two client
connections of fixed roles, then checks every answer:

* each read against the closed-form answer at the watermark it saw
  (every publish happens at an ingest boundary, and the writer's acks
  name each boundary's watermark);
* each ingest ack for ``terminated: true`` and the predicted number of
  new facts;
* the final answers against an untimed in-process chase of the base
  facts plus every acked delta;
* after SIGTERM (exit 0), a restart from ``--db DIR`` that must still
  entail every acked delta's facts.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import gen
from results import emit_e2e, emit_layers
from stats import self_times, tail_percentile

# The serve CLI's default 10 000-step cap would silently stop this
# resident on a budget; every leg here must reach its fixpoint.
MAX_STEPS = 10 ** 9
READY_TIMEOUT_S = 150
REQUEST_TIMEOUT_S = 60
SETUP_STARTS = 3

HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One server process: start, wait for readiness, stop."""

    def __init__(self, argv, env, cwd, log_path):
        self.log = open(log_path, "w")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        killer = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            self.port = None
            for line in self.proc.stdout:
                if line.startswith("% serving on"):
                    self.setup_s = time.monotonic() - spawned
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            killer.cancel()
        if self.port is None:
            self.proc.wait()
            self.log.close()
            raise SystemExit(
                f"server did not start (exit {self.proc.returncode}); "
                f"see {log_path}")
        self._drain = threading.Thread(
            target=lambda: self.proc.stdout.read(), daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> int:
        """SIGTERM, wait, return the exit code (idempotent)."""
        if self.log.closed:
            return self.proc.returncode
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._drain.join(timeout=10)
        self.log.close()
        return code


class Client:
    """One connection role.  The server closes each connection after
    its response, so ``http.client`` reconnects per request."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def post(self, path: str, payload: dict):
        """``(status, body, seconds)``; the time covers send to the
        last body byte, not the JSON decode."""
        body = json.dumps(payload)
        start = time.perf_counter()
        try:
            self.conn.request("POST", path, body=body, headers={
                "Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return 0, {"error": str(exc)}, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            return status, json.loads(raw), elapsed
        except ValueError:
            return status, {"error": "unparsable body"}, elapsed

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _read_request(read: dict):
    if read["op"] == "entail":
        return "/entail", {"atom": read["atom"]}
    return "/query", {"query": read["query"], "certain": True}


def _read_outcome(read: dict, body: dict):
    """What to keep from a read's response for the later check."""
    if read["op"] == "entail":
        return body.get("entailed")
    if read["op"] == "bool":
        return body.get("boolean")
    if read["op"] == "point":
        return sorted(body.get("answers", ()))
    return body.get("count")


def drive(port: int, seed: int, seconds: float, base_state: dict) -> dict:
    """The closed loop: one reader, one writer, ``seconds`` long."""
    stop = threading.Event()
    reads_log: list = []
    writes_log: list = []
    writer_state = copy.deepcopy(base_state)

    def reader():
        client = Client(port)
        for read in gen.serve_reads(seed, base_state):
            if stop.is_set():
                break
            path, payload = _read_request(read)
            status, body, elapsed = client.post(path, payload)
            reads_log.append((read, status, body.get("watermark"),
                              _read_outcome(read, body), elapsed,
                              payload.get("query") or payload["atom"]))
            if not status:  # the server is gone
                break
        client.close()

    def writer():
        client = Client(port)
        deltas = gen.serve_writes(seed, base_state)
        for index, delta in enumerate(deltas):
            if stop.is_set():
                break
            before = list(writer_state["lengths"])
            facts = gen.apply_write(writer_state, delta)
            expect_new = sum(
                5 if item["kind"] == "emp"
                else before[item["chain"]] + 2 for item in delta)
            status, body, elapsed = client.post("/facts", {
                "facts": "\n".join(facts),
                "ingest_id": f"bench-{seed}-{index}"})
            writes_log.append((delta, facts, status, body, elapsed,
                               expect_new))
            if not status:
                break
        client.close()

    threads = [threading.Thread(target=reader), threading.Thread(
        target=writer)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * 2)
    return {"reads": reads_log, "writes": writes_log,
            "elapsed": time.perf_counter() - began}


def check_loop(run, loop: dict, base_state: dict, start_watermark: int):
    """Check every read at the state its watermark names and every ack.
    Returns the acked deltas' fact text."""
    states = {start_watermark: copy.deepcopy(base_state)}
    state = copy.deepcopy(base_state)
    acked = []
    for delta, facts, status, body, _, expect_new in loop["writes"]:
        if status != 200:
            run.fail(f"ingest {facts}: HTTP {status} {body}")
            continue
        if body.get("terminated") is not True:
            run.fail(f"ingest {facts} did not reach a fixpoint: {body}")
        if body.get("new_facts") != expect_new:
            run.fail(f"ingest {facts}: {body.get('new_facts')} new facts, "
                     f"expected {expect_new}")
        gen.apply_write(state, delta)
        states[body.get("watermark")] = copy.deepcopy(state)
        acked.append(facts)
    for read, status, seen, outcome, _, _ in loop["reads"]:
        if status != 200:
            run.fail(f"{read}: HTTP {status}")
            continue
        at = states.get(seen)
        if at is None:
            run.fail(f"{read}: watermark {seen} is no ingest boundary")
            continue
        expect = gen.expected_read(read, at)
        if read["op"] == "point":
            j = read["chain"]
            expect = sorted(f"q(v{j}_{t})" for t in range(1, expect + 1))
        if outcome != expect:
            run.fail(f"{read} at watermark {seen}: got {outcome!r}, "
                     f"expected {expect!r}")
    return acked, state


def reference_answers(inputs: dict, acked: list, queries: list) -> dict:
    """Certain answers from an untimed in-process restricted chase of
    the base facts plus every acked delta."""
    import repro
    from repro.model import Atom, Predicate
    from repro.parser import atom_to_text

    facts = inputs["facts"] + "".join(
        "\n".join(delta) + "\n" for delta in acked)
    result = repro.run_chase(repro.parse_database(facts),
                             repro.parse_program(inputs["rules"]),
                             "restricted", max_steps=MAX_STEPS)
    out = {}
    for text in queries:
        query = repro.parse_query(text)
        out[text] = sorted(
            atom_to_text(Atom(Predicate(query.name, len(answer)), answer))
            for answer in query.certain_answers(result.instance))
    return out


def final_checks(run, client: Client, inputs: dict, acked: list,
                 state: dict) -> list:
    """Final answers vs the reference chase; returns the client-side
    request texts in order (for pairing with server spans)."""
    chains = len(state["lengths"])
    queries = ["q(E, C) :- t_emp(E, K), t_works(K, D), t_dept(D, C)",
               "q(X, Y, Z) :- f(X, Y), f(Y, Z), f(Z, X)",
               "q(E, C) :- lives(E, C)"] + [
        f"q(Y) :- tc(v{j}_0, Y)" for j in range(chains)]
    expected = reference_answers(inputs, acked, queries)
    sent = []
    for text in queries:
        run.attempted += 1
        status, body, _ = client.post("/query", {"query": text,
                                                 "certain": True})
        sent.append(text)
        if status != 200 or sorted(body.get("answers", ())) != \
                expected[text]:
            run.fail(f"final answers of {text} differ from the "
                     f"reference chase (HTTP {status})")
    return sent


def serve_argv(traced: bool, spans_path: str, tail: list) -> list:
    if traced:
        return [sys.executable, os.path.join(HERE, "launch.py"),
                spans_path] + tail
    return [sys.executable, "-m", "repro"] + tail


def one_server_run(run, args, workdir, env, root, seconds, traced,
                   setup_starts) -> dict:
    """Start (``setup_starts`` times for the set-up median), load,
    check, stop, restart-check.  Returns measurements."""
    inputs = gen.serve_rw(args.seed, args.scale)
    tag = "traced" if traced else "plain"
    rules = os.path.join(workdir, "rules.txt")
    database = os.path.join(workdir, "db.txt")
    with open(rules, "w") as handle:
        handle.write(inputs["rules"])
    with open(database, "w") as handle:
        handle.write(inputs["facts"])
    spans_path = os.path.join(workdir, f"{tag}.spans.json")
    setups = []
    servers = []
    try:
        for index in range(setup_starts):
            store = os.path.join(workdir, f"{tag}-store{index}")
            tail = ["serve", rules, database, "--save", store,
                    "--max-steps", str(MAX_STEPS), "--port", "0"]
            server = Server(serve_argv(traced, spans_path, tail), env, root,
                            os.path.join(workdir, f"{tag}-server{index}.log"))
            servers.append(server)
            setups.append(server.setup_s)
            if index < setup_starts - 1 and server.stop() != 0:
                run.fail("server exited non-zero on SIGTERM")
        client = Client(server.port)
        base_state = inputs["state"]
        run.attempted += 1
        status, body, _ = client.post("/query", {
            "query": "q(X, Y, Z) :- f(X, Y), f(Y, Z), f(Z, X)",
            "certain": True})
        if status != 200 or body.get("count") != base_state["triangles"]:
            run.fail(f"warm-up query: HTTP {status}, {body.get('count')}")
        start_watermark = body.get("watermark")
        loop = drive(server.port, args.seed, seconds, base_state)
        run.attempted += len(loop["reads"]) + len(loop["writes"])
        acked, state = check_loop(run, loop, base_state, start_watermark)
        final_sent = final_checks(run, client, inputs, acked, state)
        stats = client.get("/stats")
        client.close()
        peak = server.peak_rss_mb()
        if server.stop() != 0:
            run.fail("server exited non-zero on SIGTERM")
    finally:
        for each in servers:
            each.stop()
    admission = stats["admission"]
    wal = os.path.join(store, "ingest.wal")
    journal_bytes = os.path.getsize(wal) if os.path.exists(wal) else 0
    store_bytes = sum(
        os.path.getsize(os.path.join(path, name))
        for path, _, names in os.walk(store) for name in names
    ) - journal_bytes
    restart_check(run, env, root, workdir, store, acked, tag)
    out = {
        "setups": setups, "peak_rss_mb": peak, "loop": loop,
        "admission": admission,
        "facts": stats["residents"]["default"]["facts"],
        "journal_bytes": journal_bytes, "store_bytes": store_bytes,
        "final_sent": final_sent,
    }
    if traced:
        with open(spans_path) as handle:
            out["trace"] = json.load(handle)
    return out


def restart_check(run, env, root, workdir, store, acked, tag) -> None:
    server = Server(
        [sys.executable, "-m", "repro", "serve", "--db", store,
         "--max-steps", str(MAX_STEPS), "--port", "0"], env, root,
        os.path.join(workdir, f"{tag}-restart.log"))
    try:
        client = Client(server.port)
        for fact in (fact for delta in acked for fact in delta):
            run.attempted += 1
            status, body, _ = client.post("/entail", {"atom": fact})
            if status != 200 or body.get("entailed") is not True:
                run.fail(f"after restart, acked fact {fact} is missing")
        client.close()
    finally:
        if server.stop() != 0:
            run.fail("restarted server exited non-zero on SIGTERM")


def e2e(measured: dict) -> dict:
    loop = measured["loop"]
    read_lat = [r[4] for r in loop["reads"] if r[1] == 200]
    write_lat = [w[4] for w in loop["writes"] if w[2] == 200]
    ok = len(read_lat) + len(write_lat)
    q, tail = tail_percentile(read_lat, 99)
    wq, wtail = tail_percentile(write_lat, 90)
    return {
        "setup_s": statistics.median(measured["setups"]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "op_p50_ms": statistics.median(read_lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "throughput_per_s": ok / loop["elapsed"],
        "batch_ms": statistics.median(write_lat) * 1e3,
        "_tail_q": q, "_n": len(read_lat), "_writes": len(write_lat),
        "_write_tail_q": wq, "_write_tail": wtail * 1e3,
    }


def layers(measured: dict) -> dict:
    """Per-layer metrics from the server's spans and the client log."""
    trace = measured["trace"]
    spans = trace["spans"]
    selfs = self_times(spans)
    by_rid: dict = {}
    for span in spans:
        by_rid.setdefault(span["rid"], []).append(span)
    roots = sorted((s for s in spans if s["id"] == s["rid"]),
                   key=lambda s: s["start"])
    read_roots = [s for s in roots if s["name"] in ("serve.query",
                                                    "serve.entail")]
    ingest_roots = [s for s in roots if s["name"] == "serve.ingest"]
    loop = measured["loop"]
    client_reads = (["warm-up"] + [r[5] for r in loop["reads"]]
                    + measured["final_sent"])
    if len(read_roots) != len(client_reads):
        raise SystemExit(f"trace pairing: {len(read_roots)} server read "
                         f"spans for {len(client_reads)} client reads")
    measured_roots = read_roots[1:1 + len(loop["reads"])]

    def within(root, prefix, self_time=False):
        return sum(selfs[s["id"]] if self_time else s["end"] - s["start"]
                   for s in by_rid[root["rid"]]
                   if s["name"].startswith(prefix) and s is not root)

    http_self, query_self, parse, evals = [], [], [], []
    builds = hits = 0
    for root, read in zip(measured_roots, loop["reads"]):
        if root["extra"] != read[5]:
            raise SystemExit(f"trace pairing: server saw {root['extra']!r}"
                             f", client sent {read[5]!r}")
        http_self.append(read[4] - (root["end"] - root["start"]))
        query_self.append(selfs[root["id"]])
        parse.append(within(root, "parser."))
        if root["name"] == "serve.query":
            evals.append(within(root, "query."))
        for span in by_rid[root["rid"]]:
            if span["name"].startswith("query."):
                builds += span["extra"][0]
                hits += span["extra"][1]
    ingest = {"self": [], "journal": [], "extend": [], "checkpoint": [],
              "snapshot": [], "checkpoints": []}
    for root in ingest_roots:
        ingest["self"].append(selfs[root["id"]])
        ingest["journal"].append(within(root, "storage.append_"))
        ingest["extend"].append(within(root, "chase.extend", True))
        ingest["checkpoint"].append(within(root, "chase.checkpoint"))
        ingest["snapshot"].append(within(root, "chase.snapshot"))
        ingest["checkpoints"].append(sum(
            1 for s in by_rid[root["rid"]]
            if s["name"] == "chase.checkpoint"))
    steps = [w[3].get("new_steps", 0) for w in loop["writes"]
             if w[2] == 200]
    med = statistics.median
    admission = measured["admission"]
    return {
        "serve.http_self_s": med(http_self),
        "serve.query_self_s": med(query_self),
        "parser.request_parse_s": med(parse),
        "query.eval_s": med(evals),
        "query.plan_builds": builds,
        "query.plan_hit_ratio": hits / max(1, builds + hits),
        "serve.ingest_self_s": med(ingest["self"]),
        "storage.journal_append_s": med(ingest["journal"]),
        "chase.extend_s": med(ingest["extend"]),
        "chase.checkpoint_s": med(ingest["checkpoint"]),
        "chase.checkpoints_per_ingest": statistics.mean(
            ingest["checkpoints"]),
        "chase.snapshot_s": med(ingest["snapshot"]),
        "chase.triggers_per_ingest": statistics.mean(steps),
        "serve.shed": admission["shed"] + admission["ingest_shed"],
        "serve.accepted": admission["accepted"],
        "storage.journal_bytes": measured["journal_bytes"],
        "storage.store_bytes": measured["store_bytes"],
    }


def run(run_, args, workdir, env, root) -> None:
    """Entry point from ``run.py``."""
    if args.trace:
        plain = e2e(one_server_run(run_, args, workdir, env, root,
                                   args.seconds / 2, False, 1))
        measured = one_server_run(run_, args, workdir, env, root,
                                  args.seconds / 2, True, 1)
        values = layers(measured)
        values["trace.overhead_frac"] = (
            e2e(measured)["op_p50_ms"] / plain["op_p50_ms"] - 1.0)
        emit_layers(run_, values)
        return
    measured = one_server_run(run_, args, workdir, env, root, args.seconds,
                              False, SETUP_STARTS)
    values = e2e(measured)
    values["_batch_note"] = f"p50 n={values['_writes']}"
    emit_e2e(run_, values, len(measured["setups"]))
    n, q = values["_n"], values["_tail_q"]
    run_.note("query_p50_ms", values["op_p50_ms"], "ms", f"n={n}")
    run_.note(f"query_p{q}_ms", values["op_tail_ms"], "ms", f"n={n}")
    run_.note("ingest_p50_ms", values["batch_ms"], "ms",
              f"n={values['_writes']}")
    if values["_write_tail_q"] > 50:
        run_.note(f"ingest_p{values['_write_tail_q']}_ms",
                  values["_write_tail"], "ms", f"n={values['_writes']}")
    run_.note("ok_ops_per_s", values["throughput_per_s"], "ops/s")
    run_.note("store_bytes_per_fact",
              (measured["journal_bytes"] + measured["store_bytes"])
              / measured["facts"], "bytes/fact")
