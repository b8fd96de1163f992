"""In-memory spans around the program's public entry points.

The benchmark never edits the program: a traced run replaces chosen
functions and methods with wrappers *before* the workload calls them,
and each wrapper records one span — name, start, end, parent span and
request id (the id of the outermost span on the same thread) — into a
list that stays in memory until :meth:`Tracer.dump` writes it at exit.
Self times are computed afterwards from the spans alone
(:func:`stats.self_times`).

The entry points of each workload are listed in :data:`POINTS` as
``(span name, module, attribute)``; an attribute ``Class.method``
wraps the method on the class.  A name given twice wraps the same
function wherever it was imported, so callers that hold their own
reference (``from .report import termination_report``) see the wrapper
as well.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Dict, List

_CQ = "repro.query.compiled"

POINTS: Dict[str, List[tuple]] = {
    "chase_batch": [
        ("parser.parse_program", "repro", "parse_program"),
        ("parser.parse_program", "repro.parser", "parse_program"),
        ("parser.parse_database", "repro", "parse_database"),
        ("parser.parse_database", "repro.parser", "parse_database"),
        ("parser.parse_query", "repro", "parse_query"),
        ("parser.parse_query", "repro.parser", "parse_query"),
        ("chase.run_chase", "repro", "run_chase"),
        ("chase.run_chase", "repro.chase", "run_chase"),
        ("query.certain_answers", _CQ, "CompiledQuery.certain_answers"),
        ("query.holds_in", _CQ, "CompiledQuery.holds_in"),
    ],
    "decide_zoo": [
        ("parser.parse_program", "repro", "parse_program"),
        ("parser.parse_program", "repro.parser", "parse_program"),
        ("termination.report", "repro.termination", "termination_report"),
        ("termination.report", "repro.termination.report",
         "termination_report"),
        ("classes.classify", "repro.termination.report", "classify"),
        ("classes.narrowest_class", "repro.termination.report",
         "narrowest_class"),
        ("graphs.is_richly_acyclic", "repro.termination.report",
         "is_richly_acyclic"),
        ("graphs.is_weakly_acyclic", "repro.termination.report",
         "is_weakly_acyclic"),
        ("graphs.is_jointly_acyclic", "repro.termination.report",
         "is_jointly_acyclic"),
        ("termination.is_mfa", "repro.termination.report", "is_mfa"),
        ("termination.decide", "repro.termination.report",
         "decide_termination"),
        ("termination.saturate", "repro.termination.saturation",
         "TypeAnalysis.saturate"),
    ],
    "serve_rw": [
        ("serve.query", "repro.serve.service", "ChaseService.query"),
        ("serve.entail", "repro.serve.service", "ChaseService.entail"),
        ("serve.ingest", "repro.serve.service", "ChaseService.ingest"),
        ("parser.parse_query", "repro.serve.service", "parse_query"),
        ("parser.parse_atom", "repro.serve.service", "parse_atom"),
        ("parser.parse_fact", "repro.serve.service", "parse_fact"),
        ("query.certain_answers", _CQ, "CompiledQuery.certain_answers"),
        ("query.holds_in", _CQ, "CompiledQuery.holds_in"),
        ("chase.extend", "repro.chase.incremental", "ChaseSession.extend"),
        ("chase.snapshot", "repro.chase.incremental",
         "ChaseSession.snapshot"),
        ("chase.checkpoint", "repro.chase.checkpoint",
         "Checkpointer.checkpoint"),
        ("storage.append_delta", "repro.storage.journal",
         "IngestJournal.append_delta"),
        ("storage.append_ack", "repro.storage.journal",
         "IngestJournal.append_ack"),
    ],
}

#: Calls counted without a span: ``(counter, module, Class.method)``.
COUNTERS: Dict[str, List[tuple]] = {
    "chase_batch": [("chase.rounds", "repro.chase.delta",
                     "DeltaEngine.next_round")],
}

#: Spans whose first positional argument after ``self`` is kept as the
#: span's ``detail`` (the request text, to pair server spans with
#: client requests).
_DETAIL = {"serve.query", "serve.entail"}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: Dict[int, object] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, name: str, original):
        """One wrapper per (name, function): wrapping the same function
        under two import paths must not nest two spans."""
        key = id(original)
        if key in self._wrapped:
            return self._wrapped[key]
        tracer = self
        detail = name in _DETAIL
        plans = name.startswith("query.")
        perf = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent, rid = stack[-1] if stack else (None, sid)
            stack.append((sid, rid))
            extra = None
            if plans:
                stats = args[0].stats
                before = (stats["plans"], stats["plan_hits"])
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if plans:
                    extra = (stats["plans"] - before[0],
                             stats["plan_hits"] - before[1])
                elif detail:
                    extra = args[1]
                tracer.spans.append(
                    (sid, name, start, end, parent, rid, extra))

        self._wrapped[key] = traced
        return traced

    def _counter(self, name: str, original):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        return counted

    def install(self, workload: str) -> None:
        """Wrap every entry point of ``workload`` (see :data:`POINTS`)."""
        for name, module, attr in POINTS[workload]:
            _patch(module, attr, lambda fn, n=name: self._wrapper(n, fn))
        for name, module, attr in COUNTERS.get(workload, ()):
            _patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def records(self) -> List[Dict]:
        """The spans as dicts, in completion order."""
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "rid": rid, "extra": extra}
            for sid, name, start, end, parent, rid, extra in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.records(),
                       "counters": self.counters}, handle)


def _patch(module: str, attr: str, make) -> None:
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    setattr(owner, attr, make(getattr(owner, attr)))
