"""The batch execution tier: vectorized hash joins over the interned
int columns.

The tuple-at-a-time executor (:class:`repro.model.joinplan.PlanExec`)
pays a Python-level loop iteration per candidate row per join level.
This module is the second tier: evaluate a resolved step sequence as
**columnar batch operations** — materialize each relation once as a
dense int matrix, filter constants and repeated-variable positions
with vectorized masks, and join whole column arrays at a time with a
sort-based vectorized hash join (joint factorization +
``searchsorted`` range expansion).  NumPy is an *optional* dependency:
the pipeline has a pure-Python batch twin (dict-based hash joins over
the same column layout), selected automatically when NumPy is missing
or the ``REPRO_NO_NUMPY`` environment variable is set, and proven
answer-identical by the property suite.

The join is *order-exact*: for each intermediate tuple (in order),
matching candidate rows are emitted in relation insertion order, which
is precisely the depth-first enumeration order of ``PlanExec.run``.
Batch results are therefore byte-identical, sequence included, to the
tuple engine (``tests/test_kernels.py`` holds it to order-exactness,
not just set equality), so switching tiers never changes an answer
sequence.

There is no user-facing tier option.
:class:`repro.query.compiled.CompiledQuery` asks :func:`choose_kernel`
once per resolved plan: joins whose estimated tuple-engine work is
small stay on the tuple engine, whose per-call overhead is unbeatable
there; fat multi-atom joins go vector.  The chase's trigger discovery
always runs the tuple loop.

Candidate matrices are cached per ``(pred, row-count, filter)`` in the
instance's plan cache: rows are append-only, so a matrix is valid as
long as the relation has not grown, and snapshot-bounded accessors
(``instance.rows_of``) keep every kernel watermark-consistent on
:class:`~repro.model.instances.SnapshotInstance` views.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from ..model.atoms import Atom
from ..model.instances import Instance
from ..model.joinplan import _RESOLVE_CACHE_CAP, PlanExec, ResolvedStep
from .planner import estimate_extension

#: A join goes to the vector kernel once the tuple engine's estimated
#: work reaches this many intermediate tuples — below it the tuple
#: engine's lower per-call overhead wins.
AUTO_VECTOR_MIN_ROWS = 2048

#: Joint key codes are re-factorized before a combine could overflow
#: this many bits (int64 is 63 usable bits; 62 leaves slack).
_CODE_BITS = 62

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:  # pragma: no branch
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via env gate
        _np = None


def numpy_active() -> bool:
    """True iff the vectorized (NumPy) paths are in use; False means
    the vector kernel runs its pure-Python batch twin."""
    return _np is not None


def choose_kernel(ordered: Sequence[Atom], instance: Instance) -> str:
    """The tier for one conjunction over one instance, given in the
    join order the tuple engine would run it: ``"vector"`` or
    ``"tuple"``.

    The tuple engine's work is estimated as the number of intermediate
    tuples it enumerates — the sum, over the join levels, of the
    cumulative product of :func:`repro.query.planner.estimate_extension`
    along ``ordered``.  Multi-atom joins whose estimate reaches
    :data:`AUTO_VECTOR_MIN_ROWS` go vector; single-atom lookups and
    constant-selective joins (a small posting list drives every later
    level) stay on the tuple engine."""
    if len(ordered) < 2:
        return "tuple"
    bound = frozenset()
    width = 1.0
    work = 0.0
    for atom in ordered:
        width *= estimate_extension(instance, atom, bound)
        work += width
        if work >= AUTO_VECTOR_MIN_ROWS:
            return "vector"
        bound |= atom.variables()
    return "tuple"


# -- candidate materialization ----------------------------------------------


def _relation_matrix(instance: Instance, pid: int, arity: int):
    """The relation's rows as a dense ``(n, arity)`` int64 matrix
    (NumPy path), cached per ``(pid, row count)`` — append-only rows
    make the count a sufficient validity key, and snapshot-bounded
    ``rows_of`` keeps views watermark-consistent."""
    rows = instance.rows_of(pid)
    n = len(rows)
    cache = instance._plans
    key = ("kmat", pid, n)
    mat = cache.get(key)
    if mat is None:
        from itertools import chain

        if n:
            mat = _np.fromiter(
                chain.from_iterable(rows), dtype=_np.int64, count=n * arity
            ).reshape(n, arity)
        else:
            mat = _np.empty((0, arity), dtype=_np.int64)
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = mat
    return mat


def _step_filter_key(step: ResolvedStep) -> Tuple:
    return (
        step.const_checks,
        tuple((p0, rest) for _, p0, rest in step.groups),
    )


def _candidates_np(instance: Instance, step: ResolvedStep):
    """``step``'s candidate rows — constants and intra-atom repeated
    variables pre-verified — as a filtered matrix, cached per
    ``(pid, row count, filter)``."""
    rows = instance.rows_of(step.pid)
    n = len(rows)
    arity = len(step.build)
    cache = instance._plans
    key = ("kcand", step.pid, n, _step_filter_key(step))
    cand = cache.get(key)
    if cand is None:
        mat = _relation_matrix(instance, step.pid, arity)
        mask = None
        for pos, tid in step.const_checks:
            cond = mat[:, pos] == tid
            mask = cond if mask is None else (mask & cond)
        for _, p0, rest in step.groups:
            for p in rest:
                cond = mat[:, p] == mat[:, p0]
                mask = cond if mask is None else (mask & cond)
        cand = mat if mask is None else mat[mask]
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = cand
    return cand


def _candidates_py(
    instance: Instance, step: ResolvedStep
) -> List[Tuple[int, ...]]:
    """The pure-Python twin of :func:`_candidates_np`: a filtered row
    list in insertion order."""
    rows = instance.rows_of(step.pid)
    cache = instance._plans
    key = ("kcand-py", step.pid, len(rows), _step_filter_key(step))
    cand = cache.get(key)
    if cand is None:
        const_checks = step.const_checks
        groups = step.groups
        cand = []
        for row in rows:
            ok = True
            for pos, tid in const_checks:
                if row[pos] != tid:
                    ok = False
                    break
            if ok:
                for _, p0, rest in groups:
                    value = row[p0]
                    for p in rest:
                        if row[p] != value:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                cand.append(row)
        if len(cache) >= _RESOLVE_CACHE_CAP:
            cache.clear()
        cache[key] = cand
    return cand


# -- the vectorized hash-join pipeline (NumPy path) -------------------------


def _join_codes_np(probe_cols, build_cols):
    """Joint factorization of a multi-column equi-join key: returns
    ``(probe_code, build_code)`` int64 arrays where equal codes mean
    equal key tuples.  Columns are factorized against the union of
    both sides so the code spaces line up; codes are re-factorized
    whenever a combine could overflow 62 bits."""
    np = _np
    pcode = None
    bcode = None
    width = 1
    for pc, bc in zip(probe_cols, build_cols):
        both = np.concatenate([pc, bc])
        uniq, inv = np.unique(both, return_inverse=True)
        base = len(uniq) + 1
        pinv = inv[: len(pc)]
        binv = inv[len(pc):]
        if pcode is None:
            pcode, bcode, width = pinv, binv, base
            continue
        if width * base >= 1 << _CODE_BITS:
            both = np.concatenate([pcode, bcode])
            uniq, inv = np.unique(both, return_inverse=True)
            pcode = inv[: len(pcode)]
            bcode = inv[len(pcode):]
            width = len(uniq) + 1
        pcode = pcode * base + pinv
        bcode = bcode * base + binv
        width *= base
    return pcode, bcode


def _expand_join_np(pcode, bcode):
    """The order-exact range expansion of a vectorized hash join:
    ``(probe_idx, build_idx)`` index arrays such that iterating them
    visits, for each probe tuple in order, its matching build rows in
    insertion order — exactly the tuple engine's DFS order."""
    np = _np
    order = np.argsort(bcode, kind="stable")
    sorted_codes = bcode[order]
    left = np.searchsorted(sorted_codes, pcode, side="left")
    right = np.searchsorted(sorted_codes, pcode, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(pcode), dtype=np.intp), counts)
    starts = np.repeat(left, counts)
    prefix = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.intp) - prefix
    build_idx = order[starts + within]
    return probe_idx, build_idx


class _BatchNp:
    """The NumPy batch state: one int64 column per bound slot, all of
    one length ``m`` (``m`` starts at 1 with zero columns — the single
    empty assignment)."""

    __slots__ = ("cols", "m")

    def __init__(self, cols: Dict[int, object], m: int):
        self.cols = cols
        self.m = m

    def apply(self, instance: Instance, step: ResolvedStep) -> bool:
        """Join one step in; False when the batch became empty."""
        np = _np
        cand = _candidates_np(instance, step)
        k = len(cand)
        cols = self.cols
        bound = [(slot, p0) for slot, p0, _ in step.groups if slot in cols]
        fresh = [
            (slot, p0) for slot, p0, _ in step.groups if slot not in cols
        ]
        if k == 0:
            self.m = 0
            return False
        if not bound:
            # No shared slots: an order-preserving cross product (for
            # an all-constant atom k is 0 or 1 — a semi-join).
            m = self.m
            if fresh:
                if cols:
                    probe_idx = np.repeat(np.arange(m, dtype=np.intp), k)
                    build_idx = np.tile(np.arange(k, dtype=np.intp), m)
                    for slot in list(cols):
                        cols[slot] = cols[slot][probe_idx]
                    for slot, p0 in fresh:
                        cols[slot] = cand[build_idx, p0]
                    self.m = m * k
                else:
                    for slot, p0 in fresh:
                        cols[slot] = cand[:, p0].copy()
                    self.m = k
            # No fresh slots either (pure existence check): k >= 1
            # rows survive the const filter, batch unchanged.
            return self.m > 0
        probe_cols = [cols[slot] for slot, _ in bound]
        build_cols = [cand[:, p0] for _, p0 in bound]
        pcode, bcode = _join_codes_np(probe_cols, build_cols)
        probe_idx, build_idx = _expand_join_np(pcode, bcode)
        if len(probe_idx) == 0:
            self.m = 0
            return False
        for slot in list(cols):
            cols[slot] = cols[slot][probe_idx]
        for slot, p0 in fresh:
            cols[slot] = cand[build_idx, p0]
        self.m = len(probe_idx)
        return True

    def project(self, slots: Sequence[int]) -> List[Tuple[int, ...]]:
        """The batch projected to ``slots`` as a list of int tuples,
        in batch (i.e. DFS-exact) order."""
        if self.m == 0:
            return []
        if not slots:
            return [()] * self.m
        np = _np
        stacked = np.stack([self.cols[s] for s in slots], axis=1)
        # tolist() converts to Python ints in C; the per-row
        # tuple(map(int, row)) alternative is ~10x slower and was the
        # difference between winning and losing the bench gate.
        return list(map(tuple, stacked.tolist()))


class _BatchPy:
    """The pure-Python twin of :class:`_BatchNp`: columns are plain
    lists, joins are dict-built hash joins — same pipeline, same
    order, no NumPy."""

    __slots__ = ("cols", "m")

    def __init__(self, cols: Dict[int, List[int]], m: int):
        self.cols = cols
        self.m = m

    def apply(self, instance: Instance, step: ResolvedStep) -> bool:
        cand = _candidates_py(instance, step)
        k = len(cand)
        cols = self.cols
        bound = [(slot, p0) for slot, p0, _ in step.groups if slot in cols]
        fresh = [
            (slot, p0) for slot, p0, _ in step.groups if slot not in cols
        ]
        if k == 0:
            self.m = 0
            return False
        if not bound:
            m = self.m
            if fresh:
                if cols:
                    for slot in list(cols):
                        old = cols[slot]
                        cols[slot] = [v for v in old for _ in range(k)]
                    for slot, p0 in fresh:
                        column = [row[p0] for row in cand]
                        cols[slot] = column * m
                    self.m = m * k
                else:
                    for slot, p0 in fresh:
                        cols[slot] = [row[p0] for row in cand]
                    self.m = k
            return self.m > 0
        # Build side: key tuple -> candidate indexes in insertion order.
        table: Dict[Tuple[int, ...], List[int]] = {}
        build_positions = [p0 for _, p0 in bound]
        for j, row in enumerate(cand):
            key = tuple(row[p] for p in build_positions)
            hit = table.get(key)
            if hit is None:
                table[key] = [j]
            else:
                hit.append(j)
        probe_cols = [cols[slot] for slot, _ in bound]
        probe_idx: List[int] = []
        build_idx: List[int] = []
        for i in range(self.m):
            key = tuple(col[i] for col in probe_cols)
            hit = table.get(key)
            if hit is not None:
                for j in hit:
                    probe_idx.append(i)
                    build_idx.append(j)
        if not probe_idx:
            self.m = 0
            return False
        for slot in list(cols):
            old = cols[slot]
            cols[slot] = [old[i] for i in probe_idx]
        for slot, p0 in fresh:
            cols[slot] = [cand[j][p0] for j in build_idx]
        self.m = len(probe_idx)
        return True

    def project(self, slots: Sequence[int]) -> List[Tuple[int, ...]]:
        if self.m == 0:
            return []
        if not slots:
            return [()] * self.m
        columns = [self.cols[s] for s in slots]
        return list(zip(*columns))


def _joined(exec_: PlanExec, instance: Instance, budget):
    """Run ``exec_``'s step sequence as a batch pipeline on whichever
    engine is active; None once the batch runs empty."""
    batch = _BatchNp({}, 1) if _np is not None else _BatchPy({}, 1)
    for step in exec_.steps:
        if budget is not None:
            budget.raise_if_exceeded()
        if not batch.apply(instance, step):
            return None
    return batch


def run_batch(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """Evaluate ``exec_``'s step sequence as a batched hash-join
    pipeline and return every full match projected to ``answer_slots``
    — **not** deduplicated, in exactly the order ``exec_.run`` would
    enumerate."""
    batch = _joined(exec_, instance, budget)
    if batch is None:
        return []
    return batch.project(tuple(answer_slots))


def _row_codes_np(cols):
    """One int64 code per row of the column set, equal codes iff equal
    row tuples.  Term ids are non-negative, so ``max + 1`` is a valid
    mixed-radix base per column — one O(n) max instead of the O(n log n)
    per-column unique — with the same 62-bit overflow re-factorization
    as :func:`_join_codes_np` when the radix product grows too wide."""
    np = _np
    code = None
    width = 1
    for col in cols:
        base = (int(col.max()) if len(col) else 0) + 1
        if code is None:
            code, width = col, base
            continue
        if width * base >= 1 << _CODE_BITS:
            compressed, code = np.unique(code, return_inverse=True)
            width = len(compressed) + 1
        code = code * base + col
        width *= base
    return code


def run_batch_unique(
    exec_: PlanExec,
    instance: Instance,
    answer_slots: Sequence[int],
    budget=None,
) -> List[Tuple[int, ...]]:
    """:func:`run_batch` deduplicated to first occurrences, preserving
    first-seen order — byte-identical to deduplicating the tuple
    engine's enumeration (order-exactness again), but the dedup runs
    at array speed instead of one Python set probe per match."""
    batch = _joined(exec_, instance, budget)
    if batch is None:
        return []
    slots = tuple(answer_slots)
    if not slots:
        return [()]
    if isinstance(batch, _BatchNp):
        np = _np
        cols = [batch.cols[s] for s in slots]
        codes = _row_codes_np(cols)
        _, first = np.unique(codes, return_index=True)
        first.sort()
        stacked = np.stack(cols, axis=1)[first]
        return list(map(tuple, stacked.tolist()))
    seen = set()
    add = seen.add
    out: List[Tuple[int, ...]] = []
    for ids in batch.project(slots):
        if ids not in seen:
            add(ids)
            out.append(ids)
    return out


def batch_exists(exec_: PlanExec, instance: Instance, budget=None) -> bool:
    """Boolean evaluation on the vector kernel: does any full match
    exist?"""
    return _joined(exec_, instance, budget) is not None
