"""Chase outcomes: results, applied-step records, and model checks."""

from __future__ import annotations

from array import array
from collections import abc
from typing import Dict, List, Optional, Sequence

from ..model import (
    Atom,
    Instance,
    TGD,
    instance_homomorphism,
)
from .triggers import Trigger


class ChaseStep:
    """One applied trigger and the facts it produced.

    The produced facts are recorded as log ordinals into the result
    instance and materialized as Atoms lazily on first access — the
    engine's apply loop stays int-only, and runs whose steps are never
    inspected (benchmarks, deciders) never pay for Atom construction.
    """

    __slots__ = ("trigger", "_source", "_ordinals", "_new_facts")

    def __init__(
        self,
        trigger: Trigger,
        source: Instance,
        ordinals: Sequence[int],
    ):
        self.trigger = trigger
        self._source = source
        self._ordinals = tuple(ordinals)
        self._new_facts: Optional[Sequence[Atom]] = None

    @property
    def new_facts(self) -> Sequence[Atom]:
        """The facts this step added, in head order (lazily decoded)."""
        facts = self._new_facts
        if facts is None:
            atom_at = self._source.atom_at
            facts = tuple(atom_at(o) for o in self._ordinals)
            self._new_facts = facts
        return facts

    def __repr__(self) -> str:
        produced = ", ".join(str(f) for f in self.new_facts)
        return f"ChaseStep({self.trigger.rule.label or self.trigger.rule_index}: {produced})"


class StepLog(abc.Sequence):
    """The applied steps of a chase run, kept as int columns.

    ``flat`` holds one record per applied trigger, laid out exactly
    like a ``steps.q`` record of :mod:`repro.chase.checkpoint`::

        [rule_index, n_ids, *ids, n_ords, *ords]

    (``ids`` the trigger's interned homomorphism, ``ords`` the log
    ordinals of the facts it produced) and ``offsets[i]`` is where
    record ``i`` starts.  The engine appends plain ints; indexing,
    slicing and iteration decode a :class:`ChaseStep` with its
    :class:`~repro.chase.triggers.Trigger` on first access and cache
    it, so ``log[i] is log[i]`` and a run whose steps are never
    inspected builds no step objects at all.
    """

    __slots__ = ("rules", "source", "flat", "offsets", "_decoded")

    def __init__(
        self,
        rules: Sequence[TGD],
        source: Instance,
        flat: Optional[array] = None,
    ):
        self.rules = rules
        self.source = source
        self.flat = array("q") if flat is None else flat
        self.offsets = array("q")
        # A loaded log (resume) arrives as whole flat records.
        at = 0
        while at < len(self.flat):
            self.offsets.append(at)
            at += 2 + self.flat[at + 1]
            at += 1 + self.flat[at]
        self._decoded: List[Optional[ChaseStep]] = []

    def append(
        self, rule_index: int, ids: Sequence[int], ords: Sequence[int]
    ) -> None:
        """Record one applied trigger."""
        flat = self.flat
        self.offsets.append(len(flat))
        flat.append(rule_index)
        flat.append(len(ids))
        flat.extend(ids)
        flat.append(len(ords))
        flat.extend(ords)

    def rule_indices(self, start: int = 0):
        """The rule index of every step from ``start`` on, in order."""
        flat = self.flat
        return [flat[at] for at in self.offsets[start:]]

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index):
        n = len(self.offsets)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("step index out of range")
        cache = self._decoded
        if len(cache) < n:
            cache.extend([None] * (n - len(cache)))
        step = cache[index]
        if step is None:
            step = cache[index] = self._decode(index)
        return step

    def _decode(self, index: int) -> ChaseStep:
        flat = self.flat
        at = self.offsets[index]
        rule_index = flat[at]
        n = flat[at + 1]
        at += 2
        ids = tuple(flat[at:at + n])
        at += n
        ords = flat[at + 1:at + 1 + flat[at]]
        source = self.source
        trigger = Trigger.from_ids(
            self.rules[rule_index], rule_index, ids, source
        )
        return ChaseStep(trigger, source, ords)

    def __repr__(self) -> str:
        return f"StepLog({len(self)} steps)"


class ChaseResult:
    """The outcome of a (budgeted) chase run.

    ``terminated`` is True iff the chase reached a fixpoint — no
    applicable trigger remains.  When False the run stopped on a
    resource limit; ``stop_reason`` (one of
    :data:`repro.runtime.budget.STOP_REASONS`) says which, and
    ``resource`` carries the run's resource accounting (elapsed time,
    rounds, memory, executor-degradation counters).  Nothing is
    implied about the true (in)finiteness of the chase, which is
    exactly why the paper's deciders exist.

    Budget-stopped results are always **round-consistent**: engines
    only check budgets between trigger applications, so the instance
    is exactly the database plus the facts of the recorded ``steps`` —
    never a half-applied trigger.
    """

    __slots__ = (
        "instance",
        "terminated",
        "steps",
        "variant",
        "max_steps",
        "stop_reason",
        "resource",
        "_provenance",
        "_provenance_built",
    )

    def __init__(
        self,
        instance: Instance,
        terminated: bool,
        steps: StepLog,
        variant: str,
        max_steps: int,
        stop_reason: Optional[str] = None,
        resource: Optional[Dict[str, object]] = None,
    ):
        self.instance = instance
        self.terminated = terminated
        self.steps = steps
        self.variant = variant
        self.max_steps = max_steps
        # Legacy constructors (terminated/exhausted only) still get a
        # well-formed reason.
        if stop_reason is None:
            stop_reason = "fixpoint" if terminated else "step_budget"
        self.stop_reason = stop_reason
        self.resource: Dict[str, object] = resource or {}
        # fact ordinal -> creating step index + 1 (0: none), built
        # lazily on the first provenance lookup (and extended if steps
        # were appended since).
        self._provenance = array("q")
        self._provenance_built = 0

    @property
    def step_count(self) -> int:
        """How many triggers were applied."""
        return len(self.steps)

    @property
    def exhausted(self) -> bool:
        """True iff the run stopped on budget, not on a fixpoint."""
        return not self.terminated

    def provenance(self, fact: Atom) -> Optional[ChaseStep]:
        """The step that created ``fact``, or ``None`` for database
        facts (and facts not in the result).

        Backed by a lazily built fact-ordinal → step-index column read
        off the step log, so batch provenance queries (the E-suite runs
        one per derived fact) cost O(1) each after a single O(steps)
        build, and only the steps actually returned are decoded.
        """
        steps = self.steps
        built = self._provenance_built
        count = len(steps)
        table = self._provenance
        if built < count:
            missing = len(self.instance) - len(table)
            if missing > 0:
                table.frombytes(bytes(missing * table.itemsize))
            flat = steps.flat
            offsets = steps.offsets
            for index in range(built, count):
                at = offsets[index]
                at += 2 + flat[at + 1]
                # A fact ordinal is produced by exactly one step.
                for ordinal in flat[at + 1:at + 1 + flat[at]]:
                    table[ordinal] = index + 1
            self._provenance_built = count
        ordinal = self.instance.ordinal_of(fact)
        if ordinal is None or ordinal >= len(table) or not table[ordinal]:
            return None
        return steps[table[ordinal] - 1]

    def facts_by_rule(self) -> Dict[str, int]:
        """How many facts each rule contributed (by label or index)."""
        steps = self.steps
        flat = steps.flat
        keys = [
            rule.label or f"rule{index}"
            for index, rule in enumerate(steps.rules)
        ]
        out: Dict[str, int] = {}
        for at in steps.offsets:
            key = keys[flat[at]]
            out[key] = out.get(key, 0) + flat[at + 2 + flat[at + 1]]
        return out

    def __repr__(self) -> str:
        status = (
            "terminated" if self.terminated else f"stopped:{self.stop_reason}"
        )
        return (
            f"ChaseResult({self.variant}, {status}, "
            f"{self.step_count} steps, {len(self.instance)} facts)"
        )

    # -- semantic checks -----------------------------------------------------

    def satisfies(self, rules: Sequence[TGD]) -> bool:
        """True iff the result instance is a model of ``rules``.

        Holds for every terminated chase; used by tests as the paper's
        property (1) of chase results.
        """
        from ..cq.universality import is_model

        return is_model(self.instance, rules)

    def maps_into(self, model: Instance) -> bool:
        """True iff the result embeds homomorphically into ``model`` —
        the universality property (2) of chase results."""
        return instance_homomorphism(self.instance, model) is not None
