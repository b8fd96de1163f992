"""Empirical confirmation of non-termination witnesses.

A :class:`~repro.termination.pumping.PumpingWitness` asserts that the
rules along its walk fire *unboundedly often* on the critical
instance.  :func:`confirm_witness` checks this concretely: it runs the
fair budgeted chase and verifies that every rule of the walk fires at
least ``rounds`` times with pairwise-distinct trigger keys, doubling
the budget until confirmation or a cap.

This closes the loop between the abstract analysis and the real
engine: the test-suite confirms every witness the deciders emit on the
curated suites, and ``decide_guarded`` users can do the same on
demand.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from ..chase import critical_instance, run_chase, standard_critical_instance
from ..model import TGD
from .pumping import PumpingWitness


class ReplayResult:
    """The outcome of a witness confirmation run."""

    __slots__ = ("confirmed", "rounds", "firings", "steps_used")

    def __init__(
        self,
        confirmed: bool,
        rounds: int,
        firings: Dict[int, int],
        steps_used: int,
    ):
        self.confirmed = confirmed
        self.rounds = rounds
        self.firings = firings
        self.steps_used = steps_used

    def __bool__(self) -> bool:
        return self.confirmed

    def __repr__(self) -> str:
        status = "confirmed" if self.confirmed else "NOT confirmed"
        return (
            f"ReplayResult({status}, rounds={self.rounds}, "
            f"steps={self.steps_used})"
        )


def confirm_witness(
    rules: Sequence[TGD],
    witness: PumpingWitness,
    rounds: int = 3,
    standard: bool = False,
    max_steps_cap: int = 50_000,
) -> ReplayResult:
    """Confirm ``witness`` against the concrete chase.

    Returns a confirmed :class:`ReplayResult` once every rule on the
    witness walk has fired ``rounds`` distinct triggers in the fair
    chase of the critical instance.  An unconfirmed result means the
    budget cap was reached first — or, if the chase *terminated*, that
    the witness is refuted (which no emitted witness should ever be;
    the test-suite asserts this).
    """
    rules = list(rules)
    walk_rule_indices: Set[int] = {
        edge.rule_index for edge in witness.walk
    }
    if standard:
        database = standard_critical_instance(rules)
    else:
        database = critical_instance(rules)
    budget = 256
    while True:
        result = run_chase(
            database, rules, witness.variant, max_steps=budget
        )
        firings: Dict[int, int] = {idx: 0 for idx in walk_rule_indices}
        for idx in result.steps.rule_indices():
            if idx in firings:
                firings[idx] += 1
        if all(count >= rounds for count in firings.values()):
            return ReplayResult(True, rounds, firings, result.step_count)
        if result.terminated:
            # Fixpoint reached without enough firings: the witness
            # rules cannot fire unboundedly — refutation.
            return ReplayResult(False, rounds, firings, result.step_count)
        if budget >= max_steps_cap:
            return ReplayResult(False, rounds, firings, result.step_count)
        budget = min(budget * 2, max_steps_cap)
