"""The chase's step log: int columns, decoded only when read.

The engine records every applied trigger as a ``steps.q``-shaped int
record; :class:`ChaseStep`/:class:`Trigger` objects exist only once
``result.steps`` is indexed or iterated.  These tests hold the log to
that (no step objects after a run) and to the list contract callers
relied on before (len, negative indices, slices, iteration, element
identity), and check the column readers against the decoded steps.
"""

import gc
import os

import pytest

from repro.chase import (
    ChaseSession,
    ChaseStep,
    ChaseVariant,
    Trigger,
    resume_chase,
    run_chase,
)
from repro.chase.checkpoint import STEPS_FILE
from repro.parser import parse_database, parse_program

RULES = parse_program(
    """
    e(X, Y) -> p(X, Y)
    p(X, Y), e(Y, Z) -> p(X, Z)
    p(X, Y) -> exists W . tag(Y, W)
    """
)


def chain(n):
    return parse_database(
        "\n".join(f"e(n{i}, n{i + 1})" for i in range(n))
    )


def live_step_objects(instance):
    """ChaseStep and Trigger objects alive over ``instance``."""
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if type(obj) in (ChaseStep, Trigger) and obj._source is instance
    )


def test_a_run_builds_no_step_objects_until_steps_are_read():
    result = run_chase(chain(40), RULES, ChaseVariant.SEMI_OBLIVIOUS,
                       max_steps=100_000)
    assert result.terminated and result.step_count > 800
    # Counting and the column readers decode nothing.
    assert result.facts_by_rule()
    assert len(result.steps) == result.step_count
    assert live_step_objects(result.instance) == 0
    steps = list(result.steps)
    assert live_step_objects(result.instance) == 2 * len(steps)


def test_sequence_contract():
    result = run_chase(chain(6), RULES, ChaseVariant.SEMI_OBLIVIOUS)
    steps = result.steps
    n = len(steps)
    assert n == result.step_count > 0
    assert steps[-1] is steps[n - 1]
    assert steps[0] is steps[-n]
    with pytest.raises(IndexError):
        steps[n]
    with pytest.raises(IndexError):
        steps[-n - 1]
    every = list(steps)
    assert len(every) == n
    assert all(a is b for a, b in zip(every, steps))
    assert steps[2:5] == every[2:5]
    assert steps[::-2] == every[::-2]
    assert steps[n:] == []
    assert every[3] in steps
    assert steps.index(every[3]) == 3


def test_column_readers_agree_with_decoded_steps():
    result = run_chase(chain(8), RULES, ChaseVariant.OBLIVIOUS)
    steps = result.steps
    assert steps.rule_indices() == [s.trigger.rule_index for s in steps]
    expected = {}
    for step in steps:
        key = step.trigger.rule.label or f"rule{step.trigger.rule_index}"
        expected[key] = expected.get(key, 0) + len(step.new_facts)
    assert result.facts_by_rule() == expected
    for index, step in enumerate(steps):
        for fact in step.new_facts:
            assert result.provenance(fact) is steps[index]


def test_provenance_follows_a_growing_session():
    session = ChaseSession.start(chain(3), RULES)
    try:
        result = session.result
        first = result.provenance(session.instance.atom_at(len(chain(3))))
        assert first is result.steps[0]
        session.extend(chain(6))
        last = session._steps[-1]
        assert result.provenance(last.new_facts[0]) is last
        assert result._provenance_built == session.step_count
    finally:
        session.close()


def test_checkpointed_steps_file_is_the_log(tmp_path):
    store = str(tmp_path / "store")
    result = run_chase(chain(10), RULES, ChaseVariant.SEMI_OBLIVIOUS,
                       save=store)
    with open(os.path.join(store, STEPS_FILE), "rb") as fh:
        assert fh.read() == result.steps.flat.tobytes()
    resumed = resume_chase(store)
    assert resumed.steps.flat == result.steps.flat
    assert list(resumed.steps.offsets) == list(result.steps.offsets)
    last = resumed.steps[-1]
    assert resumed.provenance(last.new_facts[0]) is last
    assert resumed.facts_by_rule() == result.facts_by_rule()
