#!/usr/bin/env python
"""CI checkpoint/kill/resume round-trip.

Builds a small transitive-closure program, chases it uninterrupted
(saved to its own store), then re-runs it through the CLI with
``--save`` under a tight ``--max-rounds`` budget so the run is cut off
mid-chase (the budget stop leaves the same on-disk state a kill
between checkpoints would), resumes the store with ``chase --resume``,
and finally reopens the finished store through the API and requires
the persisted run to be **byte-identical** to the uninterrupted one:
same facts in the same order, same trigger keys, same provenance
ordinals, and the same ``steps.q`` step log on disk, byte for byte.

Both interrupted legs go through :func:`repro.cli.main` — the exact
surface a user hits — and the comparison reads back what those legs
wrote to disk.  Exits non-zero on any divergence.

Usage: PYTHONPATH=src python ci/check_resume.py
"""

import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.chase import resume_chase, run_chase  # noqa: E402
from repro.chase.checkpoint import STEPS_FILE  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.parser import parse_database, parse_program  # noqa: E402

PROGRAM = """\
e(X, Y) -> p(X, Y)
p(X, Y), e(Y, Z) -> p(X, Z)
p(X, Y) -> exists W . tag(Y, W)
"""

EDGES = 16


def fingerprint(result):
    variant = result.variant
    return (
        result.instance.facts(),
        tuple(step.trigger.key(variant) for step in result.steps),
        tuple(step._ordinals for step in result.steps),
    )


def steps_file(store):
    with open(os.path.join(store, STEPS_FILE), "rb") as handle:
        return handle.read()


def fail(message):
    print(f"check_resume: FAIL — {message}")
    return 1


def run() -> int:
    database_text = "\n".join(
        f"e(n{i}, n{i + 1})" for i in range(EDGES)
    )
    with tempfile.TemporaryDirectory() as tmp:
        reference_store = os.path.join(tmp, "reference")
        reference = run_chase(
            parse_database(database_text),
            parse_program(PROGRAM),
            "semi_oblivious",
            max_steps=10_000,
            save=reference_store,
        )
        if not reference.terminated:
            return fail("reference run did not reach fixpoint")

        rules_path = os.path.join(tmp, "rules.tgd")
        db_path = os.path.join(tmp, "db.facts")
        store = os.path.join(tmp, "store")
        with open(rules_path, "w") as handle:
            handle.write(PROGRAM)
        with open(db_path, "w") as handle:
            handle.write(database_text + "\n")

        # Leg 1: cut off after two rounds; exit 1 = step_budget stop.
        # The CLI prints whole instances; keep the CI log to verdicts.
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "chase", rules_path, db_path, "--variant", "so",
                "--save", store, "--max-rounds", "2",
            ])
        if code != 1:
            return fail(f"interrupted leg exited {code}, expected 1")

        # Leg 2: a bare resume must finish the run; exit 0 = fixpoint.
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["chase", "--resume", store])
        if code != 0:
            return fail(f"resume leg exited {code}, expected 0")

        # Read back what the CLI legs persisted and compare.
        persisted = resume_chase(store)
        if not persisted.terminated:
            return fail("persisted store did not record termination")
        if fingerprint(persisted) != fingerprint(reference):
            return fail(
                "resumed run is not byte-identical to the "
                "uninterrupted run"
            )
        if steps_file(store) != steps_file(reference_store):
            return fail(
                f"the resumed store's {STEPS_FILE} differs from the "
                f"uninterrupted run's"
            )
        print(
            f"check_resume: ok — {persisted.step_count} steps, "
            f"{len(persisted.instance)} facts, interrupted and resumed "
            f"byte-identically"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
