"""The vector tier ≡ the tuple engine ≡ the oracle, and the tier pick.

``repro.query.kernels`` adds the vector kernel (NumPy-vectorized hash
joins over the interned int columns, with a pure-Python twin when
NumPy is absent) beside the tuple-at-a-time executor, and
:class:`~repro.query.compiled.CompiledQuery` picks between the two per
resolved plan.  The contract this suite enforces, on randomized
chase-grown instances with labelled nulls and Skolem terms:

* the vector kernel is **order-exact**: its answer *sequence* equals
  the tuple engine's, byte for byte, so the pick can never change an
  answer sequence;
* both agree with the retained object-level oracle
  (:func:`repro.model.naive_homomorphisms`);
* the pure-Python twin (``_np`` forced to ``None``) is
  answer-identical to the NumPy path, order included;
* the pick follows the tuple engine's estimated join work: lookups
  and constant-selective joins stay on the tuple engine, fat joins
  (chained or cyclic) go vector — with and without NumPy.
"""

import random

import pytest

from repro.chase import ChaseVariant, critical_instance, run_chase
from repro.cq import ConjunctiveQuery
from repro.model import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    TGD,
    Variable,
    naive_homomorphisms,
)
from repro.model.joinplan import resolve_exec
from repro.query import CompiledQuery, numpy_active, order_for
from repro.query import kernels as kernels_module
from repro.query.kernels import (
    AUTO_VECTOR_MIN_ROWS,
    batch_exists,
    choose_kernel,
    run_batch,
    run_batch_unique,
)
from repro.termination import skolem_chase
from tests.conftest import atom

X, Y, Z = (Variable(n) for n in ("X", "Y", "Z"))


def oracle_answer_set(answer_variables, atoms, instance):
    return {
        tuple(assignment[v] for v in answer_variables)
        for assignment in naive_homomorphisms(atoms, instance)
    }


def _random_program(rng):
    preds = [Predicate(f"p{i}", rng.randint(1, 3)) for i in range(3)]
    variables = [Variable(n) for n in ("X", "Y", "Z", "W")]
    consts = [Constant(c) for c in ("a", "b")]
    rules = []
    for _ in range(rng.randint(2, 4)):
        body = []
        for _ in range(rng.randint(1, 2)):
            pred = rng.choice(preds)
            body.append(Atom(pred, [
                rng.choice(consts) if rng.random() < 0.15
                else rng.choice(variables[:3])
                for _ in range(pred.arity)
            ]))
        body_vars = {t for a in body for t in a.variables()}
        head_pred = rng.choice(preds)
        head_pool = sorted(body_vars) + [variables[3]]
        head = [Atom(head_pred, [
            rng.choice(head_pool) for _ in range(head_pred.arity)
        ])]
        rules.append(TGD(body, head))
    return rules, preds, consts


def _random_query(rng, preds):
    variables = [Variable(n) for n in ("X", "Y", "Z")]
    body = []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(preds)
        body.append(Atom(pred, [
            rng.choice(variables) for _ in range(pred.arity)
        ]))
    body_vars = sorted({t for a in body for t in a.variables()})
    answer = [v for v in body_vars if rng.random() < 0.6]
    return ConjunctiveQuery(answer, body)


def _grown(rng, rules, preds, consts):
    db = Database()
    for _ in range(rng.randint(3, 7)):
        pred = rng.choice(preds)
        db.add(Atom(pred, [rng.choice(consts)
                           for _ in range(pred.arity)]))
    return run_chase(db, rules, ChaseVariant.SEMI_OBLIVIOUS,
                     max_steps=80).instance


def _edge_instance(n=40, extra=()):
    """A sparse digraph with planted triangles for cyclic queries."""
    inst = Instance()
    for i in range(n):
        inst.add(atom("e", f"v{i}", f"v{(i * 7 + 3) % n}"))
    for a, b in extra:
        inst.add(atom("e", a, b))
    return inst


TRIANGLE = [atom("e", "X", "Y"), atom("e", "Y", "Z"), atom("e", "Z", "X")]


def _tiers(query, instance):
    """Both tiers run directly on ``query``'s cost-ordered plan:
    ``(tuple matches, vector matches, vector unique, vector exists)``
    in id space, the tuple side enumerated by ``PlanExec.run``."""
    exec_ = resolve_exec(instance, order_for(query.atoms, instance))
    slots = tuple(exec_.slot_of[v] for v in query.answer_variables)
    tuple_matches = [
        tuple(match[s] for s in slots)
        for match in exec_.run(instance, exec_.fresh_assign())
    ]
    return (
        tuple_matches,
        run_batch(exec_, instance, slots),
        run_batch_unique(exec_, instance, slots),
        batch_exists(exec_, instance),
    )


def _first_seen(items):
    return list(dict.fromkeys(items))


def _on_each_tier(force, instance, queries, evaluate):
    """``evaluate(query, inst)`` for every query with all plans forced
    onto the tuple tier, asserted equal to the same with all plans
    forced onto the vector tier; returns the tuple tier's results."""
    results = {}
    for tier in ("tuple", "vector"):
        force(tier)
        # A fresh copy per tier: the pick is cached with the plan.
        inst = Instance(instance.facts())
        results[tier] = [evaluate(query, inst) for query in queries]
    assert results["vector"] == results["tuple"]
    return results["tuple"]


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    """Run a test on the NumPy path and again on the pure-Python twin."""
    if request.param == "numpy":
        if not numpy_active():
            pytest.skip("NumPy absent")
    else:
        monkeypatch.setattr(kernels_module, "_np", None)
    return request.param


@pytest.fixture
def forced_tier(monkeypatch):
    """Force every multi-atom plan built afterwards onto one tier."""
    def force(tier):
        threshold = 0 if tier == "vector" else float("inf")
        monkeypatch.setattr(
            kernels_module, "AUTO_VECTOR_MIN_ROWS", threshold
        )
    return force


class TestKernelAnswerEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_vector_is_order_exact_and_oracle_equal(self, seed):
        rng = random.Random(seed + 2000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        obj = grown.symbols.obj
        for _ in range(4):
            query = _random_query(rng, preds)
            matches, vector, unique, exists = _tiers(query, grown)
            # Sequence equality, not just set equality.
            assert vector == matches
            assert unique == _first_seen(matches)
            assert exists == bool(matches)
            assert {tuple(obj(t) for t in ids) for ids in vector} == (
                oracle_answer_set(query.answer_variables, query.atoms,
                                  grown)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_agree_on_skolem_instances(self, seed):
        rng = random.Random(seed + 4000)
        rules, preds, consts = _random_program(rng)
        grown, _, _ = skolem_chase(critical_instance(rules), rules,
                                   max_steps=200)
        for _ in range(3):
            query = _random_query(rng, preds)
            matches, vector, unique, exists = _tiers(query, grown)
            assert vector == matches
            assert unique == _first_seen(matches)
            assert exists == bool(matches)

    @pytest.mark.parametrize("seed", range(5))
    def test_answers_agree_across_kernels(self, seed, forced_tier):
        rng = random.Random(seed + 3000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        queries = [_random_query(rng, preds) for _ in range(4)]

        def evaluate(query, inst):
            return (list(query.answers(inst)),
                    list(query.compiled().matches_ids(inst)))

        _on_each_tier(forced_tier, grown, queries, evaluate)

    @pytest.mark.parametrize("seed", range(5))
    def test_certain_answers_agree_across_kernels(self, seed, forced_tier):
        rng = random.Random(seed + 5000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        queries = [_random_query(rng, preds) for _ in range(3)]
        expected = _on_each_tier(
            forced_tier, grown, queries,
            lambda query, inst: query.certain_answers(inst),
        )
        for answers in expected:
            for answer in answers:
                assert not any(isinstance(t, Null) for t in answer)

    @pytest.mark.parametrize("seed", range(5))
    def test_boolean_queries_agree_across_kernels(self, seed, forced_tier):
        rng = random.Random(seed + 6000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        queries = [
            ConjunctiveQuery([], _random_query(rng, preds).atoms)
            for _ in range(4)
        ]
        _on_each_tier(
            forced_tier, grown, queries,
            lambda query, inst: query.holds_in(inst),
        )

    def test_chosen_tier_matches_tuple(self, forced_tier):
        inst = _edge_instance(extra=[("v1", "v0")])
        query = ConjunctiveQuery([X, Z], TRIANGLE)
        chosen = list(query.answers(inst))
        forced_tier("tuple")
        assert list(query.answers(Instance(inst.facts()))) == chosen

    def test_triangle_query_vector(self):
        inst = _edge_instance(
            n=30,
            extra=[("t0", "t1"), ("t1", "t2"), ("t2", "t0")],
        )
        query = ConjunctiveQuery([X, Y, Z], TRIANGLE)
        matches, vector, _, _ = _tiers(query, inst)
        assert vector == matches
        obj = inst.symbols.obj
        oracle = oracle_answer_set([X, Y, Z], TRIANGLE, inst)
        assert {tuple(obj(t) for t in ids) for ids in vector} == oracle
        assert (Constant("t0"), Constant("t1"), Constant("t2")) in oracle


class TestPurePythonFallback:
    @pytest.mark.parametrize("seed", range(5))
    def test_fallback_is_answer_identical(
        self, seed, monkeypatch, forced_tier
    ):
        rng = random.Random(seed + 7000)
        rules, preds, consts = _random_program(rng)
        grown = _grown(rng, rules, preds, consts)
        queries = [_random_query(rng, preds) for _ in range(3)]
        forced_tier("vector")
        with_np = [
            (list(q.answers(grown)), _tiers(q, grown)) for q in queries
        ]
        monkeypatch.setattr(kernels_module, "_np", None)
        assert not numpy_active()
        without_np = [
            (list(q.answers(grown)), _tiers(q, grown)) for q in queries
        ]
        assert without_np == with_np


def _pick(atoms, inst):
    """The tier ``CompiledQuery`` runs ``atoms`` on over ``inst``."""
    return choose_kernel(order_for(atoms, inst), inst)


def _exchange_instance(emps=3000, depts=60):
    """The s-t exchange target shape: every emp has an invented key
    working in one department."""
    inst = Instance()
    for i in range(emps):
        inst.add(atom("t_emp", f"e{i}", f"k{i}"))
        inst.add(atom("t_works", f"k{i}", f"d{i % depts}"))
    return inst


def _spy(monkeypatch, name):
    """Count calls to one vector-kernel entry point."""
    calls = []
    original = getattr(kernels_module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels_module, name, spy)
    return calls


class TestKernelSelection:
    def test_choose_kernel_small_instance_is_tuple(self):
        inst = Instance([atom("e", "a", "b")])
        assert _pick(
            [atom("e", "X", "Y"), atom("f", "Y", "Z")], inst
        ) == "tuple"

    def test_constant_selective_join_stays_tuple(
        self, numpy_mode, monkeypatch
    ):
        inst = _exchange_instance()
        assert len(inst) > AUTO_VECTOR_MIN_ROWS
        atoms = [atom("t_emp", "E", "K"), atom("t_works", "K", "d7")]
        assert _pick(atoms, inst) == "tuple"
        calls = _spy(monkeypatch, "run_batch_unique")
        answers = list(CompiledQuery([Variable("E")], atoms).answers(inst))
        assert len(answers) == 50
        assert calls == []

    def test_single_atom_lookup_stays_tuple(self):
        inst = _exchange_instance()
        assert _pick([atom("t_works", "K", "D")], inst) == "tuple"
        assert _pick([atom("t_works", "K", "d7")], inst) == "tuple"

    def test_fat_chained_join_is_vector(self, numpy_mode, monkeypatch):
        inst = _exchange_instance()
        atoms = [atom("t_emp", "E", "K"), atom("t_works", "K", "D")]
        assert _pick(atoms, inst) == "vector"
        calls = _spy(monkeypatch, "run_batch_unique")
        compiled = CompiledQuery([Variable("E"), Variable("D")], atoms)
        assert len(list(compiled.answers(inst))) == 3000
        assert calls == ["run_batch_unique"]

    def test_low_degree_triangle_is_vector(self, numpy_mode, monkeypatch):
        # Out-degree at most 2 over 1500 nodes, one planted triangle.
        n = 1500
        inst = _edge_instance(
            n=n,
            extra=[(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
            + [("t0", "t1"), ("t1", "t2"), ("t2", "t0")],
        )
        assert _pick(TRIANGLE, inst) == "vector"
        calls = _spy(monkeypatch, "run_batch_unique")
        compiled = CompiledQuery([X, Y, Z], TRIANGLE)
        answers = list(compiled.answers(inst))
        assert calls == ["run_batch_unique"]
        matches, _, _, _ = _tiers(ConjunctiveQuery([X, Y, Z], TRIANGLE),
                                  inst)
        obj = inst.symbols.obj
        assert answers == [
            tuple(obj(t) for t in ids) for ids in _first_seen(matches)
        ]
        assert (Constant("t0"), Constant("t1"), Constant("t2")) in answers

    def test_pick_follows_growth(self):
        # The pick is made per plan, and plans are rebuilt when the
        # instance crosses a fact-count bucket.
        compiled = CompiledQuery(
            [X, Z], [atom("e", "X", "Y"), atom("e", "Y", "Z")]
        )
        inst = _edge_instance(n=40)
        assert compiled._resolved(inst)[5] is False
        for i in range(4000):
            inst.add(atom("e", f"w{i}", f"w{i + 1}"))
        assert compiled._resolved(inst)[5] is True


class TestEarlyOut:
    def test_unsatisfiable_constant_short_circuits(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("e", "X", "zzz")],
        )
        assert list(compiled.answers(inst)) == []
        assert compiled.stats["early_outs"] == 1

    def test_empty_relation_short_circuits(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("ghost", "Y")],
        )
        assert list(compiled.answers(inst)) == []
        assert compiled.stats["early_outs"] == 1

    def test_early_out_applies_to_every_verb(self):
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [], [atom("e", "X", "Y"), atom("e", "X", "zzz")],
        )
        assert not compiled.holds_in(inst)
        assert list(compiled.certain_ids(inst)) == []
        assert compiled.stats["early_outs"] >= 2

    def test_early_out_is_not_sticky(self):
        # The relation can become satisfiable later: the check is per
        # call, not baked into the cached plan.
        inst = Instance([atom("e", "a", "b")])
        compiled = CompiledQuery(
            [X], [atom("e", "X", "Y"), atom("ghost", "Y")],
        )
        assert list(compiled.answers(inst)) == []
        inst.add(atom("ghost", "b"))
        assert list(compiled.answers(inst)) == [(Constant("a"),)]
