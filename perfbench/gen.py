"""Seeded input generators for the benchmark workloads.

Every generator draws only from ``random.Random(seed)`` and returns
plain text (rules, facts, queries) together with the answers a correct
program must produce.  The expected values come from the generator's
own bookkeeping — closed forms over what it emitted — never from the
program under test.  Sizes depend only on ``scale``; the seed changes
which constants, edges and queries are drawn, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

TOWER_LEVELS = 5
#: Point lookups per template in the chase_batch battery.  Many cheap
#: lookups per template make the battery's median and p90 averages
#: over seeded constants rather than the cost of one constant.
LOOKUPS = 20


def _lines(items) -> str:
    return "\n".join(items) + "\n"


def _spread(count: int, buckets: int, rng) -> List[int]:
    """``count`` bucket numbers, each bucket used equally often, in
    seeded order: seeded assignments with seed-independent sizes."""
    out = [i % buckets for i in range(count)]
    rng.shuffle(out)
    return out


def _chain_lengths(count: int, low: int, high: int, rng) -> List[int]:
    """``count`` lengths spread evenly over ``[low, high]`` in seeded
    order: the multiset (and so the total work) is seed-independent."""
    span = high - low + 1
    lengths = [low + (j * 7) % span for j in range(count)]
    rng.shuffle(lengths)
    return lengths


# -- chase_batch -----------------------------------------------------------

def chase_batch(seed: int, scale: float = 1.0) -> Dict:
    """Offline materialisation: a guarded existential tower, an s-t
    data-exchange mapping with invented keys and target joins, and
    transitive closure over chains, plus a certain-answer battery.

    Returns ``rules``/``facts`` text, ``battery`` (a list of
    ``{"query", "boolean", "expect"}`` with ``expect`` an answer count
    or a truth value) and ``expect_facts``, the fixpoint size of the
    semi-oblivious chase.
    """
    rng = random.Random(seed)
    rules: List[str] = []
    facts: List[str] = []
    battery: List[Dict] = []
    derived = 0

    # Guarded tower: level k invents one witness per active frontier
    # value; the frontier is Y alone, so extra r1 edges into an active
    # b (the "x" edges) add homomorphisms but no semi-oblivious
    # triggers, and b's without m1 (the "w" edges) never fire.
    roots = max(4, int(15000 * scale))
    for k in range(1, TOWER_LEVELS + 1):
        rules.append(
            f"r{k}(X, Y), m{k}(Y) -> exists Z . r{k + 1}(Y, Z), m{k + 1}(Z)"
        )
    top = TOWER_LEVELS + 1
    rules.append(f"r{top}(X, Y), m{top}(Y) -> top(X)")
    for i in range(roots):
        facts.append(f"r1(a{i}, b{i})")
        facts.append(f"m1(b{i})")
    into: Dict[int, int] = {}
    extra = roots // 5
    for j in range(extra):
        target = rng.randrange(roots)
        into[target] = into.get(target, 0) + 1
        facts.append(f"r1(x{j}, b{target})")
    for j in range(roots // 10):
        facts.append(f"r1(a{rng.randrange(roots)}, w{j})")
    derived += 2 * TOWER_LEVELS * roots + roots
    for _ in range(LOOKUPS):
        target = rng.randrange(roots)
        battery.append({"query": f"q(X) :- r1(X, b{target})",
                        "boolean": False, "expect": 1 + into.get(target, 0)})
    battery.append({"query": "q(X) :- r1(X, Y), m1(Y)",
                    "boolean": False, "expect": roots + extra})
    battery.append({"query": "q(X) :- r1(X, Y), r2(Y, Z), r3(Z, W)",
                    "boolean": False, "expect": roots + extra})
    battery.append({"query": f"q(Y) :- r3(Y, Z), m{TOWER_LEVELS}(Z)",
                    "boolean": False, "expect": 0})

    # Data exchange: each source emp row gets an invented key K in the
    # target schema; two target joins rebuild where each emp lives.
    emps = max(6, int(25000 * scale))
    depts = max(3, int(500 * scale))
    cities = max(2, int(50 * scale))
    rules.append("emp(E, D) -> exists K . t_emp(E, K), t_works(K, D)")
    rules.append("dept(D, C) -> t_dept(D, C)")
    rules.append("t_works(K, D), t_dept(D, C) -> t_loc(K, C)")
    rules.append("t_emp(E, K), t_loc(K, C) -> lives(E, C)")
    city_of = _spread(depts, cities, rng)
    dept_of = _spread(emps, depts, rng)
    for d, c in enumerate(city_of):
        facts.append(f"dept(d{d}, c{c})")
    for e, d in enumerate(dept_of):
        facts.append(f"emp(e{e}, d{d})")
    derived += 4 * emps + depts
    per_city = [0] * cities
    per_dept = [0] * depts
    for d in dept_of:
        per_city[city_of[d]] += 1
        per_dept[d] += 1
    # The battery's p90 falls in the middle of the 20 city lookups.
    for i in range(LOOKUPS):
        c = rng.randrange(cities)
        battery.append({"query": f"q(E) :- lives(E, c{c})",
                        "boolean": False, "expect": per_city[c]})
        d = rng.randrange(depts)
        battery.append({"query": f"q(E) :- t_emp(E, K), t_works(K, d{d})",
                        "boolean": False, "expect": per_dept[d]})
        e = rng.randrange(emps)
        city = (city_of[dept_of[e]] + i % 2) % cities
        battery.append({"query": f"lives(e{e}, c{city})", "boolean": True,
                        "expect": city == city_of[dept_of[e]]})
    battery.append({
        "query": "q(E, C) :- t_emp(E, K), t_works(K, D), t_dept(D, C)",
        "boolean": False, "expect": emps,
    })

    # Transitive closure over disjoint chains: one round per hop.
    chains = max(2, int(100 * scale))
    lengths = _chain_lengths(chains, 40, 80, rng) if scale >= 1 else \
        _chain_lengths(chains, 4, 8, rng)
    rules.append("e(X, Y) -> tc(X, Y)")
    rules.append("tc(X, Y), e(Y, Z) -> tc(X, Z)")
    for j, n in enumerate(lengths):
        for t in range(n):
            facts.append(f"e(v{j}_{t}, v{j}_{t + 1})")
        derived += n * (n + 1) // 2
    # Lookup cost grows with the chain: look up an even sweep of the
    # (seed-independent) lengths, on seeded chains.
    by_length = sorted(range(chains), key=lambda j: (lengths[j], j))
    for i in range(LOOKUPS):
        j = by_length[i * chains // LOOKUPS]
        n = lengths[j]
        battery.append({"query": f"q(Y) :- tc(v{j}_0, Y)",
                        "boolean": False, "expect": n})
        battery.append({"query": f"q(X) :- tc(X, v{j}_{n})",
                        "boolean": False, "expect": n})
        ends = (0, n) if j % 2 else (n, 0)
        battery.append({"query": f"tc(v{j}_{ends[0]}, v{j}_{ends[1]})",
                        "boolean": True, "expect": ends[0] == 0})
    battery.append({
        "query": "q(X, Y) :- tc(X, Y), e(Y, Z)", "boolean": False,
        "expect": sum(n * (n - 1) // 2 for n in lengths),
    })

    rng.shuffle(facts)
    return {
        "rules": _lines(rules),
        "facts": _lines(facts),
        "battery": battery,
        "base_facts": len(facts),
        "expect_facts": len(facts) + derived,
    }


# -- serve_rw --------------------------------------------------------------

def serve_rw(seed: int, scale: float = 1.0) -> Dict:
    """A resident of about 5x10^4 facts and the reader/writer plan.

    The resident is the exchange mapping, transitive closure over
    chains and a directed ``f`` graph with planted triangles.  An
    ingested fact either hires a new emp (4 derived facts and one
    invented key) or extends a chain by one edge (as many new ``tc``
    facts as the chain has nodes), so reader answers are a closed form
    of which ingests a snapshot already covers — ``state`` below is
    what :func:`expected_read` needs.
    """
    rng = random.Random(seed)
    rules = [
        "emp(E, D) -> exists K . t_emp(E, K), t_works(K, D)",
        "dept(D, C) -> t_dept(D, C)",
        "t_works(K, D), t_dept(D, C) -> t_loc(K, C)",
        "t_emp(E, K), t_loc(K, C) -> lives(E, C)",
        "e(X, Y) -> tc(X, Y)",
        "tc(X, Y), e(Y, Z) -> tc(X, Z)",
    ]
    facts: List[str] = []
    emps = max(6, int(6000 * scale))
    depts = max(3, int(100 * scale))
    cities = max(2, int(20 * scale))
    city_of = _spread(depts, cities, rng)
    dept_of = _spread(emps, depts, rng)
    for d, c in enumerate(city_of):
        facts.append(f"dept(d{d}, c{c})")
    for e, d in enumerate(dept_of):
        facts.append(f"emp(e{e}, d{d})")
    # Short chains keep the initial chase to 5 rounds: with --save
    # every round boundary is a durable checkpoint, paid at start-up.
    chains = max(2, int(1200 * scale))
    lengths = _chain_lengths(chains, 2, 4, rng)
    for j, n in enumerate(lengths):
        for t in range(n):
            facts.append(f"e(v{j}_{t}, v{j}_{t + 1})")
    # f: a circulant graph (out-edges to i+1 and i+37) plus planted
    # triangles a -> a+k -> a+2k -> a (k = nodes/3), the only directed
    # 3-cycles; the seed relabels the nodes, so every seed gets the
    # same graph up to isomorphism.
    nodes = max(6, 3 * int(1000 * scale))
    third = nodes // 3
    edges = {(i, (i + step) % nodes) for i in range(nodes)
             for step in (1, 37 % nodes)}
    for a in rng.sample(range(third), max(2, int(100 * scale))):
        edges.update({(a, a + third), (a + third, a + 2 * third),
                      (a + 2 * third, a)})
    label = rng.sample(range(nodes), nodes)
    for a, b in sorted(edges):
        facts.append(f"f(n{label[a]}, n{label[b]})")
    succ: Dict[int, set] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    triangles = sum(
        1 for a, b in edges for c in succ.get(b, ())
        if a in succ.get(c, ())
    )
    rng.shuffle(facts)
    return {
        "rules": _lines(rules),
        "facts": _lines(facts),
        "state": {
            "emps": emps, "depts": depts, "cities": cities,
            "city_of": city_of, "dept_of": dept_of,
            "lengths": lengths, "triangles": triangles,
        },
    }


def serve_writes(seed: int, state: Dict) -> Iterator[List[Dict]]:
    """Seeded ingest deltas of 1–5 new base facts each, without end.  A
    fact is ``{"kind": "emp", "dept": d}`` (a new hire) or
    ``{"kind": "edge", "chain": j}`` (extend chain ``j`` by one hop);
    :func:`apply_write` turns it into text and updates ``state``."""
    rng = random.Random(seed * 7919 + 1)
    while True:
        # Every delta hires one emp, whose derivations take the most
        # rounds, so each ingest runs the same number of chase rounds
        # (and round checkpoints) whatever else it carries.
        delta = [{"kind": "emp", "dept": rng.randrange(state["depts"])}]
        chosen = set()
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                delta.append({"kind": "emp",
                              "dept": rng.randrange(state["depts"])})
            else:
                chain = rng.randrange(len(state["lengths"]))
                if chain in chosen:
                    continue
                chosen.add(chain)
                delta.append({"kind": "edge", "chain": chain})
        yield delta


def apply_write(state: Dict, delta: List[Dict]) -> List[str]:
    """Mutate ``state`` by one delta and return the delta's fact text."""
    out = []
    for item in delta:
        if item["kind"] == "emp":
            e = len(state["dept_of"])
            state["dept_of"].append(item["dept"])
            out.append(f"emp(e{e}, d{item['dept']})")
        else:
            j = item["chain"]
            n = state["lengths"][j]
            state["lengths"][j] = n + 1
            out.append(f"e(v{j}_{n}, v{j}_{n + 1})")
    return out


def serve_reads(seed: int, state: Dict) -> Iterator[Dict]:
    """Seeded reader requests over the *base* state, without end: point
    lookups, a fat 3-atom certain join, a cyclic triangle CQ, boolean
    CQs and ``/entail`` probes.  Each carries what its answer depends
    on, so :func:`expected_read` can check it at any watermark."""
    rng = random.Random(seed * 7919 + 2)
    chains = len(state["lengths"])
    emps = state["emps"]
    block: List[str] = []
    while True:
        if not block:
            # Exact shares in every block of 50, in seeded order.
            block = (["point"] * 20 + ["join"] + ["triangle"]
                     + ["bool"] * 12 + ["entail"] * 16)
            rng.shuffle(block)
        op = block.pop()
        j = rng.randrange(chains)
        if op == "point":
            yield {"op": op, "chain": j,
                   "query": f"q(Y) :- tc(v{j}_0, Y)"}
        elif op == "join":
            yield {"op": op, "query": "q(E, C) :- t_emp(E, K), "
                                      "t_works(K, D), t_dept(D, C)"}
        elif op == "triangle":
            yield {"op": op,
                   "query": "q(X, Y, Z) :- f(X, Y), f(Y, Z), f(Z, X)"}
        elif op == "bool":
            # True once chain j has grown to ``hop`` hops: a probe of
            # how fresh the reader's snapshot is.
            hop = state["lengths"][j] + rng.randint(0, 2)
            yield {"op": op, "chain": j, "hop": hop,
                   "query": f"tc(v{j}_0, v{j}_{hop})"}
        else:
            e = rng.randrange(emps)
            c = rng.randrange(state["cities"])
            yield {"op": op, "emp": e, "city": c,
                   "atom": f"lives(e{e}, c{c})"}


def expected_read(read: Dict, state: Dict):
    """The answer ``read`` must get from the resident in ``state``:
    a count for answer queries, a truth value for boolean ones."""
    op = read["op"]
    if op == "point":
        return state["lengths"][read["chain"]]
    if op == "join":
        return len(state["dept_of"])
    if op == "triangle":
        return state["triangles"]
    if op == "bool":
        return read["hop"] <= state["lengths"][read["chain"]]
    dept_of = state["dept_of"]
    e = read["emp"]
    return e < len(dept_of) and state["city_of"][dept_of[e]] == read["city"]


# -- decide_zoo ------------------------------------------------------------

def _tower(depth: int, close: bool) -> List[str]:
    rules = [
        f"r{i}(X, Y), m{i}(Y) -> exists Z . r{i + 1}(Y, Z), m{i + 1}(Z)"
        for i in range(1, depth + 1)
    ]
    if close:
        rules.append(f"r{depth + 1}(X, Y), m{depth + 1}(Y) -> "
                     f"exists Z . r1(Y, Z), m1(Z)")
    return rules


def _dllite(concepts: int, close: bool) -> List[str]:
    rules = []
    for i in range(1, concepts):
        rules.append(f"c{i}(X) -> exists Y . role{i}(X, Y)")
        rules.append(f"role{i}(X, Y) -> c{i + 1}(Y)")
    if close:
        rules.append(f"c{concepts}(X) -> exists Y . role{concepts}(X, Y)")
        rules.append(f"role{concepts}(X, Y) -> c1(Y)")
    return rules


def _linear_const(length: int, blocked: bool) -> List[str]:
    """A linear cycle carrying a rule constant.  ``blocked``: the
    constant sits where the cycle needs a fresh null, so the chase
    stops after one lap; otherwise the constant rides along and the
    cycle invents forever."""
    if blocked:
        rules = ["p1(k, X) -> exists Z . p2(X, Z)"]
        source = "p2(X, Z)"
    else:
        rules = ["p1(Y, X) -> exists Z . p2(X, Z, k)"]
        source = "p2(X, Z, W)"
    for i in range(2, length + 1):
        body = source if i == 2 else f"p{i}(X, Z)"
        rules.append(f"{body} -> p{i + 1 if i < length else 1}(X, Z)")
    return rules


def _random_guarded(shape, rng, preds: int, rules_n: int) -> List[str]:
    """A random guarded program whose rules have a binary guard plus
    unary side atoms over guard variables.  ``shape`` draws the
    structure; ``rng`` only renames predicates and orders the rules,
    so the program's cost does not depend on ``rng``."""
    g_name = rng.sample(range(preds), preds)
    s_name = rng.sample(range(preds), preds)
    rules = []
    for _ in range(rules_n):
        body = [f"g{g_name[shape.randrange(preds)]}(X, Y)"]
        if shape.random() < 0.7:
            body.append(f"s{s_name[shape.randrange(preds)]}"
                        f"({shape.choice('XY')})")
        h = shape.randrange(preds)
        roll = shape.random()
        if roll < 0.45:
            head = (f"exists Z . g{g_name[h]}({shape.choice('XY')}, Z), "
                    f"s{s_name[shape.randrange(preds)]}(Z)")
        elif roll < 0.75:
            head = f"g{g_name[h]}(Y, X)"
        else:
            head = f"s{s_name[h]}({shape.choice('XY')})"
        rules.append(", ".join(body) + " -> " + head)
    rng.shuffle(rules)
    return rules


def decide_zoo(seed: int, scale: float = 1.0) -> List[Dict]:
    """About 150 programs for ``termination_report``.  Families with
    a known verdict carry ``expect`` (True = every database terminates,
    for both the oblivious and the semi-oblivious chase); random
    guarded programs carry ``None`` and are checked for consistency
    only.  Family sizes sweep a fixed range and random structures are
    fixed per slot, so the seed renames and reorders but does not
    change the mix of costs."""
    rng = random.Random(seed)
    count = max(6, int(150 * scale))
    kinds = ["tower", "loop", "dl_chain", "dl_cycle", "lin_blocked",
             "lin_open", "random", "random"]
    programs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        lap = i // len(kinds)
        if kind in ("tower", "loop"):
            rules = _tower(1 + lap % 12, kind == "loop")
            expect = kind == "tower"
        elif kind in ("dl_chain", "dl_cycle"):
            rules = _dllite(2 + (lap * 5) % 23, kind == "dl_cycle")
            expect = kind == "dl_chain"
        elif kind in ("lin_blocked", "lin_open"):
            rules = _linear_const(2 + (lap * 3) % 9, kind == "lin_blocked")
            expect = kind == "lin_blocked"
        else:
            rules = _random_guarded(random.Random(i), rng, 2 + lap % 4,
                                    3 + (lap * 5) % 6)
            expect = None
        programs.append({"name": f"{kind}{i}", "kind": kind,
                         "rules": _lines(rules), "expect": expect})
    rng.shuffle(programs)
    return programs
