"""Pretty-printing of rules, programs, and instances.

The printed form round-trips through :mod:`repro.parser.parser` for
rules and databases (nulls print as ``z<i>`` and are not re-parseable,
which matches the usual convention that databases are null-free).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..model import Atom, Constant, Instance, TGD, Term


def atom_to_text(atom: Atom) -> str:
    """Render one atom, quoting constants that would not re-parse bare."""
    parts = ", ".join(_term_to_text(term) for term in atom.terms)
    return f"{atom.predicate.name}({parts})"


def answers_to_text(
    name: str, answers: Iterable[Sequence[Term]]
) -> List[str]:
    """Render answer tuples as atoms over the predicate ``name`` —
    ``atom_to_text`` of each — rendering every distinct term once."""
    rendered: Dict[Term, str] = {}
    out = []
    for answer in answers:
        parts = []
        for term in answer:
            text = rendered.get(term)
            if text is None:
                text = rendered[term] = _term_to_text(term)
            parts.append(text)
        out.append(f"{name}({', '.join(parts)})")
    return out


def _term_to_text(term: Term) -> str:
    text = str(term)
    return f"'{text}'" if _needs_quoting(term, text) else text


def _needs_quoting(term: object, text: str) -> bool:
    if not isinstance(term, Constant):
        return False
    if not text:
        return True
    if text[0].isupper() or text[0] == "_":
        return True
    return not all(ch.isalnum() or ch in "_-" for ch in text)


def rule_to_text(rule: TGD) -> str:
    """Render one rule in the parser's syntax."""
    body = ", ".join(atom_to_text(a) for a in rule.body)
    head = ", ".join(atom_to_text(a) for a in rule.head)
    if rule.existential_variables:
        ex = ", ".join(sorted(v.name for v in rule.existential_variables))
        return f"{body} -> exists {ex} . {head}"
    return f"{body} -> {head}"


def program_to_text(rules: Iterable[TGD]) -> str:
    """Render a program, one rule per line."""
    return "\n".join(rule_to_text(r) for r in rules)


def instance_to_text(instance: Instance) -> str:
    """Render an instance, one fact per line, sorted for stability."""
    return "\n".join(sorted(atom_to_text(f) for f in instance))
