"""A small text format for rules, programs, and databases.

Syntax (one statement per line; ``%`` starts a comment)::

    % rules: body -> [exists Z1,...,Zk .] head
    person(X) -> exists Y . hasFather(X, Y), person(Y)
    p(X, Y), q(Y) -> r(X)

    % facts (for databases): ground atoms
    person(bob)

    % conjunctive queries: answer atom :- body (bare bodies are boolean)
    q(X) :- person(X), hasFather(X, Y)

Tokens starting with an upper-case letter or underscore are variables;
everything else (bare lower-case words, numbers, and single-quoted
strings) are constants.  The existential prefix is optional — head
variables missing from the body are existentially quantified either
way; when the prefix *is* given it must list exactly those variables.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..model import (
    Atom,
    Constant,
    Database,
    Term,
    TGD,
    Variable,
    intern_predicate,
)


class ParseError(ValueError):
    """Raised on malformed rule/fact text, with position information."""

    def __init__(self, message: str, text: str, pos: int):
        snippet = text[max(0, pos - 20) : pos + 20]
        super().__init__(f"{message} at offset {pos}: ...{snippet!r}...")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<neck>:-)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<quoted>'[^']*')
  | (?P<word>[A-Za-z0-9_][A-Za-z0-9_\-]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens: List[Tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", self.text, tok[2])
        return tok

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


def _is_variable_name(word: str) -> bool:
    return word[0].isupper() or word[0] == "_"


def _parse_term(stream: _TokenStream) -> Term:
    kind, value, pos = stream.next()
    if kind == "quoted":
        return Constant(value[1:-1])
    if kind != "word":
        raise ParseError(f"expected a term, found {value!r}", stream.text, pos)
    if _is_variable_name(value):
        return Variable(value)
    return Constant(value)


def _parse_atom(stream: _TokenStream) -> Atom:
    kind, name, pos = stream.next()
    if kind != "word":
        raise ParseError(
            f"expected a predicate name, found {name!r}", stream.text, pos
        )
    stream.expect("lpar")
    terms: List[Term] = []
    tok = stream.peek()
    if tok is not None and tok[0] == "rpar":
        stream.next()
    else:
        terms.append(_parse_term(stream))
        while True:
            kind, value, pos = stream.next()
            if kind == "rpar":
                break
            if kind != "comma":
                raise ParseError(
                    f"expected ',' or ')', found {value!r}", stream.text, pos
                )
            terms.append(_parse_term(stream))
    return Atom(intern_predicate(name, len(terms)), terms)


def _parse_atom_list(stream: _TokenStream) -> List[Atom]:
    atoms = [_parse_atom(stream)]
    while True:
        tok = stream.peek()
        if tok is None or tok[0] != "comma":
            break
        stream.next()
        atoms.append(_parse_atom(stream))
    return atoms


def parse_atom(text: str) -> Atom:
    """Parse a single atom such as ``p(X, a)``."""
    stream = _TokenStream(text)
    atom = _parse_atom(stream)
    tok = stream.peek()
    if tok is not None and tok[0] == "dot":
        stream.next()
    if not stream.at_end():
        _, value, pos = stream.next()
        raise ParseError(f"trailing input {value!r}", text, pos)
    return atom


def parse_fact(text: str) -> Atom:
    """Parse a ground atom; raises if variables occur."""
    atom = parse_atom(text)
    if not atom.is_ground():
        raise ParseError(f"fact contains variables: {atom}", text, 0)
    return atom


def parse_rule(text: str, label: str = "") -> TGD:
    """Parse one TGD from ``body -> [exists V1,...,Vk .] head`` text."""
    stream = _TokenStream(text)
    body = _parse_atom_list(stream)
    stream.expect("arrow")
    declared: Optional[List[Variable]] = None
    tok = stream.peek()
    if tok is not None and tok[0] == "word" and tok[1] == "exists":
        stream.next()
        declared = []
        while True:
            kind, value, pos = stream.next()
            if kind != "word" or not _is_variable_name(value):
                raise ParseError(
                    f"expected a variable after 'exists', found {value!r}",
                    text,
                    pos,
                )
            declared.append(Variable(value))
            tok = stream.peek()
            if tok is not None and tok[0] == "comma":
                stream.next()
                continue
            break
        stream.expect("dot")
    head = _parse_atom_list(stream)
    tok = stream.peek()
    if tok is not None and tok[0] == "dot":
        stream.next()
    if not stream.at_end():
        _, value, pos = stream.next()
        raise ParseError(f"trailing input {value!r}", text, pos)
    rule = TGD(body, head, label=label)
    if declared is not None:
        if set(declared) != set(rule.existential_variables):
            raise ParseError(
                "declared existential variables "
                f"{{{', '.join(sorted(v.name for v in declared))}}} do not "
                "match the head variables missing from the body "
                f"{{{', '.join(sorted(v.name for v in rule.existential_variables))}}}",
                text,
                0,
            )
    return rule


def parse_query(text: str):
    """Parse a conjunctive query.

    Syntax: ``q(X, Z) :- e(X, Y), e(Y, Z)`` — the answer atom's terms
    are the answer variables (its predicate name is decorative) and the
    conjunction after ``:-`` is the body.  A bare conjunction (no
    ``:-``) is a *boolean* query.  Returns a
    :class:`repro.cq.ConjunctiveQuery`.
    """
    from ..cq import ConjunctiveQuery

    stream = _TokenStream(text)
    first = _parse_atom(stream)
    name = "q"
    tok = stream.peek()
    if tok is not None and tok[0] == "neck":
        stream.next()
        for term in first.terms:
            if not isinstance(term, Variable):
                raise ParseError(
                    f"answer atom terms must be variables, got {term}",
                    text,
                    0,
                )
        answer_variables = list(first.terms)
        name = first.predicate.name
        atoms = _parse_atom_list(stream)
    else:
        # A bare conjunction: boolean query.
        answer_variables = []
        atoms = [first]
        while tok is not None and tok[0] == "comma":
            stream.next()
            atoms.append(_parse_atom(stream))
            tok = stream.peek()
    tok = stream.peek()
    if tok is not None and tok[0] == "dot":
        stream.next()
    if not stream.at_end():
        _, value, pos = stream.next()
        raise ParseError(f"trailing input {value!r}", text, pos)
    try:
        return ConjunctiveQuery(answer_variables, atoms, name=name)
    except ValueError as exc:
        raise ParseError(str(exc), text, 0) from exc


def parse_program(text: str) -> List[TGD]:
    """Parse a whole program: one rule per non-empty, non-comment line."""
    rules: List[TGD] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line, label=f"r{len(rules) + 1}"))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", raw, 0) from exc
    return rules


def parse_database(text: str) -> Database:
    """Parse a database: one ground atom per non-empty, non-comment line."""
    database = Database()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            database.add(parse_fact(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", raw, 0) from exc
    return database
