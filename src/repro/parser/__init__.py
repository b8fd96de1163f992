"""Text syntax for rules, programs, facts, and databases."""

from .parser import (
    ParseError,
    parse_atom,
    parse_database,
    parse_fact,
    parse_program,
    parse_query,
    parse_rule,
)
from .printer import (
    answers_to_text,
    atom_to_text,
    instance_to_text,
    program_to_text,
    rule_to_text,
)

__all__ = [
    "ParseError",
    "answers_to_text",
    "atom_to_text",
    "instance_to_text",
    "parse_atom",
    "parse_database",
    "parse_fact",
    "parse_program",
    "parse_query",
    "parse_rule",
    "program_to_text",
    "rule_to_text",
]
