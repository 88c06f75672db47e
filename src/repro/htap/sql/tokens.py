"""Token types, keywords and the token tuple the SQL lexer emits."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Kinds of tokens produced by the lexer."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    DOT = "dot"
    SEMICOLON = "semicolon"
    EOF = "eof"


#: Keywords recognised by the parser (upper-cased for comparison).
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "GROUP",
        "ORDER",
        "BY",
        "HAVING",
        "LIMIT",
        "OFFSET",
        "ASC",
        "DESC",
        "AS",
        "COUNT",
        "SUM",
        "AVG",
        "MIN",
        "MAX",
        "DISTINCT",
        "JOIN",
        "INNER",
        "ON",
    }
)


class Token(NamedTuple):
    """A single lexical token with its source position (for error messages).

    A named tuple: the lexer builds one per token of every planned query,
    and a tuple is the cheapest immutable record to construct.
    """

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        return self.type == TokenType.KEYWORD and self.value == keyword.upper()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Token({self.type.name}, {self.value!r}@{self.position})"
