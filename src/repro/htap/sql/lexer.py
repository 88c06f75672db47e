"""Lexer for the SQL subset: one compiled pattern, walked by ``re.finditer``.

The lexer recognises identifiers, keywords, numeric and string literals,
parentheses, commas, ``*``, ``.``, ``;`` and the comparison and arithmetic
operators used by TPC-H style queries.  Each alternative of
:data:`_PATTERN` is one token kind; a last catch-all alternative matches
any character nothing else takes, so the matches tile the input and an
error always carries the offending position.

Digits are decimal digits only (``\\d``), so ``²`` or ``①`` is an
unexpected character rather than a number that ``int()`` cannot read.
"""

from __future__ import annotations

import re

from repro.htap.sql.tokens import KEYWORDS, Token, TokenType


class LexerError(ValueError):
    """Raised when the input contains a character the lexer cannot handle."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PATTERN = re.compile(
    r"""
      (?P<space>\s+)
    | (?P<punctuation>[,();*.])
    | '(?P<string>[^']*(?:''[^']*)*)'(?!')      # '' escapes a quote
    | (?P<number>\d+(?:\.\d+)?)                  # a dot needs a digit after it
    | (?P<operator><>|!=|<=|>=|[=<>+\-/%])       # longest first
    | (?P<word>[^\W\d]\w*)                       # its first character is checked below
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PUNCTUATION = {
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ";": TokenType.SEMICOLON,
    "*": TokenType.STAR,
    ".": TokenType.DOT,
}


def tokenize(sql: str) -> list[Token]:
    """Convert ``sql`` into a list of tokens ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _PATTERN.finditer(sql):
        kind = match.lastgroup
        if kind == "space":
            continue
        value = match[kind]
        position = match.start()
        if kind == "word":
            # ``[^\W\d]`` also admits numeric characters such as ``½``
            # and ``²``; a word starts with a letter or an underscore.
            if value[0] != "_" and not value[0].isalpha():
                raise LexerError(f"unexpected character {value[0]!r}", position)
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, position))
            else:
                append(Token(TokenType.IDENTIFIER, value.lower(), position))
        elif kind == "punctuation":
            append(Token(_PUNCTUATION[value], value, position))
        elif kind == "number":
            append(Token(TokenType.NUMBER, value, position))
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, value, position))
        elif kind == "string":
            append(Token(TokenType.STRING, value.replace("''", "'"), position))
        elif value == "'":
            raise LexerError("unterminated string literal", position)
        else:
            raise LexerError(f"unexpected character {value!r}", position)
    append(Token(TokenType.EOF, "", len(sql)))
    return tokens
