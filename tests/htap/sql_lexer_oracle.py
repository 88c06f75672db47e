"""The per-character SQL lexer, kept as the oracle for ``repro.htap.sql.lexer``.

This is the hand-written lexer the compiled-pattern ``tokenize`` replaced,
unchanged apart from its imports: the operator tuples it reads live here
now, and it raises the production :class:`LexerError` so that errors
compare directly.  ``test_sql_lexer_oracle.py`` checks that both lexers
give the same tokens and the same errors.

One difference is intended.  Here ``str.isdigit`` starts a number, so a
non-decimal digit such as ``²`` becomes part of a NUMBER token that the
parser's ``int()`` cannot read; the production lexer reads decimal digits
only and rejects such a character where it stands.
"""

from __future__ import annotations

from repro.htap.sql.lexer import LexerError
from repro.htap.sql.tokens import KEYWORDS, Token, TokenType

#: Multi-character operators, checked before single-character ones.
MULTI_CHAR_OPERATORS = ("<>", "!=", "<=", ">=")
SINGLE_CHAR_OPERATORS = ("=", "<", ">", "+", "-", "/", "%")


def tokenize(sql: str) -> list[Token]:
    """Convert ``sql`` into a list of tokens ending with an EOF token."""
    tokens: list[Token] = []
    index = 0
    length = len(sql)
    while index < length:
        char = sql[index]
        if char.isspace():
            index += 1
            continue
        if char == "," :
            tokens.append(Token(TokenType.COMMA, ",", index))
            index += 1
            continue
        if char == "(":
            tokens.append(Token(TokenType.LPAREN, "(", index))
            index += 1
            continue
        if char == ")":
            tokens.append(Token(TokenType.RPAREN, ")", index))
            index += 1
            continue
        if char == ";":
            tokens.append(Token(TokenType.SEMICOLON, ";", index))
            index += 1
            continue
        if char == "*":
            tokens.append(Token(TokenType.STAR, "*", index))
            index += 1
            continue
        if char == ".":
            tokens.append(Token(TokenType.DOT, ".", index))
            index += 1
            continue
        if char == "'":
            token, index = _read_string(sql, index)
            tokens.append(token)
            continue
        if char.isdigit():
            token, index = _read_number(sql, index)
            tokens.append(token)
            continue
        multi = _match_operator(sql, index)
        if multi is not None:
            tokens.append(Token(TokenType.OPERATOR, multi, index))
            index += len(multi)
            continue
        if char.isalpha() or char == "_":
            token, index = _read_word(sql, index)
            tokens.append(token)
            continue
        raise LexerError(f"unexpected character {char!r}", index)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _read_string(sql: str, start: int) -> tuple[Token, int]:
    """Read a single-quoted string literal starting at ``start``."""
    index = start + 1
    chars: list[str] = []
    while index < len(sql):
        char = sql[index]
        if char == "'":
            # '' escapes a quote inside the literal.
            if index + 1 < len(sql) and sql[index + 1] == "'":
                chars.append("'")
                index += 2
                continue
            return Token(TokenType.STRING, "".join(chars), start), index + 1
        chars.append(char)
        index += 1
    raise LexerError("unterminated string literal", start)


def _read_number(sql: str, start: int) -> tuple[Token, int]:
    index = start
    seen_dot = False
    while index < len(sql) and (sql[index].isdigit() or (sql[index] == "." and not seen_dot)):
        if sql[index] == ".":
            # A trailing dot followed by a non-digit belongs to the next token.
            if index + 1 >= len(sql) or not sql[index + 1].isdigit():
                break
            seen_dot = True
        index += 1
    return Token(TokenType.NUMBER, sql[start:index], start), index


def _read_word(sql: str, start: int) -> tuple[Token, int]:
    index = start
    while index < len(sql) and (sql[index].isalnum() or sql[index] == "_"):
        index += 1
    word = sql[start:index]
    if word.upper() in KEYWORDS:
        return Token(TokenType.KEYWORD, word.upper(), start), index
    return Token(TokenType.IDENTIFIER, word.lower(), start), index


def _match_operator(sql: str, index: int) -> str | None:
    for operator in MULTI_CHAR_OPERATORS:
        if sql.startswith(operator, index):
            return operator
    for operator in SINGLE_CHAR_OPERATORS:
        if sql.startswith(operator, index):
            return operator
    return None
