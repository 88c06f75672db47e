"""The compiled-pattern lexer against the per-character oracle it replaced.

Both lexers must give the same tokens (type, value, position) and the same
``LexerError`` message and position on every input, except where the
oracle reads a non-decimal digit (``²``, ``①``) as part of a number: there
``tokenize`` raises at that character, and agrees with the oracle on
everything before it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import EXAMPLE1_SQL
from repro.htap.sql.lexer import LexerError, tokenize
from repro.htap.sql.tokens import TokenType
from repro.workloads.generator import QueryPattern, WorkloadGenerator
from sql_lexer_oracle import tokenize as oracle_tokenize


def _outcome(lex, text: str):
    try:
        return [(token.type, token.value, token.position) for token in lex(text)]
    except LexerError as error:
        return ("error", str(error), error.position)


def _is_nondecimal_digit(char: str) -> bool:
    return char.isdigit() and not char.isdecimal()


def assert_matches_oracle(text: str) -> None:
    actual = _outcome(tokenize, text)
    expected = _outcome(oracle_tokenize, text)
    if actual == expected:
        return
    # The one intended difference: a non-decimal digit that the oracle
    # folded into a NUMBER token is an unexpected character here.
    assert isinstance(actual, tuple), (text, actual, expected)
    position = actual[2]
    assert _is_nondecimal_digit(text[position]), (text, actual, expected)
    assert actual[1] == f"unexpected character {text[position]!r} (at position {position})"
    if isinstance(expected, list):
        assert any(
            kind == TokenType.NUMBER and start <= position < start + len(value)
            for kind, value, start in expected
        ), (text, expected)
    else:
        assert expected[2] > position, (text, expected)
    assert _outcome(tokenize, text[:position]) == _outcome(oracle_tokenize, text[:position])


def _workload_sql() -> list[str]:
    sqls = [EXAMPLE1_SQL]
    for seed in (1, 2, 3):
        sqls.extend(query.sql for query in WorkloadGenerator(seed=seed).generate(400))
    generator = WorkloadGenerator(seed=4)
    for pattern in QueryPattern:
        sqls.extend(query.sql for query in generator.generate(5, pattern))
    return sqls


def test_generated_workload_matches_oracle_exactly():
    sqls = _workload_sql()
    assert len(sqls) == 1 + 3 * 400 + 5 * len(QueryPattern)
    for sql in sqls:
        assert _outcome(tokenize, sql) == _outcome(oracle_tokenize, sql), sql


_SQL_PIECES = st.sampled_from(
    [
        "SELECT", "select", "FROM", "WHERE", "AND", "LIMIT", "OFFSET", "IN", "NOT", "LIKE",
        "c_name", "_x", "x1", "1", "42", "3.14", "1.", ".5", "'", "''", "'a''b'", "'ok'",
        "<>", "!=", "<=", ">=", "=", "<", ">", "!", "+", "-", "/", "%",
        ",", "(", ")", ";", "*", ".", " ", "\t", "\n", "@", "#",
    ]
)
_SQL_TEXT = st.lists(
    st.one_of(
        _SQL_PIECES,
        st.characters(min_codepoint=0, max_codepoint=127),
        st.sampled_from(["é", "ß", "٣", " ", "\x1c", "²", "½"]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_SQL_TEXT)
def test_random_text_matches_oracle(text):
    assert_matches_oracle(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "'a''b'",
        "'a''",
        "'a'''",
        "''''",
        "1.5.6",
        "1..2",
        "x.5",
        "a<>b!=c<=d>=e",
        "a ! b",
        "n_name = 'o''brien' AND x",
        "٣٤ + 1",
        "xé ß_1",
        "x y\x1cz",
        "x² '²' 2",
        "½",
        "a + ½",
        "x½",
        "Ⅻ",
        "SELECT ①",
    ],
)
def test_edge_cases_match_oracle(text):
    assert_matches_oracle(text)


@pytest.mark.parametrize(
    ("text", "position"),
    [("²", 0), ("LIMIT 2²", 7), ("x = 1.²", 6), ("SELECT ① FROM t", 7)],
)
def test_nondecimal_digit_is_an_unexpected_character(text, position):
    with pytest.raises(LexerError) as raised:
        tokenize(text)
    assert raised.value.position == position
    assert str(raised.value) == f"unexpected character {text[position]!r} (at position {position})"
    # The oracle made these part of a NUMBER token.
    assert any(
        token.type == TokenType.NUMBER and text[position] in token.value for token in oracle_tokenize(text)
    )

