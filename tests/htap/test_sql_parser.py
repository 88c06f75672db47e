"""Tests for the SQL lexer and parser."""

import hashlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.htap.sql import ast, parser
from repro.htap.sql.lexer import LexerError, tokenize
from repro.htap.sql.parser import MAX_CONNECTIVES, MAX_NESTING_DEPTH, ParserError, parse_query
from repro.htap.sql.tokens import TokenType
from repro.workloads.generator import WorkloadGenerator


# ------------------------------------------------------------------- lexer
def test_tokenize_basic_query():
    tokens = tokenize("SELECT c_name FROM customer WHERE c_custkey = 5;")
    kinds = [token.type for token in tokens]
    assert kinds[0] == TokenType.KEYWORD
    assert kinds[-1] == TokenType.EOF
    values = [token.value for token in tokens]
    assert "customer" in values
    assert "=" in values


def test_tokenize_string_with_escaped_quote():
    tokens = tokenize("SELECT * FROM nation WHERE n_name = 'o''brien';")
    strings = [token for token in tokens if token.type == TokenType.STRING]
    assert strings[0].value == "o'brien"


def test_tokenize_numbers_and_decimals():
    tokens = tokenize("SELECT 42, 3.14 FROM nation;")
    numbers = [token.value for token in tokens if token.type == TokenType.NUMBER]
    assert numbers == ["42", "3.14"]


def test_tokenize_unterminated_string_raises():
    with pytest.raises(LexerError):
        tokenize("SELECT * FROM nation WHERE n_name = 'egypt")


def test_tokenize_unknown_character_raises():
    with pytest.raises(LexerError):
        tokenize("SELECT @ FROM nation")


def test_keywords_case_insensitive():
    tokens = tokenize("select COUNT(*) from ORDERS")
    assert tokens[0].matches_keyword("SELECT")
    identifiers = [token.value for token in tokens if token.type == TokenType.IDENTIFIER]
    assert "orders" in identifiers


# ------------------------------------------------------------------ parser
def test_parse_example1(example1_sql):
    query = parse_query(example1_sql)
    assert query.tables == ("customer", "nation", "orders")
    assert query.has_aggregation
    assert not query.is_top_n
    select = query.select_items[0].expression
    assert isinstance(select, ast.FunctionCall)
    assert select.name == "COUNT"
    conjuncts = ast.conjuncts(query.where)
    assert len(conjuncts) == 6
    joins = [conjunct for conjunct in conjuncts if ast.is_join_predicate(conjunct)]
    assert len(joins) == 2


def test_parse_top_n_query():
    query = parse_query(
        "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 10 OFFSET 100;"
    )
    assert query.is_top_n
    assert query.limit == 10
    assert query.offset == 100
    assert query.order_by[0].descending


def test_parse_group_by_and_aliases():
    query = parse_query(
        "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) total FROM lineitem "
        "GROUP BY l_returnflag ORDER BY l_returnflag;"
    )
    assert query.select_items[1].alias == "cnt"
    assert query.select_items[2].alias == "total"
    assert len(query.group_by) == 1
    assert query.has_aggregation


def test_parse_explicit_join_folds_into_where():
    query = parse_query(
        "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey WHERE c_mktsegment = 'machinery';"
    )
    assert query.tables == ("customer", "orders")
    joins = [conjunct for conjunct in ast.conjuncts(query.where) if ast.is_join_predicate(conjunct)]
    assert len(joins) == 1


def test_parse_in_between_like_isnull():
    query = parse_query(
        "SELECT c_name FROM customer WHERE c_mktsegment IN ('machinery', 'building') "
        "AND c_acctbal BETWEEN 0 AND 500 AND c_phone NOT LIKE '13%' AND c_comment IS NOT NULL;"
    )
    conjuncts = ast.conjuncts(query.where)
    assert any(isinstance(conjunct, ast.InList) for conjunct in conjuncts)
    assert any(isinstance(conjunct, ast.Between) for conjunct in conjuncts)
    assert any(isinstance(conjunct, ast.Like) and conjunct.negated for conjunct in conjuncts)
    assert any(isinstance(conjunct, ast.IsNull) and conjunct.negated for conjunct in conjuncts)


def test_parse_qualified_column_references():
    query = parse_query("SELECT customer.c_name FROM customer WHERE customer.c_custkey = 7;")
    select = query.select_items[0].expression
    assert isinstance(select, ast.ColumnRef)
    assert select.table == "customer"


def test_parse_or_and_not_precedence():
    query = parse_query(
        "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p' OR o_orderstatus = 'f' AND NOT o_shippriority = 1;"
    )
    # AND binds tighter than OR.
    assert isinstance(query.where, ast.Or)
    assert isinstance(query.where.right, ast.And)
    assert isinstance(query.where.right.right, ast.Not)


def test_parser_error_on_missing_from():
    with pytest.raises(ParserError):
        parse_query("SELECT c_name customer;")


def test_parser_error_on_trailing_garbage():
    with pytest.raises(ParserError):
        parse_query("SELECT c_name FROM customer WHERE c_custkey = 1 EXTRA;")


def test_parser_error_on_bad_in_list():
    with pytest.raises(ParserError):
        parse_query("SELECT c_name FROM customer WHERE c_custkey IN (c_nationkey);")


def test_referenced_columns_cover_all_clauses():
    query = parse_query(
        "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > 10 "
        "GROUP BY c_name ORDER BY c_name LIMIT 5;"
    )
    referenced = query.referenced_columns()
    assert {"c_name", "c_custkey", "o_custkey", "o_totalprice"} <= referenced


def test_conjuncts_roundtrip():
    query = parse_query("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p' AND o_totalprice > 10;")
    parts = ast.conjuncts(query.where)
    rebuilt = ast.combine_conjuncts(parts)
    assert ast.conjuncts(rebuilt) == parts
    assert ast.combine_conjuncts([]) is None


def test_query_is_hashable_and_comparable():
    first = parse_query("SELECT c_name FROM customer WHERE c_custkey = 1;")
    second = parse_query("SELECT c_name FROM customer WHERE c_custkey = 1;")
    assert first.select_items == second.select_items
    assert first.where == second.where


# ------------------------------------------------------- malformed numbers
@pytest.mark.parametrize(
    ("sql", "position"),
    [
        ("SELECT o_orderkey FROM orders LIMIT 1.5;", 36),
        ("SELECT o_orderkey FROM orders LIMIT 10 OFFSET 2.5;", 46),
    ],
)
def test_fractional_limit_or_offset_is_a_parser_error(sql, position):
    with pytest.raises(ParserError) as raised:
        parse_query(sql)
    assert raised.value.token.type == TokenType.NUMBER
    assert raised.value.token.position == position


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts any length on this interpreter",
)
def test_integer_longer_than_int_converts_is_a_parser_error():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParserError) as raised:
        parse_query(f"SELECT o_orderkey FROM orders WHERE o_orderkey = {digits};")
    assert raised.value.token.value == digits


# ----------------------------------------------------------------- nesting
@pytest.mark.parametrize(
    ("opener", "closer", "count"),
    [("(", ")", 200), ("NOT ", "", 1000), ("COUNT(", ")", 200)],
)
def test_deep_nesting_is_a_parser_error_at_the_crossing_token(opener, closer, count):
    where = f"{opener * count}c_custkey = 1{closer * count}"
    sql = f"SELECT c_name FROM customer WHERE {where};"
    with pytest.raises(ParserError, match="nesting deeper than") as raised:
        parse_query(sql)
    crossing = sql.index(where) + MAX_NESTING_DEPTH * len(opener) + max(opener.find("("), 0)
    assert raised.value.token.position == crossing


@pytest.mark.parametrize("opener", ["(", "NOT "])
def test_nesting_at_the_limit_still_parses(opener):
    closer = ")" if opener == "(" else ""
    depth = MAX_NESTING_DEPTH
    parse_query(f"SELECT c_name FROM customer WHERE {opener * depth}c_custkey = 1{closer * depth};")


def test_generated_workload_nests_far_below_the_limit(monkeypatch):
    # Every generated query still parses with an eighth of the limit.
    monkeypatch.setattr(parser, "MAX_NESTING_DEPTH", MAX_NESTING_DEPTH // 8)
    for query in WorkloadGenerator(seed=3).generate(600):
        parse_query(query.sql)



# ------------------------------------------------------------- AND / OR chains
@pytest.mark.parametrize("connective", ["AND", "OR"])
def test_long_flat_chain_is_a_parser_error_at_the_crossing_token(connective):
    terms = [f"c_custkey > {i}" for i in range(2000)]
    sql = f"SELECT c_name FROM customer WHERE {f' {connective} '.join(terms)};"
    with pytest.raises(ParserError, match=f"more than {MAX_CONNECTIVES} AND / OR") as raised:
        parse_query(sql)
    assert raised.value.token.value == connective
    crossing = terms[MAX_CONNECTIVES]  # the term before the one connective too many
    assert raised.value.token.position == sql.index(f"{crossing} {connective}") + len(crossing) + 1


def test_connectives_count_over_the_whole_statement():
    # Chains split by parentheses share one bound.
    half = " AND ".join(["c_custkey > 1"] * (MAX_CONNECTIVES // 2 + 1))
    parse_query(f"SELECT c_name FROM customer WHERE ({half}) OR c_custkey = 0")
    with pytest.raises(ParserError, match="AND / OR"):
        parse_query(f"SELECT c_name FROM customer WHERE ({half}) AND ({half})")


def test_generated_sql_parses_to_the_same_trees():
    # repr() of every tree for 2,000 generated queries, hashed; the value
    # was read off the parser before the connective bound existed.
    digest = hashlib.sha256()
    for seed in (1, 2, 3, 5, 11):
        for query in WorkloadGenerator(seed=seed).generate(400):
            digest.update(repr(parse_query(query.sql)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == "e9c12f2b6bd5e09c7cd13c9fe8dbbcea0a6332a9ca91b4496e15d1cdaf7bda53"

_FUZZ_PIECES = st.sampled_from(
    [
        "SELECT ", "FROM ", "WHERE ", "AND ", "OR ", "NOT ", "IN ", "BETWEEN ", "LIKE ", "IS ",
        "NULL ", "GROUP BY ", "ORDER BY ", "HAVING ", "LIMIT ", "OFFSET ", "ASC ", "DESC ",
        "AS ", "COUNT", "SUM", "DISTINCT ", "JOIN ", "INNER ", "ON ",
        "orders ", "customer ", "c_name ", "o_totalprice ", "t.", "x ",
        "0 ", "7 ", "42 ", "1.5 ", "2.5", "3.",
        "'a' ", "'o''brien' ", "'' ", "'",
        "= ", "<> ", "!= ", "<= ", ">= ", "< ", "> ", "+ ", "- ", "/ ", "% ",
        ", ", "(", ")", "*", ";", ".", " ",
        "²", "①", "٣",
    ]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_FUZZ_PIECES, max_size=24).map("".join))
def test_parse_query_raises_only_parser_or_lexer_errors(sql):
    try:
        parse_query(sql)
    except (ParserError, LexerError):
        pass
