"""Recursive-descent parser for the SQL subset.

Grammar (informal):

.. code-block:: text

    query      := SELECT select_list FROM table_list
                  [WHERE expr] [GROUP BY expr_list]
                  [ORDER BY order_list] [LIMIT n] [OFFSET n] [;]
    select_list:= select_item (',' select_item)*
    select_item:= expr [AS ident] | '*'
    table_list := ident (',' ident)*            -- comma joins, like the paper
                | ident (JOIN ident ON expr)*   -- explicit inner joins
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := primary [cmp primary | IN (...) | BETWEEN .. AND ..
                  | LIKE '...' | IS [NOT] NULL]
    primary    := literal | ident['.'ident] | func '(' args ')' | '(' expr ')' | '*'

The parser produces :mod:`repro.htap.sql.ast` nodes.  It raises
:class:`ParserError` with the offending token position on malformed input,
nesting deeper than :data:`MAX_NESTING_DEPTH` and more than
:data:`MAX_CONNECTIVES` ``AND`` / ``OR`` included.
"""

from __future__ import annotations

from repro.htap.sql import ast
from repro.htap.sql.lexer import tokenize
from repro.htap.sql.tokens import Token, TokenType

#: Levels of parentheses, call arguments and NOTs one expression may nest.
#: A level costs up to six frames, so a parse stays far from RecursionError.
MAX_NESTING_DEPTH = 64

#: ``AND`` / ``OR`` operators one statement may hold: chains are left-deep, so
#: the AST walkers recurse once per operator.  Generated queries hold at most 5.
MAX_CONNECTIVES = 256


class ParserError(ValueError):
    """Raised on malformed SQL with the offending token position."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} near {token.value!r} (position {token.position})")
        self.token = token


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0
        self.depth = -1  # a top-level expression is at depth 0
        self.connectives = 0

    # ---------------------------------------------------------------- helpers
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect_keyword(self, keyword: str) -> Token:
        if not self.current.matches_keyword(keyword):
            raise ParserError(f"expected {keyword}", self.current)
        return self.advance()

    def expect(self, token_type: TokenType) -> Token:
        if self.current.type != token_type:
            raise ParserError(f"expected {token_type.value}", self.current)
        return self.advance()

    def accept_keyword(self, keyword: str) -> bool:
        if self.current.matches_keyword(keyword):
            self.advance()
            return True
        return False

    def accept(self, token_type: TokenType) -> bool:
        if self.current.type == token_type:
            self.advance()
            return True
        return False

    # ------------------------------------------------------------------ query
    def parse_query(self) -> ast.Query:
        self.expect_keyword("SELECT")
        select_items = self._parse_select_list()
        self.expect_keyword("FROM")
        tables, join_predicates = self._parse_table_list()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_expression()
        # Fold explicit JOIN ... ON predicates into the WHERE clause so the
        # optimizers see one uniform representation.
        for predicate in join_predicates:
            where = predicate if where is None else ast.And(where, predicate)
        group_by: tuple[ast.Expression, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self._parse_expression_list())
        if self.accept_keyword("HAVING"):
            having = self._parse_expression()
            where = having if where is None else ast.And(where, having)
        order_by: tuple[ast.OrderItem, ...] = ()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = tuple(self._parse_order_list())
        limit = None
        if self.accept_keyword("LIMIT"):
            limit = self._parse_count()
        offset = None
        if self.accept_keyword("OFFSET"):
            offset = self._parse_count()
        self.accept(TokenType.SEMICOLON)
        if self.current.type != TokenType.EOF:
            raise ParserError("unexpected trailing input", self.current)
        return ast.Query(
            select_items=tuple(select_items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            offset=offset,
            raw_sql=self.sql.strip(),
        )

    # ------------------------------------------------------------ select list
    def _parse_select_list(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self._parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENTIFIER).value
        elif self.current.type == TokenType.IDENTIFIER:
            alias = self.advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    # ------------------------------------------------------------- table list
    def _parse_table_list(self) -> tuple[list[str], list[ast.Expression]]:
        tables = [self.expect(TokenType.IDENTIFIER).value]
        join_predicates: list[ast.Expression] = []
        while True:
            if self.accept(TokenType.COMMA):
                tables.append(self.expect(TokenType.IDENTIFIER).value)
                continue
            if self.current.matches_keyword("INNER") or self.current.matches_keyword("JOIN"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                tables.append(self.expect(TokenType.IDENTIFIER).value)
                self.expect_keyword("ON")
                join_predicates.append(self._parse_expression())
                continue
            break
        return tables, join_predicates

    # -------------------------------------------------------------- order list
    def _parse_order_list(self) -> list[ast.OrderItem]:
        items = [self._parse_order_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expression=expression, descending=descending)

    def _parse_expression_list(self) -> list[ast.Expression]:
        expressions = [self._parse_expression()]
        while self.accept(TokenType.COMMA):
            expressions.append(self._parse_expression())
        return expressions

    # ------------------------------------------------------------- expressions
    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            self._count_connective()
            left = ast.Or(left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            self._count_connective()
            left = ast.And(left, self._parse_not())
        return left

    def _count_connective(self) -> None:
        self.connectives += 1
        if self.connectives > MAX_CONNECTIVES:
            raise ParserError(f"more than {MAX_CONNECTIVES} AND / OR", self.tokens[self.index - 1])

    def _parse_not(self) -> ast.Expression:
        # Every nesting level, a '(' or a call's '(' or a NOT, passes here.
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParserError(f"nesting deeper than {MAX_NESTING_DEPTH}", self.tokens[self.index - 1])
        if self.accept_keyword("NOT"):
            expression: ast.Expression = ast.Not(self._parse_not())
        else:
            expression = self._parse_predicate()
        self.depth -= 1
        return expression

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_primary()
        if self.current.type == TokenType.OPERATOR:
            operator = self.advance().value
            right = self._parse_primary()
            return ast.Comparison(operator=operator, left=left, right=right)
        negated = False
        if self.current.matches_keyword("NOT"):
            # look-ahead for NOT IN / NOT LIKE
            next_token = self.tokens[self.index + 1]
            if next_token.matches_keyword("IN") or next_token.matches_keyword("LIKE"):
                self.advance()
                negated = True
        if self.accept_keyword("IN"):
            return self._parse_in_list(left, negated)
        if self.accept_keyword("LIKE"):
            pattern = self.expect(TokenType.STRING).value
            return ast.Like(operand=left, pattern=pattern, negated=negated)
        if self.accept_keyword("BETWEEN"):
            low = self._parse_primary()
            self.expect_keyword("AND")
            high = self._parse_primary()
            return ast.Between(operand=left, low=low, high=high)
        if self.accept_keyword("IS"):
            null_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(operand=left, negated=null_negated)
        return left

    def _parse_in_list(self, operand: ast.Expression, negated: bool) -> ast.InList:
        self.expect(TokenType.LPAREN)
        values: list[ast.Literal] = []
        while True:
            token = self.current
            if token.type == TokenType.STRING:
                values.append(ast.Literal(self.advance().value))
            elif token.type == TokenType.NUMBER:
                values.append(ast.Literal(self._parse_number()))
            else:
                raise ParserError("expected literal in IN list", token)
            if not self.accept(TokenType.COMMA):
                break
        self.expect(TokenType.RPAREN)
        return ast.InList(operand=operand, values=tuple(values), negated=negated)

    def _parse_primary(self) -> ast.Expression:
        token = self.current
        if token.type == TokenType.NUMBER:
            return ast.Literal(self._parse_number())
        if token.type == TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type == TokenType.STAR:
            self.advance()
            return ast.Star()
        if token.type == TokenType.LPAREN:
            self.advance()
            inner = self._parse_expression()
            self.expect(TokenType.RPAREN)
            return inner
        if token.type == TokenType.KEYWORD and token.value in {"COUNT", "SUM", "AVG", "MIN", "MAX"}:
            self.advance()
            return self._parse_function_call(token.value)
        if token.type == TokenType.IDENTIFIER:
            self.advance()
            if self.current.type == TokenType.LPAREN:
                return self._parse_function_call(token.value)
            if self.current.type == TokenType.DOT:
                self.advance()
                column = self.expect(TokenType.IDENTIFIER).value
                return ast.ColumnRef(name=column, table=token.value)
            return ast.ColumnRef(name=token.value)
        raise ParserError("expected expression", token)

    def _parse_number(self) -> int | float:
        token = self.expect(TokenType.NUMBER)
        if "." in token.value:
            return float(token.value)
        try:
            return int(token.value)
        except ValueError:  # more digits than int() converts
            raise ParserError("integer too long", token) from None

    def _parse_count(self) -> int:
        """The whole number after LIMIT or OFFSET."""
        token = self.current
        value = self._parse_number()
        if not isinstance(value, int):
            raise ParserError("expected an integer", token)
        return value

    def _parse_function_call(self, name: str) -> ast.FunctionCall:
        self.expect(TokenType.LPAREN)
        distinct = self.accept_keyword("DISTINCT")
        args: list[ast.Expression] = []
        if not self.accept(TokenType.RPAREN):
            args.append(self._parse_expression())
            while self.accept(TokenType.COMMA):
                args.append(self._parse_expression())
            self.expect(TokenType.RPAREN)
        return ast.FunctionCall(name=name.upper(), args=tuple(args), distinct=distinct)


def parse_query(sql: str) -> ast.Query:
    """Parse ``sql`` into a :class:`repro.htap.sql.ast.Query`.

    Raises
    ------
    ParserError
        If the statement is not in the supported subset.
    """
    return _Parser(sql).parse_query()
