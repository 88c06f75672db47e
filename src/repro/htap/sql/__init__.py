"""SQL subset used by the HTAP simulator.

The workload of the paper (Section IV) consists of multi-way join queries and
top-N queries over the TPC-H schema.  This subpackage provides a small but
real SQL front end for that subset: a lexer (one compiled regular
expression), an abstract syntax tree, and a recursive-descent parser that
raises only ``LexerError`` or ``ParserError`` on malformed input.  Both
engines plan queries from the same parsed representation, mirroring
ByteHTAP's unified interface.
"""

from repro.htap.sql import ast
from repro.htap.sql.parser import parse_query

__all__ = ["ast", "parse_query"]
