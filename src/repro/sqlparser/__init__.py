"""SQL front end: scanner, parser, AST and canonical formatter.

Typical use::

    from repro.sqlparser import parse, format_sql

    tree = parse("SELECT name FROM Employee WHERE empId = 8")
    print(format_sql(tree))
"""

from .errors import LexerError, ParseError, SqlError, UnsupportedStatementError
from .scanner import StatementFingerprint, fingerprint_statement, tokenize
from .parser import parse, parse_select, parse_tokens
from .formatter import format_expression, format_sql
from . import ast_nodes as ast

__all__ = [
    "LexerError",
    "ParseError",
    "SqlError",
    "UnsupportedStatementError",
    "StatementFingerprint",
    "fingerprint_statement",
    "tokenize",
    "parse",
    "parse_select",
    "parse_tokens",
    "format_expression",
    "format_sql",
    "ast",
]
