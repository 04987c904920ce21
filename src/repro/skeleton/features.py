"""Predicate census and clause features for antipattern detection.

The antipattern definitions quantify over *predicates*:

* Definition 11 (Stifle): ``CP = 1``, ``θ = 'equality'`` and the filter
  column is a key attribute — this module computes CP (count of
  predicates), the θ of each predicate and its filter column.
* Definition 15 (CTH): the SELECT columns of the first query must feed the
  single equality predicate of each follow-up — this module extracts the
  output columns of a query and the (column, constant) equality filters.
* Definition 16 (SNC): a predicate comparing against NULL with = / <>.

All extraction is purely syntactic; key-attribute classification needs a
schema and therefore takes a ``key_columns`` set provided by the caller
(usually from :class:`repro.engine.catalog.Catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..sqlparser import ast_nodes as ast

#: θ values (Definition 11's comparison-operator classification).
THETA_EQUALITY = "equality"
THETA_INEQUALITY = "inequality"
THETA_RANGE = "range"
THETA_IN = "in"
THETA_LIKE = "like"
THETA_IS_NULL = "is_null"
THETA_EXISTS = "exists"
THETA_OTHER = "other"

_COMPARISON_THETA = {
    "=": THETA_EQUALITY,
    "<>": THETA_INEQUALITY,
    "<": THETA_RANGE,
    "<=": THETA_RANGE,
    ">": THETA_RANGE,
    ">=": THETA_RANGE,
}


@dataclass(frozen=True)
class Predicate:
    """One leaf predicate of a WHERE clause.

    :param theta: the operator class (one of the THETA_* constants).
    :param column: the filtered column, when the predicate has the shape
        ``column θ constant`` (or symmetric); None otherwise.
    :param value: the constant side, when it is a literal; None otherwise.
    :param node: the original AST node.
    :param compares_null: True when the predicate compares against a NULL
        literal using = or <> — the SNC trigger.
    """

    theta: str
    column: Optional[ast.ColumnRef]
    value: Optional[ast.Literal]
    node: ast.Expression
    compares_null: bool = False


def _is_constant(node: ast.Expression) -> bool:
    return isinstance(node, ast.Literal)


def _classify_comparison(node: ast.Comparison) -> Predicate:
    theta = _COMPARISON_THETA.get(node.op, THETA_OTHER)
    column: Optional[ast.ColumnRef] = None
    value: Optional[ast.Literal] = None
    left, right = node.left, node.right
    if isinstance(left, ast.ColumnRef) and _is_constant(right):
        column, value = left, right  # type: ignore[assignment]
    elif isinstance(right, ast.ColumnRef) and _is_constant(left):
        column, value = right, left  # type: ignore[assignment]
    compares_null = (
        isinstance(right, ast.Literal)
        and right.kind == "null"
        or isinstance(left, ast.Literal)
        and left.kind == "null"
    ) and theta in (THETA_EQUALITY, THETA_INEQUALITY)
    return Predicate(
        theta=theta,
        column=column,
        value=value,
        node=node,
        compares_null=compares_null,
    )


def iter_predicates(where: Optional[ast.Expression]) -> Iterator[Predicate]:
    """Yield the leaf predicates of a WHERE expression.

    AND/OR/NOT connectives are traversed; every other node is a leaf.
    Join conditions expressed in the WHERE clause (``a.x = b.x``) yield
    predicates with ``column=None`` (neither side is a constant), so they
    never satisfy the Stifle's equality-on-constant requirement — but they
    still count toward CP, matching the paper's "count of predicates".
    """
    if where is None:
        return
    stack: List[ast.Expression] = [where]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.And, ast.Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, ast.Not):
            stack.append(node.operand)
        elif isinstance(node, ast.Comparison):
            yield _classify_comparison(node)
        elif isinstance(node, ast.InList):
            column = node.expr if isinstance(node.expr, ast.ColumnRef) else None
            yield Predicate(THETA_IN, column, None, node)
        elif isinstance(node, ast.InSubquery):
            column = node.expr if isinstance(node.expr, ast.ColumnRef) else None
            yield Predicate(THETA_IN, column, None, node)
        elif isinstance(node, ast.Between):
            column = node.expr if isinstance(node.expr, ast.ColumnRef) else None
            yield Predicate(THETA_RANGE, column, None, node)
        elif isinstance(node, ast.IsNull):
            column = node.expr if isinstance(node.expr, ast.ColumnRef) else None
            yield Predicate(THETA_IS_NULL, column, None, node)
        elif isinstance(node, ast.Like):
            column = node.expr if isinstance(node.expr, ast.ColumnRef) else None
            yield Predicate(THETA_LIKE, column, None, node)
        elif isinstance(node, ast.Exists):
            yield Predicate(THETA_EXISTS, None, None, node)
        else:
            yield Predicate(THETA_OTHER, None, None, node)


def predicates_of(statement: ast.SelectStatement) -> List[Predicate]:
    """All leaf predicates of the statement's WHERE clause."""
    return list(iter_predicates(statement.where))


def single_equality_filter(
    statement: ast.SelectStatement,
) -> Optional[Predicate]:
    """Return the predicate iff the statement filters by exactly one
    equality comparison of a column against a constant — the Stifle /
    CTH-follow-up shape (CP=1, θ='equality')."""
    return _single_equality(predicates_of(statement))


def _single_equality(predicates: List[Predicate]) -> Optional[Predicate]:
    if len(predicates) != 1:
        return None
    predicate = predicates[0]
    if predicate.theta != THETA_EQUALITY or predicate.column is None:
        return None
    if predicate.value is None:
        return None
    return predicate


def predicate_facts(
    statement: ast.SelectStatement,
) -> Tuple[int, Optional[Predicate], int]:
    """CP of Definition 11 (the number of leaf predicates in the WHERE
    clause), the single equality filter and the number of ``= NULL`` /
    ``<> NULL`` predicates, from one predicate pass: what a freshly
    parsed query carries (:func:`single_equality_filter` and
    :func:`null_comparison_predicates` each take their own pass)."""
    predicates = predicates_of(statement)
    nulls = sum(1 for predicate in predicates if predicate.compares_null)
    return len(predicates), _single_equality(predicates), nulls


def output_columns(statement: ast.SelectStatement) -> Set[str]:
    """Lower-cased names exposed by the SELECT list (aliases win).

    Star projections contribute the pseudo-name ``'*'`` — a follow-up
    query can pick up *any* column from a star-projecting first query,
    which the CTH detector treats as a wildcard match.
    """
    names: Set[str] = set()
    for item in statement.items:
        if isinstance(item.expr, ast.Star):
            names.add("*")
            continue
        name = item.output_name()
        if name:
            names.add(name.lower())
    return names


def filter_columns(statement: ast.SelectStatement) -> List[str]:
    """Lower-cased filter-column names of all column-vs-constant predicates."""
    return [
        predicate.column.name.lower()
        for predicate in predicates_of(statement)
        if predicate.column is not None
    ]


def referenced_tables(statement: ast.SelectStatement) -> Set[str]:
    """Lower-cased base-table names referenced in the FROM clause."""
    tables: Set[str] = set()

    def visit(source: ast.TableSource) -> None:
        if isinstance(source, ast.TableName):
            tables.add(source.name.lower())
        elif isinstance(source, ast.FunctionTable):
            tables.add(source.call.name.lower())
        elif isinstance(source, ast.DerivedTable):
            for inner in source.select.from_sources:
                visit(inner)
        elif isinstance(source, ast.Join):
            visit(source.left)
            visit(source.right)

    for source in statement.from_sources:
        visit(source)
    return tables


def null_comparison_predicates(
    statement: ast.SelectStatement,
) -> List[Predicate]:
    """Predicates using ``= NULL`` / ``<> NULL`` — the SNC shape."""
    return [p for p in predicates_of(statement) if p.compares_null]


def is_key_filter(
    predicate: Predicate, key_columns: Optional[Sequence[str]]
) -> bool:
    """Definition 11, third axiom: the filter column is a key attribute.

    ``key_columns`` is the schema's set of key-attribute names (lower-
    cased).  When no schema is available (``None``), the axiom is waived —
    the paper notes the axiom could be omitted at the cost of false
    positives, and benchmark E15 quantifies exactly that trade-off.
    """
    if predicate.column is None:
        return False
    keys = _lowered_key_set(key_columns)
    return keys is None or predicate.column.name.lower() in keys


def _lowered_key_set(
    key_columns: Optional[Sequence[str]],
) -> Optional[FrozenSet[str]]:
    """``key_columns`` lower-cased (``None`` stays ``None``).

    A detection run asks once per query, so each hashable key set is
    lower-cased once and remembered; a list or set is lower-cased on
    every call.
    """
    if key_columns is None:
        return None
    try:
        return _lowered(key_columns)
    except TypeError:  # unhashable: a list or a set
        return frozenset(k.lower() for k in key_columns)


@lru_cache(maxsize=16)
def _lowered(key_columns: Sequence[str]) -> FrozenSet[str]:
    return frozenset(k.lower() for k in key_columns)
