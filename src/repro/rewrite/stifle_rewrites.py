"""Rewrite rules for the three solvable Stifle classes (Section 4.2.1).

Each rule takes the queries of one detected run and produces a single
replacement SELECT statement:

* **DW-Stifle** → one query whose WHERE merges all equality constants into
  an ``IN`` list (Example 10).  The filter column is added to the SELECT
  list when missing, exactly as the paper's example does — otherwise the
  merged result rows could no longer be attributed to their lookup keys.
* **DS-Stifle** → one query with the union of the SELECT lists
  (Example 12); duplicate items are collapsed.
* **DF-Stifle** → one query joining the FROM tables on the shared filter
  column (Example 14); every query's items are qualified with its table's
  alias so the merged projection stays unambiguous.

A rule may conclude the run is too complex to rewrite mechanically (e.g. a
DF run over derived tables); it then raises :class:`RewriteNotApplicable`
and the solver leaves the instance in the log, counted as detected-but-
unsolved.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..patterns.models import ParsedQuery
from ..sqlparser import ast_nodes as ast
from ..sqlparser.formatter import format_expression
from ..sqlparser.visitor import transform


class RewriteNotApplicable(Exception):
    """The run's shape is outside what the mechanical rewrite handles."""


def _single_select(query: ParsedQuery) -> ast.SelectStatement:
    if not isinstance(query.statement, ast.SelectStatement):
        raise RewriteNotApplicable("UNION statements are not rewritten")
    return query.statement


def _filter_predicate(query: ParsedQuery):
    predicate = query.equality_filter
    if predicate is None or predicate.column is None or predicate.value is None:
        raise RewriteNotApplicable("query lost its single-equality shape")
    return predicate


def _dedupe_items(
    items: Sequence[ast.SelectItem],
) -> Tuple[ast.SelectItem, ...]:
    seen = set()
    result: List[ast.SelectItem] = []
    for item in items:
        key = (format_expression(item.expr).lower(), (item.alias or "").lower())
        if key not in seen:
            seen.add(key)
            result.append(item)
    return tuple(result)


def _selects_column(
    items: Sequence[ast.SelectItem], column: ast.ColumnRef
) -> bool:
    target = column.name.lower()
    for item in items:
        expr = item.expr
        if isinstance(expr, ast.Star):
            return True
        if isinstance(expr, ast.ColumnRef) and expr.name.lower() == target:
            return True
    return False


# ----------------------------------------------------------------------
# DW-Stifle


def rewrite_dw_stifle(queries: Sequence[ParsedQuery]) -> ast.SelectStatement:
    """Merge a DW run into one IN-list query (Example 9 → Example 10).

    Only the first query's AST and predicate are needed; every other
    query contributes its filter column and constant, which a lazy query
    reads straight from its interned entry and constant vector.
    """
    if len(queries) < 2:
        raise RewriteNotApplicable("a stifle run needs at least two queries")
    first = _single_select(queries[0])
    column = _filter_predicate(queries[0]).column
    name = column.name.lower()

    values: List[ast.Expression] = []
    seen = set()
    for query in queries:
        filtered, value = query.filter_column(), query.filter_value()
        if filtered is None or value is None:
            raise RewriteNotApplicable("query lost its single-equality shape")
        if filtered != name:
            raise RewriteNotApplicable("DW run filters differing columns")
        key = (value.kind, value.value)
        if key not in seen:
            seen.add(key)
            values.append(value)

    items = first.items
    if not _selects_column(items, column):
        items = (ast.SelectItem(expr=column),) + items

    if len(values) == 1:
        where: ast.Expression = ast.Comparison(op="=", left=column, right=values[0])
    else:
        where = ast.InList(expr=column, items=tuple(values))
    return ast.SelectStatement(
        items=items,
        from_sources=first.from_sources,
        where=where,
        group_by=first.group_by,
        having=first.having,
        order_by=first.order_by,
        distinct=first.distinct,
        top=first.top,
    )


# ----------------------------------------------------------------------
# DS-Stifle


def rewrite_ds_stifle(queries: Sequence[ParsedQuery]) -> ast.SelectStatement:
    """Union the SELECT lists of a DS run (Example 11 → Example 12)."""
    if len(queries) < 2:
        raise RewriteNotApplicable("a stifle run needs at least two queries")
    first = _single_select(queries[0])
    merged: List[ast.SelectItem] = []
    for query in queries:
        merged.extend(_single_select(query).items)
    return ast.SelectStatement(
        items=_dedupe_items(merged),
        from_sources=first.from_sources,
        where=first.where,
        group_by=first.group_by,
        having=first.having,
        order_by=first.order_by,
        distinct=first.distinct,
        top=first.top,
    )


# ----------------------------------------------------------------------
# DF-Stifle


def _sole_table(query: ParsedQuery) -> ast.TableName:
    select = _single_select(query)
    if len(select.from_sources) != 1 or not isinstance(
        select.from_sources[0], ast.TableName
    ):
        raise RewriteNotApplicable(
            "DF rewrite handles runs of single-base-table queries only"
        )
    if select.group_by or select.having or select.order_by or select.top:
        raise RewriteNotApplicable("DF rewrite does not merge grouped queries")
    return select.from_sources[0]


def _qualify(expr: ast.Expression, alias: str) -> ast.Expression:
    """Qualify every unqualified column of ``expr`` with ``alias``."""

    def rule(node: ast.Node):
        if isinstance(node, ast.ColumnRef) and node.table is None:
            return ast.ColumnRef(name=node.name, table=alias)
        if isinstance(node, ast.Star) and node.table is None:
            return ast.Star(table=alias)
        return None

    return transform(expr, rule)


def rewrite_df_stifle(queries: Sequence[ParsedQuery]) -> ast.SelectStatement:
    """Join the tables of a DF run on the shared key (Example 13 → 14)."""
    if len(queries) < 2:
        raise RewriteNotApplicable("a stifle run needs at least two queries")
    column = _filter_predicate(queries[0]).column
    value = _filter_predicate(queries[0]).value

    tables: List[Tuple[ast.TableName, ParsedQuery]] = []
    seen_tables = set()
    for query in queries:
        table = _sole_table(query)
        if table.qualified_name() not in seen_tables:
            seen_tables.add(table.qualified_name())
            tables.append((table, query))
    if len(tables) < 2:
        raise RewriteNotApplicable("DF run references a single table")

    aliases = [f"t{index}" for index in range(len(tables))]
    items: List[ast.SelectItem] = []
    for (table, query), alias in zip(tables, aliases):
        for item in _single_select(query).items:
            items.append(
                ast.SelectItem(
                    expr=_qualify(item.expr, alias), alias=item.alias
                )
            )

    source: ast.TableSource = ast.TableName(
        name=tables[0][0].name, schema=tables[0][0].schema, alias=aliases[0]
    )
    key_name = column.name
    for (table, _), alias in zip(tables[1:], aliases[1:]):
        condition = ast.Comparison(
            op="=",
            left=ast.ColumnRef(name=key_name, table=aliases[0]),
            right=ast.ColumnRef(name=key_name, table=alias),
        )
        source = ast.Join(
            left=source,
            right=ast.TableName(name=table.name, schema=table.schema, alias=alias),
            kind="INNER",
            condition=condition,
        )

    where = ast.Comparison(
        op="=",
        left=ast.ColumnRef(name=key_name, table=aliases[0]),
        right=value,
    )
    return ast.SelectStatement(
        items=_dedupe_items(items), from_sources=(source,), where=where
    )
