"""Abstract syntax tree for the supported SQL dialect.

All nodes are slotted, hash-by-value dataclasses, so

* structural equality (``==``) is equality of the syntax trees, which is
  exactly the equality the paper's skeleton comparison (Definition 5)
  needs once constants are replaced by placeholders, and
* nodes are hashable and can key dictionaries (the template registry).

Nodes are immutable *by convention*, not by ``frozen=True``: parse
engine v4 traded the frozen guard for construction speed, because a
frozen ``__init__`` routes every field through ``object.__setattr__``
(~2.5× the cost of plain slot assignment) and the cold parse path mints
tens of nodes per statement.  Nothing in the codebase mutates a node
after construction — the cache and visitor layers build changed copies
through the node constructors — and the ``unsafe_hash`` contract
(never mutate a node that keys a dict) is exactly the discipline the
shared-prototype cache demanded under ``frozen`` too.

The tree is deliberately *syntactic*: ``count(*)`` is a
:class:`FunctionCall`, names keep their original spelling, and semantic
resolution (which table a column belongs to) happens later in
:mod:`repro.engine` and :mod:`repro.skeleton.features` where a catalog is
available.

Traversal: :meth:`Node.children` yields direct child nodes and
:meth:`Node.walk` yields the subtree in pre-order; both read the
per-class field-name table :data:`FIELD_NAMES`, which is derived from the
dataclass fields so new node types participate automatically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

# __slots__ on every node class: smaller trees and faster attribute
# access for the traversal-heavy skeleton/feature passes.  (The old
# 3.10 gate is gone with ``frozen`` — non-frozen slotted dataclasses
# pickle fine on every supported version.)
_node_dataclass = dataclass(unsafe_hash=True, slots=True)


class _FieldNameTable(dict):
    """Node class → its dataclass field names, in declaration order.

    Filled on first lookup per class, so traversal pays one dict probe
    per node instead of a :func:`dataclasses.fields` call.
    """

    def __missing__(self, cls: type) -> Tuple[str, ...]:
        names = self[cls] = tuple(f.name for f in dataclasses.fields(cls))
        return names


#: The one field-name table every generic AST traversal reads
#: (:meth:`Node.children`, :func:`~repro.sqlparser.visitor.transform`,
#: the parse cache's source-order walk).
FIELD_NAMES = _FieldNameTable()


@_node_dataclass
class Node:
    """Base class of every AST node."""

    def children(self) -> Iterator["Node"]:
        """Yield the direct child nodes, in field order."""
        for name in FIELD_NAMES[type(self)]:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ----------------------------------------------------------------------
# Expressions


@_node_dataclass
class Expression(Node):
    """Base class of value-producing nodes."""


@_node_dataclass
class Literal(Expression):
    """A constant.

    :param value: the literal's textual value.  For numbers this is the raw
        source text (``'0.125'``), for strings the unquoted content, and for
        NULL the canonical string ``'NULL'``.
    :param kind: one of ``'number'``, ``'string'``, ``'null'``.
    """

    value: str
    kind: str

    def python_value(self):
        """Return the literal as a Python value (int/float/str/None)."""
        if self.kind == "null":
            return None
        if self.kind == "number":
            try:
                return int(self.value)
            except ValueError:
                return float(self.value)
        return self.value


@_node_dataclass
class Placeholder(Expression):
    """A skeleton placeholder standing in for a constant (Section 4.1.2).

    :param kind: the replaced literal's kind (``'number'``/``'string'``/
        ``'null'``/``'var'``), rendered as ``<num>``, ``<str>``, … by the
        formatter so skeletons read like the paper's Example 8.
    """

    kind: str


@_node_dataclass
class Variable(Expression):
    """A T-SQL ``@name`` variable (SkyServer templates use these)."""

    name: str


@_node_dataclass
class ColumnRef(Expression):
    """A possibly qualified column reference ``[table.]column``."""

    name: str
    table: Optional[str] = None

    def key(self) -> Tuple[Optional[str], str]:
        """Case-insensitive identity of the reference."""
        return (self.table.lower() if self.table else None, self.name.lower())


@_node_dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a SELECT list or in ``count(*)``."""

    table: Optional[str] = None


@_node_dataclass
class FunctionCall(Expression):
    """A function invocation, possibly schema-qualified (``dbo.fGetNearbyObjEq``).

    :param name: function name without qualifier.
    :param args: argument expressions (a lone :class:`Star` for ``count(*)``).
    :param schema: optional qualifier (``dbo``).
    :param distinct: True for ``count(DISTINCT x)``.
    """

    name: str
    args: Tuple[Expression, ...] = ()
    schema: Optional[str] = None
    distinct: bool = False


@_node_dataclass
class UnaryOp(Expression):
    """Unary ``-``/``+`` applied to an expression."""

    op: str
    operand: Expression


@_node_dataclass
class BinaryOp(Expression):
    """Arithmetic/string operator: ``+ - * / % ||``."""

    op: str
    left: Expression
    right: Expression


@_node_dataclass
class Comparison(Expression):
    """A comparison predicate: ``= <> != < <= > >=``.

    ``<>`` and ``!=`` are normalised to ``<>`` by the parser so that
    structurally identical predicates compare equal.
    """

    op: str
    left: Expression
    right: Expression


@_node_dataclass
class And(Expression):
    """Logical conjunction."""

    left: Expression
    right: Expression


@_node_dataclass
class Or(Expression):
    """Logical disjunction."""

    left: Expression
    right: Expression


@_node_dataclass
class Not(Expression):
    """Logical negation."""

    operand: Expression


@_node_dataclass
class InList(Expression):
    """``expr [NOT] IN (item, …)`` with literal/expression items.

    This node is also the *output* of the DW-Stifle rewrite (Example 10),
    which merges the equality constants of the stifled queries into one
    IN-list.
    """

    expr: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@_node_dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT …)``."""

    expr: Expression
    subquery: "SelectStatement"
    negated: bool = False


@_node_dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False


@_node_dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL`` — the *correct* form the SNC rewrite emits."""

    expr: Expression
    negated: bool = False


@_node_dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    expr: Expression
    pattern: Expression
    negated: bool = False


@_node_dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT …)``."""

    subquery: "SelectStatement"
    negated: bool = False


@_node_dataclass
class WhenClause(Node):
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: Expression
    result: Expression


@_node_dataclass
class CaseExpression(Expression):
    """Searched or simple CASE expression."""

    whens: Tuple[WhenClause, ...]
    operand: Optional[Expression] = None
    else_result: Optional[Expression] = None


@_node_dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    expr: Expression
    type_name: str


@_node_dataclass
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a scalar value."""

    select: "SelectStatement"


# ----------------------------------------------------------------------
# FROM sources


@_node_dataclass
class TableSource(Node):
    """Base class of everything that can appear in a FROM clause."""

    def alias_name(self) -> Optional[str]:
        """The exposed correlation name, if any."""
        return getattr(self, "alias", None)


@_node_dataclass
class TableName(TableSource):
    """A base table, possibly schema-qualified, with optional alias."""

    name: str
    schema: Optional[str] = None
    alias: Optional[str] = None

    def qualified_name(self) -> str:
        """Lower-cased dotted name used for catalog lookup."""
        if self.schema:
            return f"{self.schema.lower()}.{self.name.lower()}"
        return self.name.lower()


@_node_dataclass
class FunctionTable(TableSource):
    """A table-valued function in FROM (``fGetNearbyObjEq(@ra,@dec,@r) n``)."""

    call: FunctionCall
    alias: Optional[str] = None


@_node_dataclass
class DerivedTable(TableSource):
    """A subquery in FROM with a correlation name."""

    select: "SelectStatement"
    alias: Optional[str] = None


@_node_dataclass
class Join(TableSource):
    """A join of two table sources.

    :param kind: ``'INNER'``, ``'LEFT'``, ``'RIGHT'``, ``'FULL'``,
        ``'CROSS'`` or ``'CROSS APPLY'``.
    :param condition: the ON expression (None for CROSS joins and for
        comma-style joins, which the parser flattens into CROSS).
    """

    left: TableSource
    right: TableSource
    kind: str = "INNER"
    condition: Optional[Expression] = None


# ----------------------------------------------------------------------
# Statements


@_node_dataclass
class SelectItem(Node):
    """One element of the SELECT list."""

    expr: Expression
    alias: Optional[str] = None

    def output_name(self) -> Optional[str]:
        """Name this item exposes in the result (alias or column name)."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return None


@_node_dataclass
class OrderItem(Node):
    """One element of the ORDER BY list."""

    expr: Expression
    descending: bool = False


@_node_dataclass
class Statement(Node):
    """Base class for parsed statements."""


@_node_dataclass
class TopClause(Node):
    """T-SQL ``TOP n [PERCENT]``."""

    count: Expression
    percent: bool = False


@_node_dataclass
class SelectStatement(Statement):
    """A full SELECT statement.

    The three clause subtrees the paper's definitions slice on —
    the SELECT list (SC), the FROM clause (FC) and the WHERE clause (WC) —
    are directly addressable as :attr:`items`, :attr:`from_sources`
    and :attr:`where`.
    """

    items: Tuple[SelectItem, ...]
    from_sources: Tuple[TableSource, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    distinct: bool = False
    top: Optional[TopClause] = None


@_node_dataclass
class Union(Statement):
    """``left UNION [ALL] right``."""

    left: Statement
    right: Statement
    all: bool = False


__all__ = [name for name in dir() if not name.startswith("_")]
