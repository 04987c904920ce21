"""The parse fast path's template cache.

SkyServer-style logs are dominated by machine-generated statements that
repeat a small set of templates with different constants (the premise of
the paper's Section 3).  The full parse path re-derives the same
skeleton, template and clause features thousands of times; this module
short-circuits that with two disjoint bounded LRU memos, probed in
order by :meth:`TemplateCache.fetch`:

* **Text memo** — statement text → a cached parse failure, or the
  prototype :class:`~repro.patterns.models.ParsedQuery` of a text the
  raw memo cannot serve (no raw key, or an unsafe one: every ``UNION``,
  a literal inside a comment or a bracketed identifier).  A hit costs
  one dict probe plus a record rebind.  Failures live only here: parser
  error messages carry line/column positions that depend on the exact
  whitespace, so they are never shared across texts.
* **Raw-template memo** — constant-stripped raw text → a
  *witness-verified* interned :class:`_Entry` holding the prototype and
  precomputed *splice templates* of its clause texts.  Workloads like
  SkyServer's collapse to a few dozen raw templates, so once a
  template's first member has paid for a cold build, later members —
  exact repeats included — skip the scanner entirely: a single cheap
  regex pass strips the literals and one dict probe binds them to the
  entry.  Admission is per raw key and only happens when the regex
  strip provably reproduced the scanner — the witness's literal spans
  must equal the scanner's token spans position for position (see
  :func:`_raw_scan`); anything else marks the raw key unsafe, and its
  texts go to the text memo instead.

The raw memo is the one intern table.  Each entry is built from the
marker rendering of the text that witnessed its raw key, and the
scanner's *fingerprint key* (:func:`~repro.sqlparser.scanner.scan`)
only verifies it at build time; it is not kept.  So two spellings of
one template (differing in sign or whitespace) get two entries, each
built from a text with its own raw key.

A raw-memo hit emits a :class:`LazyParsedQuery` carrying only the
interned skeleton and the member's constant vector; the AST, clause
texts and equality filter materialise on first access.  Mining,
registry and detection run on the shared skeleton fields, so a typical
run never builds most members' ASTs at all.  A miss goes through
:meth:`TemplateCache.build`, the one-shot cold path that parses the
statement and admits its outcome into one of the two memos.

Correctness rests on one invariant and one escape hatch:

* Two statements with the same fingerprint key tokenize identically up
  to number/string literal *values*, and the recursive-descent parser's
  decisions never look at literal values — so their parses are
  isomorphic, differing only in :class:`~repro.sqlparser.ast_nodes.Literal`
  values at corresponding positions.
* The parser is not a pure token-stream echo: it folds unary minus into
  number literals, consumes ``CAST`` type sizes into the type name, and
  accepts string-literal aliases.  Instead of enumerating those cases,
  :func:`_entry_from_markers` *verifies* at entry-build time that the
  constants the prototype actually rendered equal the scanner's
  constant vector, in order.  Any mismatch marks the text's raw key
  **unsafe**: each new text with that raw key takes the full parse
  path (so does every ``UNION``, which has no marker rendering).
  Ambiguity can therefore only ever cost speed, never correctness.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import re
from collections import OrderedDict
from itertools import accumulate
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from ..log.models import LogRecord
from ..patterns.models import ParsedQuery
from ..sqlparser import ast_nodes as ast
from ..sqlparser.errors import SqlError
from ..sqlparser.formatter import _Formatter, _quote_identifier
from ..sqlparser.parser import Parser
from ..sqlparser.scanner import (
    _FP_NUMBER,
    _FP_STRING,
    _FP_UNSAFE,
    StatementFingerprint,
    scan,
)
from .features import Predicate, single_equality_filter
from .fingerprint import template_fingerprint
from .template import ClauseTexts, QueryTemplate, _clause_strings

#: Bound of each memo (distinct texts / distinct raw keys).  A
#: constant, not a knob: on a long tail of one-off ad-hoc queries
#: (15k statements over ~5k Zipf templates) 65,536 entries removed
#: every eviction but only 34 of 5,210 cold builds, with no wall-time
#: gain beyond run-to-run noise.
DEFAULT_PARSE_CACHE_SIZE = 4096


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the ``with`` body.

    Bulk-building long-lived artifacts (a preloaded template dictionary;
    a batch run's records, lazy queries, blocks and ASTs) grows the heap
    without making garbage cycles, yet every 25% of growth triggers a
    full-heap collection pass that frees nothing.  Reference counting
    still frees all acyclic garbage while paused; any cycle the body
    does make waits for the collector's next full pass, not its next
    young one (see :func:`enable_collector`).  So use it
    only around bounded work: an unbounded run (streaming) keeps the
    collector on.  Nested pauses are free: only the outermost one
    switches the collector back on.

    On exit, exceptions included, the caller's state is restored: a
    collector the caller had disabled stays disabled.  One that was on
    comes back through :func:`enable_collector`, which hands the body's
    heap to the oldest generation, so no young pass re-scans it.  This
    module is the one place the package changes the collector's state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            enable_collector()


def enable_collector() -> None:
    """Switch the cyclic collector on with an empty young generation.

    Everything allocated while the collector was off is still in the
    young generation, so the first allocation after a plain
    ``gc.enable()`` would run a young pass over all of it.  Instead,
    ``gc.freeze(); gc.unfreeze()`` moves every tracked object into the
    oldest generation in O(1) and resets the young count.  A caller that
    froze objects on purpose (a pre-fork server, say) keeps them frozen:
    with a non-empty permanent generation the hand-off is skipped, since
    ``gc.unfreeze()`` would thaw them too.

    Also the worker pools' initializer: a pool forked inside a pause
    inherits a disabled collector, and this gives its workers the same
    state under every start method.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
    gc.enable()


# ----------------------------------------------------------------------
# Source-order literal traversal
#
# The scanner's constant vector is in *token* order.  For almost every
# node class, dataclass field order (``ast.FIELD_NAMES``) equals source
# order; the two exceptions are overridden here (TOP precedes the select
# list, a simple CASE operand precedes its WHEN arms).  Non-node fields
# are harmless to visit, so overrides only need the fields that can
# contain nodes.

_SOURCE_ORDER_OVERRIDES = {
    ast.SelectStatement: (
        "top",
        "items",
        "from_sources",
        "where",
        "group_by",
        "having",
        "order_by",
    ),
    ast.CaseExpression: ("operand", "whens", "else_result"),
}


def _source_fields(cls: type) -> Tuple[str, ...]:
    return _SOURCE_ORDER_OVERRIDES.get(cls) or ast.FIELD_NAMES[cls]


# ----------------------------------------------------------------------
# Substitution plans
#
# Materialising a lazy query rebinds its constants into the prototype
# AST, and only the nodes on a path from the root to a number/string
# literal can change.  Each entry therefore keeps the *literal spine* of
# its prototype, built on the first materialisation and never pickled:
# one step per node or tuple on such a path,
#
#     (proto, build, args, spine)
#
# where ``args`` are the proto's field values in ``FIELD_NAMES`` order
# (a tuple's items), ``build(*args)`` constructs it, and ``spine`` lists
# in source order a ``(position, sub)`` pair per literal-bearing field:
# ``sub`` is the literal's constant index, or the field subtree's step.
# A rebuild visits the spine only, so literal-free subtrees, unchanged
# literals and spine nodes whose literals all kept their values are the
# prototype's own objects.

_Step = Tuple[object, Callable[..., object], tuple, tuple]


def _items(*items: object) -> tuple:
    return items


def _literal_plan(value: object, counter: List[int]) -> _Step:
    """The literal spine of the node or tuple ``value``; ``counter``
    holds the index of the next constant in source order."""
    if isinstance(value, ast.Node):
        cls = type(value)
        names = ast.FIELD_NAMES[cls]
        args = tuple(getattr(value, name) for name in names)
        order: Iterable[int] = [names.index(n) for n in _source_fields(cls)]
        build: Callable[..., object] = cls
    else:
        args = value
        order = range(len(args))
        build = _items
    spine = []
    for position in order:
        item = args[position]
        if isinstance(item, ast.Literal):
            if item.kind == "number" or item.kind == "string":
                spine.append((position, counter[0]))
                counter[0] += 1
        elif isinstance(item, ast.Node) or (type(item) is tuple and item):
            step = _literal_plan(item, counter)
            if step[3]:
                spine.append((position, step))
    return (value, build, args, tuple(spine))


def _rebuild(step: _Step, values) -> object:
    """``step``'s subtree with the i-th literal bound to ``values[i]``."""
    proto, build, args, spine = step
    changed = None
    for position, sub in spine:
        old = args[position]
        if type(sub) is int:
            kind, text = values[sub]
            if text == old.value and kind == old.kind:
                continue
            new = ast.Literal(text, kind)
        else:
            new = _rebuild(sub, values)
            if new is old:
                continue
        if changed is None:
            changed = list(args)
        changed[position] = new
    if changed is None:
        return proto
    return build(*changed)


# ----------------------------------------------------------------------
# Clause-text splice templates
#
# Clause texts (SC/FC/WC with constants preserved) are reproduced on a
# hit without any formatting pass: at entry-build time the prototype is
# re-rendered once with marker literals, the rendered strings are split
# on the markers, and a hit just interleaves the statics with the
# member's rendered constants.

_MARKER = re.compile("\x00(\\d+)\x01")

#: (static text parts, constant indices between them)
_Splice = Tuple[Tuple[str, ...], Tuple[int, ...]]


def _make_splice(text: str) -> _Splice:
    parts = _MARKER.split(text)
    return tuple(parts[0::2]), tuple(int(slot) for slot in parts[1::2])


def _render_splice(splice: _Splice, rendered: List[str]) -> str:
    statics, slots = splice
    if not slots:
        return statics[0]
    pieces = [statics[0]]
    for position, slot in enumerate(slots):
        pieces.append(rendered[slot])
        pieces.append(statics[position + 1])
    return "".join(pieces)


def _render_constant(kind: str, value: str) -> str:
    """Render a constant exactly as the SQL formatter would."""
    if kind == "number":
        return value
    return "'" + value.replace("'", "''") + "'"


# ----------------------------------------------------------------------
# Marker-formatter fusion (parse engine v3 cold path)
#
# The cold path needs three renderings of the same statement: the clause
# texts (constants preserved), the template (constants replaced by typed
# placeholders) and the splice sentinel (constants replaced by indexed
# markers).  All three differ only at constant leaves, and the
# formatter's parenthesisation is purely type-driven — Literal,
# Placeholder and Variable all render as primaries (precedence 10,
# never parenthesised) — so ONE pass with indexed markers at the leaves
# replaces the skeletonize+format pass and the substitute+format pass at
# once: the template is the marker string with markers swapped for
# placeholders, the splices fall out of a split on the markers, and the
# clause texts are one splice-render with the statement's own constants.
#
# Two further fusions ride on the same pass:
#
# * :class:`_CanonFormatter` folds :func:`normalize_case` into the
#   render — it lower-cases exactly the identifier fields that function
#   rewrites, at the point they are emitted — so the cold path never
#   materialises the canonical tree at all.
# * The formatter records each constant's ``(kind, value)`` in render
#   order.  Requiring that sequence to equal the scanner's constant
#   vector is the entry-safety check in its strongest form: it ties
#   render order to token order *by value* (the splice slots depend on
#   that correspondence), and any parser divergence from the token
#   stream — a folded ``- -5``, a CAST size, a consumed alias — breaks
#   the equality and marks the key unsafe.
#
# NULL literals and (under ``fold_variables``) variables render
# differently in the template (``<null>`` / ``<var>``) than in the
# clause texts (``NULL`` / ``@name``), so they get a second marker
# family carrying both spellings.  Marker injectivity is guaranteed by
# the caller: the fused path runs only when a fingerprint exists, and
# the scanner refuses control characters wherever they appear.

_EXTRA_MARKER = re.compile("\x00x(\\d+)\x01")

_TEMPLATE_PLACEHOLDER = {"number": "<num>", "string": "<str>"}


class _CanonFormatter(_Formatter):
    """Render a raw parse tree as :class:`_Formatter` renders its
    :func:`normalize_case` image — without building the canonical tree.

    Overrides exactly the emission points of the identifier fields that
    ``normalize_case`` lower-cases (column/table/function/variable names,
    schemas, aliases); everything else — keywords, operators, CAST type
    names, literals — is untouched, matching the rewrite's behaviour.
    """

    def select_item(self, item: ast.SelectItem) -> str:
        text = self.expression(item.expr)
        if item.alias:
            return f"{text} AS {_quote_identifier(item.alias.lower())}"
        return text

    def source(self, node: ast.TableSource) -> str:
        if isinstance(node, ast.TableName):
            name = _quote_identifier(node.name.lower())
            if node.schema:
                name = f"{node.schema.lower()}.{name}"
            if node.alias:
                return f"{name} AS {_quote_identifier(node.alias.lower())}"
            return name
        if isinstance(node, ast.FunctionTable):
            text = self.expression(node.call)
            if node.alias:
                return f"{text} AS {_quote_identifier(node.alias.lower())}"
            return text
        if isinstance(node, ast.DerivedTable):
            text = f"({self.select(node.select)})"
            if node.alias:
                return f"{text} AS {_quote_identifier(node.alias.lower())}"
            return text
        if isinstance(node, ast.Join):
            return self.join(node)
        raise TypeError(f"cannot format {type(node).__name__}")

    def _expr_ColumnRef(self, node: ast.ColumnRef) -> str:
        name = _quote_identifier(node.name.lower())
        if node.table:
            return f"{node.table.lower()}.{name}"
        return name

    def _expr_Star(self, node: ast.Star) -> str:
        return f"{node.table.lower()}.*" if node.table else "*"

    def _expr_FunctionCall(self, node: ast.FunctionCall) -> str:
        name = node.name.lower()
        if node.schema is not None:
            name = f"{node.schema.lower()}.{name}"
        inner = ", ".join(self.expression(arg) for arg in node.args)
        if node.distinct:
            inner = f"DISTINCT {inner}"
        return f"{name}({inner})"

    def _expr_Variable(self, node: ast.Variable) -> str:
        return f"@{node.name.lower()}"


class _MarkerFormatter(_CanonFormatter):
    """One case-normalising pass serving template, splices and clauses.

    Number/string literals render as indexed constant markers
    (``\\x00i\\x01`` — the splice alphabet) with their ``(kind, value)``
    recorded in render order; NULL literals and folded variables render
    as indexed *extra* markers (``\\x00xi\\x01``) whose template/source
    spellings are recorded side-band.  Everything else renders exactly
    as :class:`_CanonFormatter` would.
    """

    def __init__(self, fold_variables: bool) -> None:
        #: (kind, value) of the i-th constant marker, in render order.
        self.consts: List[Tuple[str, str]] = []
        #: (template spelling, source spelling) of the i-th extra marker.
        self.extras: List[Tuple[str, str]] = []
        self._fold_variables = fold_variables

    def _expr_Literal(self, node: ast.Literal) -> str:
        kind = node.kind
        if kind == "number" or kind == "string":
            marker = "\x00%d\x01" % len(self.consts)
            self.consts.append((kind, node.value))
            return marker
        if kind == "null":
            marker = "\x00x%d\x01" % len(self.extras)
            self.extras.append(("<null>", "NULL"))
            return marker
        return _Formatter._expr_Literal(self, node)

    def _expr_Variable(self, node: ast.Variable) -> str:
        if self._fold_variables:
            marker = "\x00x%d\x01" % len(self.extras)
            self.extras.append(("<var>", "@" + node.name.lower()))
            return marker
        return f"@{node.name.lower()}"

    def template_text(self, text: str) -> str:
        """The template spelling: markers become typed placeholders."""
        if "\x00" not in text:
            return text
        consts = self.consts
        text = _MARKER.sub(
            lambda m: _TEMPLATE_PLACEHOLDER[consts[int(m.group(1))][0]], text
        )
        if self.extras:
            extras = self.extras
            text = _EXTRA_MARKER.sub(
                lambda m: extras[int(m.group(1))][0], text
            )
        return text

    def splice_text(self, text: str) -> str:
        """The splice source: extras become real text, constants stay."""
        if self.extras and "\x00" in text:
            extras = self.extras
            return _EXTRA_MARKER.sub(
                lambda m: extras[int(m.group(1))][1], text
            )
        return text


def _collect_literal_nodes(value: object, out: List[ast.Literal]) -> None:
    """Append the subtree's number/string literal *nodes* in source order
    (the constant-index order of :func:`_literal_plan`)."""
    if isinstance(value, ast.Literal):
        if value.kind == "number" or value.kind == "string":
            out.append(value)
    elif isinstance(value, ast.Node):
        for name in _source_fields(type(value)):
            _collect_literal_nodes(getattr(value, name), out)
    elif type(value) is tuple:
        for item in value:
            if isinstance(item, ast.Node):
                _collect_literal_nodes(item, out)


class _LazyStats:
    """Shared mutable materialisation counter of one cache.

    Lazy queries outlive their ``fetch`` call, so the count of on-demand
    AST builds cannot live on the cache's hot counters alone — each lazy
    query carries a reference to this object and bumps it whenever its
    statement is materialised, wherever in the pipeline that happens.
    """

    __slots__ = ("materialised",)

    def __init__(self) -> None:
        self.materialised = 0


#: Predicate-binding descriptors precomputed per entry (see
#: :func:`_equality_binding`).
_EQ_SHARED = "shared"
_EQ_INDEXED = "indexed"
_EQ_MATERIALISE = "materialise"


class LazyParsedQuery(ParsedQuery):
    """A skeleton-only :class:`ParsedQuery` bound to an interned entry.

    Emitted by the cache on a raw-memo hit: only the fields the
    post-parse stages actually touch (record, template, template id,
    predicate count, outputs, interned id) are populated eagerly — the
    AST (``statement`` / ``select``), the clause texts and the equality
    filter materialise on first access via :meth:`__getattr__`:

    * ``clauses`` renders from the entry's splice templates — no AST;
    * ``equality_filter`` rebinds the prototype's predicate to this
      query's constant — no AST;
    * ``statement`` / ``select`` rebuild the prototype AST along the
      entry's substitution plan and bump the cache's ``materialised``
      counter.

    The post-parse facts the detectors and the SWS check read answer
    from the entry and the constant vector, with no AST and no bound
    :class:`~repro.skeleton.features.Predicate`:
    :meth:`null_predicate_count`, :meth:`filter_column` and
    :meth:`filter_column_name` (memoised on the entry),
    :meth:`filter_value` (one ``Literal`` at most),
    :meth:`where_constants` (the entry's WHERE plan formatted from the
    constants) and :meth:`same_clauses` (two binds of one entry compare
    their splice slots' constants).  Each falls back to the eager
    :class:`ParsedQuery` path where the entry could not be precomputed
    (a WHERE constant or equality filter not located by node identity)
    or, for :meth:`same_clauses`, when the other query is not a bind of
    the same entry.

    Instances compare equal (both directions) and hash identically to
    the eager :class:`ParsedQuery` they stand in for; comparing forces
    materialisation.  They are built by :meth:`_Entry.bind` via
    ``object.__new__`` — never through the dataclass ``__init__`` — so a
    bind is one dict copy, cheaper even than ``dataclasses.replace``.
    """

    __eq_fields__ = (
        "record",
        "statement",
        "select",
        "template",
        "template_id",
        "clauses",
        "predicate_count",
        "equality_filter",
        "outputs",
    )

    def __getattr__(self, name: str):
        if name == "statement" or name == "select":
            self._materialise()
            return self.__dict__[name]
        if name == "clauses":
            return self._bind_clauses()
        if name == "equality_filter":
            return self._bind_equality_filter()
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # On-demand binds (cached straight into ``__dict__`` — the one
    # mutation a frozen dataclass allows, exactly like Block's memos)

    def _materialise(self) -> None:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        constants = d["_constants"]
        proto = entry.proto
        if constants == entry.constants:
            statement = proto.statement
        else:
            plan = entry.plan
            if plan is None:
                plan = entry.plan = _literal_plan(proto.statement, [0])
            statement = _rebuild(plan, constants)
        # Entries are never built for UNIONs, so the statement is its
        # own leading SELECT.
        d["statement"] = statement
        d["select"] = statement
        d["_stats"].materialised += 1

    def _bind_clauses(self) -> ClauseTexts:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        constants = d["_constants"]
        if constants == entry.constants:
            clauses = entry.proto.clauses
        else:
            rendered = [_render_constant(k, v) for k, v in constants]
            splices = entry.splices
            clauses = ClauseTexts(
                sc=_render_splice(splices[0], rendered),
                fc=_render_splice(splices[1], rendered),
                wc=_render_splice(splices[2], rendered),
            )
        d["clauses"] = clauses
        return clauses

    def _bind_equality_filter(self) -> Optional[Predicate]:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        binding = entry.eq
        proto_pred = entry.proto.equality_filter
        if binding is None:
            result: Optional[Predicate] = None
        elif binding[0] == _EQ_SHARED:
            result = proto_pred
        elif binding[0] == _EQ_INDEXED:
            literal = self.filter_value()
            if literal is proto_pred.value:
                result = proto_pred
            else:
                if binding[2]:
                    node = dataclasses.replace(proto_pred.node, left=literal)
                else:
                    node = dataclasses.replace(proto_pred.node, right=literal)
                result = Predicate(
                    theta=proto_pred.theta,
                    column=proto_pred.column,
                    value=literal,
                    node=node,
                    compares_null=proto_pred.compares_null,
                )
        else:  # _EQ_MATERIALISE — paranoia fallback: build the AST
            result = single_equality_filter(self.select)
        d["equality_filter"] = result
        return result

    # ------------------------------------------------------------------
    # Post-parse facts answered from the entry (see ParsedQuery): none
    # of them builds an AST or binds a Predicate unless the entry's
    # precompute had to give up.

    def null_predicate_count(self) -> int:
        # Constant-independent (NULL is a keyword literal, never a
        # number/string constant), so the entry's precompute is exact.
        return self.__dict__["_entry"].nulls

    def where_constants(self) -> Tuple[str, ...]:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        plan = entry.where
        if plan is None:
            plan = entry.where = _where_plan(entry.proto, len(entry.constants))
        if plan is _UNSAFE:
            return ParsedQuery.where_constants(self)
        constants = d["_constants"]
        return tuple(
            [item if type(item) is str else "%s:%s" % constants[item] for item in plan]
        )

    def filter_column(self) -> Optional[str]:
        # The filter's column is fixed by the fingerprint key; only an
        # entry whose filter could not be located needs the AST.
        entry: _Entry = self.__dict__["_entry"]
        binding = entry.eq
        if binding is None:
            return None
        if binding[0] == _EQ_MATERIALISE:
            return ParsedQuery.filter_column(self)
        column = entry.column
        if column is None:
            column = entry.column = entry.proto.equality_filter.column.name.lower()
        return column

    def filter_column_name(self) -> Optional[str]:
        # As filter_column, in the column's own case.
        entry: _Entry = self.__dict__["_entry"]
        binding = entry.eq
        if binding is None:
            return None
        if binding[0] == _EQ_MATERIALISE:
            return ParsedQuery.filter_column_name(self)
        name = entry.column_name
        if name is None:
            name = entry.column_name = entry.proto.equality_filter.column.name
        return name

    def filter_value(self) -> Optional[ast.Literal]:
        d = self.__dict__
        entry: _Entry = d["_entry"]
        binding = entry.eq
        if binding is None:
            return None
        if binding[0] == _EQ_SHARED:
            return entry.proto.equality_filter.value
        if binding[0] == _EQ_MATERIALISE:
            return ParsedQuery.filter_value(self)
        index = binding[1]
        constant = d["_constants"][index]
        if constant == entry.constants[index]:
            return entry.proto.equality_filter.value
        return ast.Literal(constant[1], constant[0])

    def same_clauses(self, other: ParsedQuery) -> Tuple[bool, bool, bool]:
        # Two binds of one entry share the splice statics, and
        # _render_constant is injective, so a clause text agrees exactly
        # when the constants in its splice slots do.
        d = self.__dict__
        entry: _Entry = d["_entry"]
        if other.__dict__.get("_entry") is not entry:
            return ParsedQuery.same_clauses(self, other)
        mine = d["_constants"]
        theirs = other.__dict__["_constants"]
        if mine == theirs:
            return (True, True, True)
        sc, fc, wc = (
            all(mine[slot] == theirs[slot] for slot in slots)
            for _, slots in entry.splices
        )
        return (sc, fc, wc)

    # ------------------------------------------------------------------
    # Equality across the lazy/eager divide.  The generated dataclass
    # __eq__ requires identical classes; here any ParsedQuery with equal
    # parse semantics must compare equal (Python tries the subclass's
    # reflected operator first, so eager == lazy routes here too).

    def __eq__(self, other: object):
        if isinstance(other, ParsedQuery):
            for name in self.__eq_fields__:
                if getattr(self, name) != getattr(other, name):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__eq_fields__))


def rebind_query(
    query: ParsedQuery, record, interned_id: int
) -> ParsedQuery:
    """Bind a cached query to a new record / interned id.

    The lazy path's replacement for ``dataclasses.replace``: a
    cache-built :class:`LazyParsedQuery` is cloned by copying its
    ``__dict__`` (unmaterialised fields stay unmaterialised — neither
    depends on the record); anything else takes the classic dataclass
    copy.
    """
    if type(query) is LazyParsedQuery and "_entry" in query.__dict__:
        state = query.__dict__
        if state["record"] is record and state["interned_id"] == interned_id:
            return query
        clone = object.__new__(LazyParsedQuery)
        state = dict(state)
        state["record"] = record
        state["interned_id"] = interned_id
        object.__setattr__(clone, "__dict__", state)
        return clone
    if query.record is record:
        if query.interned_id == interned_id:
            return query
        return dataclasses.replace(query, interned_id=interned_id)
    if query.interned_id == interned_id:
        return dataclasses.replace(query, record=record)
    return dataclasses.replace(query, record=record, interned_id=interned_id)


class _Entry:
    """One verified raw key's prototype + splice templates.

    Beyond the prototype itself the entry precomputes everything a lazy
    bind needs without touching the AST: the shared eager-field dict
    (:attr:`shared`), the equality-filter binding descriptor
    (:attr:`eq`) and the NULL-comparison predicate count
    (:attr:`nulls`).  The memo slots (:attr:`plan`, :attr:`where`,
    :attr:`column`, :attr:`column_name`) are filled on first use, so a
    cold build pays for none of them, and are never pickled.
    """

    __slots__ = (
        "proto",
        "constants",
        "splices",
        "eq",
        "nulls",
        "shared",
        "plan",
        "where",
        "column",
        "column_name",
    )

    def __init__(
        self,
        proto: ParsedQuery,
        constants: Tuple[Tuple[str, str], ...],
        splices: Tuple[_Splice, _Splice, _Splice],
        eq: Optional[tuple],
        nulls: int,
    ) -> None:
        self.proto = proto
        self.constants = constants
        self.splices = splices
        self.eq = eq
        self.nulls = nulls
        self.shared = {
            "template": proto.template,
            "template_id": proto.template_id,
            "predicate_count": proto.predicate_count,
            "outputs": proto.outputs,
            "interned_id": proto.interned_id,
        }
        #: The prototype's substitution plan (see :func:`_literal_plan`):
        #: built on the first materialisation, never pickled.
        self.plan: Optional[_Step] = None
        #: The WHERE plan of :meth:`LazyParsedQuery.where_constants`
        #: (see :func:`_where_plan`), or ``_UNSAFE`` to walk the AST.
        self.where: object = None
        #: The lower-cased equality-filter column, for ``_EQ_SHARED`` /
        #: ``_EQ_INDEXED`` bindings.
        self.column: Optional[str] = None
        #: The same column as written (Stifle's instance details).
        self.column_name: Optional[str] = None

    def bind(self, record, constants, stats: _LazyStats) -> LazyParsedQuery:
        """One lazy bind: a dict copy, no AST, no splice render."""
        query = object.__new__(LazyParsedQuery)
        state = self.shared.copy()
        state["record"] = record
        state["_entry"] = self
        state["_constants"] = constants
        state["_stats"] = stats
        object.__setattr__(query, "__dict__", state)
        return query

    def __getstate__(self):
        return (self.proto, self.constants, self.splices, self.eq, self.nulls)

    def __setstate__(self, state):
        self.__init__(*state)


class _UnsafeMarker:
    """Permanent full-parse marker for an ambiguous raw key."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unsafe raw key>"

    def __reduce__(self):
        return (_unsafe_marker, ())


def _unsafe_marker() -> "_UnsafeMarker":
    return _UNSAFE


_UNSAFE = _UnsafeMarker()


def _equality_binding(proto: ParsedQuery) -> Optional[tuple]:
    """Describe how a member's equality filter derives from the proto's.

    The filter's *shape* is a function of the fingerprint key alone
    (substitution never changes which nodes are literals), so per member
    only the constant value can differ:

    * ``None`` — the prototype has no single-equality filter, so no
      member of the key class does either;
    * ``(_EQ_SHARED,)`` — the filter's value is not a substituted
      literal kind (e.g. ``= NULL``): the prototype's predicate is
      every member's predicate;
    * ``(_EQ_INDEXED, i, on_left)`` — the value is the ``i``-th
      source-order constant; a member rebinds just that literal;
    * ``(_EQ_MATERIALISE,)`` — identity lookup failed (should not
      happen); members fall back to building the AST.
    """
    pred = proto.equality_filter
    if pred is None:
        return None
    value = pred.value
    if value is None or value.kind not in ("number", "string"):
        return (_EQ_SHARED,)
    if not isinstance(pred.node, ast.Comparison):
        return (_EQ_MATERIALISE,)
    nodes: List[ast.Literal] = []
    _collect_literal_nodes(proto.statement, nodes)
    for index, node in enumerate(nodes):
        if node is value:
            return (_EQ_INDEXED, index, pred.node.left is value)
    return (_EQ_MATERIALISE,)


def _where_plan(proto: ParsedQuery, count: int) -> object:
    """How a member's :meth:`~ParsedQuery.where_constants` derives from
    its constant vector: one item per literal of the prototype's WHERE,
    in walk order — the fixed ``kind:value`` string of a NULL, or the
    source-order index of a number/string constant, found by node
    identity.  ``_UNSAFE`` (walk the AST instead) when the statement's
    constant nodes do not line up one-to-one with its ``count``
    constants, or a WHERE constant is not among them.
    """
    where = proto.select.where
    if where is None:
        return ()
    nodes: List[ast.Literal] = []
    _collect_literal_nodes(proto.statement, nodes)
    index_of = {id(node): index for index, node in enumerate(nodes)}
    if len(nodes) != count or len(index_of) != count:
        return _UNSAFE
    plan: List[object] = []
    for node in where.walk():
        if isinstance(node, ast.Literal):
            if node.kind == "number" or node.kind == "string":
                index = index_of.get(id(node))
                if index is None:
                    return _UNSAFE
                plan.append(index)
            else:
                plan.append(f"{node.kind}:{node.value}")
    return tuple(plan)


def _entry_from_markers(
    proto: ParsedQuery,
    fingerprint: StatementFingerprint,
    splices: Tuple[_Splice, _Splice, _Splice],
    marker: _MarkerFormatter,
) -> Optional[_Entry]:
    """The interned entry of ``proto``, or ``None`` if unsafe.

    The cold path already rendered the statement once with indexed
    markers at the constant leaves, so the splices are given; admission
    reduces to the safety check.  The marker formatter recorded each
    constant's ``(kind, value)`` at the moment it was emitted, so one
    sequence equality against the scanner's constant vector verifies
    that the parser built exactly the literals the scanner predicted
    (folded ``- -5``, CAST sizes and consumed aliases all break it)
    *and* that render order — which the splice slots encode — is token
    order, value for value.  Two
    identical constants transposed would pass, and splice identical
    bytes either way.
    """
    if tuple(marker.consts) != fingerprint.constants:
        return None
    return _Entry(
        proto,
        fingerprint.constants,
        splices,
        _equality_binding(proto),
        proto.null_predicate_count(),
    )


# ----------------------------------------------------------------------
# Raw-template memo: skip the scanner for known raw templates
#
# One regex strips number/string literals straight out of the raw text.
# It deliberately knows nothing about comments, delimited identifiers or
# variables — instead, admission into the memo requires that the spans
# it stripped from a witness text equal the fingerprint scanner's
# literal-token spans *positionally*.  Raw-key equality preserves every
# non-literal byte, so when the witness aligns, every other member of
# the raw key tokenizes the same way and the strip is a faithful stand-
# in for the scan.  A literal the regex sees but the scanner does not
# (inside a comment or a bracketed identifier), or vice versa (a folded
# ``- -5``, an ``a.5`` member access), shifts or changes the spans and
# the raw key is marked unsafe: each new member pays for a full parse,
# and its text is memoised by itself.  The guards mirror the scanner's
# punt conditions — no literal is stripped where the hand lexer would
# merge it into a word (``abc1``) or reject it (``1abc``).
#
# The pattern opens with the character class of every literal's first
# character, so ``re`` compiles a charset prefix and skips the offsets
# that cannot start a literal in C; a leading lookbehind would give it
# no prefix, and it would enter the full matcher at every offset.  The
# branches then tell the literal kinds apart by looking back at that
# first character, and a number's "not after a word character" guard
# is the width-2 lookbehind over the character before it.  At every
# offset this matches exactly what the plain three-branch alternation
# (string, digits, dot-digits) would.
_RAW_LITERAL = re.compile(
    r"(['.0-9]"
    r"(?:(?<=')(?:[^']|'')*'"
    r"|(?<![0-9A-Za-z_\#\$].)"
    r"(?:(?<=[0-9])[0-9]*(?:\.(?!\.)[0-9]*)?|(?<=\.)[0-9]+)"
    r"(?:[eE][+-]?[0-9]+)?(?![A-Za-z0-9_\#\$])))"
)

#: ``(raw_key, parts, constants)`` for one statement text, or ``None``
#: when the text contains control characters the scanner refuses.
#: ``parts`` is the scan's capturing split of the text: the text between
#: literals at the even indexes, the literals themselves at the odd ones.
RawTemplate = Tuple[str, List[str], List[Tuple[str, str]]]


def _raw_scan(text: str) -> Optional[RawTemplate]:
    """Strip literals out of ``text`` in one regex pass.

    The raw key is the text with each stripped literal replaced by its
    typed placeholder byte (injective: the scanner's control-character
    refusal, mirrored here, keeps placeholders out of the input).  The
    constants come back already in the scanner's ``(kind, value)``
    format — same unquoting, same ``''`` collapse — so a verified raw
    key can feed :meth:`_Entry.bind` directly.

    A printable text holds no control byte, so only a non-printable one
    is searched for them.  A text without a quote has number literals
    only: its key is the text between them joined by the number
    placeholder.  The split itself is returned untouched; the literal
    spans follow from its part lengths (:func:`_raw_spans`), which only
    an admission into the raw memo reads.
    """
    if not text.isprintable() and _FP_UNSAFE.search(text):
        return None
    parts = _RAW_LITERAL.split(text)
    if "'" not in text:
        return (
            _FP_NUMBER.join(parts[0::2]),
            parts,
            [("number", token) for token in parts[1::2]],
        )
    key = parts.copy()
    constants: List[Tuple[str, str]] = []
    for index in range(1, len(parts), 2):
        token = parts[index]
        if token[0] == "'":
            constants.append(("string", token[1:-1].replace("''", "'")))
            key[index] = _FP_STRING
        else:
            constants.append(("number", token))
            key[index] = _FP_NUMBER
    return ("".join(key), parts, constants)


def _raw_spans(parts: List[str]) -> Tuple[Tuple[int, int], ...]:
    """The ``(start, end)`` source span of each literal of a
    :func:`_raw_scan` split, from the running part lengths."""
    ends = list(accumulate(map(len, parts)))
    return tuple(zip(ends[0::2], ends[1::2]))


#: What the parse loop caches for one statement text: a prototype
#: ParsedQuery on success, or the (error, reason) pair of a failure.
CacheResult = Union[ParsedQuery, Tuple[BaseException, str]]


class TemplateCache:
    """Bounded two-memo LRU for the parse fast path.

    The raw-template memo serves every success it can verify; the text
    memo keeps only what the raw memo cannot serve (failures, and
    prototypes whose raw key is missing or unsafe).  One instance serves
    one executor run (batch), one cleaner instance (streaming) or one
    worker's shards (parallel), and is never shared concurrently.
    Instances pickle, but a warm dictionary crosses process boundaries
    as witness texts (:meth:`dict_witnesses`, :meth:`preload`).

    :param max_entries: LRU bound applied to each memo independently.
    """

    def __init__(self, max_entries: int = DEFAULT_PARSE_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: LRU pops from the text memo and the raw memo.
        self.evictions = 0
        self._lazy_stats = _LazyStats()
        #: statement text → a failure, or the eager prototype of a text
        #: whose raw key is ``None`` or unsafe.
        self._text: "OrderedDict[str, CacheResult]" = OrderedDict()
        #: raw template key → (entry, fold indexes) once witness-verified,
        #: or _UNSAFE when the regex strip provably disagrees with the
        #: scanner for this raw key.
        self._by_raw: "OrderedDict[str, object]" = OrderedDict()

    @property
    def materialised(self) -> int:
        """On-demand AST builds performed by lazy queries of this cache.

        A snapshot: lazy queries keep the counter reference, so touching
        a query's ``statement`` after a run still bumps it.
        """
        return self._lazy_stats.materialised

    def __len__(self) -> int:
        """Number of texts in the text memo."""
        return len(self._text)

    @property
    def raw_entries(self) -> int:
        """Number of witness-verified raw keys in the raw memo."""
        return sum(1 for memo in self._by_raw.values() if type(memo) is tuple)

    def fetch(self, record) -> Optional[CacheResult]:
        """Return the cached parse outcome for ``record``, or ``None``.

        A returned :class:`~repro.patterns.models.ParsedQuery` is already
        bound to ``record``; a returned tuple is the shared parse
        failure of this exact statement text.  ``None`` means miss — the
        caller must :meth:`build` the record (and :meth:`store` the
        failure if that raises).
        """
        sql = record.sql
        text = self._text
        cached = text.get(sql)
        if cached is not None:
            text.move_to_end(sql)
            self.hits += 1
            if type(cached) is tuple:
                return cached
            return rebind_query(cached, record, cached.interned_id)
        raw = _raw_scan(sql)
        if raw is not None:
            hit = self._bind_raw(record, raw[0], raw[2])
            if hit is not None:
                return hit
        self.misses += 1
        return None

    def fetch_raw(
        self, record, raw_key: str, constants: List[Tuple[str, str]]
    ) -> Optional[CacheResult]:
        """:meth:`fetch` for a record whose :func:`_raw_scan` is known
        (:meth:`repro.store.columnar.StoredSplits.raw_split`): a text the
        text memo does not hold binds to the raw memo's verified entry
        unscanned; anything else is an ordinary :meth:`fetch`."""
        if record.sql not in self._text:
            hit = self._bind_raw(record, raw_key, constants)
            if hit is not None:
                return hit
        return self.fetch(record)

    def _bind_raw(
        self, record, raw_key: str, constants: List[Tuple[str, str]]
    ) -> Optional[LazyParsedQuery]:
        """Bind ``record`` to the verified entry of ``raw_key``, replaying
        the unary minus folds into ``constants``; ``None`` when the raw
        memo holds no verified entry for the key."""
        by_raw = self._by_raw
        memo = by_raw.get(raw_key)
        if type(memo) is not tuple:
            return None
        by_raw.move_to_end(raw_key)
        entry, folds = memo
        for index in folds:
            constants[index] = ("number", "-" + constants[index][1])
        self.hits += 1
        return entry.bind(record, tuple(constants), self._lazy_stats)

    def store(self, sql: str, failure: Tuple[BaseException, str]) -> None:
        """Record the ``(error, reason)`` failure of a :meth:`build` that
        raised.  Failures stay in the text memo: their messages carry
        text-specific line/column positions, so they are never shared
        across texts."""
        self._remember_text(sql, failure)

    def build(
        self,
        record,
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
        interner=None,
    ) -> ParsedQuery:
        """Full-parse ``record`` after a :meth:`fetch` miss — in one shot.

        Parse engine v3's cold path.  One scanner pass feeds the parser
        (no second tokenization), and one case-normalising marker
        rendering of the raw parse tree (:class:`_MarkerFormatter`)
        yields the template, the clause texts and the interned splice
        :class:`_Entry` together — the legacy parse-then-re-derive path
        case-normalised the tree three times and formatted it four.  On
        success a text with a new raw key is witness-verified, and its
        entry is built from its own markers and interned under that raw
        key; a text whose raw key is not verified (none, or unsafe) is
        admitted into the text memo instead.

        Failures (:class:`~repro.sqlparser.errors.SqlError` subclasses,
        ``RecursionError``) propagate to the caller, which records them
        with :meth:`store`.
        """
        sql = record.sql
        scanned = scan(sql)
        if scanned.error is not None:
            raise scanned.error
        fingerprint = scanned.fingerprint
        statement = Parser(scanned.tokens).parse_statement()
        marker = splices = None
        if fingerprint is None or isinstance(statement, ast.Union):
            # No marker rendering: without a fingerprint there is no key
            # to intern (and no guarantee the text is free of the marker
            # alphabet's control characters), and a UNION's template
            # folds a full statement rendering into its suffix, which
            # isn't worth a marker variant for how rarely unions appear.
            # Both derive exactly as the cacheless path does; a UNION's
            # raw key is pinned unsafe below (text memo only).
            proto = ParsedQuery.from_statement(
                record,
                statement,
                fold_variables=fold_variables,
                strict_triple=strict_triple,
                interner=interner,
            )
        else:
            # Fused derivation: one marker-rendering of the raw parse
            # tree yields the template (markers → placeholders), the
            # splices (split on the markers) and the clause texts (one
            # splice-render with the statement's own constants) — and
            # the case-normalising formatter makes the canonical tree
            # itself unnecessary.
            marker = _MarkerFormatter(fold_variables)
            msc, mfc, mwc, mprefix, msuffix = _clause_strings(
                statement, marker
            )
            template = QueryTemplate(
                ssc=marker.template_text(msc),
                sfc=marker.template_text(mfc),
                swc=marker.template_text(mwc),
                rest_prefix=(
                    "" if strict_triple else marker.template_text(mprefix)
                ),
                rest_suffix=(
                    "" if strict_triple else marker.template_text(msuffix)
                ),
            )
            splices = (
                _make_splice(marker.splice_text(msc)),
                _make_splice(marker.splice_text(mfc)),
                _make_splice(marker.splice_text(mwc)),
            )
            rendered = [
                _render_constant(kind, value) for kind, value in marker.consts
            ]
            proto = ParsedQuery.assemble(
                record,
                statement,
                statement,
                template,
                template_fingerprint(template),
                ClauseTexts(
                    sc=_render_splice(splices[0], rendered),
                    fc=_render_splice(splices[1], rendered),
                    wc=_render_splice(splices[2], rendered),
                ),
                interner,
            )
        memo: object = _UNSAFE
        if fingerprint is not None:
            memo = self._admit_raw(
                _raw_scan(sql), fingerprint, proto, splices, marker
            )
        if type(memo) is not tuple:
            self._remember_text(sql, proto)
        return proto

    def _admit_raw(
        self,
        raw: Optional[RawTemplate],
        fingerprint: StatementFingerprint,
        proto: ParsedQuery,
        splices: Optional[Tuple[_Splice, _Splice, _Splice]],
        marker: Optional[_MarkerFormatter],
    ) -> object:
        """Witness-verify ``raw`` against the scanner, memoise the
        verdict and return the raw key's memo (``_UNSAFE`` for no key).

        Admission requires the regex strip and the scanner to have seen
        exactly the same literals at exactly the same source positions;
        the only tolerated difference is a unary minus the scanner
        folded into a number's *value* (its span stays the literal
        alone), which is recorded as a fold index and replayed on every
        later bind.  The entry is then built from the witness's own
        ``marker`` rendering (:func:`_entry_from_markers`).  Any other
        disagreement — no rendering, or an unsafe entry — pins the raw
        key to the full parse path.  A raw key keeps its first verdict.
        """
        if raw is None:
            return _UNSAFE
        raw_key, parts, constants = raw
        by_raw = self._by_raw
        memo = by_raw.get(raw_key)
        if memo is not None:
            return memo
        memo = _UNSAFE
        if marker is not None and _raw_spans(parts) == fingerprint.spans:
            folds: List[int] = []
            for index, (pair, scanned) in enumerate(
                zip(constants, fingerprint.constants)
            ):
                if pair == scanned:
                    continue
                if (
                    pair[0] == "number"
                    and scanned[0] == "number"
                    and scanned[1] == "-" + pair[1]
                ):
                    folds.append(index)
                    continue
                folds = None  # type: ignore[assignment]
                break
            if folds is not None:
                entry = _entry_from_markers(proto, fingerprint, splices, marker)
                if entry is not None:
                    memo = (entry, tuple(folds))
        by_raw[raw_key] = memo
        if len(by_raw) > self.max_entries:
            by_raw.popitem(last=False)
            self.evictions += 1
        return memo

    def _remember_text(self, sql: str, result: CacheResult) -> None:
        text = self._text
        text[sql] = result
        text.move_to_end(sql)
        if len(text) > self.max_entries:
            text.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Template dictionary (warm-start re-runs)
    #
    # The interned template dictionary travels as *witness texts* — SQL
    # strings, not pickled entries — in a columnar store's
    # ``templates.bin``, in a streaming checkpoint and in every shard
    # payload of a parallel run over a store.  Preloading
    # re-parses every witness through this cache's own cold path under
    # the current run's knobs, which IS the witness verification:
    # nothing is trusted beyond the SQL text, so a stale or even
    # adversarial dictionary can only cost speed, never output.

    def dict_witnesses(self) -> List[str]:
        """One witness statement text per verified raw key: the text
        its entry was built from."""
        return [
            memo[0].proto.record.sql
            for memo in self._by_raw.values()
            if type(memo) is tuple
        ]

    def preload(
        self,
        witnesses: Iterable[str],
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
    ) -> int:
        """Warm both memos by re-parsing ``witnesses`` through the cold path.

        Returns the number of witnesses admitted.  Unparsable witnesses
        (a dictionary from another corpus, say) are skipped.  Counter
        neutral: hit/miss/eviction totals are restored afterwards, so
        the pipeline's conservation laws only ever see real traffic.

        Each witness goes straight into :meth:`build`, which makes the
        same admissions a fetch-miss-then-build would: a dictionary is
        one witness per template, so a fetch probe would only ever miss.
        A preload is pure bulk allocation into long-lived caches, so it
        runs under :func:`collector_paused`.
        """
        hits, misses, evictions = self.hits, self.misses, self.evictions
        build = self.build
        loaded = 0
        try:
            with collector_paused():
                for index, sql in enumerate(witnesses):
                    try:
                        build(
                            LogRecord(seq=-1 - index, sql=sql, timestamp=0.0),
                            fold_variables=fold_variables,
                            strict_triple=strict_triple,
                        )
                    except (SqlError, RecursionError):
                        continue
                    loaded += 1
        finally:
            self.hits, self.misses, self.evictions = hits, misses, evictions
        return loaded
