"""The parse fast path's template cache.

SkyServer-style logs are dominated by machine-generated statements that
repeat a small set of templates with different constants (the premise of
the paper's Section 3).  The full parse path re-derives the same
skeleton, template and clause features thousands of times; this module
short-circuits that with three bounded LRU tiers, probed in order by
:meth:`TemplateCache.fetch`:

* **L1 (exact text)** — statement text → prototype
  :class:`~repro.patterns.models.ParsedQuery` *or* a cached parse
  failure.  A hit costs one dict probe plus a record rebind.  Failures
  live only here: parser error messages carry line/column positions
  that depend on the exact whitespace, so they are never shared across
  texts.
* **Raw-template memo** — constant-stripped raw text → a
  *witness-verified* L2 entry.  Workloads like SkyServer's collapse to
  a few dozen raw templates, so once a template's first member has paid
  for a full fingerprint scan, later members skip the scanner entirely:
  a single cheap regex pass strips the literals and one dict probe
  binds them to the interned entry.  Admission is per raw key and only
  happens when the regex strip provably reproduced the scanner — the
  witness's literal spans must equal the scanner's token spans
  position for position (see :func:`_raw_scan`); anything else marks
  the raw key unsafe and members keep taking the scanner path.
* **L2 (fingerprint key)** — canonical-token-stream key from
  :func:`~repro.sqlparser.scanner.scan` → an interned :class:`_Entry`
  holding the prototype and precomputed *splice templates* of its
  clause texts.  L2 is where an entry's safety is verified, and it
  serves every member whose raw key is unsafe.

A raw-memo or L2 hit emits a :class:`LazyParsedQuery` carrying only the
interned skeleton and the member's constant vector; the AST, clause
texts and equality filter materialise on first access.  Mining,
registry and detection run on the shared skeleton fields, so a typical
run never builds most members' ASTs at all.  A miss goes through
:meth:`TemplateCache.build`, the one-shot cold path that parses the
statement and admits its entry.

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
  constant vector, in order.  Any mismatch marks the key **unsafe**:
  every statement with that key permanently takes the full parse path
  (so does every ``UNION``, which has no marker rendering).  Ambiguity
  can therefore only ever cost speed, never correctness.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import re
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Tuple, Union

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
    Scan,
    StatementFingerprint,
    scan,
)
from .features import Predicate, single_equality_filter
from .fingerprint import template_fingerprint
from .template import ClauseTexts, QueryTemplate, _clause_strings

#: Bound of each cache level (distinct texts / distinct keys).  A
#: constant, not a knob: on a long tail of one-off ad-hoc queries
#: (15k statements over ~5k Zipf templates) 65,536 entries removed all
#: 2,254 evictions but only 34 of 5,210 cold builds, with no wall-time
#: gain beyond run-to-run noise.
DEFAULT_PARSE_CACHE_SIZE = 4096

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

    Emitted by the cache on a raw-memo or L2 hit: only the fields the
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
            index, on_left = binding[1], binding[2]
            constants = d["_constants"]
            kind, text = constants[index]
            if constants[index] == entry.constants[index]:
                result = proto_pred
            else:
                literal = ast.Literal(text, kind)
                if on_left:
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

    def null_predicate_count(self) -> int:
        # Constant-independent (NULL is a keyword literal, never a
        # number/string constant), so the entry's precompute is exact.
        return self.__dict__["_entry"].nulls

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
    """One interned fingerprint-key class: prototype + splice templates.

    Beyond the prototype itself the entry precomputes everything a lazy
    bind needs without touching the AST: the shared eager-field dict
    (:attr:`shared`), the equality-filter binding descriptor
    (:attr:`eq`) and the NULL-comparison predicate count
    (:attr:`nulls`).
    """

    __slots__ = (
        "proto", "constants", "splices", "eq", "nulls", "unsigned", "shared", "plan"
    )

    def __init__(
        self,
        proto: ParsedQuery,
        constants: Tuple[Tuple[str, str], ...],
        splices: Tuple[_Splice, _Splice, _Splice],
        eq: Optional[tuple],
        nulls: int,
        unsigned: Tuple[int, ...] = (),
    ) -> None:
        self.proto = proto
        self.constants = constants
        self.splices = splices
        self.eq = eq
        self.nulls = nulls
        #: Constant indexes of literal TOP counts (see :meth:`admits`).
        self.unsigned = unsigned
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

    def admits(self, constants: Tuple[Tuple[str, str], ...]) -> bool:
        """Whether a member parses like the prototype: the scanner folds
        a minus after ``TOP`` into the count, which the parser refuses."""
        for index in self.unsigned:
            if constants[index][1][0] == "-":
                return False
        return True

    def __getstate__(self):
        return (
            self.proto, self.constants, self.splices, self.eq, self.nulls, self.unsigned
        )

    def __setstate__(self, state):
        self.__init__(*state)


class _UnsafeMarker:
    """Permanent full-parse marker for an ambiguous fingerprint key."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unsafe fingerprint key>"

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


def _entry_from_markers(
    proto: ParsedQuery,
    fingerprint: StatementFingerprint,
    splices: Tuple[_Splice, _Splice, _Splice],
    marker: _MarkerFormatter,
    tops: Iterable[str],
) -> Optional[_Entry]:
    """Intern ``proto`` for its fingerprint key, or ``None`` if unsafe.

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
    bytes either way.  ``tops`` are the marker indexes of literal
    ``TOP`` counts (see :meth:`_Entry.admits`).
    """
    if tuple(marker.consts) != fingerprint.constants:
        return None
    return _Entry(
        proto,
        fingerprint.constants,
        splices,
        _equality_binding(proto),
        proto.null_predicate_count(),
        tuple(map(int, tops)),
    )


#: A literal ``TOP`` count in a marker rendering: the formatter spells
#: the keyword only there, and a constant marker only at a literal.
_TOP_COUNT = re.compile("TOP \x00(\\d+)\x01")


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
# the raw key is marked unsafe: its members simply keep paying for the
# full scanner pass.  The guards mirror the scanner's punt conditions —
# no literal is stripped where the hand lexer would merge it into a
# word (``abc1``) or reject it (``1abc``).
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

#: ``(raw_key, spans, constants)`` for one statement text, or ``None``
#: when the text contains control characters the scanner refuses.
RawTemplate = Tuple[str, Tuple[Tuple[int, int], ...], List[Tuple[str, str]]]


def _raw_scan(text: str) -> Optional[RawTemplate]:
    """Strip literals out of ``text`` in one regex pass.

    The raw key is the text with each stripped literal replaced by its
    typed placeholder byte (injective: the scanner's control-character
    refusal, mirrored here, keeps placeholders out of the input).  The
    constants come back already in the scanner's ``(kind, value)``
    format — same unquoting, same ``''`` collapse — so a verified raw
    key can feed :meth:`_Entry.bind` directly.

    The capturing split alternates the text between literals with the
    literals themselves; each literal is swapped for its placeholder in
    place, and the spans follow from the running part lengths.
    """
    if _FP_UNSAFE.search(text):
        return None
    parts = _RAW_LITERAL.split(text)
    spans: List[Tuple[int, int]] = []
    constants: List[Tuple[str, str]] = []
    start = len(parts[0])
    for index in range(1, len(parts), 2):
        token = parts[index]
        end = start + len(token)
        spans.append((start, end))
        if token[0] == "'":
            constants.append(("string", token[1:-1].replace("''", "'")))
            parts[index] = _FP_STRING
        else:
            constants.append(("number", token))
            parts[index] = _FP_NUMBER
        start = end + len(parts[index + 1])
    return ("".join(parts), tuple(spans), constants)


#: What the parse loop caches for one statement text: a prototype
#: ParsedQuery on success, or the (error, reason) pair of a failure.
CacheResult = Union[ParsedQuery, Tuple[BaseException, str]]


class TemplateCache:
    """Bounded three-tier LRU for the parse fast path.

    One instance serves one executor run (batch), one cleaner instance
    (streaming) or one worker shard (parallel) — instances are picklable
    so prewarmed caches can cross process boundaries, but they are never
    shared concurrently.

    :param max_entries: LRU bound applied to each level independently.
    """

    def __init__(self, max_entries: int = DEFAULT_PARSE_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lazy_stats = _LazyStats()
        self._exact: "OrderedDict[str, CacheResult]" = OrderedDict()
        self._by_key: "OrderedDict[str, object]" = OrderedDict()
        #: raw template key → (entry, fold indexes) once witness-verified,
        #: or _UNSAFE when the regex strip provably disagrees with the
        #: scanner for this raw key.
        self._by_raw: "OrderedDict[str, object]" = OrderedDict()
        #: (sql, fingerprint, raw, scan) remembered from the last miss so
        #: that the build() that follows does not rescan the text (the
        #: scan carries the token stream the parser consumes).
        self._pending: Optional[
            Tuple[
                str,
                Optional[StatementFingerprint],
                Optional[RawTemplate],
                Scan,
            ]
        ] = None

    @property
    def materialised(self) -> int:
        """On-demand AST builds performed by lazy queries of this cache.

        A snapshot: lazy queries keep the counter reference, so touching
        a query's ``statement`` after a run still bumps it.
        """
        return self._lazy_stats.materialised

    def __len__(self) -> int:
        return len(self._exact)

    @property
    def key_entries(self) -> int:
        """Number of interned fingerprint-key entries (L2)."""
        return len(self._by_key)

    def fetch(self, record) -> Optional[CacheResult]:
        """Return the cached parse outcome for ``record``, or ``None``.

        A returned :class:`~repro.patterns.models.ParsedQuery` is already
        bound to ``record``; a returned tuple is the shared parse
        failure of this exact statement text.  ``None`` means miss — the
        caller must :meth:`build` the record (and :meth:`store` the
        failure if that raises).
        """
        sql = record.sql
        exact = self._exact
        cached = exact.get(sql)
        if cached is not None:
            exact.move_to_end(sql)
            self.hits += 1
            if type(cached) is tuple:
                return cached
            return rebind_query(cached, record, cached.interned_id)
        raw = _raw_scan(sql)
        if raw is not None:
            memo = self._by_raw.get(raw[0])
            if type(memo) is tuple:
                # Verified raw template: the regex strip stands in for
                # the scanner.  No L1 promotion — this path is already
                # one probe, and distinct-text workloads would only
                # churn the exact level.
                self._by_raw.move_to_end(raw[0])
                entry, folds = memo
                constants = raw[2]
                for index in folds:
                    constants[index] = ("number", "-" + constants[index][1])
                self.hits += 1
                return entry.bind(record, tuple(constants), self._lazy_stats)
        scanned = scan(sql)
        fingerprint = scanned.fingerprint
        if fingerprint is not None:
            entry = self._by_key.get(fingerprint.key)
            if type(entry) is _Entry and entry.admits(fingerprint.constants):
                self._by_key.move_to_end(fingerprint.key)
                result = entry.bind(
                    record, fingerprint.constants, self._lazy_stats
                )
                self.hits += 1
                self._admit_raw(raw, fingerprint, entry)
                # Promote into L1 so an exact repeat skips the scanner.
                self._remember_exact(sql, result)
                return result
        self.misses += 1
        self._pending = (sql, fingerprint, raw, scanned)
        return None

    def fetch_raw(
        self, record, raw_key: str, constants: List[Tuple[str, str]]
    ) -> Optional[CacheResult]:
        """:meth:`fetch` for a record whose :func:`_raw_scan` is known
        (:meth:`repro.store.columnar.StoredSplits.raw_split`): a text L1
        does not hold binds to the raw memo's verified entry unscanned;
        anything else is an ordinary :meth:`fetch`."""
        if record.sql not in self._exact:
            memo = self._by_raw.get(raw_key)
            if type(memo) is tuple:
                self._by_raw.move_to_end(raw_key)
                entry, folds = memo
                for index in folds:
                    constants[index] = ("number", "-" + constants[index][1])
                self.hits += 1
                return entry.bind(record, tuple(constants), self._lazy_stats)
        return self.fetch(record)

    def store(self, sql: str, failure: Tuple[BaseException, str]) -> None:
        """Record the ``(error, reason)`` failure of a :meth:`build` that
        raised.  Failures stay L1-only: their messages carry text-specific
        line/column positions, so they are never shared across texts."""
        self._remember_exact(sql, failure)

    def build(
        self,
        record,
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
        interner=None,
    ) -> ParsedQuery:
        """Full-parse ``record`` after a :meth:`fetch` miss — in one shot.

        Parse engine v3's cold path.  The scanner pass the miss already
        paid for feeds the parser directly (no second tokenization), and
        one case-normalising marker rendering of the raw parse tree
        (:class:`_MarkerFormatter`) yields the template, the clause
        texts and the interned splice :class:`_Entry` together — the
        legacy parse-then-re-derive path case-normalised the tree three
        times and formatted it four.  On success the prototype is
        admitted into L1, and its entry into L2 and the raw memo.

        Failures (:class:`~repro.sqlparser.errors.SqlError` subclasses,
        ``RecursionError``) propagate to the caller, which records them
        with :meth:`store`.
        """
        sql = record.sql
        pending = self._pending
        self._pending = None
        if pending is not None and pending[0] == sql:
            _, fingerprint, raw, scanned = pending
        else:
            scanned = scan(sql)
            fingerprint = scanned.fingerprint
            raw = _raw_scan(sql)
        if scanned.error is not None:
            raise scanned.error
        statement = Parser(scanned.tokens).parse_statement()
        marker = None
        if fingerprint is None or isinstance(statement, ast.Union):
            # No marker rendering: without a fingerprint there is no key
            # to intern (and no guarantee the text is free of the marker
            # alphabet's control characters), and a UNION's template
            # folds a full statement rendering into its suffix, which
            # isn't worth a marker variant for how rarely unions appear.
            # Both derive exactly as the cacheless path does; a UNION's
            # key is pinned unsafe below (exact-text L1 only).
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
            tops = _TOP_COUNT.findall(" ".join((mprefix, msc, mfc, mwc, msuffix)))
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
        self._remember_exact(sql, proto)
        if fingerprint is not None:
            by_key = self._by_key
            entry = by_key.get(fingerprint.key)
            if entry is None:
                if marker is not None:
                    entry = _entry_from_markers(
                        proto, fingerprint, splices, marker, tops
                    )
                entry = _UNSAFE if entry is None else entry
                by_key[fingerprint.key] = entry
                if len(by_key) > self.max_entries:
                    by_key.popitem(last=False)
                    self.evictions += 1
            self._admit_raw(raw, fingerprint, entry)
        return proto

    def _admit_raw(
        self,
        raw: Optional[RawTemplate],
        fingerprint: StatementFingerprint,
        entry: object,
    ) -> None:
        """Witness-verify ``raw`` against the scanner and memoise it.

        Admission requires the regex strip and the scanner to have seen
        exactly the same literals at exactly the same source positions;
        the only tolerated difference is a unary minus the scanner
        folded into a number's *value* (its span stays the literal
        alone), which is recorded as a fold index and replayed on every
        later bind.  Any other disagreement — or an unsafe L2 entry —
        pins the raw key to the full scanner path.
        """
        if raw is None:
            return
        raw_key, spans, constants = raw
        by_raw = self._by_raw
        if raw_key in by_raw:
            return
        memo: object = _UNSAFE
        if type(entry) is _Entry and spans == fingerprint.spans:
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
                memo = (entry, tuple(folds))
        by_raw[raw_key] = memo
        if len(by_raw) > self.max_entries:
            by_raw.popitem(last=False)

    def _remember_exact(self, sql: str, result: CacheResult) -> None:
        exact = self._exact
        exact[sql] = result
        exact.move_to_end(sql)
        if len(exact) > self.max_entries:
            exact.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Template dictionary (warm-start re-runs)
    #
    # The interned template dictionary travels as *witness texts* — SQL
    # strings, not pickled entries — in a columnar store's
    # ``templates.bin`` and in a streaming checkpoint.  Preloading
    # re-parses every witness through this cache's own cold path under
    # the current run's knobs, which IS the witness verification:
    # nothing is trusted beyond the SQL text, so a stale or even
    # adversarial dictionary can only cost speed, never output.

    def dict_witnesses(self) -> List[str]:
        """One witness statement text per interned L2 entry."""
        return [
            entry.proto.record.sql
            for entry in self._by_key.values()
            if type(entry) is _Entry
        ]

    def preload(
        self,
        witnesses: Iterable[str],
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
    ) -> int:
        """Warm L1/L2/raw by re-parsing ``witnesses`` through the cold path.

        Returns the number of witnesses admitted.  Unparsable witnesses
        (a dictionary from another corpus, say) are skipped.  Counter
        neutral: hit/miss/eviction totals are restored afterwards, so
        the pipeline's conservation laws only ever see real traffic.

        Parse engine v4 batches the pass instead of replaying the
        per-witness fetch/build protocol.  Each witness goes straight
        into the single-lex :meth:`build` — the fetch probe ladder
        (L1 → raw memo → L2) exists to *avoid* a cold build, but a
        dictionary is one witness per template, so every probe would
        miss anyway; an exact-text membership check covers the only
        realistic duplicate.  Shared setup is hoisted once per batch:
        the counter snapshot, the bound build method, and a gc
        suspension — a preload is pure bulk allocation into long-lived
        caches, and generational collection passes over the growing
        heap are wasted work until the batch completes.  Admissions are
        byte-identical to the per-witness flow: :meth:`build` performs
        the same scan, raw strip, parse and L1/L2/raw admissions a
        fetch-miss-then-build would.
        """
        hits, misses, evictions = self.hits, self.misses, self.evictions
        build = self.build
        exact = self._exact
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        loaded = 0
        try:
            for index, sql in enumerate(witnesses):
                if sql in exact:
                    exact.move_to_end(sql)
                    loaded += 1
                    continue
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
            if gc_was_enabled:
                gc.enable()
            self.hits, self.misses, self.evictions = hits, misses, evictions
        return loaded

    # ------------------------------------------------------------------
    # Pre-seeding (warm worker pools)

    def export_seed(self) -> bytes:
        """Snapshot the cache's interned entries as a portable seed.

        The seed is a pickled copy of this cache with its counters
        zeroed and its pending-miss state cleared — a parallel run ships
        it to its pool workers inside every shard payload
        (:mod:`repro.pipeline.parallel`), so their first shard already
        hits on every template this cache has interned.  The caller
        owns the correctness contract documented on
        :func:`~repro.pipeline.framework.parse_log`: a seed must only
        ever warm caches serving the same ``(fold_variables,
        strict_triple)`` parse knobs it was built under.
        """
        clone = TemplateCache(self.max_entries)
        # Lazy L1 values hold this cache's materialisation counter; a
        # seeded cache must count its own, so they stay behind (the
        # interned L2 entry regenerates them on the first key hit).
        clone._exact = OrderedDict(
            (sql, value)
            for sql, value in self._exact.items()
            if type(value) is not LazyParsedQuery
        )
        clone._by_key = OrderedDict(self._by_key)
        clone._by_raw = OrderedDict(self._by_raw)
        return pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_seed(cls, seed: bytes) -> "TemplateCache":
        """Rebuild a cache from an :meth:`export_seed` blob, with every
        counter at zero and the seed's bound."""
        cache = pickle.loads(seed)
        if not isinstance(cache, cls):
            raise TypeError(
                f"seed does not contain a {cls.__name__} "
                f"(got {type(cache).__name__})"
            )
        cache.hits = 0
        cache.misses = 0
        cache.evictions = 0
        cache._lazy_stats = _LazyStats()
        cache._pending = None
        return cache
