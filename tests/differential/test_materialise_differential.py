"""Differential: spine-plan materialisation vs the frozen full re-walk.

A lazy query's statement is rebuilt along its entry's substitution plan
(:func:`repro.skeleton.cache._literal_plan` / ``_rebuild``): only the
nodes on a path from the root to a number/string literal are visited.
The reference is the function that plan replaced, ``_substitute_value``,
which re-walked the whole prototype in source order.  It is exec'd,
together with the ``_source_fields`` order it read, straight out of
rev ``af4d27c`` so it cannot drift with the code under test.

For statements carrying every constant shape the source-order walk has
to get right — folded negatives (``- -5``), ``BETWEEN``, ``IN`` lists,
``TOP``, a simple ``CASE`` operand, function arguments, derived tables
and strings with ``''`` — the materialised statement must be ``==`` and
``repr``-equal to the frozen result, share every literal-free (and every
unchanged) subtree with the prototype by identity, and be the
prototype's statement itself when bound to the prototype's constants.

A second property pins :meth:`Node.walk` on the field-name table to the
frozen ``af4d27c`` walk: the SWS shape check reads WHERE constants in
walk order, so the pre-order sequence is part of its verdict.  A third
pins the lazy :meth:`~repro.skeleton.cache.LazyParsedQuery.where_constants`,
which formats its entry's WHERE plan from the constant vector, to that
walk over the eagerly parsed member, building no AST.
"""

import __future__
import ast as pyast
import dataclasses
import re
import sys
import types

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.log.models import LogRecord
from repro.patterns.models import ParsedQuery
from repro.skeleton.cache import (
    LazyParsedQuery,
    TemplateCache,
    _UNSAFE,
    _LazyStats,
    _literal_plan,
    _rebuild,
)
from repro.sqlparser import ast_nodes as ast
from repro.sqlparser import SqlError, parse
from tests.frozen import frozen_source

#: The last revision whose cache materialised through ``_substitute_value``
#: and whose ``Node.walk`` read ``dataclasses.fields`` per node.
FROZEN_REV = "af4d27c"

#: Top-level definitions of the frozen cache module the reference needs.
_REFERENCE_NAMES = {
    "_SOURCE_ORDER_OVERRIDES",
    "_FIELD_ORDER_CACHE",
    "_source_fields",
    "_substitute_value",
}

_frozen = {}


def _frozen_source(path):
    return frozen_source(
        FROZEN_REV,
        path,
        "the live materialisation is still pinned by "
        "test_lazy_parse_differential.py",
    )


def frozen_substitute():
    """The frozen ``_substitute_value``, bound to the live AST classes."""
    if "substitute" not in _frozen:
        module = pyast.parse(_frozen_source("src/repro/skeleton/cache.py"))
        body = []
        for node in module.body:
            if isinstance(node, pyast.FunctionDef):
                names = {node.name}
            elif isinstance(node, pyast.Assign):
                names = {t.id for t in node.targets if isinstance(t, pyast.Name)}
            elif isinstance(node, pyast.AnnAssign):
                names = {node.target.id}
            else:
                continue
            if names & _REFERENCE_NAMES:
                body.append(node)
        code = compile(
            pyast.Module(body=body, type_ignores=[]),
            "frozen_cache.py",
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        namespace = {"ast": ast, "dataclasses": dataclasses}
        exec(code, namespace)
        _frozen["substitute"] = namespace["_substitute_value"]
        _frozen["source_fields"] = namespace["_source_fields"]
    return _frozen["substitute"], _frozen["source_fields"]


def frozen_ast_module():
    """The whole frozen ``ast_nodes`` module, as its own node classes."""
    if "ast_nodes" not in _frozen:
        source = _frozen_source("src/repro/sqlparser/ast_nodes.py")
        module = types.ModuleType("frozen_ast_nodes")
        # dataclasses resolves string annotations through sys.modules.
        sys.modules[module.__name__] = module
        try:
            exec(compile(source, "frozen_ast_nodes.py", "exec"), module.__dict__)
        finally:
            del sys.modules[module.__name__]
        _frozen["ast_nodes"] = module
    return _frozen["ast_nodes"]


# ---------------------------------------------------------------------
# Generators: one statement template, two constant assignments


def _number(draw):
    digits = draw(st.sampled_from(["0", "1", "5", "42", "2.5", ".5", "1e3", "7."]))
    sign = draw(st.sampled_from(["", "", "-", "- -"]))
    return sign + digits


def _string(draw):
    text = draw(st.text(alphabet="ab' ", max_size=5))
    return "'" + text.replace("'", "''") + "'"


_SLOT_DRAWS = {
    "n": _number,
    # The parser takes only an unsigned count after TOP; a signed one
    # shares its fingerprint key but not its raw key, and must fail.
    "t": lambda draw: draw(st.sampled_from(["0", "3", "10", "-3", "- 10"])),
    "s": _string,
    "c": lambda draw: (_number if draw(st.booleans()) else _string)(draw),
}

#: Predicate shapes; ``{n}`` is a number slot, ``{s}`` a string slot,
#: ``{c}`` either and ``{t}`` a TOP count.
PREDICATES = [
    "a = {n}",
    "b <> {s}",
    "a BETWEEN {n} AND {n}",
    "a NOT BETWEEN {n} AND {n}",
    "b IN ({c})",
    "b IN ({c}, {c}, {c})",
    "f(a, {n}) > {n}",
    "dbo.g({s}, {n}, a) = {c}",
    "CASE {n} WHEN {n} THEN {s} ELSE {s} END = {s}",
    "CASE a WHEN {c} THEN {n} END <> {n}",
    "a IS NULL",
    "a = NULL",
    "-a < {n}",
    "NOT (a > {n} OR b = {s})",
]
SELECT_LISTS = [
    "a",
    "a, b",
    "f({n}, {s}) AS x, b",
    "CASE WHEN a = {n} THEN {s} END AS y",
]
SOURCES = [
    "t",
    "t AS u JOIN v ON u.a = v.b + {n}",
    "(SELECT TOP {t} a, b FROM u WHERE c = {c}) AS d",
    "(SELECT a, b FROM u WHERE c IN ({n}, {n})) d JOIN t ON d.a = t.a",
]

_SLOT = re.compile(r"\{([nsct])\}")


def _fill(template, draw):
    """Draw a constant for every slot of ``template``, in order."""
    return _SLOT.sub(lambda m: _SLOT_DRAWS[m.group(1)](draw), template)


@st.composite
def statement_pairs(draw):
    """One template rendered twice with independently drawn constants."""
    top = draw(st.sampled_from(["", "TOP {t} "]))
    items = draw(st.sampled_from(SELECT_LISTS))
    source = draw(st.sampled_from(SOURCES))
    predicates = draw(st.lists(st.sampled_from(PREDICATES), max_size=3))
    glue = draw(st.sampled_from([" AND ", " OR "]))
    where = " WHERE " + glue.join(predicates) if predicates else ""
    order = draw(st.sampled_from(["", " ORDER BY 1", " ORDER BY a DESC"]))
    template = f"SELECT {top}{items} FROM {source}{where}{order}"
    return _fill(template, draw), _fill(template, draw)


# ---------------------------------------------------------------------
# Helpers


def record(seq, sql):
    return LogRecord(seq=seq, timestamp=float(seq), user="u", sql=sql)


def frozen_order_constants(value, source_fields):
    """(kind, value) of the number/string literals in frozen source order."""
    if isinstance(value, ast.Literal):
        if value.kind in ("number", "string"):
            return [(value.kind, value.value)]
        return []
    if isinstance(value, ast.Node):
        return [
            const
            for name in source_fields(type(value))
            for const in frozen_order_constants(getattr(value, name), source_fields)
        ]
    if type(value) is tuple:
        return [c for item in value for c in frozen_order_constants(item, source_fields)]
    return []


def has_constant(node):
    return any(
        isinstance(n, ast.Literal) and n.kind in ("number", "string")
        for n in node.walk()
    )


def assert_shares_prototype(proto, got):
    """Literal-free and unchanged subtrees are the prototype's objects."""
    if not has_constant(proto) or got == proto:
        assert got is proto, (proto, got)
        return
    assert type(got) is type(proto)
    proto_children = list(proto.children())
    got_children = list(got.children())
    assert len(proto_children) == len(got_children)
    for p, g in zip(proto_children, got_children):
        assert_shares_prototype(p, g)


def parse_or_none(sql):
    try:
        return parse(sql)
    except SqlError:  # the generator may draw text the parser refuses
        return None


EDGE_PAIRS = [
    ("SELECT a FROM t WHERE a = - -5", "SELECT a FROM t WHERE a = - -7"),
    (
        "SELECT TOP 10 a FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 'x', 3)",
        "SELECT TOP 20 a FROM t WHERE a BETWEEN 1 AND 9 AND b IN (4, 'x', 3)",
    ),
    (
        "SELECT CASE 1 WHEN 2 THEN 'it''s' ELSE 'b' END FROM t",
        "SELECT CASE 3 WHEN 2 THEN 'o''k' ELSE 'b' END FROM t",
    ),
    (
        "SELECT f(1, 'a') FROM (SELECT TOP 3 b FROM u WHERE c = 2) AS d",
        "SELECT f(1, 'z') FROM (SELECT TOP 4 b FROM u WHERE c = 2) AS d",
    ),
]


# ---------------------------------------------------------------------
# Properties


@settings(max_examples=150, deadline=None)
@given(statement_pairs())
@example(EDGE_PAIRS[0])
@example(EDGE_PAIRS[1])
@example(EDGE_PAIRS[2])
@example(EDGE_PAIRS[3])
def test_plan_rebuild_matches_frozen_substitution(pair):
    substitute, source_fields = frozen_substitute()
    proto, member = (parse_or_none(sql) for sql in pair)
    if proto is None or member is None:
        return
    values = frozen_order_constants(member, source_fields)
    own = frozen_order_constants(proto, source_fields)
    assert len(values) == len(own)

    plan = _literal_plan(proto, [0])
    got = _rebuild(plan, values)
    expected = substitute(proto, tuple(values), [0])
    assert got == expected
    assert repr(got) == repr(expected)
    assert got == member
    assert_shares_prototype(proto, got)
    # The prototype's own constants rebuild nothing, whatever sequence
    # type carries them (the raw tier binds lists, the scanner tuples).
    assert _rebuild(plan, own) is proto
    assert _rebuild(plan, [list(c) for c in own]) is proto


@settings(max_examples=150, deadline=None)
@given(statement_pairs())
@example(EDGE_PAIRS[1])
@example(EDGE_PAIRS[2])
@example(EDGE_PAIRS[3])
def test_lazy_materialise_matches_frozen_substitution(pair):
    substitute, _ = frozen_substitute()
    first, second = (record(seq, sql) for seq, sql in enumerate(pair))
    if parse_or_none(first.sql) is None:
        return
    cache = TemplateCache()
    if cache.fetch(first) is None:
        cache.build(first)
    query = cache.fetch(second)
    if parse_or_none(second.sql) is None:
        # A warm cache never serves a query for text the parser refuses.
        assert not isinstance(query, ParsedQuery), second.sql
        return
    if type(query) is not LazyParsedQuery:
        return  # unsafe key or parse failure: no lazy bind to materialise
    entry = query.__dict__["_entry"]
    proto = entry.proto.statement
    expected = substitute(proto, query.__dict__["_constants"], [0])

    got = query.statement
    assert got == expected
    assert repr(got) == repr(expected)
    assert query == ParsedQuery.from_statement(second, parse(second.sql))
    assert_shares_prototype(proto, got)
    assert entry.plan is not None or got is proto

    # Bound to the prototype's own constants — as a list, so the tuple
    # shortcut in _materialise does not answer — the plan returns the
    # prototype's statement itself.
    own = entry.bind(second, list(entry.constants), _LazyStats())
    assert own.statement is proto


@settings(max_examples=150, deadline=None)
@given(statement_pairs())
@example(EDGE_PAIRS[3])
def test_walk_order_matches_frozen_walk(pair):
    frozen = frozen_ast_module()
    statement = parse_or_none(pair[0])
    if statement is None:
        return

    def to_frozen(value):
        if isinstance(value, ast.Node):
            cls = getattr(frozen, type(value).__name__)
            return cls(
                *(to_frozen(getattr(value, f.name)) for f in dataclasses.fields(value))
            )
        if type(value) is tuple:
            return tuple(to_frozen(item) for item in value)
        return value

    frozen_order = [repr(node) for node in to_frozen(statement).walk()]
    live_order = [repr(node) for node in statement.walk()]
    assert live_order == frozen_order


#: The WHERE shapes the plan has to place: folded negatives, BETWEEN,
#: IN lists, ``= NULL`` among constants and strings with ``''``.
WHERE_PAIRS = [
    (
        "SELECT a FROM t WHERE a = -5 AND b BETWEEN -1 AND 2",
        "SELECT a FROM t WHERE a = -7 AND b BETWEEN -3 AND 4",
    ),
    (
        "SELECT a FROM t WHERE a = NULL AND b = 1 OR c IN (1, 'x''y', 3)",
        "SELECT a FROM t WHERE a = NULL AND b = 2 OR c IN (4, 'it''s', 3)",
    ),
    (
        "SELECT TOP 5 a FROM t WHERE b <> 'o''k' AND NOT a IS NULL",
        "SELECT TOP 6 a FROM t WHERE b <> '''' AND NOT a IS NULL",
    ),
    (
        "SELECT f(1) FROM (SELECT b FROM u WHERE c = 2) AS d WHERE d.b = 3",
        "SELECT f(9) FROM (SELECT b FROM u WHERE c = 8) AS d WHERE d.b = 7",
    ),
]


@settings(max_examples=150, deadline=None)
@given(statement_pairs())
@example(WHERE_PAIRS[0])
@example(WHERE_PAIRS[1])
@example(WHERE_PAIRS[2])
@example(WHERE_PAIRS[3])
def test_where_constants_match_the_ast_walk(pair):
    first, second = (record(seq, sql) for seq, sql in enumerate(pair))
    if parse_or_none(first.sql) is None or parse_or_none(second.sql) is None:
        return
    cache = TemplateCache()
    if cache.fetch(first) is None:
        cache.build(first)
    query = cache.fetch(second)
    if type(query) is not LazyParsedQuery:
        return  # unsafe key: served eagerly
    eager = ParsedQuery.from_statement(second, parse(second.sql))
    assert query.where_constants() == eager.where_constants()
    assert query.__dict__["_entry"].where is not _UNSAFE
    assert cache.materialised == 0
