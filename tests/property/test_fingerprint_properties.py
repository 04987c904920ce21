"""Property-based differential fuzz of the fingerprint scanner.

The template cache's fast path rests on one contract: whenever two
statements receive the same fingerprint key, instantiating one from the
other's cached prototype must be indistinguishable from a fresh full
parse.  These tests generate SkyServer-dialect SQL — delimited
identifiers in all three forms, numeric literals across their edge
shapes, strings with doubled-quote escapes — render each template with
two independent constant assignments, and check:

* equal keys ⇒ identical query templates (Definition 4), and
* the cache's lazy bind is byte-equal to a fresh parse: same :class:`ParsedQuery`, same clause texts, same formatted
  statement.

Statements the scanner punts on (``None``) or the parser rejects are
skipped — the contract only binds on the fast path's admission set.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.log.models import LogRecord
from repro.patterns.models import ParsedQuery
from repro.skeleton import build_template
from repro.skeleton.cache import TemplateCache
from repro.sqlparser import SqlError, format_sql, parse
from repro.sqlparser.scanner import fingerprint_statement

# ---------------------------------------------------------------------
# Generators: SkyServer-flavoured statements with constant "holes"

bare_names = st.sampled_from(
    ["objid", "ra", "DEC", "z", "name", "htmid", "bestObjID"]
)
identifiers = st.one_of(
    bare_names,
    bare_names.map(lambda n: f"[{n}]"),
    bare_names.map(lambda n: f'"{n}"'),
)
tables = st.sampled_from(["PhotoObj", "SpecObj", "photoprimary", "[Galaxy]"])

number_texts = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(str),
    st.tuples(
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=9999),
    ).map(lambda t: f"{t[0]}.{t[1]}"),
    st.integers(min_value=0, max_value=99).map(lambda n: f".{n}5"),
    st.integers(min_value=0, max_value=99).map(lambda n: f"{n}."),
    st.integers(min_value=1, max_value=40).map(lambda n: f"1.{n}e-3"),
    st.integers(min_value=1, max_value=40).map(lambda n: f"{n}.e5"),
    st.integers(min_value=1, max_value=40).map(lambda n: f"{n}e+2"),
    st.integers(min_value=0, max_value=500).map(lambda n: f"-{n}"),
)
string_texts = st.text(
    alphabet="abX 0'9_", min_size=0, max_size=8
).map(lambda s: "'" + s.replace("'", "''") + "'")
constants = st.one_of(number_texts, string_texts)

comparators = st.sampled_from(["=", "<>", ">", "<", ">=", "<="])


@st.composite
def statements(draw):
    """One statement template rendered with two constant assignments."""
    columns = ", ".join(
        draw(st.lists(identifiers, min_size=1, max_size=3, unique=True))
    )
    top = draw(st.sampled_from(["", "TOP 10 ", "TOP 5 "]))
    table = draw(tables)
    predicate_count = draw(st.integers(min_value=0, max_value=3))
    body_a, body_b = [], []
    for _ in range(predicate_count):
        column = draw(identifiers)
        theta = draw(comparators)
        body_a.append(f"{column} {theta} {draw(constants)}")
        body_b.append(f"{column} {theta} {draw(constants)}")
    where_a = " WHERE " + " AND ".join(body_a) if body_a else ""
    where_b = " WHERE " + " AND ".join(body_b) if body_b else ""
    order = draw(st.sampled_from(["", " ORDER BY 1", " ORDER BY 1 DESC"]))
    head = f"SELECT {top}{columns} FROM {table}"
    return head + where_a + order, head + where_b + order


def try_parse(rec: LogRecord):
    try:
        return ParsedQuery.from_statement(rec, parse(rec.sql))
    except SqlError:
        return None


def record(seq: int, sql: str) -> LogRecord:
    return LogRecord(seq=seq, timestamp=float(seq), user="u", sql=sql)


class TestFingerprintDifferential:
    @given(pair=statements())
    @settings(max_examples=300, deadline=None)
    def test_equal_keys_imply_equal_templates(self, pair):
        sql_a, sql_b = pair
        fp_a = fingerprint_statement(sql_a)
        fp_b = fingerprint_statement(sql_b)
        if fp_a is None or fp_b is None or fp_a.key != fp_b.key:
            return
        try:
            tree_a, tree_b = parse(sql_a), parse(sql_b)
        except SqlError:
            return
        assert build_template(tree_a) == build_template(tree_b)

    @given(pair=statements())
    @settings(max_examples=300, deadline=None)
    def test_cache_output_byte_equal_to_fresh_parse(self, pair):
        """Warm a cache with one rendering, fetch the other: whatever
        comes back (lazy bind or a safety-net full parse) must
        be indistinguishable from parsing the text directly."""
        sql_a, sql_b = pair
        rec_a, rec_b = record(0, sql_a), record(1, sql_b)
        proto = try_parse(rec_a)
        direct = try_parse(rec_b)
        if proto is None or direct is None:
            return
        cache = TemplateCache()
        if cache.fetch(rec_a) is None:
            cache.build(rec_a)
        via_cache = cache.fetch(rec_b)
        if via_cache is None:
            cache.build(rec_b)
            via_cache = cache.fetch(record(2, sql_b))
            direct = try_parse(record(2, sql_b))
        assert not isinstance(via_cache, tuple)
        assert via_cache == direct
        assert via_cache.clauses == direct.clauses
        assert format_sql(via_cache.statement) == format_sql(direct.statement)
        assert via_cache.template_id == direct.template_id
        assert via_cache.outputs == direct.outputs
        assert via_cache.predicate_count == direct.predicate_count
        assert via_cache.equality_filter == direct.equality_filter
