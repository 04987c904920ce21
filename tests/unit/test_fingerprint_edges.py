"""Fingerprint-scanner correctness edges (the PR 8 bugfix sweep).

Three families, each pinning a scanner/lexer agreement the template
cache's fast path depends on:

* **Delimited identifiers** — ``[objid]``, ``"objid"`` and ``objid``
  parse to the same AST today, but they must *not* share a
  fingerprint key: a splice renders the prototype's text, so folding
  the three forms onto one key would emit one form's delimiter bytes
  for another form's statement.  The fix keeps the opening delimiter in
  the key, which is injective (a bare word can never start with ``[``
  or ``"``).
* **Escape shapes** — neither the hand lexer nor the scanner treats
  ``""`` / ``]]`` as escapes; both see two adjacent tokens (or an
  error).  The scanner must mirror the lexer exactly or return ``None``
  so the full parser decides.
* **Number-literal edges** — wherever the scanner's number regex and
  the lexer's numeric-literal rules could diverge (``1.e5``, ``.5e-``,
  ``1e``, ``0x1F``), the scanner must punt (``None``) or agree; a
  divergence reaching the cache would be demoted to ``_UNSAFE`` by the
  build-time verification, never spliced.
"""

import pytest

from repro.log.models import LogRecord
from repro.patterns.models import ParsedQuery
from repro.skeleton.cache import TemplateCache
from repro.sqlparser import SqlError, format_sql, parse
from repro.sqlparser.scanner import fingerprint_statement


def record(seq: int, sql: str) -> LogRecord:
    return LogRecord(seq=seq, timestamp=float(seq), user="u", sql=sql)


def fresh_parse(rec: LogRecord) -> ParsedQuery:
    return ParsedQuery.from_statement(rec, parse(rec.sql))


def cached_parse(cache: TemplateCache, rec: LogRecord) -> ParsedQuery:
    """Fetch through ``cache``, cold-building on a miss."""
    cached = cache.fetch(rec)
    if cached is None:
        cached = cache.build(rec)
    assert not isinstance(cached, tuple), cached
    return cached


def serving(cache: TemplateCache, seeded: bool) -> TemplateCache:
    """The warmed ``cache`` itself, or — as a parallel worker receives
    it — a fresh cache revived from the seed in its shard payload."""
    if seeded:
        return TemplateCache.from_seed(cache.export_seed())
    return cache


class TestDelimiterKeys:
    """The headline regression: delimiter kind is part of the fingerprint key."""

    FORMS = (
        "SELECT objid FROM PhotoObj WHERE ra = 1",
        "SELECT [objid] FROM PhotoObj WHERE ra = 1",
        'SELECT "objid" FROM PhotoObj WHERE ra = 1',
    )

    def test_three_forms_occupy_three_keys(self):
        # Pre-fix, all three folded to _FP_IDENT + "objid" and collided.
        keys = {fingerprint_statement(sql).key for sql in self.FORMS}
        assert len(keys) == 3

    def test_same_form_still_shares_a_key(self):
        # The fix must not break sharing *within* a delimiter form.
        for sql in self.FORMS:
            other = sql.replace("= 1", "= 2")
            assert (
                fingerprint_statement(sql).key
                == fingerprint_statement(other).key
            )

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("sql", FORMS)
    def test_cached_equals_uncached_per_form(self, sql, seeded):
        """Warm each form's own key, then fetch a constant variant (from
        the warm cache or from its exported seed): the cached instantiation
        must equal a fresh full parse, and its clause texts must render
        the same bytes."""
        cache = TemplateCache()
        cached_parse(cache, record(0, sql))
        cache = serving(cache, seeded)
        variant = record(1, sql.replace("= 1", "= 2"))
        via_cache = cached_parse(cache, variant)
        assert cache.misses == (0 if seeded else 1)
        direct = fresh_parse(variant)
        assert via_cache == direct
        assert via_cache.clauses == direct.clauses
        assert format_sql(via_cache.statement) == format_sql(direct.statement)

    @pytest.mark.parametrize("seeded", [False, True])
    def test_forms_never_cross_pollinate(self, seeded):
        """Warm the cache with *all* forms, then fetch variants of each:
        every answer must match its own form's fresh parse (pre-fix the
        shared key made one form splice another's prototype).  A pool
        seed must keep the forms apart too."""
        cache = TemplateCache()
        for seq, sql in enumerate(self.FORMS):
            cached_parse(cache, record(seq, sql))
        cache = serving(cache, seeded)
        for seq, sql in enumerate(self.FORMS):
            variant = record(100 + seq, sql.replace("= 1", "= 42"))
            assert cached_parse(cache, variant) == fresh_parse(variant)


class TestEscapeShapes:
    """``""`` / ``]]`` are not escapes — scanner and lexer must agree."""

    def test_doubled_quote_is_two_identifiers_both_sides(self):
        adjacent = 'SELECT "a""b" FROM t'
        spaced = 'SELECT "a" "b" FROM t'
        # The lexer reads both as identifier + alias — identical ASTs...
        assert format_sql(parse(adjacent)) == format_sql(parse(spaced))
        # ...so their shared fingerprint key is sound, and the scanner's
        # two-token reading mirrors the lexer's.
        assert (
            fingerprint_statement(adjacent).key
            == fingerprint_statement(spaced).key
        )

    def test_doubled_bracket_inside_identifier_punts(self):
        # ``[a]]b]`` is ``[a]`` + stray ``]``: the lexer errors and the
        # scanner (whose punct class has no ``]``) must return None —
        # never a key that could admit the text to the fast path.
        sql = "SELECT [a]]b] FROM t"
        assert fingerprint_statement(sql) is None
        with pytest.raises(SqlError):
            parse(sql)

    def test_adjacent_brackets_are_two_identifiers_both_sides(self):
        adjacent = "SELECT [a][b] FROM t"
        spaced = "SELECT [a] [b] FROM t"
        assert format_sql(parse(adjacent)) == format_sql(parse(spaced))
        assert (
            fingerprint_statement(adjacent).key
            == fingerprint_statement(spaced).key
        )

    @pytest.mark.parametrize(
        "sql",
        ["SELECT [] FROM t", 'SELECT "" FROM t'],
    )
    def test_empty_delimited_name_agrees(self, sql):
        # Both sides accept the empty delimited name; the cached parse
        # of a constant-variant must match a fresh one.
        parse(sql)
        assert fingerprint_statement(sql) is not None

    @pytest.mark.parametrize(
        "sql",
        ["SELECT [abc FROM t", 'SELECT "abc FROM t'],
    )
    def test_unterminated_delimiter_punts(self, sql):
        assert fingerprint_statement(sql) is None
        with pytest.raises(SqlError):
            parse(sql)


class TestNumberEdges:
    """Scanner/lexer agreement on numeric-literal edge shapes."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE b = 1.e5",
            "SELECT a FROM t WHERE b = 5e+3",
            "SELECT a FROM t WHERE b = 1.",
            "SELECT a FROM t WHERE b = .5",
            "SELECT a FROM t WHERE b = 1.5e-3",
        ],
    )
    @pytest.mark.parametrize("seeded", [False, True])
    def test_accepted_edges_round_trip_through_cache(self, sql, seeded):
        """Shapes both sides accept: the cached instantiation of a
        sibling constant — from the warm cache or from its exported seed —
        must be byte-equal to its fresh parse."""
        assert fingerprint_statement(sql) is not None
        cache = TemplateCache()
        cached_parse(cache, record(0, sql))
        cache = serving(cache, seeded)
        sibling = record(1, sql.replace("b =", "b ="))  # same template
        other = record(2, "SELECT a FROM t WHERE b = 7")
        via_cache = cached_parse(cache, other)
        direct = fresh_parse(other)
        assert via_cache == direct
        assert via_cache.clauses == direct.clauses
        assert sibling.sql == sql  # guard against a silent no-op edit

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE b = .5e-",
            "SELECT a FROM t WHERE b = 1e",
            "SELECT a FROM t WHERE b = 0x1F",
        ],
    )
    def test_malformed_literals_punt_and_error(self, sql):
        # The lexer rejects these as malformed numeric literals; the
        # scanner must return None (its number regex refuses to match a
        # trailing bare exponent / identifier-start follow) so that the
        # full parser delivers the identical verdict.
        assert fingerprint_statement(sql) is None
        with pytest.raises(SqlError):
            parse(sql)

    def test_double_dot_tokenizes_identically(self):
        # ``1..2`` scans as number-dot-number on both sides; the parser
        # then rejects the trailing input.  The scanner may produce a
        # key, but the statement never enters the cache as a template —
        # it is stored as a parse failure.
        sql = "SELECT 1..2 FROM t"
        with pytest.raises(SqlError):
            parse(sql)
        cache = TemplateCache()
        rec = record(0, sql)
        assert cache.fetch(rec) is None
        with pytest.raises(SqlError) as raised:
            cache.build(rec)
        cache.store(sql, (raised.value, "parse_error"))
        hit = cache.fetch(record(1, sql))
        assert isinstance(hit, tuple)
