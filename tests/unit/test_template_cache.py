"""Unit tests for the parse fast path's TemplateCache.

The cache's contract is absolute: a fetched ParsedQuery must equal what
the full parse path would have produced, byte for byte, for *every*
statement — correctness comes from build-time verification (literal
vector + splice round-trip), and anything the verifier cannot prove
falls back to the full parser.  These tests pin the LRU mechanics, the
fallback behaviour, picklability, and the cached==uncached equivalence,
plus a Hypothesis property tying fingerprint equality to template
identity.
"""

import dataclasses
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.log import LogRecord
from repro.obs import Recorder
from repro.patterns.models import ParsedQuery
from repro.pipeline.config import ExecutionConfig
from repro.pipeline.framework import parse_log
from repro.skeleton import build_template
from repro.skeleton.cache import DEFAULT_PARSE_CACHE_SIZE, TemplateCache
from repro.sqlparser import SqlError, parse
from repro.sqlparser.scanner import fingerprint_statement
from tests.reference import cacheless_run


def record(sql, seq=0, user="u"):
    return LogRecord(seq=seq, sql=sql, timestamp=float(seq), user=user)


def full_parse(rec):
    return ParsedQuery.from_statement(rec, parse(rec.sql))


def records(statements):
    return [record(sql, seq=i) for i, sql in enumerate(statements)]


class TestFingerprintScanner:
    def test_constants_extracted_in_order(self):
        fp = fingerprint_statement(
            "SELECT a FROM t WHERE b = 12 AND name = 'bob' AND c = -3.5"
        )
        assert fp is not None
        assert fp.constants == (
            ("number", "12"),
            ("string", "bob"),
            ("number", "-3.5"),
        )

    def test_same_template_same_key(self):
        a = fingerprint_statement("SELECT a FROM t WHERE b = 1")
        b = fingerprint_statement("select  A from T where B = 99")
        assert a is not None and b is not None
        # keywords fold case; identifiers keep verbatim spelling, so the
        # case-changed variant is a *different* key (its formatted AST
        # differs too) — but equal-case, different-constant is the same.
        c = fingerprint_statement("SELECT a FROM t WHERE b = 99")
        assert a.key == c.key
        assert a.key != b.key

    def test_escaped_quotes_unescaped_in_constants(self):
        fp = fingerprint_statement("SELECT a FROM t WHERE n = 'o''brien'")
        assert fp is not None
        assert fp.constants == (("string", "o'brien"),)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE b = 'unterminated",
            "SELECT 1abc FROM t",  # number glued to a word → LexerError
            "SELECT a FROM t /* unterminated comment",
            "SELECT\xa0a FROM t",  # unicode whitespace the lexer rejects
            "SELECT [we\x1fird] FROM t",  # control char breaks key injectivity
        ],
    )
    def test_scanner_bails_on_lexer_disagreements(self, sql):
        assert fingerprint_statement(sql) is None


class TestTemplateCacheMechanics:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            TemplateCache(0)

    def test_hit_equals_full_parse(self):
        cache = TemplateCache()
        proto = record("SELECT a FROM t WHERE b = 1", seq=0)
        assert cache.fetch(proto) is None
        cache.build(proto)
        member = record("SELECT a FROM t WHERE b = 22", seq=1)
        hit = cache.fetch(member)
        assert hit is not None
        assert hit == full_parse(member)
        assert cache.hits == 1 and cache.misses == 1

    def test_exact_text_hit_rebinds_record(self):
        cache = TemplateCache()
        first = record("SELECT a FROM t WHERE b = 1", seq=0)
        cache.fetch(first)
        cache.build(first)
        second = record(first.sql, seq=7)
        hit = cache.fetch(second)
        assert hit.record is second
        assert hit == full_parse(second)

    def test_lru_evicts_oldest_key(self):
        cache = TemplateCache(2)
        statements = [
            "SELECT a FROM t WHERE b = 1",
            "SELECT c FROM u WHERE d = 2",
            "SELECT e FROM v WHERE f = 3",
        ]
        for rec in records(statements):
            assert cache.fetch(rec) is None
            cache.build(rec)
        # Safe successes live in the raw memo only; the text memo holds
        # none of them.
        assert len(cache) == 0
        assert cache.key_entries == 2
        assert cache.raw_entries == 2
        # The oldest fingerprint key and the oldest raw key.
        assert cache.evictions == 2
        # The first statement was evicted: a same-template probe misses.
        assert cache.fetch(record("SELECT a FROM t WHERE b = 9")) is None
        # The most recent one is still resident.
        assert cache.fetch(record("SELECT e FROM v WHERE f = 9")) is not None

    def test_raw_key_pop_counts_as_eviction(self):
        # Two spacings of one template: one fingerprint key, two raw keys.
        cache = TemplateCache(1)
        for rec in records(
            ["SELECT a FROM t WHERE b = 1", "SELECT a FROM t  WHERE b = 2"]
        ):
            assert cache.fetch(rec) is None
            cache.build(rec)
        assert cache.key_entries == 1
        assert cache.raw_entries == 1
        assert cache.evictions == 1  # the first spacing's raw key
        assert cache.fetch(record("SELECT a FROM t WHERE b = 9")) is None
        assert cache.fetch(record("SELECT a FROM t  WHERE b = 9")) is not None

    def test_failures_stay_l1_only(self):
        cache = TemplateCache()
        bad = record("SELECT FROM WHERE ((", seq=0)
        assert cache.fetch(bad) is None
        with pytest.raises(SqlError) as raised:
            cache.build(bad)
        cache.store(bad.sql, (raised.value, "parse_error"))
        assert cache.key_entries == 0
        again = cache.fetch(record(bad.sql, seq=1))
        assert isinstance(again, tuple)


class TestTextMemoAdmission:
    """The text memo keeps only what the raw memo cannot serve."""

    def test_admits_failures_unions_and_unsafe_raw_keys_only(self):
        from repro.skeleton.cache import LazyParsedQuery

        cache = TemplateCache()
        bad = record("SELECT FROM WHERE ((", seq=0)
        assert cache.fetch(bad) is None
        with pytest.raises(SqlError) as raised:
            cache.build(bad)
        cache.store(bad.sql, (raised.value, "parse_error"))
        admitted = [
            "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 1",
            "SELECT a FROM t WHERE b = 1 /* top 5 */",
            "SELECT [a''b] FROM t WHERE x = 1",
        ]
        safe = "SELECT a FROM t WHERE b = 1 AND n = 'x'"
        for seq, sql in enumerate(admitted + [safe], start=1):
            rec = record(sql, seq=seq)
            assert cache.fetch(rec) is None
            cache.build(rec)
        assert sorted(cache._text) == sorted([bad.sql] + admitted)
        assert cache.raw_entries == 1

        repeat = record(safe, seq=9)
        hit = cache.fetch(repeat)
        assert type(hit) is LazyParsedQuery
        assert hit.record is repeat
        assert hit == full_parse(repeat)
        assert cache.materialised == 1  # the comparison built its AST
        for seq, sql in enumerate([bad.sql] + admitted, start=10):
            again = cache.fetch(record(sql, seq=seq))
            assert type(again) is not LazyParsedQuery
        assert cache.misses == 5


class TestUnsafeFallback:
    @pytest.mark.parametrize(
        "proto_sql, member_sql",
        [
            # CAST consumes the type size into type_name; the scanner
            # sees it as a constant → literal vectors disagree.
            (
                "SELECT CAST(x AS varchar(10)) FROM t",
                "SELECT CAST(x AS varchar(20)) FROM t",
            ),
            # A string-literal alias is not a Literal node in the AST.
            ("SELECT a AS 'label' FROM t", "SELECT a AS 'other' FROM t"),
            # Double unary minus folds differently in parser vs scanner.
            ("SELECT - -5 FROM t", "SELECT - -7 FROM t"),
            # UNION keys are never interned: text memo only.
            (
                "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 1",
                "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 2",
            ),
        ],
    )
    def test_ambiguous_keys_always_full_parse(self, proto_sql, member_sql):
        cache = TemplateCache()
        proto = record(proto_sql, seq=0)
        assert cache.fetch(proto) is None
        cache.build(proto)
        member = record(member_sql, seq=1)
        assert cache.fetch(member) is None  # unsafe key → full parse
        cache.build(member)
        # The exact texts still hit the text memo, with correct rebinding.
        repeat = record(member_sql, seq=2)
        hit = cache.fetch(repeat)
        assert hit is not None
        assert hit == full_parse(repeat)

    def test_unsafe_marker_survives_pickling(self):
        cache = TemplateCache()
        proto = record("SELECT - -5 FROM t", seq=0)
        cache.fetch(proto)
        cache.build(proto)
        clone = pickle.loads(pickle.dumps(cache))
        fresh = record("SELECT - -9 FROM t", seq=1)
        assert clone.fetch(fresh) is None  # still treated as unsafe

    def test_pickled_cache_still_hits(self):
        cache = TemplateCache()
        proto = record("SELECT a FROM t WHERE b = 1", seq=0)
        cache.fetch(proto)
        cache.build(proto)
        clone = pickle.loads(pickle.dumps(cache))
        member = record("SELECT a FROM t WHERE b = 5", seq=1)
        hit = clone.fetch(member)
        assert hit == full_parse(member)
        assert clone.hits == cache.hits + 1


class TestSignedTopCount:
    """The parser takes only an unsigned count after ``TOP``, but the
    scanner folds a minus there into the number, so ``TOP -5`` shares
    the fingerprint key of ``TOP 5``.  Its raw key keeps the minus, so
    a warm cache misses and the cold path raises the parser's error."""

    @pytest.mark.parametrize(
        "proto_sql, member_sql",
        [
            ("SELECT TOP 5 a FROM u", "SELECT TOP -5 a FROM u"),
            ("SELECT TOP 5 a FROM u", "SELECT TOP - 7 a FROM u"),
            (
                "SELECT a FROM (SELECT TOP 3 b FROM u WHERE c = 2) AS d",
                "SELECT a FROM (SELECT TOP -3 b FROM u WHERE c = -2) AS d",
            ),
        ],
    )
    def test_a_warm_cache_refuses_a_signed_top_count(self, proto_sql, member_sql):
        cache = TemplateCache()
        proto = record(proto_sql, seq=0)
        assert cache.fetch(proto) is None
        cache.build(proto)
        member = record(member_sql, seq=1)
        assert fingerprint_statement(member_sql).key == (
            fingerprint_statement(proto_sql).key
        )
        assert cache.fetch(member) is None
        with pytest.raises(SqlError):
            cache.build(member)
        with pytest.raises(SqlError):
            parse(member_sql)

    def test_parenthesised_counts_still_bind(self):
        cache = TemplateCache()
        proto = record("SELECT TOP (5) a FROM u WHERE b = -1", seq=0)
        cache.fetch(proto)
        cache.build(proto)
        member = record("SELECT TOP (6) a FROM u WHERE b = -2", seq=1)
        hit = cache.fetch(member)
        assert hit is not None and hit == full_parse(member)

    def test_cache_on_and_off_agree_under_quarantine(self):
        import repro
        from repro.log import QueryLog
        from repro.pipeline import PipelineConfig

        log = QueryLog(
            [
                LogRecord(seq=1, sql="SELECT TOP 5 a FROM u", timestamp=1.0, user="x"),
                LogRecord(seq=2, sql="SELECT TOP -5 a FROM u", timestamp=90.0, user="x"),
            ]
        )
        config = PipelineConfig(error_policy="quarantine")
        reference = cacheless_run(log, config)
        for execution in ("batch", "streaming", "parallel"):
            runs = [repro.clean(log, config, execution=execution), reference]
            for result in runs:
                assert [r.seq for r in result.clean_log.records()] == [1], execution
                assert result.quarantine.by_reason() == {"parse_error": 1}, execution
            assert runs[0].metrics.comparable() == runs[1].metrics.comparable()


class TestRawTemplateMemo:
    """The raw-template memo: scanner-free binds, verified once."""

    def warmed(self, proto_sql):
        cache = TemplateCache()
        proto = record(proto_sql, seq=0)
        assert cache.fetch(proto) is None
        cache.build(proto)
        return cache

    def test_members_bind_without_the_scanner(self):
        cache = self.warmed("SELECT a FROM t WHERE b = 1 AND n = 'x'")
        # Admission happened at build time: one verified raw template.
        (memo,) = cache._by_raw.values()
        assert type(memo) is tuple
        member = record("SELECT a FROM t WHERE b = 972 AND n = 'o''k'", seq=1)
        hit = cache.fetch(member)
        assert hit == full_parse(member)
        assert hit.clauses == full_parse(member).clauses
        assert cache.hits == 1

    def test_folded_unary_minus_is_replayed(self):
        cache = self.warmed("SELECT a FROM t WHERE dec > -5.5 AND ra < 2")
        (memo,) = cache._by_raw.values()
        assert type(memo) is tuple and memo[1] == (0,)  # fold at index 0
        member = record("SELECT a FROM t WHERE dec > -7e-1 AND ra < 9", seq=1)
        assert cache.fetch(member) == full_parse(member)

    def test_literal_in_comment_marks_raw_key_unsafe(self):
        # The strip regex sees `5` inside the comment; the scanner does
        # not — the spans disagree, so the raw key must never be served.
        cache = self.warmed("SELECT a FROM t WHERE b = 1 /* top 5 */")
        (memo,) = cache._by_raw.values()
        assert type(memo) is not tuple
        member = record("SELECT a FROM t WHERE b = 2 /* top 5 */", seq=1)
        # A member of an unsafe raw key misses and takes the full parse.
        assert cache.fetch(member) is None
        assert cache.build(member) == full_parse(member)

    def test_scientific_notation_members_bind_scanner_free(self):
        # ``1.e5`` — dot immediately followed by the exponent, no
        # fraction digits — must strip as ONE literal in both the regex
        # and the scanner, or the memo would serve a torn raw key.
        cache = self.warmed("SELECT a FROM t WHERE b = 1.e5")
        (memo,) = cache._by_raw.values()
        assert type(memo) is tuple and memo[1] == ()
        member = record("SELECT a FROM t WHERE b = 27.e3", seq=1)
        assert cache.fetch(member) == full_parse(member)

    def test_double_unary_minus_is_unsafe(self):
        # ``- -5``: the scanner folds the inner minus into the number's
        # value, leaving an operator-then-negative-literal sequence the
        # splice verifier cannot round-trip — the entry is unsafe, so
        # the raw key must be pinned to the full path as well.
        cache = self.warmed("SELECT a FROM t WHERE b = - -5")
        (memo,) = cache._by_raw.values()
        assert type(memo) is not tuple
        # Every member misses — the pipeline then takes the full parse
        # path, so the output stays byte-identical by construction.
        member = record("SELECT a FROM t WHERE b = - -9", seq=1)
        assert cache.fetch(member) is None

    def test_quote_pair_inside_bracket_identifier_is_unsafe(self):
        # The strip regex sees ``''`` inside ``[a''b]`` as an empty
        # string literal; the scanner sees a delimited identifier and no
        # literal at all.  Spans disagree, so the raw key is pinned to
        # the full parse path — members still come out byte-correct.
        cache = self.warmed("SELECT [a''b] FROM t WHERE x = 1")
        (memo,) = cache._by_raw.values()
        assert type(memo) is not tuple
        member = record("SELECT [a''b] FROM t WHERE x = 2", seq=1)
        assert cache.fetch(member) is None
        assert cache.build(member) == full_parse(member)

    def test_raw_memo_respects_the_lru_bound(self):
        cache = TemplateCache(2)
        for i, sql in enumerate(
            [
                "SELECT a FROM t WHERE b = 1",
                "SELECT c FROM u WHERE d = 2",
                "SELECT e FROM v WHERE f = 3",
            ]
        ):
            rec = record(sql, seq=i)
            assert cache.fetch(rec) is None
            cache.build(rec)
        assert len(cache._by_raw) == 2


class TestRawScanAudit:
    """Pin the ``_raw_scan``-vs-scanner audit: where the cheap regex
    strip provably mirrors the DFA, and where it must NOT be trusted."""

    ALIGNED = [
        "SELECT a FROM t WHERE b = 1.e5",
        "SELECT a FROM t WHERE b = 1.E+10",
        "SELECT a FROM t WHERE b = .5e3",
        "SELECT a FROM t WHERE b = 1.",
        "SELECT x FROM t WHERE n = 'it''s'",
        "SELECT x FROM t WHERE n = ''",
        "SELECT a FROM t WHERE b BETWEEN 1. AND .2",
    ]

    DIVERGENT = [
        # member-access digits: regex strips ``5``, scanner emits the
        # wider ``.5`` number token after the DOT
        "SELECT a.5 FROM t",
        # string-lookalikes inside delimited identifiers
        "SELECT [a''b] FROM t",
        "SELECT \"a''b\" FROM t",
        # literals inside comments are invisible to the scanner
        "SELECT a FROM t WHERE b = 1 /* top 5 */",
        "SELECT a FROM t -- 99",
    ]

    @pytest.mark.parametrize("text", ALIGNED)
    def test_aligned_spans_and_constants(self, text):
        from repro.skeleton.cache import _raw_scan, _raw_spans

        raw = _raw_scan(text)
        fp = fingerprint_statement(text)
        assert raw is not None and fp is not None
        assert _raw_spans(raw[1]) == fp.spans
        assert raw[2] == list(fp.constants)

    @pytest.mark.parametrize("text", DIVERGENT)
    def test_divergent_spans_block_admission(self, text):
        from repro.skeleton.cache import _raw_scan, _raw_spans

        raw = _raw_scan(text)
        fp = fingerprint_statement(text)
        assert raw is not None and fp is not None
        assert _raw_spans(raw[1]) != fp.spans

    def test_scanner_punt_means_no_fingerprint(self):
        # ``1.e`` — an exponent marker with no digits — makes the
        # scanner refuse to fingerprint; without a fingerprint nothing
        # is ever admitted into the raw memo for that text.
        from repro.skeleton.cache import _raw_scan

        text = "SELECT a FROM t WHERE b = 1.e"
        assert fingerprint_statement(text) is None
        assert _raw_scan(text) is not None  # the regex alone can't know

    def test_pattern_opens_with_the_literal_charset(self):
        # ``re`` searches a pattern's first-character charset in C only
        # when the pattern opens with a character class; an edit that
        # puts a lookbehind or a branch first keeps every result and
        # silently loses that speed.
        try:
            from re import _parser as sre_parse
        except ImportError:  # Python 3.9/3.10
            import sre_parse
        from repro.skeleton.cache import _RAW_LITERAL

        op, av = sre_parse.parse(_RAW_LITERAL.pattern)[0]
        while op is sre_parse.SUBPATTERN:
            op, av = av[-1][0]
        assert op is sre_parse.IN
        assert sorted(av) == sorted(
            [
                (sre_parse.LITERAL, ord("'")),
                (sre_parse.LITERAL, ord(".")),
                (sre_parse.RANGE, (ord("0"), ord("9"))),
            ]
        )


STATEMENTS = [
    "SELECT a, b FROM t WHERE a = 0 AND b >= 3",
    "SELECT a, b FROM t WHERE a = 7 AND b >= 900",
    "SELECT name FROM employee WHERE empid = 8",
    "SELECT TOP 10 a FROM t WHERE b BETWEEN 1 AND 2 ORDER BY a DESC",
    "SELECT TOP 10 a FROM t WHERE b BETWEEN 30 AND 40 ORDER BY a DESC",
    "SELECT x FROM t WHERE name = 'abc' AND k IN (1, 2, 3)",
    "SELECT x FROM t WHERE name = 'o''hara' AND k IN (9, 8, 7)",
    "SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE z = 5)",
    "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t",
    "SELECT CAST(x AS varchar(10)) FROM t",
    "SELECT a AS 'label' FROM t",
    "SELECT - -5 FROM t",
    "SELECT a FROM t WHERE b = -2.5e3",
    "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 3",
    "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 1",
    "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 2",
    "DROP TABLE t",
    "INSERT INTO t VALUES (1)",
    "SELECT broken FROM WHERE ((",
]


class TestCachedParseLogDifferential:
    def test_cached_equals_uncached(self):
        # Repeat the statement set so hits genuinely occur.
        log = records(STATEMENTS * 3)
        uncached = parse_log(log)
        recorder = Recorder()
        cached = parse_log(log, cache=TemplateCache(), recorder=recorder)
        assert cached.queries == uncached.queries
        assert cached.non_select == uncached.non_select
        assert [r for r, _ in cached.syntax_errors] == [
            r for r, _ in uncached.syntax_errors
        ]
        counters = recorder.metrics.stage("parse").counters
        assert counters["parse_cache_hits"] > 0
        assert (
            counters["parse_cache_hits"] + counters["parse_cache_misses"]
            == counters["records_in"]
        )
        assert recorder.metrics.conservation_violations() == []

    def test_constant_variants_share_interned_template(self):
        cache = TemplateCache()
        a = record("SELECT a, b FROM t WHERE a = 0 AND b >= 3", seq=0)
        b = record("SELECT a, b FROM t WHERE a = 7 AND b >= 900", seq=1)
        cache.fetch(a)
        cache.build(a)
        hit = cache.fetch(b)
        assert hit is not None
        proto = cache.fetch(record(a.sql, seq=2))
        # Template / outputs are the *same objects*, not just equal.
        assert hit.template is proto.template
        assert hit.outputs is proto.outputs
        assert hit.template_id == proto.template_id


class TestExecutionConfigKnobs:
    def test_defaults(self):
        assert DEFAULT_PARSE_CACHE_SIZE == 4096
        assert TemplateCache().max_entries == DEFAULT_PARSE_CACHE_SIZE

    def test_four_knobs(self):
        assert [field.name for field in dataclasses.fields(ExecutionConfig)] == [
            "mode",
            "workers",
            "max_block_queries",
            "task_timeout",
        ]

    @pytest.mark.parametrize(
        "knob",
        [
            {"max_shard_retries": 0},
            {"retry_backoff": 0.0},
            {"source_chunk_records": 100},
            {"parse_cache_size": 65536},
            {"parse_cache": False},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_removed_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            ExecutionConfig(**knob)


numbers = st.integers(min_value=0, max_value=10**9)
strings = st.text(alphabet="abcXYZ 019", max_size=10)


@given(
    template=st.sampled_from(
        [
            "SELECT a, b FROM t WHERE a = {n} AND name = '{s}'",
            "SELECT name FROM employee WHERE empid = {n}",
            "SELECT TOP 5 a FROM t WHERE b BETWEEN {n} AND {n2} ORDER BY a",
            "SELECT x FROM t WHERE k IN ({n}, {n2}) AND name = '{s}'",
        ]
    ),
    n=numbers,
    n2=numbers,
    s=strings,
)
@settings(max_examples=150, deadline=None)
def test_fingerprint_equality_implies_identical_skeleton(template, n, n2, s):
    """The invariant the whole fast path rests on: statements with equal
    fingerprint keys derive the identical template (hence identical
    SSC/SFC/SWC skeletons)."""
    base = template.format(n=1, n2=2, s="zz")
    variant = template.format(n=n, n2=n2, s=s)
    fp_base = fingerprint_statement(base)
    fp_variant = fingerprint_statement(variant)
    assert fp_base is not None and fp_variant is not None
    assert fp_base.key == fp_variant.key
    assert build_template(parse(base)) == build_template(parse(variant))


@given(
    template=st.sampled_from(
        [
            "SELECT a FROM t WHERE b = {n}",
            "SELECT a FROM t WHERE name = '{s}' AND b <= {n}",
            "SELECT count(*) FROM t WHERE b IN ({n}, {n2})",
        ]
    ),
    n=numbers,
    n2=numbers,
    s=strings,
)
@settings(max_examples=150, deadline=None)
def test_cache_hit_equals_full_parse_property(template, n, n2, s):
    """Differential property: whatever constants appear, instantiating
    from the cached prototype equals the full parse."""
    cache = TemplateCache()
    proto = record(template.format(n=0, n2=1, s="seed"), seq=0)
    cache.fetch(proto)
    cache.build(proto)
    member = record(template.format(n=n, n2=n2, s=s), seq=1)
    result = cache.fetch(member)
    if result is None:  # unsafe/bail fallback is allowed, wrongness is not
        return
    assert result == full_parse(member)
