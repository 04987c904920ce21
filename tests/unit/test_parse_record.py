"""Unit tests of :func:`repro.pipeline.framework.parse_record`.

``parse_record`` is the one place a statement reaches the parser, for
every executor: with a cache it is the one-shot ``TemplateCache.build``
after a ``fetch`` miss, without one the plain ``parse`` +
``ParsedQuery.from_statement``.  It is also the one place a parser
failure becomes an ``(error, reason)`` outcome.  These tests pin that
both paths agree on successes and on every failure class, that a
failure is remembered by the cache (and only by the cache), and that
the cacheless path leaves no trace.
"""

import pytest

from repro.errors import NESTING_DEPTH, PARSE_ERROR
from repro.log import LogRecord
from repro.patterns.models import ParsedQuery
from repro.pipeline.framework import parse_record
from repro.skeleton.cache import TemplateCache
from repro.skeleton.interner import TemplateInterner
from repro.sqlparser import SqlError, UnsupportedStatementError, parse

DEEP_SQL = "SELECT a FROM T WHERE " + " AND ".join(
    f"c{i} = {i}" for i in range(3000)
)

KNOBS = dict(fold_variables=False, strict_triple=False, interner=None)


def record(sql, seq=0):
    return LogRecord(seq=seq, sql=sql, timestamp=float(seq), user="u")


def cached(cache, rec, **knobs):
    """The executors' protocol: fetch, and parse_record on a miss."""
    hit = cache.fetch(rec)
    if hit is not None:
        return hit
    return parse_record(rec, cache, **{**KNOBS, **knobs})


class TestSuccess:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT objid, ra FROM PhotoObj WHERE objid = 5 AND ra > 0.5",
            "SELECT [objid] FROM PhotoObj WHERE name = 'x'",
            "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 1",
        ],
    )
    def test_cached_build_equals_cacheless(self, sql):
        rec = record(sql)
        via_cache = cached(TemplateCache(), rec)
        cacheless = parse_record(rec, None, **KNOBS)
        assert type(cacheless) is ParsedQuery
        assert via_cache == cacheless
        assert via_cache.clauses == cacheless.clauses
        assert cacheless == ParsedQuery.from_statement(rec, parse(sql))

    def test_fold_variables_reaches_both_paths(self):
        rec = record("SELECT a FROM t WHERE b = @Lim")
        knobs = dict(fold_variables=True)
        via_cache = cached(TemplateCache(), rec, **knobs)
        cacheless = parse_record(rec, None, **{**KNOBS, **knobs})
        assert via_cache == cacheless
        assert via_cache.template == cacheless.template
        assert cacheless.template != parse_record(rec, None, **KNOBS).template

    def test_interner_assigns_the_same_id_on_both_paths(self):
        rec = record("SELECT a FROM t WHERE b = 1")
        interners = TemplateInterner(), TemplateInterner()
        via_cache = cached(TemplateCache(), rec, interner=interners[0])
        cacheless = parse_record(rec, None, **{**KNOBS, "interner": interners[1]})
        assert via_cache.interned_id == cacheless.interned_id == 0
        assert interners[0].fingerprints() == interners[1].fingerprints()


class TestFailures:
    @pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "nocache"])
    @pytest.mark.parametrize(
        "sql, reason, error_type",
        [
            ("SELEKT definitely not sql !!", PARSE_ERROR, SqlError),
            ("DROP TABLE T", PARSE_ERROR, UnsupportedStatementError),
            (DEEP_SQL, NESTING_DEPTH, SqlError),
        ],
        ids=["parse-error", "unsupported", "nesting-depth"],
    )
    def test_failure_outcome(self, sql, reason, error_type, use_cache):
        rec = record(sql)
        cache = TemplateCache() if use_cache else None
        outcome = cached(cache, rec) if use_cache else parse_record(rec, None, **KNOBS)
        assert isinstance(outcome, tuple)
        error, got_reason = outcome
        assert got_reason == reason
        assert isinstance(error, error_type)

    def test_cache_remembers_failure_by_exact_text(self):
        cache = TemplateCache()
        first = cached(cache, record("SELEKT junk", seq=0))
        assert cache.misses == 1 and cache.hits == 0
        again = cached(cache, record("SELEKT junk", seq=1))
        assert again == first
        assert cache.misses == 1 and cache.hits == 1

    def test_nesting_failure_message_is_stable(self):
        outcome = parse_record(record(DEEP_SQL), None, **KNOBS)
        assert str(outcome[0]) == "statement exceeds supported nesting depth"


class TestCachelessPath:
    def test_never_touches_a_cache(self, monkeypatch):
        """``cache=None`` (checkpoint restore, the cacheless reference) must
        stay counter-free: no cache method may run."""

        def forbidden(*args, **kwargs):
            raise AssertionError("cacheless parse reached the cache")

        for name in ("fetch", "build", "store"):
            monkeypatch.setattr(TemplateCache, name, forbidden)
        assert type(parse_record(record("SELECT a FROM t"), None, **KNOBS)) is ParsedQuery
        assert isinstance(parse_record(record("SELEKT x"), None, **KNOBS), tuple)

    def test_build_runs_once_per_miss(self, monkeypatch):
        calls = []
        real_build = TemplateCache.build

        def counting_build(self, rec, **kwargs):
            calls.append(rec.seq)
            return real_build(self, rec, **kwargs)

        monkeypatch.setattr(TemplateCache, "build", counting_build)
        cache = TemplateCache()
        for seq, sql in enumerate(
            [
                "SELECT a FROM t WHERE b = 1",
                "SELECT a FROM t WHERE b = 2",
                "SELECT a FROM t WHERE b = 1",
                "SELEKT junk",
                "SELEKT junk",
            ]
        ):
            cached(cache, record(sql, seq=seq))
        assert calls == [0, 3]
        assert cache.misses == len(calls)
