"""Unit tests of the lazy parse fast path (Parse engine v2).

A :class:`TemplateCache` answers raw-memo hits with
:class:`LazyParsedQuery` objects that carry only the record, the
interned skeleton facts and the constant vector; SQL text, AST and
clause features bind on first access.  These tests pin the binding
rules, the equality contract against eager queries, the materialisation
counter, and the cache-lifecycle hygiene (pickling) the
executors rely on.
"""

import pickle

import pytest

from repro.log.models import LogRecord
from repro.patterns.models import ParsedQuery
from repro.skeleton.cache import LazyParsedQuery, TemplateCache, rebind_query
from repro.sqlparser import format_sql, parse


def record(seq: int, sql: str) -> LogRecord:
    return LogRecord(seq=seq, timestamp=float(seq), user="u", sql=sql)


def fresh_parse(rec: LogRecord) -> ParsedQuery:
    return ParsedQuery.from_statement(rec, parse(rec.sql))


def warm(cache: TemplateCache, rec: LogRecord) -> None:
    assert cache.fetch(rec) is None
    cache.build(rec)


SQL_A = "SELECT objid, ra FROM PhotoObj WHERE objid = 1 AND ra > 0.5"
SQL_B = "SELECT objid, ra FROM PhotoObj WHERE objid = 2 AND ra > 9.25"
SQL_C = "SELECT objid, ra FROM PhotoObj WHERE objid = 3 AND ra > 1.5"


@pytest.fixture
def lazy_hit():
    """A cache warmed with SQL_A, plus the lazy bind of SQL_B."""
    cache = TemplateCache()
    warm(cache, record(0, SQL_A))
    rec = record(1, SQL_B)
    query = cache.fetch(rec)
    assert type(query) is LazyParsedQuery
    return cache, rec, query


class TestLazyBinding:
    def test_raw_memo_repeat_stays_lazy(self, lazy_hit):
        cache, _, query = lazy_hit
        # An exact repeat binds through the raw memo again: lazy, bound
        # to its own record, nothing materialised.
        again = cache.fetch(record(2, SQL_B))
        assert type(again) is LazyParsedQuery
        assert again.record.seq == 2
        assert cache.materialised == 0

    def test_skeleton_facts_need_no_ast(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query.template_id == direct.template_id
        assert query.template == direct.template
        assert query.predicate_count == direct.predicate_count
        assert query.outputs == direct.outputs
        assert query.null_predicate_count() == direct.null_predicate_count()
        assert query.record is rec
        assert cache.materialised == 0, "skeleton facts must not splice"

    def test_clauses_and_equality_filter_bind_without_statement(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query.clauses == direct.clauses
        assert query.equality_filter == direct.equality_filter
        assert cache.materialised == 0
        assert "statement" not in query.__dict__

    def test_statement_materialises_and_counts(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert format_sql(query.statement) == format_sql(direct.statement)
        assert query.select == direct.select
        assert cache.materialised == 1
        # Second access answers from __dict__ — no second count.
        query.statement
        assert cache.materialised == 1

    def test_single_equality_filter_binds_indexed_constant(self):
        cache = TemplateCache()
        warm(cache, record(0, "SELECT name FROM SpecObj WHERE name = 'a'"))
        rec = record(1, "SELECT name FROM SpecObj WHERE name = 'b''c'")
        query = cache.fetch(rec)
        assert type(query) is LazyParsedQuery
        direct = fresh_parse(rec)
        assert query.equality_filter == direct.equality_filter
        assert cache.materialised == 0

    def test_null_predicates_answer_from_entry(self):
        cache = TemplateCache()
        warm(cache, record(0, "SELECT a FROM t WHERE a = NULL AND b = 1"))
        query = cache.fetch(record(1, "SELECT a FROM t WHERE a = NULL AND b = 2"))
        assert type(query) is LazyParsedQuery
        assert query.null_predicate_count() == 1
        assert cache.materialised == 0

    def test_unknown_attribute_still_raises(self, lazy_hit):
        _, _, query = lazy_hit
        with pytest.raises(AttributeError):
            query.no_such_attribute


class TestEqualityContract:
    def test_lazy_equals_eager_both_directions(self, lazy_hit):
        _, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query == direct
        assert direct == query
        assert not (query != direct)
        assert hash(query) == hash(direct)

    def test_record_is_part_of_equality(self, lazy_hit):
        cache, _, query = lazy_hit
        other = cache.fetch(record(9, SQL_B))
        assert other != query  # same text, different records

    def test_different_constants_compare_unequal(self, lazy_hit):
        cache, _, query = lazy_hit
        different = fresh_parse(record(1, SQL_A))
        assert query != different


class TestRebind:
    def test_lazy_rebind_keeps_fields_lazy(self, lazy_hit):
        cache, _, query = lazy_hit
        clone = rebind_query(query, record(5, SQL_B), query.interned_id)
        assert type(clone) is LazyParsedQuery
        assert clone.record.seq == 5
        assert "statement" not in clone.__dict__
        assert clone.clauses == query.clauses
        assert cache.materialised == 0

    def test_eager_rebind_is_identity_when_unchanged(self):
        rec = record(0, SQL_A)
        query = fresh_parse(rec)
        assert rebind_query(query, rec, query.interned_id) is query
        rebound = rebind_query(query, rec, 7)
        assert rebound.interned_id == 7
        assert rebound.record is rec

    def test_dataclasses_replace_materialises_fully(self, lazy_hit):
        import dataclasses

        cache, rec, query = lazy_hit
        replaced = dataclasses.replace(query, interned_id=3)
        # replace() reads every field, so the clone is fully populated
        # and correct — just no longer lazy.
        assert replaced == fresh_parse(rec)
        assert replaced.interned_id == 3
        assert cache.materialised >= 1


def assert_materialises_from_derived_plan(query, rec):
    """The entry's substitution plan is derived state: absent until this
    process materialises a member, then built and used."""
    entry = query.__dict__["_entry"]
    assert entry.__getstate__() == (
        entry.proto, entry.constants, entry.splices, entry.eq, entry.nulls
    )
    assert entry.plan is None
    statement = query.statement
    assert entry.plan is not None
    direct = fresh_parse(rec)
    assert statement == direct.statement
    assert format_sql(statement) == format_sql(direct.statement)
    assert query == direct


class TestCacheLifecycle:
    def test_pickle_round_trip_serves_lazy_from_l2(self, lazy_hit):
        cache, _, query = lazy_hit
        query.statement  # the pickled cache's entry has a plan now
        revived = pickle.loads(pickle.dumps(cache))
        assert revived.materialised == cache.materialised == 1
        rec = record(4, SQL_B)
        query = revived.fetch(rec)
        assert type(query) is LazyParsedQuery
        assert_materialises_from_derived_plan(query, rec)
        # Materialisations in the revived cache book to *its* counter.
        assert revived.materialised == 2
        assert cache.materialised == 1

    def test_lazy_query_pickles(self, lazy_hit):
        cache, rec, query = lazy_hit
        # A sibling's materialisation gives the shared entry its plan.
        sibling = cache.fetch(record(6, SQL_C))
        sibling.statement
        assert sibling.__dict__["_entry"] is query.__dict__["_entry"]
        clone = pickle.loads(pickle.dumps(query))
        assert type(clone) is LazyParsedQuery
        assert_materialises_from_derived_plan(clone, rec)


def lazy_pair(warm_sql: str, sql: str):
    """A cache warmed with ``warm_sql`` and the lazy bind of ``sql``."""
    cache = TemplateCache()
    warm(cache, record(0, warm_sql))
    rec = record(1, sql)
    query = cache.fetch(rec)
    assert type(query) is LazyParsedQuery
    return cache, rec, query


class TestPostParseFacts:
    """Facts the post-parse stages read, answered from the entry."""

    def test_where_constants_and_filter_need_no_ast(self, lazy_hit):
        cache, rec, query = lazy_hit
        direct = fresh_parse(rec)
        assert query.where_constants() == direct.where_constants()
        assert query.where_constants() == ("number:2", "number:9.25")
        assert query.filter_column() is None
        assert query.filter_value() is None
        assert cache.materialised == 0
        assert "equality_filter" not in query.__dict__

    def test_filter_column_and_value_from_the_bound_constant(self):
        cache, rec, query = lazy_pair(
            "SELECT name FROM SpecObj WHERE ObjID = 'a'",
            "SELECT name FROM SpecObj WHERE ObjID = 'b''c'",
        )
        direct = fresh_parse(rec)
        assert query.filter_column() == direct.filter_column() == "objid"
        assert query.filter_column_name() == direct.filter_column_name() == "ObjID"
        assert query.__dict__["_entry"].column_name == "ObjID"
        assert query.filter_value() == direct.filter_value()
        assert query.filter_value().value == "b'c"
        assert cache.materialised == 0
        assert "equality_filter" not in query.__dict__
        # A member bound to the prototype's constant shares its literal.
        same = cache.fetch(record(2, "SELECT name FROM SpecObj WHERE ObjID = 'a'"))
        entry = same.__dict__["_entry"]
        assert same.filter_value() is entry.proto.equality_filter.value

    def test_where_null_is_a_fixed_plan_item(self):
        cache, rec, query = lazy_pair(
            "SELECT a FROM t WHERE a = NULL AND b IN (1, 'x')",
            "SELECT a FROM t WHERE a = NULL AND b IN (2, 'y''z')",
        )
        assert query.where_constants() == fresh_parse(rec).where_constants()
        assert query.where_constants() == ("null:NULL", "number:2", "string:y'z")
        assert query.__dict__["_entry"].where == ("null:NULL", 0, 1)
        assert cache.materialised == 0

    def test_fallbacks_build_the_ast(self):
        from repro.skeleton.cache import _EQ_MATERIALISE, _UNSAFE

        cache, rec, query = lazy_pair(
            "SELECT a FROM t WHERE objid = 5", "SELECT a FROM t WHERE objid = 6"
        )
        entry = query.__dict__["_entry"]
        entry.where = _UNSAFE
        entry.eq = (_EQ_MATERIALISE,)
        direct = fresh_parse(rec)
        assert query.where_constants() == direct.where_constants()
        assert query.filter_column() == "objid"
        assert query.filter_column_name() == "objid"
        assert query.filter_value() == direct.filter_value()
        assert cache.materialised == 1

    def test_same_entry_clauses_compare_by_constants(self):
        cache = TemplateCache()
        warm(cache, record(0, "SELECT a, 1 FROM t WHERE objid = 5"))
        texts = [
            "SELECT a, 1 FROM t WHERE objid = 6",
            "SELECT a, 1 FROM t WHERE objid = 7",
            "SELECT a, 2 FROM t WHERE objid = 7",
        ]
        queries = [cache.fetch(record(seq, sql)) for seq, sql in enumerate(texts, 1)]
        assert all(type(q) is LazyParsedQuery for q in queries)
        eager = [fresh_parse(q.record) for q in queries]
        for first, first_eager in zip(queries, eager):
            for second, second_eager in zip(queries, eager):
                assert first.same_clauses(second) == first_eager.same_clauses(
                    second_eager
                )
        assert queries[0].same_clauses(queries[1]) == (True, True, False)
        assert queries[1].same_clauses(queries[2]) == (False, True, True)
        assert all("clauses" not in q.__dict__ for q in queries)
        # Another entry, or an eager query: the rendered texts decide.
        assert queries[0].same_clauses(eager[0]) == (True, True, True)
        assert cache.materialised == 0

    def test_memo_slots_are_not_pickled(self):
        cache, _, query = lazy_pair(
            "SELECT a FROM t WHERE objid = 5", "SELECT a FROM t WHERE objid = 6"
        )
        query.where_constants()
        query.filter_column()
        entry = query.__dict__["_entry"]
        assert entry.where == (0,) and entry.column == "objid"
        clone = pickle.loads(pickle.dumps(entry))
        assert clone.where is None and clone.column is None

    def test_detectors_and_sws_build_no_ast(self):
        from repro.antipatterns import DetectionContext, run_detectors
        from repro.patterns import detect_sws
        from repro.patterns.miner import mine
        from repro.patterns.registry import PatternRegistry
        from repro.patterns.sws import SwsConfig

        cache = TemplateCache()
        texts = []
        for user, first in (("u1", 0), ("u2", 100)):
            for i in range(first, first + 6):
                texts.append((user, f"SELECT ra, dec FROM PhotoObj WHERE objid = {i}"))
                texts.append((user, f"SELECT z FROM SpecObj WHERE bestobjid = {i}"))
                texts.append((user, "SELECT a FROM t WHERE b = NULL AND c = 1"))
        queries = []
        for seq, (user, sql) in enumerate(texts):
            rec = LogRecord(seq=seq, timestamp=float(seq), user=user, sql=sql)
            query = cache.fetch(rec)
            if query is None:
                query = cache.build(rec)
            queries.append(query)
        assert sum(type(q) is LazyParsedQuery for q in queries) > 30
        mining = mine(queries)
        context = DetectionContext(key_columns=frozenset({"ObjID", "BestObjID"}))
        instances = run_detectors(mining.blocks, context)
        assert instances
        registry = PatternRegistry.from_runs(mining.runs)
        report = detect_sws(
            registry,
            mining.instances,
            SwsConfig(min_frequency_share=0.0, max_popularity=10),
            mark=False,
        )
        assert report.patterns
        assert cache.materialised == 0
