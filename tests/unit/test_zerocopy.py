"""Unit tests for the zero-copy parallel data plane.

Four pieces, bottom up: the in-memory shard codec
(:func:`repro.store.columnar.encode_shard` and friends), the
template-cache seed transport
(:meth:`repro.skeleton.cache.TemplateCache.export_seed`), the warm
:class:`repro.pipeline.parallel.WorkerPool` registry, and the adaptive
shard planner — plus end-to-end checks that each shard ships as one
columnar buffer and that a seeded pool's workers really start their
parse caches warm.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.log import LogRecord, QueryLog
from repro.obs import Recorder
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.pipeline.framework import parse_log
from repro.pipeline.parallel import (
    WorkerPool,
    discard_worker_pool,
    get_worker_pool,
    shard_records,
    shutdown_worker_pools,
)
from repro.skeleton.cache import TemplateCache
from repro.store.columnar import decode_shard, encode_shard


def record(seq, sql, user="u", **kwargs):
    kwargs.setdefault("timestamp", float(seq))
    return LogRecord(seq=seq, sql=sql, user=user, **kwargs)


def sample_records(count=12, users=3):
    return [
        record(
            i,
            f"SELECT name FROM Employee WHERE empId = {i % 5}",
            user=f"user{i % users}",
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Shard codec


class TestShardCodec:
    def test_empty_shard_roundtrips(self):
        buffer = encode_shard([])
        assert list(decode_shard(buffer)) == []

    def test_roundtrip_preserves_order_and_fields(self):
        records = sample_records()
        restored = list(decode_shard(encode_shard(records)))
        assert restored == records

    def test_templatable_text_beats_pickling_on_repetition(self):
        # The codec's point: repeated templates collapse into the
        # dictionary, so the buffer grows sublinearly in records.
        import pickle

        records = sample_records(count=400, users=8)
        buffer = encode_shard(records)
        assert len(buffer) < len(pickle.dumps(records))

    def test_verbatim_fallback_statements_survive(self):
        records = [
            record(0, "not sql at all"),
            record(1, "SELECT '\x00' FROM t"),  # the marker byte itself
            record(2, ""),
            record(3, "SELECT a FROM t WHERE b = 'o''brien'"),
        ]
        assert list(decode_shard(encode_shard(records))) == records

    def test_oddball_records_survive(self):
        records = [
            record(0, None),
            record(1, 12345),
            record(2, "SELECT 1 FROM T", timestamp=7),  # int timestamp
            record(3, "SELECT 2 FROM T", rows=2**70),  # beyond int64
            record(4, "SELECT 3 FROM T", user=None),
        ]
        restored = list(decode_shard(encode_shard(records)))
        assert restored == records
        assert type(restored[2].timestamp) is int

    def test_nan_timestamp_survives(self):
        records = [record(0, "SELECT 1 FROM T", timestamp=float("nan"))]
        (restored,) = decode_shard(encode_shard(records))
        assert math.isnan(restored.timestamp)

    def test_non_shard_buffer_is_rejected(self):
        with pytest.raises(ValueError):
            list(decode_shard(b"XXXX" + b"\x00" * 64))

    @pytest.mark.parametrize(
        "columns", [[1, 2], tuple([] for _ in range(7))], ids=["list", "7-tuple"]
    )
    def test_well_formed_pickle_that_is_not_a_shard_is_rejected(self, columns):
        import pickle

        with pytest.raises(ValueError):
            decode_shard(pickle.dumps(columns))

    def test_each_distinct_string_ships_once(self):
        buffer = encode_shard(sample_records(count=400, users=3))
        assert buffer.count(b"user0") == 1


# ----------------------------------------------------------------------
# Template-cache seed transport


def _seeded_cache(records):
    cache = TemplateCache()
    parse_log(records, cache=cache, recorder=Recorder())
    return cache


class TestCacheSeed:
    def test_from_seed_restores_templates_with_zeroed_counters(self):
        # Safe templates land in the raw memo; a UNION and a syntax
        # error land in the text memo.  The seed carries both.
        records = sample_records() + [
            record(12, "SELECT a FROM T UNION SELECT b FROM U"),
            record(13, "SELECT broken FROM WHERE (("),
        ]
        cache = _seeded_cache(records)
        assert len(cache) == 2 and cache.raw_entries == 1
        assert cache.misses > 0

        warm = TemplateCache.from_seed(cache.export_seed())
        assert len(warm) == len(cache)
        assert warm.key_entries == cache.key_entries
        assert warm.raw_entries == cache.raw_entries
        assert (warm.hits, warm.misses, warm.evictions) == (0, 0, 0)
        # every statement the donor saw is a hit in the restored cache
        for rec in records:
            assert warm.fetch(rec) is not None
        assert warm.misses == 0

    def test_from_seed_rejects_garbage(self):
        import pickle

        with pytest.raises(Exception):
            TemplateCache.from_seed(pickle.dumps({"not": "a cache"}))


# ----------------------------------------------------------------------
# Warm pool registry


@pytest.fixture
def pool_registry():
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_executor_is_lazy_and_generation_counts(self, pool_registry):
        pool = WorkerPool(2)
        assert not pool.alive
        assert pool.generation == 0
        first = pool.executor
        assert pool.alive
        assert pool.generation == 1
        assert pool.executor is first  # no re-provision on access
        rebuilt = pool.rebuild()
        assert rebuilt is not first
        assert pool.generation == 2
        pool.shutdown()
        assert not pool.alive
        # a shut-down pool is reusable: next access provisions again
        assert pool.executor is not None
        assert pool.generation == 3
        pool.shutdown()

    def test_registry_returns_one_pool_per_worker_count(self, pool_registry):
        pool = get_worker_pool(2)
        assert get_worker_pool(2) is pool
        assert get_worker_pool(3) is not pool
        discard_worker_pool(2)
        assert get_worker_pool(2) is not pool

    def test_shutdown_worker_pools_clears_the_registry(self, pool_registry):
        pool = get_worker_pool(2)
        pool.executor  # provision
        shutdown_worker_pools()
        assert not pool.alive
        assert get_worker_pool(2) is not pool


# ----------------------------------------------------------------------
# Adaptive shard planning


class TestAdaptiveSharding:
    def test_single_worker_gets_a_single_shard(self):
        records = sample_records(count=200, users=8)
        assert len(shard_records(records, 1)) == 1

    def test_fanout_targets_about_twice_the_workers(self):
        records = sample_records(count=4000, users=64)
        for workers in (2, 4):
            shards = shard_records(records, workers)
            assert workers < len(shards) <= 2 * workers + 1

    def test_adaptive_shards_are_balanced(self):
        records = sample_records(count=4000, users=64)
        shards = shard_records(records, 4)
        sizes = [len(shard) for shard in shards]
        # the packing budget is ceil(total/target): no shard more than
        # one bucket beyond the budget, none pathologically small
        assert max(sizes) <= 2 * min(sizes) + max(
            len(records) // 64, 1
        )


# ----------------------------------------------------------------------
# Data-plane accounting


def _parallel(workers):
    return ExecutionConfig(mode="parallel", workers=workers)


class TestDataPlaneAccounting:
    def test_each_shard_ships_its_columnar_buffer(self, pool_registry):
        log = QueryLog(sample_records(count=160, users=8))
        plan = shard_records(log, 2)
        result = repro.clean(log, PipelineConfig(), execution=_parallel(2))
        pstats = result.parallel_stats
        assert pstats.shard_count == len(plan) >= 2
        shipped = {report.shard: report.bytes_shipped for report in pstats.shards}
        assert shipped == {
            index: len(encode_shard(records)) for index, records in enumerate(plan)
        }
        assert pstats.bytes_shipped == sum(shipped.values())
        merge = result.metrics.stages["merge"].counters
        assert merge["bytes_shipped"] == pstats.bytes_shipped

    def test_single_shard_run_stays_inline(self, pool_registry):
        log = QueryLog(sample_records(count=40, users=4))
        result = repro.clean(log, PipelineConfig(), execution=_parallel(1))
        pstats = result.parallel_stats
        assert pstats.shard_count == 1
        assert [report.bytes_shipped for report in pstats.shards] == [0]
        assert pstats.bytes_shipped == 0
        assert result.metrics.stages["merge"].counters["bytes_shipped"] == 0
        assert not get_worker_pool(1).alive, "an inline run forked workers"

    def test_merge_stage_books_exactly_the_merge_counters(self, pool_registry):
        from repro.obs.metrics import MERGE_COUNTERS

        log = QueryLog(sample_records(count=160, users=8))
        result = repro.clean(log, PipelineConfig(), execution=_parallel(2))
        merge = result.metrics.stages["merge"].counters
        assert set(merge) == set(MERGE_COUNTERS)


# ----------------------------------------------------------------------
# Seeded pools, end to end


def _store(records, path):
    from repro.store.columnar import write_columnar

    write_columnar(records, path, chunk_records=40)
    return str(path)


def _varied_records(count=160):
    """Statements whose skeletons depend on ``fold_variables``."""
    return [
        record(
            i,
            f"SELECT name FROM Employee WHERE empId = @e{i % 3}"
            if i % 2
            else f"SELECT name FROM Employee WHERE empId = {i % 9}",
            user=f"user{i % 8}",
        )
        for i in range(count)
    ]


class TestSeededPoolEndToEnd:
    def test_set_worker_seed_is_gone(self):
        import repro.pipeline

        assert not hasattr(repro.pipeline, "set_worker_seed")
        with pytest.raises(ImportError):
            from repro.pipeline import set_worker_seed  # noqa: F401

    def test_seeded_workers_start_their_parse_cache_warm(
        self, pool_registry, tmp_path
    ):
        records = [
            record(
                i,
                f"SELECT name FROM Employee WHERE empId = {i % 9}",
                user=f"user{i % 8}",
            )
            for i in range(160)
        ]
        log = QueryLog(records)
        execution = ExecutionConfig(mode="parallel", workers=2)

        cold = repro.clean(log, PipelineConfig(), execution=execution)
        # the seed only reaches pool workers: the run must fan out
        assert cold.parallel_stats.shard_count >= 2
        assert cold.parallel_stats.stats.parse_cache_misses > 0

        # Fresh workers: a store run ships the seed its witnesses warmed.
        shutdown_worker_pools()
        warm = repro.clean(
            _store(records, tmp_path / "log.columnar"),
            PipelineConfig(),
            execution=execution,
        )
        pstats = warm.parallel_stats.stats
        assert pstats.parse_dict_preloaded > 0
        assert pstats.parse_cache_misses == 0
        assert pstats.parse_cache_hits > 0
        # seeding is a pure speed knob: the output is byte-identical
        assert warm.clean_log == cold.clean_log
        assert warm.metrics.comparable() == cold.metrics.comparable()

    def test_mismatched_seed_knobs_are_ignored(self, pool_registry, tmp_path):
        records = _varied_records()
        execution = ExecutionConfig(mode="parallel", workers=2)
        # The store run seeds the workers under fold_variables=True; the
        # next run uses defaults on the same pool — workers must fall
        # back to a cold cache, not serve stale skeletons.
        seeded = repro.clean(
            _store(records, tmp_path / "log.columnar"),
            PipelineConfig(fold_variables=True),
            execution=execution,
        )
        assert seeded.parallel_stats.stats.parse_dict_preloaded > 0
        result = repro.clean(
            QueryLog(records), PipelineConfig(), execution=execution
        )
        assert result.parallel_stats.shard_count >= 2
        assert result.parallel_stats.stats.parse_cache_misses > 0
        assert result.metrics.conservation_violations() == []

    def test_fold_variables_store_run_then_default_run_equal_batch(
        self, pool_registry, tmp_path
    ):
        records = _varied_records()
        store = _store(records, tmp_path / "log.columnar")
        execution = ExecutionConfig(mode="parallel", workers=2)
        runs = [
            (store, PipelineConfig(fold_variables=True)),
            (store, PipelineConfig()),
            (QueryLog(records), PipelineConfig(fold_variables=True)),
            (QueryLog(records), PipelineConfig()),
        ]
        for log, config in runs:
            batch = repro.clean(QueryLog(records), config)
            result = repro.clean(log, config, execution=execution)
            assert result.parallel_stats.shard_count >= 2
            assert result.clean_log == batch.clean_log
            assert result.metrics.comparable() == batch.metrics.comparable()
            assert result.metrics.conservation_violations() == []
        assert get_worker_pool(2).generation == 1

    def test_store_runs_share_one_pool(self, pool_registry, tmp_path):
        records = sample_records(count=160, users=8)
        execution = ExecutionConfig(mode="parallel", workers=2)
        # Each store run ships its own seed in the shard payloads; a
        # different store (a different seed) keeps the warm pool too.
        first = repro.clean(
            _store(records, tmp_path / "a.columnar"),
            PipelineConfig(),
            execution=execution,
        )
        assert first.parallel_stats.shard_count >= 2
        pool = get_worker_pool(2)
        other = _varied_records()
        second = repro.clean(
            _store(other, tmp_path / "b.columnar"),
            PipelineConfig(),
            execution=execution,
        )
        assert second.parallel_stats.shard_count >= 2
        assert second.parallel_stats.stats.parse_dict_preloaded > 0
        again = repro.clean(
            _store(records, tmp_path / "a.columnar"),
            PipelineConfig(),
            execution=execution,
        )
        assert get_worker_pool(2) is pool
        assert pool.alive
        assert pool.generation == 1
        assert again.clean_log == first.clean_log
        assert first.clean_log == repro.clean(QueryLog(records)).clean_log
        assert second.clean_log == repro.clean(QueryLog(other)).clean_log
