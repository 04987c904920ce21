"""Unit tests for the parallel sharded cleaning executor."""

import pickle

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.pipeline import (
    CleaningPipeline,
    ExecutionConfig,
    ParallelCleaner,
    PipelineConfig,
    parse_log,
    shard_index,
    shard_records,
)

KEYS = frozenset({"empid", "id", "objid"})


def make_log(entries):
    return QueryLog(
        LogRecord(seq=i, sql=sql, timestamp=ts, user=user)
        for i, (sql, ts, user) in enumerate(entries)
    )


def parallel_config(workers, **kwargs):
    return PipelineConfig(
        detection=DetectionContext(key_columns=KEYS),
        execution=ExecutionConfig(mode="parallel", workers=workers),
        **kwargs,
    )


def many_user_log(users=10, per_user=6):
    entries = []
    clock = 0.0
    for i in range(users * per_user):
        user = f"u{i % users}"
        entries.append((f"SELECT name FROM e WHERE id = {i}", clock, user))
        clock += 0.05
    return make_log(entries)


class TestSharding:
    def test_shard_index_is_stable(self):
        # CRC-32 of a fixed key is a constant — the whole point: shard
        # assignment must not depend on process-level hash randomisation.
        assert shard_index("alice", 1024) == shard_index("alice", 1024)
        assert 0 <= shard_index("alice", 7) < 7

    def test_users_never_split_across_shards(self):
        log = many_user_log(users=17, per_user=5)
        shards = shard_records(log, workers=4)
        assert len(shards) > 1
        seen = {}
        for index, shard in enumerate(shards):
            for record in shard:
                assert seen.setdefault(record.user_key(), index) == index

    def test_all_records_preserved(self):
        log = many_user_log(users=9, per_user=4)
        shards = shard_records(log, workers=3)
        merged = sorted(
            (r for shard in shards for r in shard), key=lambda r: r.seq
        )
        assert merged == log.records()

    def test_empty_log(self):
        assert shard_records(QueryLog(), workers=4) == []


class TestParallelCleaner:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_batch_on_stifle_log(self, workers):
        log = many_user_log()
        batch = CleaningPipeline(parallel_config(workers)).run(log)
        cleaner = ParallelCleaner(parallel_config(workers))
        cleaned = cleaner.run(log)
        assert cleaned.records() == batch.clean_log.records()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_equivalence_suite_batch_streaming_parallel(
        self, workers, small_workload, sky_keys
    ):
        """Batch == streaming == parallel, record for record, on a
        generator log seeded with Stifle/CTH/SNC instances."""
        config = PipelineConfig(detection=DetectionContext(key_columns=sky_keys))
        batch = CleaningPipeline(config).run(small_workload.log)

        streamed = repro.clean(
            small_workload.log, config, execution="streaming"
        ).clean_log

        parallel = ParallelCleaner(
            PipelineConfig(
                detection=DetectionContext(key_columns=sky_keys),
                execution=ExecutionConfig(mode="parallel", workers=workers),
            )
        )
        paralleled = parallel.run(small_workload.log)

        assert streamed.records() == batch.clean_log.records()
        assert paralleled.records() == batch.clean_log.records()

    def test_merge_restores_global_time_order(self, small_workload, sky_keys):
        cleaner = ParallelCleaner(
            PipelineConfig(
                detection=DetectionContext(key_columns=sky_keys),
                execution=ExecutionConfig(mode="parallel", workers=4),
            )
        )
        cleaned = cleaner.run(small_workload.log)
        assert cleaner.stats.shard_count > 1
        keys = [(record.timestamp, record.seq) for record in cleaned]
        assert keys == sorted(keys)

    def test_empty_log(self):
        cleaner = ParallelCleaner(parallel_config(4))
        cleaned = cleaner.run(QueryLog())
        assert len(cleaned) == 0
        assert cleaner.stats.records_in == 0
        assert cleaner.stats.shard_count == 0

    def test_stats_merge_and_timings(self):
        log = many_user_log(users=12, per_user=8)
        cleaner = ParallelCleaner(parallel_config(2))
        cleaned = cleaner.run(log)
        stats = cleaner.stats
        assert stats.records_in == len(log)
        assert stats.records_out == len(cleaned)
        assert stats.shard_count == len(stats.shards)
        assert sum(s.records_in for s in stats.shards) == len(log)
        assert sum(s.records_out for s in stats.shards) == len(cleaned)
        assert stats.stats.instances_solved > 0
        assert stats.wall_seconds > 0.0
        assert stats.throughput > 0.0
        timings = stats.timings.as_dict()
        assert set(timings) == {"dedup", "parse", "mine", "detect", "solve", "merge"}
        assert timings["parse"] > 0.0
        assert stats.timings.total >= timings["parse"]

    def test_workers_resolve_from_cpu_count(self):
        cleaner = ParallelCleaner(parallel_config(0))
        assert cleaner.stats.workers >= 1

    def test_clean_parallel_convenience(self):
        log = many_user_log(users=6, per_user=4)
        base = PipelineConfig(detection=DetectionContext(key_columns=KEYS))
        result = repro.clean(
            log, base, execution=ExecutionConfig(mode="parallel", workers=2)
        )
        assert result.parallel_stats.workers == 2
        batch = CleaningPipeline(base).run(log)
        assert result.clean_log.records() == batch.clean_log.records()
        # the caller's config was not mutated
        assert base.execution.workers == 0


class TestPicklability:
    """Everything that crosses the process boundary must pickle."""

    def test_log_record_roundtrip(self):
        record = LogRecord(
            seq=3, sql="SELECT a FROM t", timestamp=1.5,
            user="u", ip="1.2.3.4", session="s", rows=7,
        )
        assert pickle.loads(pickle.dumps(record)) == record

    def test_parsed_query_roundtrip(self):
        log = make_log([("SELECT name FROM e WHERE id = 5", 0.0, "u")])
        query = parse_log(log).queries[0]
        clone = pickle.loads(pickle.dumps(query))
        assert clone.record == query.record
        assert clone.template_id == query.template_id
        assert clone.statement == query.statement

    def test_pipeline_config_roundtrip(self):
        from repro.patterns import SwsConfig

        config = PipelineConfig(
            detection=DetectionContext(key_columns=KEYS),
            sws=SwsConfig(),
            execution=ExecutionConfig(mode="parallel", workers=3),
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.detection == config.detection
        assert clone.execution == config.execution

    def test_config_with_default_detectors_roundtrip(self):
        from repro.antipatterns.base import default_detectors

        config = PipelineConfig(detectors=default_detectors())
        clone = pickle.loads(pickle.dumps(config))
        assert [d.label for d in clone.detectors] == [
            d.label for d in config.detectors
        ]
