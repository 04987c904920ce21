"""Differential test: every LogSource is executor-transparent.

The api_redesign contract extends the executor differential to the
*input* axis: cleaning the same log through an :class:`InMemorySource`,
:class:`CsvSource`, :class:`JsonlSource` or :class:`ColumnarSource` must
produce the same clean records and the same comparable ledger as the
classic in-RAM ``repro.clean(QueryLog)`` — on batch, streaming and
parallel (1/2/4 workers) alike.  Chunking is deliberately misaligned
with the parallel chunk size, the streaming block bound and the store's
own chunk size, so any chunk-boundary leak (a block closed early, a
dedup window reset, a shard split mid-user) breaks equality here.
"""

import pytest

import repro
from repro.log import write_csv, write_jsonl
from repro.obs.metrics import STORE_COUNTERS
from repro.pipeline import ExecutionConfig, shard_records
from repro.store import (
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    encode_shard,
    write_columnar,
)
from repro.store.columnar import chunk_file_name

from test_executor_metrics import EXECUTIONS, WORKLOADS, config, workload_log

#: Records per chunk for the file sources — deliberately not a divisor
#: of the store chunking below.
SOURCE_CHUNK_RECORDS = 97

#: The columnar stores are written with yet another chunk size.
STORE_CHUNK_RECORDS = 130


@pytest.fixture(scope="module")
def source_fixtures(tmp_path_factory):
    """Per-workload on-disk copies in every format."""
    base = tmp_path_factory.mktemp("log-sources")
    fixtures = {}
    for name in sorted(WORKLOADS):
        log = workload_log(name)
        root = base / name
        root.mkdir()
        write_csv(log, root / "log.csv")
        write_jsonl(log, root / "log.jsonl")
        write_columnar(
            log, root / "log.columnar", chunk_records=STORE_CHUNK_RECORDS
        )
        fixtures[name] = root
    return fixtures


def open_sources(log, root):
    return {
        "inmemory": InMemorySource(log, chunk_records=SOURCE_CHUNK_RECORDS),
        "csv": CsvSource(root / "log.csv", chunk_records=SOURCE_CHUNK_RECORDS),
        "jsonl": JsonlSource(
            root / "log.jsonl", chunk_records=SOURCE_CHUNK_RECORDS
        ),
        "columnar": ColumnarSource(root / "log.columnar"),
    }


class TestSourceExecutorMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_source_matches_in_ram_batch(self, name, source_fixtures):
        log = workload_log(name)
        reference = repro.clean(log, config())
        ref_records = reference.clean_log.records()
        ref_ledger = reference.metrics.comparable()
        for source_name, source in open_sources(log, source_fixtures[name]).items():
            for exec_name, execution in EXECUTIONS:
                result = repro.clean(source, config(), execution=execution)
                label = f"{source_name}/{exec_name}"
                assert result.clean_log.records() == ref_records, label
                assert result.metrics.comparable() == ref_ledger, label
                assert result.metrics.conservation_violations() == [], label

    def test_path_input_equals_source_input(self, source_fixtures):
        name = sorted(WORKLOADS)[0]
        log = workload_log(name)
        root = source_fixtures[name]
        reference = repro.clean(log, config())
        for path in (root / "log.csv", root / "log.jsonl", root / "log.columnar"):
            for exec_name, execution in EXECUTIONS:
                result = repro.clean(str(path), config(), execution=execution)
                label = f"{path.name}/{exec_name}"
                assert (
                    result.clean_log.records()
                    == reference.clean_log.records()
                ), label
                assert (
                    result.metrics.comparable() == reference.metrics.comparable()
                ), label

    def test_chunk_size_is_invisible(self, source_fixtures):
        """Different source chunkings of the same log tell one story."""
        name = sorted(WORKLOADS)[0]
        log = workload_log(name)
        reference = repro.clean(log, config(), execution="streaming")
        for chunk_records in (1, 7, 64, 10_000):
            source = InMemorySource(log, chunk_records=chunk_records)
            result = repro.clean(source, config(), execution="streaming")
            assert (
                result.clean_log.records() == reference.clean_log.records()
            ), chunk_records
            assert (
                result.metrics.comparable() == reference.metrics.comparable()
            ), chunk_records


def store_io(root):
    """What reading the whole store costs: every chunk file, once."""
    store = root / "log.columnar"
    chunks = ColumnarSource(store).chunk_count()
    return {
        "chunks_read": chunks,
        "bytes_read": sum(
            (store / chunk_file_name(index)).stat().st_size
            for index in range(chunks)
        ),
    }


class TestStoreIOLedger:
    """Every executor books the store I/O of a columnar input on a
    ``store`` stage outside ``comparable()``; other inputs book none."""

    def test_every_executor_books_the_chunks_it_read(self, source_fixtures):
        name = sorted(WORKLOADS)[0]
        root = source_fixtures[name]
        expected = store_io(root)
        assert expected["chunks_read"] >= 2
        assert set(expected) == set(STORE_COUNTERS)
        for exec_name, execution in EXECUTIONS:
            result = repro.clean(
                ColumnarSource(root / "log.columnar"),
                config(),
                execution=execution,
            )
            assert result.metrics.stages["store"].counters == expected, exec_name

    def test_other_inputs_book_no_store_stage(self, source_fixtures):
        name = sorted(WORKLOADS)[0]
        log = workload_log(name)
        for source in (log, *open_sources(log, source_fixtures[name]).values()):
            if isinstance(source, ColumnarSource):
                continue
            for exec_name, execution in EXECUTIONS:
                result = repro.clean(source, config(), execution=execution)
                assert "store" not in result.metrics.stages, exec_name

    def test_a_reused_source_books_each_run_its_own_reads(self, source_fixtures):
        root = source_fixtures[sorted(WORKLOADS)[0]]
        source = ColumnarSource(root / "log.columnar")
        for _ in range(2):
            result = repro.clean(source, config(), execution="streaming")
            assert result.metrics.stages["store"].counters == store_io(root)
        assert source.chunks_read == 2 * store_io(root)["chunks_read"]


class TestStoreCutShards:
    """A store and the in-RAM log it holds ship the same shard buffers."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_store_rows_ship_the_in_ram_buffers(
        self, name, workers, source_fixtures
    ):
        log = workload_log(name)
        source = ColumnarSource(source_fixtures[name] / "log.columnar")
        in_ram = [encode_shard(shard) for shard in shard_records(log, workers)]
        stored = [
            encode_shard(shard)
            for shard in shard_records(source.rows(), workers)
        ]
        assert len(in_ram) >= 2
        assert stored == in_ram

        execution = ExecutionConfig(mode="parallel", workers=workers)
        from_ram = repro.clean(log, config(), execution=execution)
        from_store = repro.clean(source, config(), execution=execution)
        assert from_store.clean_log.records() == from_ram.clean_log.records()
        assert from_store.metrics.comparable() == from_ram.metrics.comparable()
        ram_stats, store_stats = from_ram.parallel_stats, from_store.parallel_stats
        assert [
            (report.shard, report.bytes_shipped) for report in store_stats.shards
        ] == [(report.shard, report.bytes_shipped) for report in ram_stats.shards]
        assert store_stats.bytes_shipped == sum(map(len, stored))
