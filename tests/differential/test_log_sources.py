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
from repro.store import (
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    write_columnar,
)

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
