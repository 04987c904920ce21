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

import json

import pytest

import repro
from repro.log import write_csv, write_jsonl
from repro.obs.metrics import STORE_COUNTERS
from repro.pipeline import ExecutionConfig, shard_records
from repro.pipeline.parallel import shard_store
from repro.store import (
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    encode_shard,
    write_columnar,
)
from repro.store import columnar
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
        stored = [encode_shard(shard) for shard in shard_store(source, workers)]
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


# ----------------------------------------------------------------------
# A tampered store: stored splits that lie about their text

#: Template texts of the hand-written store.  1, 4 and 5 are no raw key
#: of any text (slots glued to digits, to each other, or to a dot).
TAMPERED_TEMPLATES = [
    "SELECT objid, ra FROM photoobj WHERE objid = \x03",
    "SELECT objid, ra FROM photoobj WHERE objid = \x03\x03",
    "SELECT objid FROM photoobj WHERE ra BETWEEN \x03 AND \x03",
    "SELECT objid FROM photoobj WHERE name = \x04",
    "SELECT objid, ra FROM photoobj WHERE objid = 1\x03",
    "SELECT objid FROM photoobj WHERE ra > \x03.",
]

#: ``(user, template id, constants)`` per row, in file (= time) order.
#: A string in a number slot, digits glued across slots, non-ASCII
#: digits, ``1e5``/``.5``/``1.``, an escaped quote, a control byte and
#: a verbatim row all sit next to honest rows of the same templates.
TAMPERED_ROWS = [
    ("u1", 0, ["5"]),
    ("u2", 1, ["1", "2"]),
    ("u1", 0, ["'5'"]),
    ("u3", 3, ["'abc'"]),
    ("u1", 0, ["6"]),
    ("u2", 1, ["3", "4"]),
    ("u1", 0, ["7"]),
    ("u3", 3, ["'it''s'"]),
    ("u1", 0, ["٣"]),
    ("u2", 4, ["5"]),
    ("u1", 0, ["1e5"]),
    ("u2", 2, ["1.5", "2"]),
    ("u1", 0, [".5"]),
    ("u3", 3, ["'a\x01b'"]),
    ("u1", 0, ["1."]),
    ("u2", 2, ["1", "2.5"]),
    ("u3", 3, ["''"]),
    ("u1", 0, ["'6'"]),
    ("u2", 2, ["1", "2"]),
    ("u3", 5, ["1.2"]),
    ("u1", 0, ["5"]),
    ("u3", 5, ["1"]),
    ("u1", -1, ["SELECT objid, ra FROM photoobj WHERE objid = 9"]),
    ("u3", 3, ["'abc'"]),
    ("u1", 0, ["8"]),
]

#: Rows per chunk file, so the shape verdicts of one chunk end with it.
TAMPERED_CHUNK = 13


def write_tampered_store(path):
    """Write TAMPERED_ROWS as a store by hand, bypassing the writer."""
    path.mkdir()
    chunks = []
    for start in range(0, len(TAMPERED_ROWS), TAMPERED_CHUNK):
        columns = {
            name: []
            for name in (
                "seq", "timestamp", "user", "ip", "session", "rows",
                "template", "constants",
            )
        }
        for seq, (user, template_id, constants) in enumerate(
            TAMPERED_ROWS[start:start + TAMPERED_CHUNK], start
        ):
            for name, value in (
                ("seq", seq),
                ("timestamp", 1000.0 + 2.0 * seq),
                ("user", user),
                ("ip", None),
                ("session", None),
                ("rows", None),
                ("template", template_id),
                ("constants", constants),
            ):
                columns[name].append(value)
        columnar._dump_compressed(path / chunk_file_name(len(chunks)), columns)
        chunks.append(len(columns["seq"]))
    columnar._dump_compressed(
        path / "templates.bin", {"texts": TAMPERED_TEMPLATES, "witnesses": []}
    )
    (path / "manifest.json").write_text(
        json.dumps(
            {
                "format": columnar.FORMAT_NAME,
                "version": columnar.FORMAT_VERSION,
                "record_count": len(TAMPERED_ROWS),
                "chunk_records": TAMPERED_CHUNK,
                "chunks": chunks,
                "template_count": len(TAMPERED_TEMPLATES),
            }
        )
    )
    return path


def _raw_split(template, constants):
    """What the codec makes of the row's spliced text, if anything."""
    try:
        return columnar.encode_sql(columnar.decode_sql(template, constants))
    except ValueError:
        return None


class TestTamperedStore:
    """Stored splits are a claim, not a fact: a store whose splits
    disagree with the raw scan of their own text cleans exactly like
    that text."""

    def test_the_shape_rule_refuses_the_lies(self, tmp_path):
        store = write_tampered_store(tmp_path / "tampered.columnar")
        source = ColumnarSource(store)
        texts = source._dictionary()[0]
        vouched, refused = set(), set()
        for index in range(source.chunk_count()):
            chunk = columnar.read_chunk(store, index, texts)
            splits = chunk.take_splits()
            assert chunk.take_splits() is None  # handed over once
            for position, record in enumerate(chunk):
                answer = splits.raw_split(position, record)
                (vouched if answer is not None else refused).add(record.seq)
        honest = {
            seq
            for seq, (_, template_id, constants) in enumerate(TAMPERED_ROWS)
            if template_id >= 0
            and _raw_split(TAMPERED_TEMPLATES[template_id], constants)
            == (TAMPERED_TEMPLATES[template_id], constants)
        }
        assert vouched <= honest
        # Every honest row whose constants have shapes binds natively
        # (19 verifies ``\x03.`` for decimals); the lies whose constants
        # have shapes too are refused by verification (21 is an integer
        # under that same template, which splices to the literal ``1.``).
        assert vouched == {0, 3, 4, 6, 11, 15, 16, 18, 19, 20, 23, 24}
        assert {1, 2, 5, 9, 17, 21} <= refused

    def test_every_executor_cleans_it_like_its_text(self, tmp_path):
        store = write_tampered_store(tmp_path / "tampered.columnar")
        reference = repro.clean(ColumnarSource(store).read(), config())
        write_csv(reference.clean_log, tmp_path / "reference.csv")
        expected = (tmp_path / "reference.csv").read_bytes()
        for exec_name, execution in EXECUTIONS:
            result = repro.clean(ColumnarSource(store), config(), execution=execution)
            assert result.clean_log.records() == reference.clean_log.records(), exec_name
            assert result.metrics.comparable() == reference.metrics.comparable(), exec_name
            write_csv(result.clean_log, tmp_path / f"{exec_name}.csv")
            assert (tmp_path / f"{exec_name}.csv").read_bytes() == expected, exec_name

    def test_parallel_workers_bind_only_the_splits_the_rule_vouches_for(
        self, tmp_path
    ):
        """The shards parallel-2 ships carry the lies; each worker's
        shape rule refuses them (by shape, or by a verifying scan that
        disagrees), and the run cleans to batch's answer."""
        store = write_tampered_store(tmp_path / "tampered.columnar")
        source = ColumnarSource(store)
        plan = shard_store(source, 2)
        assert len(plan) >= 2
        bound = set()
        for shard in plan:
            chunk = columnar.decode_shard(encode_shard(shard))
            splits = chunk.take_splits()
            for record in reversed(chunk):
                split = splits.split_of(record)
                if split is not None:
                    bound.add(record.seq)
                    assert split == _raw_split_pairs(record.sql), record
        assert bound == {0, 3, 4, 6, 11, 15, 16, 18, 19, 20, 23, 24}

        reference = repro.clean(source.read(), config())
        result = repro.clean(
            ColumnarSource(store),
            config(),
            execution=ExecutionConfig(mode="parallel", workers=2),
        )
        assert result.parallel_stats.shard_count == len(plan)
        assert result.clean_log.records() == reference.clean_log.records()
        assert result.metrics.comparable() == reference.metrics.comparable()


def _raw_split_pairs(sql):
    """The raw scan's ``(raw key, constants)`` of ``sql``."""
    from repro.skeleton.cache import _raw_scan

    raw = _raw_scan(sql)
    return raw[0], raw[2]
