"""Unit tests for the LogSource protocol and its adapters."""

import pytest

import repro
from repro.errors import QuarantineChannel
from repro.log import LogRecord, QueryLog, write_csv, write_jsonl
from repro.store import (
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    LogSource,
    as_source,
    open_log,
    sniff_format,
    write_columnar,
)


def make_log(count=10):
    return QueryLog(
        LogRecord(i, f"SELECT a FROM t WHERE id = {i}", float(i), f"u{i % 3}")
        for i in range(count)
    )


@pytest.fixture()
def on_disk(tmp_path):
    log = make_log()
    paths = {
        "csv": tmp_path / "log.csv",
        "jsonl": tmp_path / "log.jsonl",
        "columnar": tmp_path / "log.columnar",
    }
    write_csv(log, paths["csv"])
    write_jsonl(log, paths["jsonl"])
    write_columnar(log, paths["columnar"], chunk_records=4)
    return log, paths


class TestInMemorySource:
    def test_chunk_boundaries_are_stable(self):
        source = InMemorySource(make_log(), chunk_records=3)
        first = [list(c) for c in source.open_chunks()]
        second = [list(c) for c in source.open_chunks()]
        assert first == second
        assert [len(c) for c in first] == [3, 3, 3, 1]

    def test_start_chunk_skips(self):
        source = InMemorySource(make_log(), chunk_records=4)
        chunks = list(source.open_chunks(start_chunk=1))
        assert [r.seq for c in chunks for r in c] == [4, 5, 6, 7, 8, 9]

    def test_read_and_iter_and_hint(self):
        log = make_log()
        source = InMemorySource(log, chunk_records=4)
        assert source.read() == log
        assert list(source) == log.records()
        assert source.count_hint() == len(log)

    def test_accepts_plain_record_list(self):
        records = make_log().records()
        assert InMemorySource(records).read().records() == records


class TestFileSources:
    def test_all_sources_agree(self, on_disk):
        log, paths = on_disk
        for source in (
            CsvSource(paths["csv"], chunk_records=3),
            JsonlSource(paths["jsonl"], chunk_records=3),
            ColumnarSource(paths["columnar"]),
            InMemorySource(log, chunk_records=3),
        ):
            with source:
                assert source.read() == log

    def test_start_chunk_consistency(self, on_disk):
        _, paths = on_disk
        for source in (
            CsvSource(paths["csv"], chunk_records=4),
            JsonlSource(paths["jsonl"], chunk_records=4),
            ColumnarSource(paths["columnar"]),  # store written with 4/chunk
        ):
            full = [r.seq for c in source.open_chunks() for r in c]
            tail = [r.seq for c in source.open_chunks(start_chunk=1) for r in c]
            assert tail == full[4:]

    def test_columnar_count_hint_and_chunk_count(self, on_disk):
        _, paths = on_disk
        source = ColumnarSource(paths["columnar"])
        assert source.count_hint() == 10
        assert source.chunk_count() == 3

    def test_fingerprint_changes_with_file(self, on_disk):
        _, paths = on_disk
        before = CsvSource(paths["csv"]).fingerprint()
        assert str(paths["csv"].resolve()) in before
        with open(paths["csv"], "a", encoding="utf-8", newline="") as handle:
            handle.write("99,99.0,ux,,,,SELECT 1\n")
        assert CsvSource(paths["csv"]).fingerprint() != before

    def test_fingerprint_changes_with_chunk_size(self, on_disk):
        # a checkpoint counts finished chunks, so the chunk size is part
        # of what a resume must match
        log, paths = on_disk
        for make in (
            lambda size: InMemorySource(log, chunk_records=size),
            lambda size: CsvSource(paths["csv"], chunk_records=size),
            lambda size: JsonlSource(paths["jsonl"], chunk_records=size),
        ):
            assert make(4).fingerprint() == make(4).fingerprint()
            assert make(4).fingerprint() != make(5).fingerprint()

    def test_quarantine_channel_plumbs_through(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "seq,timestamp,user,ip,session,rows,sql\n"
            "0,1.0,u1,,,,SELECT a FROM t\n"
            "1,notatime,u1,,,,SELECT b FROM t\n",
            encoding="utf-8",
        )
        channel = QuarantineChannel()
        log = CsvSource(path, errors="quarantine", channel=channel).read()
        assert len(log) == 1
        assert len(channel) == 1


class TestOpenLog:
    def test_sniffing(self, on_disk):
        _, paths = on_disk
        assert sniff_format(paths["csv"]) == "csv"
        assert sniff_format(paths["jsonl"]) == "jsonl"
        assert sniff_format(paths["columnar"]) == "columnar"

    def test_sniff_rejects_unknown(self, tmp_path):
        target = tmp_path / "log.parquet"
        target.write_text("")
        with pytest.raises(ValueError, match="cannot sniff"):
            sniff_format(target)
        with pytest.raises(ValueError, match="not a columnar store"):
            sniff_format(tmp_path)

    def test_open_log_returns_right_adapter(self, on_disk):
        _, paths = on_disk
        assert isinstance(open_log(paths["csv"]), CsvSource)
        assert isinstance(open_log(paths["jsonl"]), JsonlSource)
        assert isinstance(open_log(paths["columnar"]), ColumnarSource)

    def test_format_override(self, on_disk, tmp_path):
        log, paths = on_disk
        odd = tmp_path / "log.dat"
        odd.write_bytes(paths["jsonl"].read_bytes())
        assert open_log(odd, format="jsonl").read() == log

    def test_exported_at_top_level(self, on_disk):
        log, paths = on_disk
        assert repro.open_log(paths["csv"]).read() == log


class TestAsSource:
    def test_existing_source_not_owned(self):
        source = InMemorySource(make_log())
        resolved, owned = as_source(source)
        assert resolved is source and owned is False

    def test_path_and_log_are_owned(self, on_disk):
        log, paths = on_disk
        for value in (paths["csv"], str(paths["csv"]), log, log.records()):
            resolved, owned = as_source(value)
            assert isinstance(resolved, LogSource) and owned is True
            assert resolved.read().records() == log.records()


class TestStoreReadTime:
    """Every executor books the time it spends loading and decoding a
    store's chunks into the ledger's ``store`` stage, and reads each
    chunk once."""

    @pytest.mark.parametrize(
        "execution",
        [
            "batch",
            "streaming",
            repro.ExecutionConfig(mode="parallel", workers=1),
            repro.ExecutionConfig(mode="parallel", workers=2),
        ],
        ids=["batch", "streaming", "parallel-1", "parallel-2"],
    )
    def test_store_stage_times_each_chunk_read_once(self, tmp_path, execution):
        log = make_log(60)
        store = tmp_path / "log.columnar"
        write_columnar(log, store, chunk_records=7)
        source = ColumnarSource(store)
        result = repro.clean(source, execution=execution)
        stage = result.metrics.stages["store"]
        assert stage.counters["chunks_read"] == source.chunk_count() == 9
        assert stage.calls == source.chunk_count()
        assert stage.wall_seconds > 0
        assert stage.wall_seconds == source.read_seconds
        assert "store" not in result.metrics.comparable()
        assert result.clean_log == repro.clean(log).clean_log
