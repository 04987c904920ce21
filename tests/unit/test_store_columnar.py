"""Unit tests for the columnar store format (repro.store.columnar)."""

import json
import math
import zlib

import pytest

from repro.log import LogRecord, QueryLog
from repro.store.columnar import (
    FORMAT_NAME,
    FORMAT_VERSION,
    VERBATIM_TEMPLATE,
    ColumnarWriter,
    StoreShard,
    chunk_file_name,
    decode_shard,
    decode_sql,
    encode_shard,
    encode_sql,
    is_columnar_store,
    load_templates,
    read_manifest,
    store_size_bytes,
    write_columnar,
)
from repro.skeleton.cache import _raw_scan
from repro.store.sources import ColumnarSource


def sample_records():
    return [
        LogRecord(0, "SELECT a FROM t WHERE id = 7", 1.0, "u1", "1.2.3.4", "s1", 3),
        LogRecord(1, "SELECT a FROM t WHERE id = 99", 2.0, "u1", None, None, None),
        LogRecord(2, "SELECT 'it''s' FROM t", 3.0, "u2", None, None, 0),
        LogRecord(3, "SELEKT not sql at all !!", 4.0, None, None, None, None),
    ]


class TestSqlCodec:
    def test_numbers_and_strings_are_lifted(self):
        sql = "SELECT a FROM t WHERE id = 7 AND b = 'x'"
        template, constants = encode_sql(sql)
        assert constants == ["7", "'x'"]
        # \x03 marks a number, \x04 a string: the parse cache's raw key
        assert template == "SELECT a FROM t WHERE id = \x03 AND b = \x04"
        assert template == _raw_scan(sql)[0]

    def test_decode_is_exact_inverse(self):
        for sql in [
            "SELECT a FROM t WHERE id = 7",
            "SELECT 'it''s a trap' FROM t1 WHERE x = 1.5e-3",
            "SELECT objID2 FROM PhotoObj p WHERE p.ra BETWEEN 1.0 AND 2.0",
            "",
            "no constants here",
        ]:
            template, constants = encode_sql(sql)
            assert decode_sql(template, constants) == sql

    def test_identifier_digits_stay_in_template(self):
        template, constants = encode_sql("SELECT x FROM t1 WHERE t1.c2 = 5")
        assert constants == ["5"]
        assert "t1" in template and "c2" in template

    def test_digits_inside_strings_are_not_double_lifted(self):
        sql = "SELECT '123 abc' FROM t"
        template, constants = encode_sql(sql)
        assert constants == ["'123 abc'"]
        assert decode_sql(template, constants) == sql

    def test_marker_byte_rejected(self):
        for byte in ("\x00", "\x03", "\x04", "\x1f"):
            with pytest.raises(ValueError, match="control byte"):
                encode_sql(f"SELECT {byte} FROM t WHERE x = 1")

    def test_non_text_statement_rejected(self):
        for sql in (None, 12345):
            with pytest.raises(ValueError, match="not text"):
                encode_sql(sql)

    def test_decode_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            decode_sql("a \x03 b", [])


class TestStoreRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        records = sample_records()
        store = tmp_path / "log.columnar"
        write_columnar(records, store, chunk_records=2)
        assert ColumnarSource(store).read().records() == QueryLog(records).records()

    def test_round_trip_preserves_file_order_and_fields(self, tmp_path):
        records = sample_records()
        store = tmp_path / "log.columnar"
        write_columnar(records, store, chunk_records=3)
        chunks = list(ColumnarSource(store).open_chunks())
        flat = [record for chunk in chunks for record in chunk]
        assert flat == records  # file order, not sorted order

    def test_marker_statement_stored_verbatim(self, tmp_path):
        weird = LogRecord(0, "SELECT \x00 FROM t WHERE x = 1", 1.0, "u")
        store = tmp_path / "weird.columnar"
        write_columnar([weird], store)
        (chunk,) = ColumnarSource(store).open_chunks()
        assert chunk[0].sql == weird.sql
        raw = json.loads(
            zlib.decompress((store / chunk_file_name(0)).read_bytes())
        )
        assert raw["template"] == [VERBATIM_TEMPLATE]

    def test_chunk_layout_matches_manifest(self, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(sample_records(), store, chunk_records=3)
        manifest = read_manifest(store)
        assert manifest["format"] == FORMAT_NAME
        assert manifest["record_count"] == 4
        assert manifest["chunks"] == [3, 1]
        assert (store / chunk_file_name(0)).is_file()
        assert (store / chunk_file_name(1)).is_file()
        texts, witnesses = load_templates(store)
        assert manifest["template_count"] == len(texts) == len(witnesses)

    def test_start_chunk_seeks(self, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(sample_records(), store, chunk_records=2)
        chunks = list(ColumnarSource(store).open_chunks(start_chunk=1))
        assert [record.seq for chunk in chunks for record in chunk] == [2, 3]

    def test_templates_deduplicate_repeated_shapes(self, tmp_path):
        records = [
            LogRecord(i, f"SELECT a FROM t WHERE id = {i}", float(i), "u")
            for i in range(100)
        ]
        store = tmp_path / "log.columnar"
        write_columnar(records, store)
        assert read_manifest(store)["template_count"] == 1

    def test_store_size_bytes_counts_data_files(self, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(sample_records(), store)
        assert store_size_bytes(store) > 0


def odd_typed_records():
    """Records no parser accepts, which a store must still hold exactly
    (the fault suite's poison: non-text statements, non-float and NaN
    timestamps, every optional field missing)."""
    return [
        LogRecord(0, None, 1.0, "u1", "1.2.3.4", "s1", 3),
        LogRecord(1, 12345, 2.0, "u2"),
        LogRecord(2, "SELECT a FROM t WHERE id = 7", 3, "u1"),
        LogRecord(3, "SELECT a FROM t WHERE id = 8", float("nan"), "u3"),
        LogRecord(4, "SELECT a FROM t WHERE id = 9", 5.0, None, None, None, None),
        LogRecord(5, None, float("nan"), None, None, None, None),
    ]


def same_fields(a, b):
    """Field equality, type-strict, with NaN equal to NaN."""
    for name in ("seq", "sql", "timestamp", "user", "ip", "session", "rows"):
        va, vb = getattr(a, name), getattr(b, name)
        if type(va) is not type(vb):
            return False
        if isinstance(va, float) and math.isnan(va):
            if not math.isnan(vb):
                return False
        elif va != vb:
            return False
    return True


class TestOddTypedRecords:
    def test_round_trip_is_exact(self, tmp_path):
        records = odd_typed_records()
        store = tmp_path / "odd.columnar"
        write_columnar(records, store, chunk_records=4)
        chunks = list(ColumnarSource(store).open_chunks())
        flat = [record for chunk in chunks for record in chunk]
        assert len(flat) == len(records)
        for original, restored in zip(records, flat):
            assert same_fields(original, restored), (original, restored)

    def test_non_text_statements_are_stored_verbatim(self, tmp_path):
        store = tmp_path / "odd.columnar"
        write_columnar(odd_typed_records(), store)
        raw = json.loads(
            zlib.decompress((store / chunk_file_name(0)).read_bytes())
        )
        assert raw["template"][0] == VERBATIM_TEMPLATE
        assert raw["template"][1] == VERBATIM_TEMPLATE
        assert raw["constants"][:2] == [[None], [12345]]
        # non-text never becomes a template witness
        assert load_templates(store) == (
            ["SELECT a FROM t WHERE id = \x03"],
            ["SELECT a FROM t WHERE id = 7"],
        )

    def test_store_shard_packs_exactly_like_its_records(self, tmp_path):
        """Odd-typed rows cut from the chunk columns pack to the same
        bytes, with the same field types, as ``encode_shard`` packs the
        records themselves."""
        records = odd_typed_records() + sample_records()
        store = tmp_path / "odd.columnar"
        write_columnar(records, store, chunk_records=3)
        source = ColumnarSource(store)
        shard = StoreShard(source.template_texts())
        for columns in source.chunk_columns():
            shard.extend(columns)
        assert len(shard) == len(records)
        stored = [record for chunk in source.open_chunks() for record in chunk]
        buffer = encode_shard(shard)
        assert buffer == encode_shard(stored)
        for original, restored in zip(records, decode_shard(buffer)):
            assert same_fields(original, restored), (original, restored)

    def test_store_shard_chunk_is_its_records(self, tmp_path):
        records = odd_typed_records() + sample_records()
        store = tmp_path / "odd.columnar"
        write_columnar(records, store, chunk_records=5)
        source = ColumnarSource(store)
        shard = StoreShard(source.template_texts())
        for columns in source.chunk_columns():
            shard.extend(columns)
        chunk = shard.chunk()
        assert len(chunk) == len(records)
        for original, record in zip(records, chunk):
            assert same_fields(original, record), (original, record)
        splits = chunk.take_splits()
        # A split the shape rule vouches for is the raw scan's; verbatim
        # rows and the escaped quote have none.
        bound = 0
        for record in chunk:
            split = splits.split_of(record)
            if type(record.sql) is not str or "''" in record.sql:
                assert split is None, record
            elif split is not None:
                raw = _raw_scan(record.sql)
                assert split == (raw[0], raw[2])
                bound += 1
        assert bound == 6


class TestCrashSafety:
    def test_no_manifest_until_close(self, tmp_path):
        store = tmp_path / "log.columnar"
        writer = ColumnarWriter(store, chunk_records=1)
        writer.extend(sample_records())
        assert not is_columnar_store(store)  # chunks exist, manifest doesn't
        with pytest.raises(ValueError, match="not a columnar store"):
            read_manifest(store)
        writer.close()
        assert is_columnar_store(store)

    def test_context_manager_skips_close_on_error(self, tmp_path):
        store = tmp_path / "log.columnar"
        with pytest.raises(RuntimeError):
            with ColumnarWriter(store) as writer:
                writer.append(sample_records()[0])
                raise RuntimeError("boom")
        assert not is_columnar_store(store)

    def test_close_is_idempotent(self, tmp_path):
        store = tmp_path / "log.columnar"
        writer = ColumnarWriter(store)
        writer.close()
        writer.close()
        assert read_manifest(store)["record_count"] == 0

    def test_reader_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        assert not is_columnar_store(tmp_path)
        with pytest.raises(ValueError, match="format"):
            read_manifest(tmp_path)

    def test_writer_rejects_bad_chunk_records(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_records"):
            ColumnarWriter(tmp_path / "x", chunk_records=0)


class TestFormatVersion:
    def test_writer_stamps_the_current_version(self, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(sample_records(), store)
        assert read_manifest(store)["version"] == FORMAT_VERSION == 2

    def test_version_1_store_is_refused(self, tmp_path):
        import repro

        # A store as the version-1 writer left it: same layout, but its
        # templates were cut by the old literal grammar.
        store = tmp_path / "old.columnar"
        store.mkdir()
        (store / "manifest.json").write_text(
            json.dumps(
                {
                    "format": FORMAT_NAME,
                    "version": 1,
                    "record_count": 0,
                    "chunk_records": 8192,
                    "chunks": [],
                    "template_count": 0,
                }
            )
        )
        assert is_columnar_store(store)
        with pytest.raises(ValueError) as refused:
            read_manifest(store)
        message = str(refused.value)
        assert "version 1" in message and "version 2" in message
        assert "rebuild the store from its source log" in message
        assert "convert" in message
        with pytest.raises(ValueError, match="convert"):
            repro.clean(str(store))


class TestNativeBind:
    """Streaming a store binds its rows by their stored splits."""

    def store(self, tmp_path, count=60):
        records = [
            LogRecord(
                i,
                f"SELECT a FROM t WHERE id = {i} AND name = 'n{i % 7}'",
                float(i),
                f"u{i % 3}",
            )
            for i in range(count)
        ]
        write_columnar(records, tmp_path / "log.columnar", chunk_records=16)
        return records, tmp_path / "log.columnar"

    def test_a_chunk_is_its_records_and_hands_its_splits_over_once(self, tmp_path):
        from repro.store.columnar import StoreChunk, read_chunk

        records, store = self.store(tmp_path)
        chunk = read_chunk(store, 0, load_templates(store)[0])
        assert type(chunk) is StoreChunk and chunk == records[:16]
        splits = chunk.take_splits()
        assert chunk.take_splits() is None
        raw_key, bound = splits.raw_split(3, chunk[3])
        raw = _raw_scan(chunk[3].sql)
        assert (raw_key, bound) == (raw[0], raw[2])

    def test_a_reordered_chunk_binds_nothing_by_position(self, tmp_path):
        from repro.store.columnar import read_chunk

        records, store = self.store(tmp_path)
        chunk = read_chunk(store, 0, load_templates(store)[0])
        chunk.reverse()
        splits = chunk.take_splits()
        assert all(
            splits.raw_split(position, record) is None
            for position, record in enumerate(chunk)
        )
        assert splits.raw_split(len(chunk), chunk[0]) is None

    def test_a_decoded_shard_binds_by_identity_in_any_order(self, tmp_path):
        records, store = self.store(tmp_path)
        source = ColumnarSource(store)
        buffer = encode_shard(records)
        assert type(buffer) is bytes
        chunk = decode_shard(buffer)
        assert chunk == records
        splits = chunk.take_splits()
        for record in reversed(chunk):
            raw = _raw_scan(record.sql)
            assert splits.split_of(record) == (raw[0], raw[2])
        # an equal record that is not one of the shard's has no split
        assert splits.split_of(LogRecord(*vars(chunk[0]).values())) is None
        assert source.chunks_read == 0

    def test_streaming_a_store_skips_the_raw_scan(self, tmp_path, monkeypatch):
        import repro
        from repro.skeleton import cache as cache_module

        records, store = self.store(tmp_path)
        scans = []

        def counted(text):
            scans.append(text)
            return _raw_scan(text)

        monkeypatch.setattr(cache_module, "_raw_scan", counted)
        in_ram = repro.clean(QueryLog(records), execution="streaming")
        in_ram_scans = len(scans)
        del scans[:]
        stored = repro.clean(ColumnarSource(store), execution="streaming")
        assert stored.clean_log.records() == in_ram.clean_log.records()
        assert stored.metrics.comparable() == in_ram.metrics.comparable()
        assert in_ram_scans >= len(records) - 1
        # One scan per chunk for the template's first row (a cold
        # cache has no verified raw key to bind to yet), none after.
        assert len(scans) <= 2
