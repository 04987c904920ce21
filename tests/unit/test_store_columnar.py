"""Unit tests for the columnar store format (repro.store.columnar)."""

import json
import math
import zlib

import pytest

from repro.log import LogRecord, QueryLog
from repro.store.columnar import (
    FORMAT_NAME,
    MARKER,
    VERBATIM_TEMPLATE,
    ColumnarWriter,
    StoreRow,
    chunk_file_name,
    decode_shard,
    decode_sql,
    encode_shard,
    encode_sql,
    is_columnar_store,
    iter_columnar_chunks,
    load_templates,
    read_manifest,
    store_size_bytes,
    write_columnar,
)
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
        template, constants = encode_sql("SELECT a FROM t WHERE id = 7 AND b = 'x'")
        assert constants == ["7", "'x'"]
        assert template.count(MARKER) == 2
        assert "7" not in template and "'x'" not in template

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
        with pytest.raises(ValueError, match="marker"):
            encode_sql("SELECT \x00 FROM t")

    def test_non_text_statement_rejected(self):
        for sql in (None, 12345):
            with pytest.raises(ValueError, match="not text"):
                encode_sql(sql)

    def test_decode_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            decode_sql(f"a {MARKER} b", [])


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
        chunks = list(iter_columnar_chunks(store))
        flat = [record for chunk in chunks for record in chunk]
        assert flat == records  # file order, not sorted order

    def test_marker_statement_stored_verbatim(self, tmp_path):
        weird = LogRecord(0, "SELECT \x00 FROM t WHERE x = 1", 1.0, "u")
        store = tmp_path / "weird.columnar"
        write_columnar([weird], store)
        (chunk,) = iter_columnar_chunks(store)
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
        assert manifest["template_count"] == len(load_templates(store))

    def test_start_chunk_seeks(self, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(sample_records(), store, chunk_records=2)
        chunks = list(iter_columnar_chunks(store, start_chunk=1))
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
        chunks = list(iter_columnar_chunks(store))
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
        assert load_templates(store) == ["SELECT a FROM t WHERE id = \x00"]

    def test_rows_pack_exactly_like_their_records(self, tmp_path):
        """The row encoder sends odd-typed rows to the oddball side list
        at the same positions, with the same records, as
        ``encode_shard`` does for the records themselves."""
        records = odd_typed_records() + sample_records()
        store = tmp_path / "odd.columnar"
        write_columnar(records, store, chunk_records=3)
        source = ColumnarSource(store)
        rows = list(source.rows())
        assert all(type(row) is StoreRow for row in rows)
        stored = [record for chunk in source.open_chunks() for record in chunk]
        buffer = encode_shard(rows)
        assert buffer == encode_shard(stored)
        for original, restored in zip(records, decode_shard(buffer)):
            assert same_fields(original, restored), (original, restored)

    def test_row_materialises_its_record(self, tmp_path):
        records = odd_typed_records() + sample_records()
        store = tmp_path / "odd.columnar"
        write_columnar(records, store, chunk_records=5)
        rows = list(ColumnarSource(store).rows())
        for original, row in zip(records, rows):
            assert row.user_key() == original.user_key()
            assert same_fields(original, row.record()), (original, row)


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
