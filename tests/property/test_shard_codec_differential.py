"""Differential tests: the pickled shard columns vs the RSH1 codec.

:func:`repro.store.columnar.encode_shard` used to hand-pack a shard into
a 20-section binary layout — int64/float64 arrays, dictionary-encoded
string columns and a pickled side list for records with off-type
fields.  It now pickles eight parallel columns whose strings share one
object per distinct text.  That is only safe if every shard still
decodes to the same records, each field equal in value *and* type.

The reference is the whole ``store/columnar.py`` of rev ``c546b36``,
exec'd out of git history as a module of ``repro.store`` so it cannot
drift along with the code under test.  Both codecs round-trip

* the store shards of the smoke-scale ``store-parallel2`` store, cut
  for two workers (:func:`~repro.pipeline.parallel.shard_store`; the
  frozen codec packs the same rows as its own ``StoreRow`` tuples),
  and the same log as in-RAM records — where the new buffers must also
  be no larger than the old ones — and
* Hypothesis records, canonical and malformed, as records and as the
  rows of a store they were written to.
"""

from __future__ import annotations

import math
import tempfile
import types

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.log import LogRecord
from repro.pipeline.parallel import shard_records, shard_store
from repro.skeleton import cache
from repro.store import ColumnarSource, columnar, write_columnar
from repro.store.columnar import ROW_COLUMNS, VERBATIM_TEMPLATE, StoreShard
from tests.frozen import e29_workloads, frozen_source

#: The last commit whose shard codec hand-packs the RSH1 layout.
FROZEN_REV = "c546b36"

_loaded = {}


def raw_scan_with_spans(text: str):
    """The live raw scan in the ``(raw key, spans, constants)`` shape
    the frozen codec reads (the live scan returns its split instead of
    the spans)."""
    raw = cache._raw_scan(text)
    if raw is None:
        return None
    return raw[0], cache._raw_spans(raw[1]), raw[2]


def frozen_codec():
    """``store/columnar.py`` of :data:`FROZEN_REV`, exec'd from git
    history; its relative imports resolve to the live package, its raw
    scan to :func:`raw_scan_with_spans`."""
    if "columnar" not in _loaded:
        source = frozen_source(
            FROZEN_REV,
            "src/repro/store/columnar.py",
            "the live codec is still pinned by test_shard_plan_properties.py",
        )
        module = types.ModuleType("repro.store._frozen_columnar")
        module.__package__ = "repro.store"
        exec(compile(source, "frozen_columnar.py", "exec"), module.__dict__)
        module._raw_scan = raw_scan_with_spans
        _loaded["columnar"] = module
    return _loaded["columnar"]


def frozen_buffer(shard) -> bytes:
    """``shard`` packed by the frozen codec: records as they are, a
    :class:`~repro.store.columnar.StoreShard` as the frozen codec's own
    ``StoreRow`` tuples (template text, ``None`` for a verbatim row)."""
    frozen = frozen_codec()
    if type(shard) is not StoreShard:
        return frozen.encode_shard(shard)
    templates = shard.templates
    rows = []
    for *fields, template, constants in zip(
        *[shard.columns[name] for name in ROW_COLUMNS]
    ):
        text = None if template == VERBATIM_TEMPLATE else templates[template]
        rows.append(frozen.StoreRow(*fields, text, constants))
    return frozen.encode_shard(rows)


def store_shard(directory) -> StoreShard:
    """Every row of the store at ``directory`` as one shard."""
    source = ColumnarSource(directory)
    shard = StoreShard(source.template_texts())
    for columns in source.chunk_columns():
        shard.extend(columns)
    return shard


def same_record(a, b) -> bool:
    """Field equality with NaN-aware timestamps and type strictness."""
    for name in ("seq", "sql", "user", "ip", "session", "rows"):
        va, vb = getattr(a, name), getattr(b, name)
        if type(va) is not type(vb) or va != vb:
            return False
    ta, tb = a.timestamp, b.timestamp
    if type(ta) is not type(tb):
        return False
    if isinstance(ta, float) and math.isnan(ta):
        return isinstance(tb, float) and math.isnan(tb)
    return ta == tb


def assert_same_decoding(shard, old: bytes, new: bytes) -> None:
    frozen = list(frozen_codec().decode_shard(old))
    live = list(columnar.decode_shard(new))
    assert len(frozen) == len(live) == len(shard)
    for old_record, new_record in zip(frozen, live):
        assert type(new_record) is type(old_record) is LogRecord
        assert same_record(old_record, new_record), (old_record, new_record)


# ----------------------------------------------------------------------
# The smoke-scale store-parallel2 input


@pytest.fixture(scope="module")
def smoke_plans():
    """Two-worker shard plans of the smoke ``store-parallel2`` log: its
    store's shards and its in-RAM records."""
    workloads = e29_workloads()
    workload = workloads.WORKLOADS["store-parallel2"]
    log = workloads.build_log(workload, 2018, workload.size("smoke"))
    with tempfile.TemporaryDirectory() as directory:
        write_columnar(log, directory, chunk_records=8192)
        rows = shard_store(ColumnarSource(directory), 2)
    return {
        "rows": rows,
        "records": shard_records(log.records(), 2),
    }


@pytest.mark.parametrize("kind", ["rows", "records"])
def test_smoke_shards_decode_as_before_from_no_larger_buffers(
    smoke_plans, kind
):
    plan = smoke_plans[kind]
    assert len(plan) >= 2
    for shard in plan:
        old, new = frozen_buffer(shard), columnar.encode_shard(shard)
        assert_same_decoding(shard, old, new)
        assert len(new) <= len(old)


# ----------------------------------------------------------------------
# Hypothesis records and store rows

users = st.one_of(st.none(), st.sampled_from(["u0", "u1", "u2", "ü"]))
optional_text = st.one_of(st.none(), st.text(max_size=12))
timestamps = st.floats(allow_nan=True, allow_infinity=True, width=64)
sql_texts = st.one_of(
    st.sampled_from(
        [
            "SELECT a FROM t WHERE b = 1",
            "SELECT a FROM t WHERE n = 'x''y' AND m = 2.5",
            "SELECT a FROM t WHERE b = 1\x00",
            "SELECT '\x03' FROM t",
            "",
        ]
    ),
    st.text(max_size=60),
)

#: Records of the field types ``LogRecord`` documents.
canonical_records = st.builds(
    LogRecord,
    seq=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    sql=sql_texts,
    timestamp=timestamps,
    user=users,
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(
        st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)
    ),
)


#: Statements that are equal, and hash alike, across types: a codec that
#: shared them by value would hand one record another's type.
equal_across_types = st.sampled_from([1, True, 1.0, 0, False, 0.0])


def malformed_records(statements):
    """Records of the kinds the validate stage quarantines, and integers
    beyond int64."""
    return st.builds(
        LogRecord,
        seq=st.one_of(st.integers(), st.floats(allow_nan=False)),
        sql=statements,
        timestamp=st.one_of(st.integers(), timestamps, st.none()),
        user=users,
        ip=optional_text,
        session=optional_text,
        rows=st.one_of(st.none(), st.integers()),
    )


@given(
    records=st.lists(
        st.one_of(
            canonical_records,
            malformed_records(
                st.one_of(
                    st.none(),
                    st.integers(),
                    equal_across_types,
                    st.binary(max_size=8),
                )
            ),
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_records_decode_as_before(records):
    assert_same_decoding(
        records, frozen_buffer(records), columnar.encode_shard(records)
    )


@given(
    records=st.lists(
        st.one_of(
            canonical_records,
            # a store's chunks are JSON: no ``bytes`` statements
            malformed_records(
                st.one_of(st.none(), st.integers(), equal_across_types)
            ),
        ),
        max_size=60,
    ),
    chunk_records=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=75, deadline=None)
def test_store_rows_decode_as_before(records, chunk_records):
    with tempfile.TemporaryDirectory() as directory:
        write_columnar(records, directory, chunk_records=chunk_records)
        rows = store_shard(directory)
    assert_same_decoding(
        rows, frozen_buffer(rows), columnar.encode_shard(rows)
    )
