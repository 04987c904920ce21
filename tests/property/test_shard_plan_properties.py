"""Property-based tests: shard-plan and shard-codec invariants.

The parallel data plane rests on two contracts this suite fuzzes:

* :func:`repro.pipeline.parallel.shard_records` produces a true
  **partition** — every record lands in exactly one shard, a user's
  records never split across shards, and changing the worker count
  only repacks whole users, never divides one — while the adaptive
  plan fans out to about ``2 × workers`` shards whenever the users
  allow it;
* :func:`repro.store.columnar.encode_shard` /
  :func:`~repro.store.columnar.decode_shard` **round-trip** arbitrary
  records — including the verbatim-fallback statements the template
  codec cannot compress and the invalid rows (``sql=None``, integer
  SQL, ``NaN`` timestamps) that must reach a worker's validate stage
  unmangled to be quarantined there;
* a columnar store's rows are **cut into the same shards** as its
  records: the plan :func:`~repro.pipeline.parallel.shard_store` cuts
  from the chunk columns equals the plan over the records shard for
  shard, and each store shard encodes to the records shard's bytes.
"""

from __future__ import annotations

import math
import tempfile
from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.log import LogRecord
from repro.pipeline.parallel import shard_index, shard_records, shard_store
from repro.store import ColumnarSource, write_columnar
from repro.store.columnar import decode_shard, encode_shard

# ----------------------------------------------------------------------
# Strategies

#: A small user pool so shards genuinely share users, plus anonymous.
users = st.sampled_from(
    ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", None]
)

#: Statement texts spanning the codec's regimes: templatable SELECTs
#: (constants fold into the template dictionary), quote-heavy literals,
#: statements with the codec's marker byte, and arbitrary text that
#: falls back to verbatim storage.
sql_texts = st.one_of(
    st.sampled_from(
        [
            "SELECT a FROM t WHERE id = 1",
            "SELECT a FROM t WHERE id = 42 AND x = 'lit''eral'",
            "SELECT name FROM Employee WHERE empId = 7",
            "select * from objects where ra between 1.5 and 2.5",
            "not sql at all",
            "",
            "SELECT '\x00' FROM t",  # the interleave marker byte itself
        ]
    ),
    st.text(max_size=60),
)

timestamps = st.floats(allow_nan=True, allow_infinity=True, width=64)

optional_text = st.one_of(st.none(), st.text(max_size=12))

#: Canonical-shaped records (what real log sources produce).
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

#: Malformed records of the kinds the validate stage quarantines — the
#: codec must carry them to the worker byte-for-byte, not normalise
#: them away.  Also out-of-range integers that cannot ride the int64
#: columns.
oddball_records = st.builds(
    LogRecord,
    seq=st.one_of(st.integers(), st.floats(allow_nan=False)),
    sql=st.one_of(st.none(), st.integers(), st.binary(max_size=8)),
    timestamp=st.one_of(st.integers(), timestamps, st.none()),
    user=users,
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(st.none(), st.integers()),
)

mixed_records = st.lists(
    st.one_of(canonical_records, oddball_records), max_size=60
)


def same_record(a, b):
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


# ----------------------------------------------------------------------
# Shard plan: a true partition


class TestShardPlanIsPartition:
    @given(
        records=st.lists(canonical_records, max_size=120),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_record_lands_in_exactly_one_shard(self, records, workers):
        shards = shard_records(records, workers)
        flat = [record for shard in shards for record in shard]
        # identity-level multiset equality: nothing lost, nothing
        # duplicated, nothing invented
        assert Counter(map(id, flat)) == Counter(map(id, records))
        assert all(shard for shard in shards), "empty shard emitted"

    @given(
        records=st.lists(canonical_records, max_size=120),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_user_never_splits_across_shards(self, records, workers):
        shards = shard_records(records, workers)
        placement = {}
        for index, shard in enumerate(shards):
            for record in shard:
                placement.setdefault(record.user_key(), set()).add(index)
        assert all(len(indices) == 1 for indices in placement.values())

    @given(
        records=st.lists(canonical_records, max_size=100),
        first=st.integers(min_value=1, max_value=8),
        second=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_user_grouping_is_stable_across_shard_counts(
        self, records, first, second
    ):
        """Changing the fan-out only repacks whole users: the multiset
        of records each user contributes is identical under any plan."""

        def records_by_user(shards):
            grouped = {}
            for shard in shards:
                for record in shard:
                    grouped.setdefault(record.user_key(), []).append(
                        record.seq
                    )
            return {user: sorted(seqs) for user, seqs in grouped.items()}

        plan_a = records_by_user(shard_records(records, first))
        plan_b = records_by_user(shard_records(records, second))
        assert plan_a == plan_b

    @given(
        records=st.lists(canonical_records, max_size=100),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_plan_is_deterministic(self, records, workers):
        again = [
            [record.seq for record in shard]
            for shard in shard_records(records, workers)
        ]
        first = [
            [record.seq for record in shard]
            for shard in shard_records(records, workers)
        ]
        assert first == again


# ----------------------------------------------------------------------
# Shard plan: adaptive fan-out


def occupied_buckets(records, workers):
    """The hash buckets the planner packs ``records`` from (its bucket
    count is ``max(64, 16 × workers)``)."""
    count = max(64, 16 * workers)
    return {shard_index(record.user_key(), count) for record in records}


class TestAdaptiveFanOut:
    @given(records=st.lists(canonical_records, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_one_worker_plans_one_shard(self, records):
        assert len(shard_records(records, 1)) == 1

    @given(
        records=st.lists(canonical_records, max_size=120),
        workers=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_fan_out_stays_near_twice_the_workers(self, records, workers):
        # Packing to a budget of ceil(total / target) closes a shard only
        # when the next bucket would overflow it, so two neighbouring
        # shards always exceed the budget: at most 2 × target - 1 shards.
        target = min(2 * workers, len(occupied_buckets(records, workers)))
        assert len(shard_records(records, workers)) <= max(0, 2 * target - 1)

    @given(
        records=st.lists(canonical_records, min_size=2, max_size=120),
        workers=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_buckets_always_fan_out(self, records, workers):
        """With users in two buckets the plan never collapses to one
        shard — a multi-worker run only stays inline when its users
        give it nothing to split."""
        shards = shard_records(records, workers)
        if len(occupied_buckets(records, workers)) >= 2:
            assert len(shards) >= 2
        else:
            assert len(shards) == 1


# ----------------------------------------------------------------------
# Shard codec: lossless round trip


class TestShardCodecRoundTrip:
    @given(records=mixed_records)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_preserves_every_record(self, records):
        buffer = encode_shard(records)
        assert len(list(decode_shard(buffer))) == len(records)
        decoded = list(decode_shard(buffer))
        assert len(decoded) == len(records)
        for original, restored in zip(records, decoded):
            assert same_record(original, restored), (original, restored)

    @given(records=mixed_records)
    @settings(max_examples=50, deadline=None)
    def test_decode_accepts_memoryview(self, records):
        buffer = encode_shard(records)
        decoded = list(decode_shard(memoryview(buffer)))
        assert len(decoded) == len(records)
        for original, restored in zip(records, decoded):
            assert same_record(original, restored)

    @given(records=st.lists(canonical_records, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_deterministic(self, records):
        assert encode_shard(records) == encode_shard(records)


# ----------------------------------------------------------------------
# Store-cut shards: rows plan and pack exactly like records

#: Malformed records a columnar store can hold (its chunks are JSON, so
#: no ``bytes`` statements): non-text SQL, non-float or missing
#: timestamps, out-of-int64 integers.
store_oddball_records = st.builds(
    LogRecord,
    seq=st.one_of(st.integers(), st.floats(allow_nan=False)),
    sql=st.one_of(st.none(), st.integers()),
    timestamp=st.one_of(st.integers(), timestamps, st.none()),
    user=users,
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(st.none(), st.integers()),
)


class TestStoreCutShards:
    @given(
        records=st.lists(
            st.one_of(canonical_records, store_oddball_records), max_size=80
        ),
        chunk_records=st.integers(min_value=1, max_value=16),
        workers=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_cut_the_records_plan_and_bytes(
        self, records, chunk_records, workers
    ):
        with tempfile.TemporaryDirectory() as directory:
            write_columnar(records, directory, chunk_records=chunk_records)
            source = ColumnarSource(directory)
            stored = [record for chunk in source.open_chunks() for record in chunk]
            row_plan = shard_store(source, workers)
        record_plan = shard_records(stored, workers)

        assert len(row_plan) == len(record_plan)
        for row_shard, record_shard in zip(row_plan, record_plan):
            assert len(row_shard) == len(record_shard)
            for row, record in zip(row_shard.chunk(), record_shard):
                assert same_record(row, record), (row, record)
            assert encode_shard(row_shard) == encode_shard(record_shard)
