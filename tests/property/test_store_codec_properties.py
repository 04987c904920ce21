"""Property-based tests: the one template codec.

The columnar store, the parallel executor's shard buffers and the parse
cache's raw keys share one literal grammar,
:func:`repro.skeleton.cache._raw_scan`.  This suite fuzzes the codec
built on it:

* for every text the raw scan accepts, :func:`encode_sql` returns the
  raw key as its template and the exact token texts as its constants,
  and :func:`decode_sql` is the exact inverse; every text it refuses is
  refused by :func:`encode_sql` too (the writers store it verbatim);
* a store round trip (:func:`write_columnar` → records and chunk
  columns of a :class:`ColumnarSource`) and a shard round trip
  (:func:`encode_shard` → :func:`decode_shard`) give back every record
  exactly — marker-bearing, control-byte and odd-typed ones included;
* the shape rule (:class:`StoredSplits`) never vouches for a stored
  split the raw scan of its spliced text disagrees with, however
  adversarial the store, and does vouch for the splits the codec
  itself writes.
"""

from __future__ import annotations

import math
import tempfile

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.log import LogRecord
from repro.skeleton.cache import _raw_scan, _raw_spans
from repro.store import ColumnarSource, write_columnar
from repro.store.columnar import (
    StoredSplits,
    StoreShard,
    decode_shard,
    decode_sql,
    encode_shard,
    encode_sql,
)

# ----------------------------------------------------------------------
# Strategies

#: Pieces that sit on the literal grammar's edges: escaped quotes,
#: numbers glued to identifiers and dots, exponents, comment and
#: bracket openers, and every control byte (``\x00`` and the slot
#: bytes ``\x03``/``\x04`` among them).
FRAGMENTS = [
    "SELECT ",
    "a",
    " ",
    "''",
    "'",
    "'it''s'",
    "t1",
    "a.5",
    "1.",
    "1e5",
    "1.5e-3",
    ".5",
    "1..2",
    "1abc",
    "-",
    "--",
    "/*",
    "*/",
    "[x 1]",
    '"q 2"',
    "@v3",
    "#t",
    "$",
    "=",
    ",",
    "(",
    ")",
    "é",
    " ",
    *[chr(code) for code in range(32)],
]

statement_texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join),
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)),
        max_size=8,
    ).map("".join),
    st.text(max_size=40),
)

optional_text = st.one_of(st.none(), st.text(max_size=8))

canonical_records = st.builds(
    LogRecord,
    seq=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    sql=statement_texts,
    timestamp=st.floats(allow_nan=True, allow_infinity=True, width=64),
    user=st.sampled_from(["alice", "bob", None]),
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
)

#: Field values JSON can hold but no parser accepts: the store and the
#: shard buffers must carry them unchanged to the validate stage.
odd_records = st.builds(
    LogRecord,
    seq=st.integers(),
    sql=st.one_of(st.none(), st.integers(), statement_texts),
    timestamp=st.one_of(st.integers(), st.none(), st.floats()),
    user=st.sampled_from(["alice", None]),
    ip=optional_text,
    session=optional_text,
    rows=st.one_of(st.none(), st.integers()),
)

record_lists = st.lists(st.one_of(canonical_records, odd_records), max_size=30)


def same_record(a, b):
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


# ----------------------------------------------------------------------
# The text codec is the raw scan


class TestTextCodec:
    @given(text=statement_texts)
    @settings(max_examples=400, deadline=None)
    def test_store_template_is_the_raw_key(self, text):
        raw = _raw_scan(text)
        if raw is None:
            try:
                encode_sql(text)
            except ValueError:
                return
            raise AssertionError(f"encoded a text the raw scan refuses: {text!r}")
        template, constants = encode_sql(text)
        assert template == raw[0]
        spans = _raw_spans(raw[1])
        assert constants == [text[start:end] for start, end in spans]

    @given(text=statement_texts)
    @settings(max_examples=400, deadline=None)
    def test_decode_inverts_encode(self, text):
        try:
            template, constants = encode_sql(text)
        except ValueError:
            return
        assert decode_sql(template, constants) == text


# ----------------------------------------------------------------------
# Store and shard round trips


def store_shard(source: ColumnarSource) -> StoreShard:
    """Every row of ``source`` as one shard, from its chunk columns."""
    shard = StoreShard(source.template_texts())
    for columns in source.chunk_columns():
        shard.extend(columns)
    return shard


class TestRoundTrips:
    @given(records=record_lists, chunk_records=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_store_round_trip(self, records, chunk_records):
        with tempfile.TemporaryDirectory() as work:
            store = f"{work}/log.columnar"
            write_columnar(records, store, chunk_records=chunk_records)
            source = ColumnarSource(store)
            stored = [record for chunk in source.open_chunks() for record in chunk]
            rows = store_shard(source).chunk()
        assert len(stored) == len(rows) == len(records)
        for original, restored, row in zip(records, stored, rows):
            assert same_record(original, restored), (original, restored)
            assert same_record(original, row), (original, row)

    @given(records=record_lists)
    @settings(max_examples=150, deadline=None)
    def test_shard_round_trip(self, records):
        restored = list(decode_shard(encode_shard(records)))
        assert len(restored) == len(records)
        for original, back in zip(records, restored):
            assert same_record(original, back), (original, back)

    @given(records=record_lists)
    @settings(max_examples=40, deadline=None)
    def test_store_rows_pack_like_their_records(self, records):
        with tempfile.TemporaryDirectory() as work:
            store = f"{work}/log.columnar"
            write_columnar(records, store, chunk_records=4)
            source = ColumnarSource(store)
            rows = store_shard(source)
            stored = [record for chunk in source.open_chunks() for record in chunk]
        # Byte equality against the records read back: the store keeps
        # values, not which of them were one object.
        buffer = encode_shard(rows)
        assert buffer == encode_shard(stored)
        for original, back in zip(records, decode_shard(buffer)):
            assert same_record(original, back), (original, back)


# ----------------------------------------------------------------------
# The shape rule never vouches for a wrong split

#: Static template pieces that can glue to a slot's constant: digits,
#: dots, exponents, word characters, quotes, openers and non-ASCII.
STATIC_PIECES = [
    "SELECT a FROM t WHERE x = ",
    " ",
    ".",
    "5",
    ".5",
    "e",
    "e5",
    "E+",
    "a",
    "_",
    "#",
    "$",
    "-",
    "'",
    "''",
    "'b'",
    "[",
    '"',
    "/*",
    "--",
    "é",
    "٣",
    ",",
    "(",
    ")",
]

#: Constants a tampered store may hold: every shape (digit runs,
#: decimals, strings, the empty string) next to near misses —
#: non-ASCII digits, ``1.``, ``.5``, ``1e5``, signs, escaped quotes,
#: control bytes and unbalanced quotes.
STORED_CONSTANTS = [
    "1",
    "12",
    "0",
    "1.2",
    "10.25",
    "'a'",
    "''",
    "'x y'",
    "'é'",
    "'1'",
    "'.5'",
    "٣",
    "²",
    "1.",
    ".5",
    "1e5",
    "-1",
    "'it''s'",
    "'a\x01b'",
    "'a\tb'",
    "'",
    "'a",
    "abc",
    "",
]


@st.composite
def stored_chunks(draw):
    """One template (static pieces around number/string slots, slots
    adjacent at will) and a few rows of stored constants for it."""
    pieces = draw(
        st.lists(
            st.one_of(st.sampled_from(STATIC_PIECES), st.sampled_from("\x03\x04")),
            min_size=1,
            max_size=8,
        )
    )
    template = "".join(pieces)
    slots = template.count("\x03") + template.count("\x04")
    rows = draw(
        st.lists(
            st.lists(
                st.sampled_from(STORED_CONSTANTS), min_size=slots, max_size=slots
            ),
            min_size=1,
            max_size=6,
        )
    )
    return template, rows


def vouched_splits(template, rows):
    """Run the rows through the shape rule in order; return
    ``(text, constants, bound)`` for every row it vouched for."""
    texts = [decode_sql(template, constants) for constants in rows]
    records = [LogRecord(seq, text, 0.0) for seq, text in enumerate(texts)]
    splits = StoredSplits(records, [template], [0] * len(rows), rows)
    vouched = []
    for position, (text, constants) in enumerate(zip(texts, rows)):
        answer = splits.raw_split(position, records[position])
        if answer is not None:
            raw_key, bound = answer
            assert raw_key == template
            vouched.append((text, constants, bound))
    return vouched


class TestShapeRule:
    @given(chunk=stored_chunks())
    @settings(max_examples=500, deadline=None)
    # A decimal row verifies the template; an integer row of it must not
    # ride on that verdict (``1.`` is one literal).
    @example(chunk=("x = \x03.", [["1.2"], ["1"]]))
    @example(chunk=("x = \x04", [["'a'"], ["1"]]))
    @example(chunk=("SELECT \x03.5", [["1.2"], ["1"]]))
    @example(chunk=("SELECT \x03 .5", [["1.2"], ["1"], ["12"]]))
    @example(chunk=("x = \x03", [["1"], ["٣"], ["²"], ["1."], [".5"], ["1e5"]]))
    @example(chunk=("x = \x04", [["'a'"], ["'it''s'"], ["'a\x01b'"], ["''"]]))
    @example(chunk=("\x04\x04", [["'a'", "'b'"], ["''", "''"]]))
    @example(chunk=("\x03\x03", [["1", "2"], ["1.2", "3"]]))
    @example(chunk=("\x03\x04\x03", [["1", "'a'", "2"], ["12", "''", "3.4"]]))
    @example(chunk=("'\x04", [["'a'"], ["''"]]))
    @example(chunk=("\x04'", [["'a'"], ["''"]]))
    def test_a_vouched_split_is_the_raw_scan(self, chunk):
        template, rows = chunk
        for text, constants, bound in vouched_splits(template, rows):
            raw = _raw_scan(text)
            assert raw is not None, text
            assert raw[0] == template, text
            spans = _raw_spans(raw[1])
            assert [text[start:end] for start, end in spans] == constants, text
            assert raw[2] == bound, text

    @given(text=statement_texts)
    @settings(max_examples=300, deadline=None)
    def test_the_codec_splits_of_shaped_constants_are_vouched(self, text):
        try:
            template, constants = encode_sql(text)
        except ValueError:
            return
        vouched = vouched_splits(template, [constants])
        assert bool(vouched) == all(map(has_shape, constants)), (text, constants)


def has_shape(constant):
    """The shape rule, spelled out: ASCII digits, ASCII ``digits.digits``
    or a quoted run without quotes and control bytes."""
    if constant.isascii() and constant.isdigit():
        return True
    whole, dot, fraction = constant.partition(".")
    if dot and all(part.isascii() and part.isdigit() for part in (whole, fraction)):
        return True
    body = constant[1:-1]
    return (
        len(constant) >= 2
        and constant[0] == constant[-1] == "'"
        and "'" not in body
        and all(32 <= ord(char) != 127 for char in body)
    )
