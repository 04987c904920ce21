"""The on-disk columnar log format (template dictionary + constant
vectors, chunk-compressed).

"Query Log Compression for Workload Analytics" observes that an SQL log
is a template dictionary plus per-record constant vectors: the number of
distinct statement *shapes* grows orders of magnitude slower than the
log, so storing each record as ``(template_id, constants...)`` removes
almost all of the redundancy before generic compression even starts.
This module is that representation on disk:

``<store>/``
  ``manifest.json``   format marker, record/chunk counts, chunk sizes
  ``templates.bin``   zlib(JSON) template dictionary — the id-ordered
                      template ``texts`` plus one first-seen *witness*
                      statement per template (see below)
  ``chunk-00000.bin`` zlib(JSON dict of per-record columns)
  ``chunk-00001.bin`` …

Each chunk holds up to ``chunk_records`` records in **file order** as
parallel columns — ``seq`` / ``timestamp`` / ``user`` / ``ip`` /
``session`` / ``rows`` / ``template`` (dictionary ids) / ``constants``
(one constant vector per record) — so a reader materialises one chunk at
a time and never the whole log.

**Templating is text-level and unconditionally lossless.**  The store
cannot reuse the lexer's canonical fingerprints (they normalise away the
original spelling), so it extracts string literals (``'...'`` with
``''`` escapes) and standalone numbers with a guarded regex, replaces
each with a ``"\\x00"`` marker, and splices them back verbatim on read.
A statement that itself contains the marker byte — which never occurs in
real SQL text — or that is not text at all (``sql=None``, an integer) is
stored whole under the reserved template id ``-1``.  The round trip is
the exact inverse of the extraction, so ``read(write(log)) == log`` holds
for any input whose field values JSON can hold, however unparsable.

A chunk is read back either as records (:func:`read_chunk`) or as
:class:`StoreRow` tuples that keep each statement split into its
template text and constant vector (:func:`chunk_rows`); the parallel
executor cuts its shard buffers straight from the rows, because
:func:`encode_shard` wants exactly that split.

Since parse engine v3 ``templates.bin`` additionally carries one
**witness** statement per template — the first record text that interned
it.  :func:`load_template_witnesses` hands these to the parse engine's
template-dictionary preload
(:meth:`repro.skeleton.cache.TemplateCache.preload`), so re-cleaning a
store the pipeline has seen before starts with a warm parse cache.
Witnesses are re-parsed on load, never trusted, so they affect speed
only; stores written before v3 simply yield no witnesses.

Every file is written atomically (temp file + ``os.replace``) and the
manifest is written **last**, so a directory with a manifest is always a
complete, readable store; a crashed writer leaves no manifest behind.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import struct
import tempfile
import zlib
from array import array
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..log.models import LogRecord
from ..skeleton.interner import TemplateInterner

PathLike = Union[str, Path]

#: Format marker checked by the reader (and by ``open_log`` sniffing).
FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 1

#: Placeholder spliced into templates where a constant was lifted out.
MARKER = "\x00"

#: Reserved template id for statements stored verbatim: text containing
#: the marker byte (the splice inverse would be ambiguous) and
#: statements that are not text at all.
VERBATIM_TEMPLATE = -1

#: One extraction pass: string literals first (so digits inside them are
#: never touched), then standalone numeric literals.  The lookbehind
#: keeps digits that are part of an identifier (``t1``, ``objID2``) or a
#: dotted name in the template.  Extraction quality only affects the
#: compression ratio — losslessness comes from the splice being the
#: exact inverse, not from what the regex matches.
_CONSTANT_RE = re.compile(
    r"'(?:[^']|'')*'"
    r"|(?<![\w.])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
)

_CHUNK_COLUMNS = ("seq", "timestamp", "user", "ip", "session", "rows")


# ----------------------------------------------------------------------
# Text-level template codec


def encode_sql(sql: str) -> Tuple[str, List[str]]:
    """Split ``sql`` into a marker template and its constant vector.

    ``decode_sql`` restores the original text exactly.  Raises
    ``ValueError`` when ``sql`` is not a string or contains the marker
    byte — callers handle both cases with :data:`VERBATIM_TEMPLATE`.
    """
    if not isinstance(sql, str):
        raise ValueError(f"statement is {type(sql).__name__}, not text")
    if MARKER in sql:
        raise ValueError("statement contains the template marker byte")
    constants: List[str] = []

    def lift(match: "re.Match[str]") -> str:
        constants.append(match.group(0))
        return MARKER

    return _CONSTANT_RE.sub(lift, sql), constants


def decode_sql(template: str, constants: Sequence[str]) -> str:
    """Splice ``constants`` back into ``template`` (inverse of
    :func:`encode_sql`)."""
    parts = template.split(MARKER)
    if len(parts) != len(constants) + 1:
        raise ValueError(
            f"template has {len(parts) - 1} slots but "
            f"{len(constants)} constants"
        )
    pieces = [parts[0]]
    for constant, part in zip(constants, parts[1:]):
        pieces.append(constant)
        pieces.append(part)
    return "".join(pieces)


# ----------------------------------------------------------------------
# Atomic binary files


def _write_bytes_atomic(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def _dump_compressed(path: Path, payload: object) -> None:
    raw = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    _write_bytes_atomic(path, zlib.compress(raw, 6))


def _load_compressed(path: Path) -> object:
    return json.loads(zlib.decompress(path.read_bytes()).decode("utf-8"))


def chunk_file_name(index: int) -> str:
    return f"chunk-{index:05d}.bin"


# ----------------------------------------------------------------------
# Writer


class ColumnarWriter:
    """Incremental store writer: append records, then :meth:`close`.

    Records are buffered up to ``chunk_records`` and flushed as one
    compressed chunk file; ``close`` writes the template dictionary and
    finally the manifest.  Until the manifest lands the directory is not
    a valid store, which is the crash-safety contract.
    """

    def __init__(self, path: PathLike, *, chunk_records: int = 8192) -> None:
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.path.mkdir(parents=True, exist_ok=True)
        self._templates = TemplateInterner()
        #: first-seen statement text per template id (the witness).
        self._witnesses: List[str] = []
        self._buffer: Dict[str, list] = {
            name: [] for name in _CHUNK_COLUMNS
        }
        self._buffer["template"] = []
        self._buffer["constants"] = []
        self._chunk_lengths: List[int] = []
        self._record_count = 0
        self._closed = False

    def append(self, record: LogRecord) -> None:
        buffer = self._buffer
        buffer["seq"].append(record.seq)
        buffer["timestamp"].append(record.timestamp)
        buffer["user"].append(record.user)
        buffer["ip"].append(record.ip)
        buffer["session"].append(record.session)
        buffer["rows"].append(record.rows)
        sql = record.sql
        try:
            template, constants = encode_sql(sql)
        except ValueError:
            buffer["template"].append(VERBATIM_TEMPLATE)
            buffer["constants"].append([sql])
        else:
            template_id = self._templates.intern(template)
            buffer["template"].append(template_id)
            buffer["constants"].append(constants)
            if template_id == len(self._witnesses):
                # First record of a new template: its verbatim text is
                # the template's witness (verbatim statements are skipped:
                # marker bytes or non-text would not parse).
                self._witnesses.append(sql)
        self._record_count += 1
        if len(buffer["seq"]) >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        size = len(self._buffer["seq"])
        if not size:
            return
        _dump_compressed(
            self.path / chunk_file_name(len(self._chunk_lengths)), self._buffer
        )
        self._chunk_lengths.append(size)
        for column in self._buffer.values():
            column.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_chunk()
        _dump_compressed(
            self.path / "templates.bin",
            {
                "texts": list(self._templates.fingerprints()),
                "witnesses": self._witnesses,
            },
        )
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "record_count": self._record_count,
            "chunk_records": self.chunk_records,
            "chunks": self._chunk_lengths,
            "template_count": len(self._templates),
        }
        _write_bytes_atomic(
            self.path / "manifest.json",
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
        self._closed = True

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


def write_columnar(
    records: Iterable[LogRecord],
    path: PathLike,
    *,
    chunk_records: int = 8192,
) -> None:
    """Write ``records`` (any iterable, file order preserved) as a
    columnar store directory at ``path``."""
    with ColumnarWriter(path, chunk_records=chunk_records) as writer:
        writer.extend(records)


# ----------------------------------------------------------------------
# Reader


def is_columnar_store(path: PathLike) -> bool:
    """``True`` when ``path`` is a directory holding a store manifest."""
    manifest = Path(path) / "manifest.json"
    if not manifest.is_file():
        return False
    try:
        data = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and data.get("format") == FORMAT_NAME


def read_manifest(path: PathLike) -> Dict[str, object]:
    """Load and validate the manifest of the store at ``path``."""
    manifest_path = Path(path) / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not a columnar store (no manifest.json)")
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    if data.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{path} is not a {FORMAT_NAME} store "
            f"(format={data.get('format')!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {FORMAT_NAME} version {data.get('version')!r}"
        )
    return data


def load_templates(path: PathLike) -> List[str]:
    """The store's template dictionary, id-ordered.

    Reads both layouts: the v3 ``{"texts", "witnesses"}`` dict and the
    original plain list (stores written before witnesses existed).
    """
    payload = _load_compressed(Path(path) / "templates.bin")
    if isinstance(payload, dict):
        return payload["texts"]  # type: ignore[return-value]
    return payload  # type: ignore[return-value]


def load_template_witnesses(path: PathLike) -> List[str]:
    """One first-seen witness statement text per store template.

    Feed these to
    :meth:`repro.skeleton.cache.TemplateCache.preload` to warm-start a
    re-run over the store.  Empty for stores written before parse
    engine v3 — the reader treats witnesses as an optional acceleration
    layer, never a requirement.
    """
    payload = _load_compressed(Path(path) / "templates.bin")
    if isinstance(payload, dict):
        witnesses = payload.get("witnesses", [])
        if isinstance(witnesses, list):
            return witnesses
    return []


def _stored_statement(template: Optional[str], constants: list) -> object:
    """The statement a row stores: its verbatim text, or its constants
    spliced back into its template text."""
    if template is None:
        return constants[0]
    return decode_sql(template, constants)


def _template_texts(
    columns: Dict[str, list], templates: Sequence[str]
) -> List[Optional[str]]:
    """Each row's template text, ``None`` for a verbatim row."""
    return [
        None if template_id == VERBATIM_TEMPLATE else templates[template_id]
        for template_id in columns["template"]
    ]


class StoreRow(NamedTuple):
    """One stored record as its chunk columns hold it.

    The statement stays split: ``template`` is the store's template text
    (``None`` for a row stored verbatim, whose whole statement is
    ``constants[0]``) and ``constants`` its constant vector — exactly
    what :func:`encode_sql` made of the record's text, so
    :func:`encode_shard` packs a row without re-running the regex.  The
    other fields are the record's own, whatever their type.
    """

    seq: int
    timestamp: float
    user: Optional[str]
    ip: Optional[str]
    session: Optional[str]
    rows: Optional[int]
    template: Optional[str]
    constants: List[str]

    #: the shard planner groups rows by the same key as records.
    user_key = LogRecord.user_key

    def record(self) -> LogRecord:
        """The row materialised as the record the writer was given."""
        seq, timestamp, user, ip, session, rows, template, constants = self
        sql = _stored_statement(template, constants)
        return LogRecord(seq, sql, timestamp, user, ip, session, rows)  # type: ignore[arg-type]


def load_chunk_columns(path: PathLike, index: int) -> Dict[str, list]:
    """One chunk's columns exactly as the writer stored them."""
    columns = _load_compressed(Path(path) / chunk_file_name(index))
    return columns  # type: ignore[return-value]


def chunk_rows(
    columns: Dict[str, list], templates: Sequence[str]
) -> List[StoreRow]:
    """A loaded chunk as :class:`StoreRow` tuples in file order."""
    return list(
        map(
            StoreRow,
            columns["seq"],
            columns["timestamp"],
            columns["user"],
            columns["ip"],
            columns["session"],
            columns["rows"],
            _template_texts(columns, templates),
            columns["constants"],
        )
    )


def read_chunk(
    path: PathLike, index: int, templates: Sequence[str]
) -> List[LogRecord]:
    """Materialise one chunk of the store as records in file order."""
    columns = load_chunk_columns(path, index)
    statements = map(
        _stored_statement,
        _template_texts(columns, templates),
        columns["constants"],
    )
    return list(
        map(
            LogRecord,
            columns["seq"],
            statements,
            columns["timestamp"],
            columns["user"],
            columns["ip"],
            columns["session"],
            columns["rows"],
        )
    )


def iter_columnar_chunks(
    path: PathLike, *, start_chunk: int = 0
) -> Iterator[List[LogRecord]]:
    """Stream the store chunk by chunk (bounded memory), optionally
    skipping the first ``start_chunk`` chunks without reading them."""
    manifest = read_manifest(path)
    templates: Optional[List[str]] = None
    for index in range(start_chunk, len(manifest["chunks"])):  # type: ignore[arg-type]
        if templates is None:
            templates = load_templates(path)
        yield read_chunk(path, index, templates)


def store_size_bytes(path: PathLike) -> int:
    """Total size of the store's data files (compression reporting)."""
    base = Path(path)
    total = 0
    for name in os.listdir(base):
        if name == "manifest.json" or name == "templates.bin" or (
            name.startswith("chunk-") and name.endswith(".bin")
        ):
            total += (base / name).stat().st_size
    return total


# ----------------------------------------------------------------------
# In-memory shard codec (the parallel executor's wire format)
#
# Same template-dictionary idea as the on-disk store, but tuned for IPC
# rather than persistence: one shard becomes ONE contiguous ``bytes``
# blob of packed numeric columns and concatenated UTF-8 string sections,
# shipped to a worker as a single pickle-5 bytes object (no per-record
# object overhead); ``decode_shard`` reconstructs the records lazily,
# straight into the parse fast path.  A shard is a sequence of records
# or of store rows, and both encode to the same bytes: a row already
# carries the template/constants split the records path computes.
#
# The format is process-local by design — native endianness, no
# versioned persistence contract beyond the magic/version check — and
# unconditionally lossless for *canonical* records (the field types
# ``LogRecord`` documents).  A record with any off-type field (sql=None,
# an integer sql, a non-float timestamp, an out-of-int64-range seq…)
# cannot ride the packed columns exactly, so it travels in a pickled
# "oddball" side list keyed by its position; such rows exist precisely
# so poisoned logs reach the workers' validate stage unmangled.

SHARD_MAGIC = b"RSH1"
SHARD_FORMAT_VERSION = 1

#: Section count of the shard blob (fixed layout, see ``encode_shard``).
_SHARD_SECTIONS = 20

_SHARD_HEADER = struct.Struct("<4sHqq")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _fits_columns(seq, timestamp, user, ip, session, rows) -> bool:
    """True when the non-statement fields fit the packed columns *exactly*.

    Deliberately ``type(...) is`` — not ``isinstance`` — so bools,
    ints-as-timestamps and other lossy coercions all take the pickled
    oddball path and round-trip bit for bit.
    """
    return (
        type(seq) is int
        and _INT64_MIN <= seq <= _INT64_MAX
        and type(timestamp) is float
        and (user is None or type(user) is str)
        and (ip is None or type(ip) is str)
        and (session is None or type(session) is str)
        and (
            rows is None
            or (type(rows) is int and _INT64_MIN <= rows <= _INT64_MAX)
        )
    )


class _StringDictColumn:
    """Dictionary-encoded optional-string column (user / ip / session)."""

    __slots__ = ("ids", "index", "parts")

    def __init__(self) -> None:
        self.ids = array("i")
        self.index: Dict[str, int] = {}
        self.parts: List[bytes] = []

    def add(self, value: Optional[str]) -> None:
        if value is None:
            self.ids.append(-1)
            return
        assigned = self.index.get(value)
        if assigned is None:
            assigned = len(self.parts)
            self.index[value] = assigned
            self.parts.append(value.encode("utf-8"))
        self.ids.append(assigned)

    def sections(self) -> List[bytes]:
        offsets = array("Q", [0])
        total = 0
        for part in self.parts:
            total += len(part)
            offsets.append(total)
        return [self.ids.tobytes(), offsets.tobytes(), b"".join(self.parts)]


def _decode_string_dict(
    ids_bytes: bytes, offsets_bytes: bytes, blob: bytes
) -> Tuple[array, List[Optional[str]]]:
    ids = array("i")
    ids.frombytes(ids_bytes)
    offsets = array("Q")
    offsets.frombytes(offsets_bytes)
    values = [
        blob[offsets[i]:offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]
    return ids, values


def encode_shard(shard: Sequence[Union[LogRecord, StoreRow]]) -> bytes:
    """Pack one shard of records or store rows into a single buffer.

    Layout: a fixed header (magic, version, total record count,
    canonical record count) followed by 20 length-prefixed sections —
    ``seq``/``timestamp``/``template-id`` int64/float64 columns, the
    per-record constant counts plus cumulative constant offsets and one
    concatenated constants blob, the shard-local template dictionary
    (offsets + blob, ids in first-seen order), three
    dictionary-encoded string columns (user/ip/session), a rows
    presence+value pair, and the pickled oddball side list.
    ``decode_shard`` is the exact inverse.

    A :class:`StoreRow` packs to the same bytes as the record it
    stores: its template text and constants are what
    :func:`encode_sql` makes of that record's statement, so only a
    record's text is split here.
    """
    seqs = array("q")
    timestamps = array("d")
    template_ids = array("q")
    constant_counts = array("I")
    constant_offsets = array("Q", [0])
    constant_parts: List[bytes] = []
    constant_total = 0
    template_index: Dict[str, int] = {}
    template_parts: List[bytes] = []
    users = _StringDictColumn()
    ips = _StringDictColumn()
    sessions = _StringDictColumn()
    rows_flags = bytearray()
    rows_values = array("q")
    oddballs: List[Tuple[int, LogRecord]] = []
    # Exact-text memo: logs repeat statement texts heavily, so most
    # records skip the constant-extraction regex entirely.
    memo: Dict[str, Tuple[Optional[str], List[str]]] = {}

    for position, item in enumerate(shard):
        if type(item) is StoreRow:
            seq, timestamp, user, ip, session, rows, template, constants = item
            # a verbatim row's statement may not be text at all
            if not (
                (template is not None or type(constants[0]) is str)
                and _fits_columns(seq, timestamp, user, ip, session, rows)
            ):
                oddballs.append((position, item.record()))
                continue
        else:
            sql = item.sql
            seq, timestamp = item.seq, item.timestamp
            user, ip, session, rows = item.user, item.ip, item.session, item.rows
            if not (
                type(item) is LogRecord
                and type(sql) is str
                and _fits_columns(seq, timestamp, user, ip, session, rows)
            ):
                oddballs.append((position, item))
                continue
            split = memo.get(sql)
            if split is None:
                try:
                    split = encode_sql(sql)
                except ValueError:
                    split = (None, [sql])
                memo[sql] = split
            template, constants = split
        if template is None:
            template_id = VERBATIM_TEMPLATE
        else:
            template_id = template_index.get(template)
            if template_id is None:
                template_id = len(template_parts)
                template_index[template] = template_id
                template_parts.append(template.encode("utf-8"))
        seqs.append(seq)
        timestamps.append(timestamp)
        template_ids.append(template_id)
        constant_counts.append(len(constants))
        for constant in constants:
            part = constant.encode("utf-8")
            constant_total += len(part)
            constant_offsets.append(constant_total)
            constant_parts.append(part)
        users.add(user)
        ips.add(ip)
        sessions.add(session)
        if rows is None:
            rows_flags.append(0)
            rows_values.append(0)
        else:
            rows_flags.append(1)
            rows_values.append(rows)

    template_offsets = array("Q", [0])
    template_total = 0
    for part in template_parts:
        template_total += len(part)
        template_offsets.append(template_total)

    sections = [
        seqs.tobytes(),
        timestamps.tobytes(),
        template_ids.tobytes(),
        constant_counts.tobytes(),
        constant_offsets.tobytes(),
        b"".join(constant_parts),
        template_offsets.tobytes(),
        b"".join(template_parts),
        *users.sections(),
        *ips.sections(),
        *sessions.sections(),
        bytes(rows_flags),
        rows_values.tobytes(),
        pickle.dumps(oddballs, protocol=pickle.HIGHEST_PROTOCOL),
    ]
    assert len(sections) == _SHARD_SECTIONS
    header = _SHARD_HEADER.pack(
        SHARD_MAGIC, SHARD_FORMAT_VERSION, len(shard), len(seqs)
    )
    lengths = struct.pack(
        "<%dq" % _SHARD_SECTIONS, *(len(section) for section in sections)
    )
    return b"".join([header, lengths, *sections])


def shard_record_count(buffer) -> int:
    """Total records in an encoded shard (header peek, no decode)."""
    view = memoryview(buffer)
    magic, version, total, _ = _SHARD_HEADER.unpack_from(view, 0)
    view.release()
    if magic != SHARD_MAGIC or version != SHARD_FORMAT_VERSION:
        raise ValueError("not an encoded shard buffer")
    return total


def decode_shard(buffer) -> Iterator[LogRecord]:
    """Decode an :func:`encode_shard` blob back into records, lazily.

    Accepts any buffer object (``bytes``, ``memoryview``).  All reads
    from the buffer happen *before* the first record is yielded, so a
    caller may drop the buffer as soon as this function returns and
    iterate at leisure.  Store rows come back as the records they store.
    """
    view = memoryview(buffer)
    try:
        magic, version, total, canonical = _SHARD_HEADER.unpack_from(view, 0)
        if magic != SHARD_MAGIC or version != SHARD_FORMAT_VERSION:
            raise ValueError("not an encoded shard buffer")
        offset = _SHARD_HEADER.size
        lengths = struct.unpack_from("<%dq" % _SHARD_SECTIONS, view, offset)
        offset += 8 * _SHARD_SECTIONS
        sections: List[bytes] = []
        for length in lengths:
            sections.append(bytes(view[offset:offset + length]))
            offset += length
    finally:
        view.release()

    seqs = array("q")
    seqs.frombytes(sections[0])
    timestamps = array("d")
    timestamps.frombytes(sections[1])
    template_ids = array("q")
    template_ids.frombytes(sections[2])
    constant_counts = array("I")
    constant_counts.frombytes(sections[3])
    constant_offsets = array("Q")
    constant_offsets.frombytes(sections[4])
    constant_blob = sections[5]
    template_offsets = array("Q")
    template_offsets.frombytes(sections[6])
    template_blob = sections[7]
    templates = [
        template_blob[
            template_offsets[i]:template_offsets[i + 1]
        ].decode("utf-8")
        for i in range(len(template_offsets) - 1)
    ]
    user_ids, user_dict = _decode_string_dict(*sections[8:11])
    ip_ids, ip_dict = _decode_string_dict(*sections[11:14])
    session_ids, session_dict = _decode_string_dict(*sections[14:17])
    rows_flags = sections[17]
    rows_values = array("q")
    rows_values.frombytes(sections[18])
    oddballs: List[Tuple[int, LogRecord]] = pickle.loads(sections[19])
    if len(seqs) != canonical:
        raise ValueError("corrupt shard buffer: column length mismatch")

    def generate() -> Iterator[LogRecord]:
        oddball_at = dict(oddballs)
        column = 0
        constant_base = 0
        for position in range(total):
            oddball = oddball_at.get(position)
            if oddball is not None:
                yield oddball
                continue
            template_id = template_ids[column]
            count = constant_counts[column]
            constants = [
                constant_blob[
                    constant_offsets[constant_base + j]:
                    constant_offsets[constant_base + j + 1]
                ].decode("utf-8")
                for j in range(count)
            ]
            constant_base += count
            if template_id == VERBATIM_TEMPLATE:
                sql = constants[0]
            else:
                sql = decode_sql(templates[template_id], constants)
            user_id = user_ids[column]
            ip_id = ip_ids[column]
            session_id = session_ids[column]
            yield LogRecord(
                seq=seqs[column],
                sql=sql,
                timestamp=timestamps[column],
                user=None if user_id < 0 else user_dict[user_id],
                ip=None if ip_id < 0 else ip_dict[ip_id],
                session=(
                    None if session_id < 0 else session_dict[session_id]
                ),
                rows=rows_values[column] if rows_flags[column] else None,
            )
            column += 1

    return generate()
