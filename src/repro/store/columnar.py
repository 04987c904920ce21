"""The on-disk columnar log format (template dictionary + constant
vectors, chunk-compressed).

"Query Log Compression for Workload Analytics" observes that an SQL log
is a template dictionary plus per-record constant vectors: the number of
distinct statement *shapes* grows orders of magnitude slower than the
log, so storing each record as ``(template_id, constants...)`` removes
almost all of the redundancy before generic compression even starts.
This module is that representation on disk:

``<store>/``
  ``manifest.json``   format marker and version, record/chunk counts,
                      chunk sizes
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

**One template codec.**  A store template is the parse cache's *raw
key*: :func:`~repro.skeleton.cache._raw_scan` lifts string literals
(``'...'`` with ``''`` escapes) and standalone numbers out of the text
and puts ``"\\x03"`` where it lifted a number and ``"\\x04"`` where it
lifted a string; the constant vector is the exact token texts it lifted,
so splicing them back is the exact inverse.  Text the raw scan refuses
(it carries a control byte, which never occurs in real SQL) and
statements that are not text at all (``sql=None``, an integer) are
stored whole under the reserved template id ``-1``.  So
``read(write(log)) == log`` holds for any input whose field values JSON
can hold, however unparsable.  The parallel executor's shard buffers
(:func:`encode_shard`) use the same codec.

A chunk is read back either as records (:func:`read_chunk`) or as
:class:`StoreRow` tuples that keep each statement split into its
template text and constant vector (:func:`chunk_rows`); the parallel
executor cuts its shard buffers straight from the rows, because
:func:`encode_shard` wants exactly that split.

**Native bind.**  :func:`read_chunk` returns a :class:`StoreChunk`:
the chunk's records, whose texts are still spliced (the record, the
parse cache's text-memo probe, dedup and the output all need them), carrying
the rows' stored splits (:class:`StoredSplits`).  The streaming executor
takes them per chunk and the parse cache binds a row to its raw key's
verified entry without re-scanning its text
(:meth:`~repro.skeleton.cache.TemplateCache.fetch_raw`) — but only when
the *shape rule* below vouches for its split, because a store is
outside input and its template alone cannot vouch for its rows.

``templates.bin`` also carries one **witness** statement per template —
the first record text that interned it — and it is the one persistent
template dictionary of the parse engine: :func:`load_templates` hands
the witnesses to :meth:`repro.skeleton.cache.TemplateCache.preload`, so
re-cleaning a store starts with a warm parse cache.  Witnesses are
re-parsed on load, never trusted, so they affect speed only; a witness
list that is not a list of texts loads as empty (a cold start).

Every file is written atomically (temp file + ``os.replace``) and the
manifest is written **last**, so a directory with a manifest is always a
complete, readable store; a crashed writer leaves no manifest behind.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import zlib
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
from ..skeleton.cache import _raw_scan
from ..skeleton.interner import TemplateInterner

PathLike = Union[str, Path]

#: Format marker checked by the reader (and by ``open_log`` sniffing).
FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 2

#: Reserved template id for statements stored verbatim: text the raw
#: scan refuses and statements that are not text at all.
VERBATIM_TEMPLATE = -1

#: The slot bytes of a template: the raw scan's number and string
#: placeholders, which it never lets into a text it accepts.
_SLOT = re.compile("[\x03\x04]")

_CHUNK_COLUMNS = ("seq", "timestamp", "user", "ip", "session", "rows")


# ----------------------------------------------------------------------
# Text-level template codec


def encode_sql(sql: str) -> Tuple[str, List[str]]:
    """Split ``sql`` into its raw template and its constant vector.

    The template is the parse cache's raw key for ``sql`` (see
    :func:`~repro.skeleton.cache._raw_scan`) and the constants are the
    exact token texts the scan lifted, so :func:`decode_sql` restores
    the original text exactly.  Raises ``ValueError`` when ``sql`` is
    not a string or the raw scan refuses it — callers handle both cases
    with :data:`VERBATIM_TEMPLATE`.
    """
    if not isinstance(sql, str):
        raise ValueError(f"statement is {type(sql).__name__}, not text")
    raw = _raw_scan(sql)
    if raw is None:
        raise ValueError(
            "statement contains a control byte the raw scan refuses"
        )
    return raw[0], [sql[start:end] for start, end in raw[1]]


def _splice(parts: Sequence[str], constants: Sequence[str]) -> str:
    """Interleave a template split on its slots with its constants."""
    count = len(constants)
    if len(parts) != count + 1:
        raise ValueError(
            f"template has {len(parts) - 1} slots but {count} constants"
        )
    if not count:
        return parts[0]
    pieces: List[object] = [None] * (2 * count + 1)
    pieces[::2] = parts
    pieces[1::2] = constants
    return "".join(pieces)  # type: ignore[arg-type]


def decode_sql(template: str, constants: Sequence[str]) -> str:
    """Splice ``constants`` back into ``template`` (inverse of
    :func:`encode_sql`)."""
    return _splice(_SLOT.split(template), constants)


# ----------------------------------------------------------------------
# The shape rule: when a stored split may stand in for the raw scan
#
# A store is outside input, so a row's stored split only *claims* to be
# what ``_raw_scan`` makes of the row's spliced text, and its template
# alone cannot vouch for it: the scan may lift two constants differently
# in one context (under the template ``\x03.`` a stored ``1.2`` scans
# back as itself, but a stored ``1`` splices to the single literal
# ``1.``).  A split is trusted only when
#
# * every constant has one of three shapes (:data:`_SHAPE`): an ASCII
#   digit run; a digit run, ``.`` and a digit run; a quote, a run with
#   no quote or control byte, and a quote; and
# * a real raw scan of a row with the same template and the same shape
#   vector reproduced that row's own split.
#
# The scan regex tests character classes only and has no bounded
# repetition.  Its lookbehinds read only the character before a literal
# and the literal's own first character.  The character before is a
# template byte or the last character of the constant before it, and
# each of the three shapes fixes the class of a constant's first and
# last characters.  So two constants of one shape look alike to it in
# a fixed context: the one verified row vouches for every row of its
# ``(template, shape vector)`` pair.

#: The three constant shapes; ``lastindex`` names the shape and group 3
#: is a string's body (quote-free, so also its unquoted value).
_SHAPE = re.compile(r"([0-9]+)|([0-9]+\.[0-9]+)|'([^'\x00-\x1f\x7f]*)'")


class StoredSplits:
    """The stored split of every row of one chunk, and the shape rule
    that decides when a split may stand in for the raw scan.

    Holds the chunk's records as read and its own template-id and
    constant-vector columns (no per-row copies): the splits of one chunk
    live only while the streaming executor feeds it (see
    :meth:`StoreChunk.take_splits`).
    """

    __slots__ = ("_records", "_templates", "_ids", "_constants", "_verdicts")

    def __init__(
        self,
        records: Sequence[LogRecord],
        templates: Sequence[str],
        ids: Sequence[int],
        constants: Sequence[List[str]],
    ) -> None:
        self._records = records
        self._templates = templates
        self._ids = ids
        self._constants = constants
        #: ``(template id, shape vector)`` -> whether a real raw scan of
        #: a row with that pair reproduced the row's split.
        self._verdicts: Dict[Tuple[int, Tuple[int, ...]], bool] = {}

    def raw_split(
        self, position: int, record: LogRecord
    ) -> Optional[Tuple[str, List[Tuple[str, str]]]]:
        """``(raw key, constants)`` of ``record.sql`` as
        :func:`~repro.skeleton.cache._raw_scan` would give them, or
        ``None`` when the shape rule cannot vouch for the stored split —
        or ``record`` is not the row read at ``position`` (a chunk is a
        list its holder may reorder).

        The constants are converted here, at bind time, into the scan's
        ``(kind, value)`` pairs: a string's body holds no quote, so its
        value is the body itself.
        """
        records = self._records
        if position >= len(records) or records[position] is not record:
            return None
        template_id = self._ids[position]
        if template_id == VERBATIM_TEMPLATE:
            return None
        constants = self._constants[position]
        shapes = []
        bound = []
        match_shape = _SHAPE.fullmatch
        for constant in constants:
            match = match_shape(constant)
            if match is None:
                return None
            shape = match.lastindex
            shapes.append(shape)
            if shape == 3:
                bound.append(("string", match.group(3)))
            else:
                bound.append(("number", constant))
        template = self._templates[template_id]
        key = (template_id, tuple(shapes))
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                verdict = encode_sql(record.sql) == (template, constants)
            except ValueError:
                verdict = False
            self._verdicts[key] = verdict
        return (template, bound) if verdict else None


class StoreChunk(list):
    """One chunk's records, as :func:`read_chunk` returns them, carrying
    the rows' :class:`StoredSplits` for the streaming executor to hand
    to the parse cache
    (:meth:`~repro.skeleton.cache.TemplateCache.fetch_raw`)."""

    __slots__ = ("_splits",)

    def __init__(
        self, records: Iterable[LogRecord], splits: Optional[StoredSplits]
    ) -> None:
        super().__init__(records)
        self._splits = splits

    def take_splits(self) -> Optional[StoredSplits]:
        """Hand the splits over, once: the chunk keeps no reference, so
        they are freed with the feed that took them."""
        splits, self._splits = self._splits, None
        return splits


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


def _damaged(path: Path, detail: object) -> ValueError:
    """The error for a store file that cannot be read back: it names
    the file and the remedy."""
    return ValueError(
        f"{path} is damaged ({detail}); rebuild the store from its "
        "source log with `sqlog-clean convert LOG STORE`"
    )


def _load_compressed(path: Path) -> object:
    """Read one zlib(JSON) store file; a damaged one raises
    ``ValueError`` naming the file and the remedy."""
    try:
        return json.loads(zlib.decompress(path.read_bytes()).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise _damaged(path, exc) from exc


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
                # control bytes or non-text would not parse).
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
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} is a {FORMAT_NAME} store of version {version!r}, but "
            f"this reader reads version {FORMAT_VERSION} only; rebuild the "
            "store from its source log with `sqlog-clean convert LOG STORE`"
        )
    return data


def load_templates(path: PathLike) -> Tuple[List[str], List[str]]:
    """The store's template dictionary: ``(texts, witnesses)``.

    ``texts`` are the id-ordered templates the chunks refer to;
    ``witnesses`` are one first-seen statement text per template, for
    :meth:`repro.skeleton.cache.TemplateCache.preload` to warm-start a
    re-run over the store.  Witnesses only ever change speed, so a
    witness list that is not a list of texts loads as empty — a cold
    start, never a failed run.  The chunks cannot be read without the
    texts, so a file without a list of them raises the ``ValueError``
    of an undecodable one.
    """
    file = Path(path) / "templates.bin"
    payload = _load_compressed(file)
    texts = payload.get("texts") if isinstance(payload, dict) else None
    if not isinstance(texts, list) or not all(
        isinstance(text, str) for text in texts
    ):
        raise _damaged(file, "no list of template texts")
    witnesses = payload.get("witnesses")  # type: ignore[union-attr]
    if not isinstance(witnesses, list) or not all(
        isinstance(sql, str) for sql in witnesses
    ):
        witnesses = []
    return texts, witnesses


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


def _spliced_statements(
    templates: Sequence[Optional[str]], constants: Sequence[list]
) -> List[object]:
    """Each row's stored statement, from its template text (``None`` for
    a verbatim row) and constant vector; each template is split on its
    slots once, at its first row."""
    split: Dict[str, List[str]] = {}
    statements: List[object] = []
    append = statements.append
    for template, row_constants in zip(templates, constants):
        if template is None:
            append(row_constants[0])
            continue
        parts = split.get(template)
        if parts is None:
            parts = split[template] = _SLOT.split(template)
        append(_splice(parts, row_constants))
    return statements


class StoreRow(NamedTuple):
    """One stored record as its chunk columns hold it.

    The statement stays split: ``template`` is the store's template text
    (``None`` for a row stored verbatim, whose whole statement is
    ``constants[0]``) and ``constants`` its constant vector — exactly
    what :func:`encode_sql` made of the record's text, so
    :func:`encode_shard` packs a row without re-running the raw scan.  The
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
) -> StoreChunk:
    """Materialise one chunk of the store as records in file order.

    The returned :class:`StoreChunk` also carries the rows' stored splits,
    for the parse cache to bind without a raw scan.
    """
    columns = load_chunk_columns(path, index)
    records = tuple(
        map(
            LogRecord,
            columns["seq"],
            _spliced_statements(
                _template_texts(columns, templates), columns["constants"]
            ),
            columns["timestamp"],
            columns["user"],
            columns["ip"],
            columns["session"],
            columns["rows"],
        )
    )
    return StoreChunk(
        records,
        StoredSplits(records, templates, columns["template"], columns["constants"]),
    )


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
# Same template-dictionary idea as the on-disk store, but for IPC rather
# than persistence: one shard becomes eight parallel columns, pickled
# once.  Every ``str`` value of the shard goes through one shared dict,
# so pickle's memo ships each distinct template, user, ip, session and
# constant once and every later use as a back-reference.  Pickle keeps
# each field's type, so a record with an off-type field (``sql=None``,
# an integer statement, an int or NaN timestamp, rows beyond int64)
# rides the columns unchanged: such rows exist precisely so poisoned
# logs reach the workers' validate stage unmangled.  The buffer is
# process-local by design — it never leaves the run's own processes and
# is never persisted.

#: Column count of an encoded shard: seq, timestamp, user, ip, session,
#: rows, template text (``None`` for a verbatim row) and constant list.
_SHARD_COLUMNS = 8


def encode_shard(shard: Sequence[Union[LogRecord, StoreRow]]) -> bytes:
    """Pack one shard of records or store rows into a single buffer.

    A :class:`StoreRow` gives its stored split; a record gives what
    :func:`encode_sql` makes of its text (memoised per text), and a
    statement that is not text or that the raw scan refuses is stored
    verbatim, as ``None`` plus ``[sql]``.  So a store row packs to the
    same bytes as the record it stores.  :func:`decode_shard` is the
    exact inverse.
    """
    seqs: list = []
    timestamps: list = []
    users: list = []
    ips: list = []
    sessions: list = []
    rows_column: list = []
    templates: List[Optional[str]] = []
    constant_lists: List[list] = []
    # One object per distinct text, whichever field it came from; exact
    # ``str`` only, so ``1``, ``True`` and ``1.0`` never merge.
    shared: Dict[str, str] = {}
    share = shared.setdefault
    # Exact-text memo: logs repeat statement texts heavily, so most
    # records skip the raw scan entirely.
    splits: Dict[str, Tuple[Optional[str], List[str]]] = {}

    for item in shard:
        if type(item) is StoreRow:
            seq, timestamp, user, ip, session, rows, template, constants = item
        else:
            sql = item.sql
            seq, timestamp = item.seq, item.timestamp
            user, ip, session, rows = item.user, item.ip, item.session, item.rows
            split = splits.get(sql) if type(sql) is str else None
            if split is None:
                try:
                    split = splits[sql] = encode_sql(sql)
                except ValueError:
                    split = (None, [sql])
            template, constants = split
        seqs.append(seq)
        timestamps.append(timestamp)
        users.append(share(user, user) if type(user) is str else user)
        ips.append(share(ip, ip) if type(ip) is str else ip)
        sessions.append(
            share(session, session) if type(session) is str else session
        )
        rows_column.append(rows)
        templates.append(
            None if template is None else share(template, template)
        )
        constant_lists.append(
            [share(c, c) if type(c) is str else c for c in constants]
        )

    columns = (
        seqs,
        timestamps,
        users,
        ips,
        sessions,
        rows_column,
        templates,
        constant_lists,
    )
    return pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL)


def decode_shard(buffer) -> Iterator[LogRecord]:
    """Decode an :func:`encode_shard` buffer back into records, lazily.

    Accepts any buffer object (``bytes``, ``memoryview``).  All reads
    from the buffer happen *before* the first record is yielded, so a
    caller may drop the buffer as soon as this function returns and
    iterate at leisure.  Store rows come back as the records they store.
    Raises ``ValueError`` when ``buffer`` is not an encoded shard.  The
    buffer is a pickle: decode only what :func:`encode_shard` wrote in
    this run.
    """
    try:
        columns = pickle.loads(buffer)
    except (pickle.UnpicklingError, EOFError) as error:
        raise ValueError("not an encoded shard buffer") from error
    if not (
        type(columns) is tuple
        and len(columns) == _SHARD_COLUMNS
        and all(type(column) is list for column in columns)
        and len({len(column) for column in columns}) == 1
    ):
        raise ValueError("not an encoded shard buffer")
    seqs, timestamps, users, ips, sessions, rows, templates, constants = columns
    return map(
        LogRecord,
        seqs,
        _spliced_statements(templates, constants),
        timestamps,
        users,
        ips,
        sessions,
        rows,
    )
