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
(:func:`encode_shard`) use the same codec and the same template ids.

A chunk is read back as records (:func:`read_chunk`), or as raw columns
(:func:`load_chunk_columns`) that the parallel executor cuts straight
into shards (:func:`group_rows`, :class:`StoreShard`), statements still
split, because the shard codec (:func:`encode_shard`) ships exactly
that split.

**Native bind.**  :func:`read_chunk` and :func:`decode_shard` return a
:class:`StoreChunk`: the records, whose texts are still spliced (the
record, the parse cache's text-memo probe, dedup and the output all need
them), carrying the rows' stored splits (:class:`StoredSplits`).  The
streaming executor takes them per chunk, a parallel worker per shard,
and the parse cache binds a row to its raw key's verified entry without
re-scanning its text
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
from collections import Counter
from itertools import accumulate, chain, count
from operator import itemgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
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

#: Every per-row column of a chunk: the record's own fields, then its
#: statement as a template id and a constant vector.
ROW_COLUMNS = (
    "seq",
    "timestamp",
    "user",
    "ip",
    "session",
    "rows",
    "template",
    "constants",
)


# ----------------------------------------------------------------------
# Text-level template codec


def encode_sql(sql: str) -> Tuple[str, List[str]]:
    """Split ``sql`` into its raw template and its constant vector.

    The template is the parse cache's raw key for ``sql`` (see
    :func:`~repro.skeleton.cache._raw_scan`) and the constants are the
    exact token texts the scan lifted (the odd parts of its split), so
    :func:`decode_sql` restores the original text exactly.  Raises
    ``ValueError`` when ``sql`` is not a string or the raw scan refuses
    it — callers handle both cases with :data:`VERBATIM_TEMPLATE`.
    """
    if not isinstance(sql, str):
        raise ValueError(f"statement is {type(sql).__name__}, not text")
    raw = _raw_scan(sql)
    if raw is None:
        raise ValueError(
            "statement contains a control byte the raw scan refuses"
        )
    return raw[0], raw[1][1::2]


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
    live only while the streaming executor feeds it, or a parallel
    worker parses its shard (see :meth:`StoreChunk.take_splits`).
    """

    __slots__ = (
        "_records",
        "_templates",
        "_ids",
        "_constants",
        "_verdicts",
        "_positions",
    )

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
        #: ``id(record)`` -> position, built by the first :meth:`split_of`.
        self._positions: Optional[Dict[int, int]] = None

    def split_of(
        self, record: LogRecord
    ) -> Optional[Tuple[str, List[Tuple[str, str]]]]:
        """:meth:`raw_split` of ``record``, found by identity among the
        rows: for a holder that re-orders and filters the records (a
        worker's validate, dedup and time order), ``None`` for a record
        that is not one of them."""
        positions = self._positions
        if positions is None:
            positions = self._positions = dict(
                zip(map(id, self._records), count())
            )
        position = positions.get(id(record))
        if position is None:
            return None
        return self.raw_split(position, record)

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
    """One chunk's or shard's records, as :func:`read_chunk` and
    :func:`decode_shard` return them, carrying the rows'
    :class:`StoredSplits` for the parse stage to hand to the parse cache
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
        self._buffer: Dict[str, list] = {name: [] for name in ROW_COLUMNS}
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


def _spliced_statements(
    templates: Sequence[str], ids: Sequence[int], constants: Sequence[list]
) -> List[object]:
    """Each row's stored statement, from its template id into
    ``templates`` and its constant vector (a verbatim row's statement is
    its one constant); each template is split on its slots once, at its
    first row."""
    split: Dict[int, List[str]] = {}
    statements: List[object] = []
    append = statements.append
    for template_id, row_constants in zip(ids, constants):
        if template_id == VERBATIM_TEMPLATE:
            append(row_constants[0])
            continue
        parts = split.get(template_id)
        if parts is None:
            parts = split[template_id] = _SLOT.split(templates[template_id])
        append(_splice(parts, row_constants))
    return statements


def _store_chunk(
    columns: Mapping[str, Sequence], templates: Sequence[str]
) -> StoreChunk:
    """Rows given as their :data:`ROW_COLUMNS`, as records in column
    order carrying their stored splits; the ``template`` column indexes
    ``templates``."""
    ids, constants = columns["template"], columns["constants"]
    records = tuple(
        map(
            LogRecord,
            columns["seq"],
            _spliced_statements(templates, ids, constants),
            columns["timestamp"],
            columns["user"],
            columns["ip"],
            columns["session"],
            columns["rows"],
        )
    )
    return StoreChunk(records, StoredSplits(records, templates, ids, constants))


def load_chunk_columns(path: PathLike, index: int) -> Dict[str, list]:
    """One chunk's columns exactly as the writer stored them (see
    :data:`ROW_COLUMNS`)."""
    columns = _load_compressed(Path(path) / chunk_file_name(index))
    return columns  # type: ignore[return-value]


def read_chunk(
    path: PathLike, index: int, templates: Sequence[str]
) -> StoreChunk:
    """Materialise one chunk of the store as records in file order.

    The returned :class:`StoreChunk` also carries the rows' stored splits,
    for the parse cache to bind without a raw scan.
    """
    return _store_chunk(load_chunk_columns(path, index), templates)


def group_rows(
    columns: Mapping[str, Sequence], keys: Sequence[int]
) -> Iterator[Tuple[int, Dict[str, tuple]]]:
    """The rows of one chunk grouped by ``keys`` (one key per row), in
    ascending key order: ``(key, columns of its rows)``, each group's
    rows in file order.

    One stable sort of the row positions, then one C-level gather
    (:func:`operator.itemgetter`) per column; each group is a slice of
    the gathered columns.  No row is ever built.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if not order:
        return
    if len(order) == 1:
        (position,) = order
        gather: Callable[[Sequence], tuple] = lambda column: (column[position],)
    else:
        gather = itemgetter(*order)
    gathered = [(name, gather(columns[name])) for name in ROW_COLUMNS]
    start = 0
    for key, size in sorted(Counter(keys).items()):
        end = start + size
        yield key, {name: column[start:end] for name, column in gathered}
        start = end


class StoreShard:
    """Rows of a store cut for one parallel shard, as columns.

    ``columns`` holds the :data:`ROW_COLUMNS` of the rows exactly as the
    chunks store them, template ids into ``templates`` (the store's
    dictionary) included: the parallel executor gathers them chunk by
    chunk (:func:`group_rows`), :func:`encode_shard` packs them without
    a raw scan, and :meth:`chunk` is what a worker decodes from that
    buffer.  It never holds a record or a statement text.
    """

    __slots__ = ("columns", "templates")

    def __init__(self, templates: Sequence[str]) -> None:
        self.templates = templates
        self.columns: Dict[str, list] = {name: [] for name in ROW_COLUMNS}

    def __len__(self) -> int:
        return len(self.columns["seq"])

    def extend(self, columns: Mapping[str, Sequence]) -> None:
        """Append rows given as columns (another shard's, or a group of
        :func:`group_rows`)."""
        for name, column in self.columns.items():
            column.extend(columns[name])

    def chunk(self) -> StoreChunk:
        """The rows as records carrying their stored splits (the decoded
        buffer, without the round trip)."""
        return _store_chunk(self.columns, self.templates)


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
# than persistence: one shard, from a store or from records, becomes one
# pickled tuple of columns (:data:`_SHARD_COLUMNS`).  Every ``str`` value
# of the shard goes through one shared dict, so pickle's memo ships each
# distinct template, user, ip, session and constant once and every later
# use as a back-reference; since only equal texts share an object, the
# bytes depend on the values alone, so a store's rows pack to the bytes
# of the records they store.  Pickle keeps each field's type, so a
# record with an off-type field (``sql=None``, an integer statement, an
# int or NaN timestamp, rows beyond int64) rides the columns unchanged:
# such rows exist precisely so poisoned logs reach the workers' validate
# stage unmangled.  The buffer is process-local by design — it never
# leaves the run's own processes and is never persisted.

#: Column count of an encoded shard: seq, timestamp, user, ip, session
#: and rows per record; the shard's template table (each template its
#: rows use, in first-use order); per record its template id into the
#: table (:data:`VERBATIM_TEMPLATE` for a verbatim row) and its constant
#: count; and every record's constants, concatenated.
_SHARD_COLUMNS = 10

#: Column types whose values are shared by text (``None`` shares with
#: itself); any other type keeps its own objects, so ``1``, ``True`` and
#: ``1.0`` never merge.
_SHARED_TYPES = frozenset((str, type(None)))


def _shared(values: list, share: Callable[[object, object], object]) -> list:
    """``values`` with each text replaced by the shard's one object for
    it (``share`` is the shard's ``dict.setdefault``)."""
    if _SHARED_TYPES.issuperset(map(type, values)):
        return list(map(share, values, values))
    return [share(value, value) if type(value) is str else value for value in values]


def _pack(columns: Mapping[str, Sequence], templates: Sequence[str]) -> bytes:
    """Pickle one shard given as its :data:`ROW_COLUMNS`; the
    ``template`` column indexes ``templates``."""
    shared: Dict[object, object] = {}
    share = shared.setdefault
    ids, constants = columns["template"], columns["constants"]
    used = [i for i in dict.fromkeys(ids) if i != VERBATIM_TEMPLATE]
    local = dict(zip(used, count()))
    local[VERBATIM_TEMPLATE] = VERBATIM_TEMPLATE
    packed = (
        columns["seq"],
        columns["timestamp"],
        _shared(columns["user"], share),
        _shared(columns["ip"], share),
        _shared(columns["session"], share),
        columns["rows"],
        _shared([templates[i] for i in used], share),
        list(map(local.__getitem__, ids)),
        list(map(len, constants)),
        _shared(list(chain.from_iterable(constants)), share),
    )
    return pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)


def encode_shard(shard: Union[Sequence[LogRecord], StoreShard]) -> bytes:
    """Pack one shard of records, or a :class:`StoreShard`, into a
    single buffer.

    A store shard gives its stored splits; a record gives what
    :func:`encode_sql` makes of its text (memoised per text), and a
    statement that is not text or that the raw scan refuses is stored
    verbatim.  So a store's rows pack to the same bytes as the records
    they store.  :func:`decode_shard` is the exact inverse.
    """
    if type(shard) is StoreShard:
        return _pack(shard.columns, shard.templates)
    columns: Dict[str, list] = {name: [] for name in ROW_COLUMNS}
    seqs, timestamps, users, ips, sessions, rows, ids, constants = (
        columns[name] for name in ROW_COLUMNS
    )
    templates: List[str] = []
    template_ids: Dict[str, int] = {}
    # Exact-text memo: logs repeat statement texts heavily, so most
    # records skip the raw scan entirely.
    splits: Dict[str, Tuple[int, List[str]]] = {}

    for record in shard:
        sql = record.sql
        split = splits.get(sql) if type(sql) is str else None
        if split is None:
            try:
                template, vector = encode_sql(sql)
            except ValueError:
                split = (VERBATIM_TEMPLATE, [sql])
            else:
                template_id = template_ids.get(template)
                if template_id is None:
                    template_id = template_ids[template] = len(templates)
                    templates.append(template)
                split = splits[sql] = (template_id, vector)
        seqs.append(record.seq)
        timestamps.append(record.timestamp)
        users.append(record.user)
        ips.append(record.ip)
        sessions.append(record.session)
        rows.append(record.rows)
        ids.append(split[0])
        constants.append(split[1])
    return _pack(columns, templates)


def decode_shard(buffer) -> StoreChunk:
    """Decode an :func:`encode_shard` buffer back into its records.

    Accepts any buffer object (``bytes``, ``memoryview``); the caller
    may drop the buffer as soon as this function returns.  The
    :class:`StoreChunk` carries the records' stored splits, for the
    worker's parse stage to bind without a raw scan.  Raises
    ``ValueError`` when ``buffer`` is not an encoded shard.  The buffer
    is a pickle: decode only what :func:`encode_shard` wrote in this
    run.
    """
    try:
        columns = pickle.loads(buffer)
    except (pickle.UnpicklingError, EOFError) as error:
        raise ValueError("not an encoded shard buffer") from error
    if not (
        type(columns) is tuple
        and len(columns) == _SHARD_COLUMNS
        and all(type(column) is list for column in columns)
    ):
        raise ValueError("not an encoded shard buffer")
    *fields, templates, ids, lengths, flat = columns
    ends = list(accumulate(lengths))
    if len({len(column) for column in (*fields, ids, lengths)}) != 1 or (
        ends[-1] if ends else 0
    ) != len(flat):
        raise ValueError("not an encoded shard buffer")
    constants = list(map(flat.__getitem__, map(slice, [0] + ends, ends)))
    return _store_chunk(
        dict(zip(ROW_COLUMNS, (*fields, ids, constants))), templates
    )
