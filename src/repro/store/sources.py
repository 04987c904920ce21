"""The unified log-input API: :class:`LogSource` and :func:`open_log`.

Log input used to be fragmented — ``QueryLog.from_statements``,
``read_csv``, ``read_jsonl``, raw record lists — each with slightly
different ``errors=`` / ``channel=`` plumbing.  A :class:`LogSource` is
the one shape every consumer (``repro.clean``, the CLI, the checkpoint
layer) programs against:

* ``open_chunks()`` — iterate the log as bounded-size record chunks in
  **stable order**: two iterations of the same source yield identical
  chunk boundaries and contents, which is what makes checkpoint resume
  deterministic;
* ``count_hint()`` — the record count when cheaply known (sizing
  progress reports and shard plans), ``None`` otherwise;
* ``close()`` — release any held handles (all sources here open files
  per ``open_chunks`` call, so it is a no-op, but the protocol keeps the
  slot for sources that hold connections).

Adapters: :class:`InMemorySource` (a :class:`QueryLog` or record list),
:class:`CsvSource`, :class:`JsonlSource`, :class:`ColumnarSource`.
:func:`open_log` sniffs the on-disk format (``.csv`` / ``.jsonl`` /
columnar store directory) and returns the right adapter;
:func:`as_source` additionally accepts an in-memory log or an existing
source, and is how ``repro.clean`` resolves its ``log`` argument.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from . import columnar

from ..errors import QuarantineChannel, validate_error_policy
from ..log.io import iter_csv_records, iter_jsonl_records
from ..log.models import LogRecord, QueryLog
from .columnar import (
    StoreRow,
    chunk_file_name,
    chunk_rows,
    is_columnar_store,
    load_chunk_columns,
    load_templates,
    read_manifest,
)

PathLike = Union[str, Path]

#: Default records per chunk for row-oriented sources (the columnar
#: source uses the store's own chunking).
DEFAULT_CHUNK_RECORDS = 8192


class LogSource:
    """Base class / protocol of every log input.

    Subclasses implement :meth:`open_chunks` (and usually
    :meth:`count_hint` / :meth:`fingerprint`); everything else —
    :meth:`read`, iteration, context management — is derived.
    """

    def open_chunks(
        self, *, start_chunk: int = 0
    ) -> Iterator[Sequence[LogRecord]]:
        """Yield the log as record chunks in stable order.

        ``start_chunk`` skips that many leading chunks (the checkpoint
        layer's resume path); the default implementation of a subclass
        may simply discard them, sources with random access (the
        columnar store) seek instead.
        """
        raise NotImplementedError

    def count_hint(self) -> Optional[int]:
        """The record count when cheaply known, else ``None``."""
        return None

    def close(self) -> None:
        """Release held resources (no-op for file-per-iteration sources)."""

    def fingerprint(self) -> str:
        """Identity string stored in checkpoints: a resumed run refuses
        to continue when the source's fingerprint changed underneath it.
        File-backed sources include path, size and mtime; the in-memory
        source can only offer a weak length-based identity.  A source
        that chunks by ``chunk_records`` includes it too: a checkpoint
        counts finished *chunks*, so resuming under another chunk size
        would skip or repeat records."""
        hint = self.count_hint()
        return f"{type(self).__name__}:{hint if hint is not None else '?'}"

    def read(self) -> QueryLog:
        """Materialise the whole source as a :class:`QueryLog`."""
        records: List[LogRecord] = []
        for chunk in self.open_chunks():
            records.extend(chunk)
        return QueryLog(records)

    def __iter__(self) -> Iterator[LogRecord]:
        for chunk in self.open_chunks():
            yield from chunk

    def __enter__(self) -> "LogSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemorySource(LogSource):
    """A :class:`QueryLog` (or record sequence) served in chunks."""

    def __init__(
        self,
        log: Union[QueryLog, Sequence[LogRecord]],
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> None:
        self._records: Sequence[LogRecord] = (
            log.records() if isinstance(log, QueryLog) else list(log)
        )
        self.chunk_records = _validated_chunk_records(chunk_records)

    def open_chunks(
        self, *, start_chunk: int = 0
    ) -> Iterator[Sequence[LogRecord]]:
        records = self._records
        size = self.chunk_records
        for offset in range(start_chunk * size, len(records), size):
            yield records[offset : offset + size]

    def count_hint(self) -> Optional[int]:
        return len(self._records)

    def fingerprint(self) -> str:
        return f"inmemory:{len(self._records)}:{self.chunk_records}"


class _FileSource(LogSource):
    """Shared plumbing of the row-oriented file adapters."""

    format_name = "?"

    def __init__(
        self,
        path: PathLike,
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        errors: str = "strict",
        channel: Optional[QuarantineChannel] = None,
    ) -> None:
        self.path = Path(path)
        self.chunk_records = _validated_chunk_records(chunk_records)
        self.errors = validate_error_policy(errors)
        self.channel = channel

    def _iter_records(self) -> Iterator[LogRecord]:
        raise NotImplementedError

    def open_chunks(
        self, *, start_chunk: int = 0
    ) -> Iterator[Sequence[LogRecord]]:
        chunk: List[LogRecord] = []
        index = 0
        for record in self._iter_records():
            chunk.append(record)
            if len(chunk) >= self.chunk_records:
                if index >= start_chunk:
                    yield chunk
                index += 1
                chunk = []
        if chunk and index >= start_chunk:
            yield chunk

    def fingerprint(self) -> str:
        stat = self.path.stat()
        return (
            f"{self.format_name}:{self.path.resolve()}"
            f":{stat.st_size}:{stat.st_mtime_ns}:{self.chunk_records}"
        )


class CsvSource(_FileSource):
    """Chunked reader over a CSV log (see :data:`repro.log.io.CSV_FIELDS`)."""

    format_name = "csv"

    def _iter_records(self) -> Iterator[LogRecord]:
        return iter_csv_records(
            self.path, errors=self.errors, channel=self.channel
        )


class JsonlSource(_FileSource):
    """Chunked reader over a JSON-lines log."""

    format_name = "jsonl"

    def _iter_records(self) -> Iterator[LogRecord]:
        return iter_jsonl_records(
            self.path, errors=self.errors, channel=self.channel
        )


class ColumnarSource(LogSource):
    """Chunked reader over a columnar store directory.

    Chunk boundaries are the store's own chunks, so ``start_chunk``
    seeks — skipped chunks are never read or decompressed.  Each chunk
    of records (:meth:`open_chunks`) is a
    :class:`~repro.store.columnar.StoreChunk` that also carries its rows'
    stored splits, which the streaming executor binds in the parse
    cache without re-scanning their text.  The source also serves the
    stored rows with their statements still split (:meth:`rows`), which
    the parallel executor packs into shard buffers without rebuilding
    any text.

    :attr:`chunks_read` and :attr:`bytes_read` count the chunk files
    this source has read (compressed bytes on disk) over its lifetime;
    ``repro.clean`` books each run's share in its ledger.  The template
    dictionary (``templates.bin``) is read once per source: a store
    never changes once its manifest is written.
    """

    format_name = "columnar"

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._manifest = read_manifest(self.path)
        self._templates: Optional[Tuple[List[str], List[str]]] = None
        self.chunks_read = 0
        self.bytes_read = 0

    def _dictionary(self) -> Tuple[List[str], List[str]]:
        """The store's ``(texts, witnesses)`` (see
        :func:`~repro.store.columnar.load_templates`)."""
        if self._templates is None:
            self._templates = load_templates(self.path)
        return self._templates

    def _count_read(self, index: int) -> None:
        self.chunks_read += 1
        self.bytes_read += (self.path / chunk_file_name(index)).stat().st_size

    def open_chunks(
        self, *, start_chunk: int = 0
    ) -> Iterator[Sequence[LogRecord]]:
        texts = self._dictionary()[0]
        for index in range(start_chunk, self.chunk_count()):
            # Looked up on the module per call, so a wrapper installed
            # on ``columnar.read_chunk`` (the E29 tracer's) sees it.
            chunk = columnar.read_chunk(self.path, index, texts)
            self._count_read(index)
            yield chunk

    def rows(self) -> Iterator[StoreRow]:
        """Every stored row in file order, straight from the chunk
        columns (see :class:`~repro.store.columnar.StoreRow`)."""
        templates = self._dictionary()[0]
        for index in range(self.chunk_count()):
            columns = load_chunk_columns(self.path, index)
            self._count_read(index)
            yield from chunk_rows(columns, templates)

    def count_hint(self) -> Optional[int]:
        return int(self._manifest["record_count"])  # type: ignore[arg-type]

    def chunk_count(self) -> int:
        return len(self._manifest["chunks"])  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        stat = (self.path / "manifest.json").stat()
        return (
            f"columnar:{self.path.resolve()}"
            f":{self._manifest['record_count']}:{stat.st_mtime_ns}"
        )

    def template_witnesses(self) -> List[str]:
        """The store's template witness texts; empty when
        ``templates.bin`` is damaged or its witness list malformed."""
        try:
            return self._dictionary()[1]
        except (OSError, ValueError):
            # Witnesses are an acceleration layer, so they degrade to a
            # cold start; reading the chunks needs the dictionary's
            # texts, so the read itself raises the damage, naming the
            # file.
            return []


def _validated_chunk_records(chunk_records: int) -> int:
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    return chunk_records


# ----------------------------------------------------------------------
# Entry points


def sniff_format(path: PathLike) -> str:
    """The on-disk format of ``path``: ``csv`` / ``jsonl`` / ``columnar``.

    A directory holding a store manifest is columnar; files are sniffed
    by extension.  Raises ``ValueError`` when nothing matches.
    """
    target = Path(path)
    if target.is_dir():
        if is_columnar_store(target):
            return "columnar"
        raise ValueError(
            f"{path} is a directory but not a columnar store "
            "(no valid manifest.json)"
        )
    suffix = target.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".jsonl":
        return "jsonl"
    raise ValueError(
        f"cannot sniff the log format of {path}: expected a .csv or "
        ".jsonl file or a columnar store directory "
        "(pass format= explicitly)"
    )


def open_log(
    path: PathLike,
    *,
    format: Optional[str] = None,
    errors: str = "strict",
    channel: Optional[QuarantineChannel] = None,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> LogSource:
    """Open the log at ``path`` as a :class:`LogSource`.

    The single entry point for reading any on-disk log:
    ``open_log(path).read()`` materialises it, ``open_log(path)
    .open_chunks()`` streams it in bounded memory, and
    ``repro.clean(path)`` accepts the path (or the source) directly.

    :param format: ``"csv"`` / ``"jsonl"`` / ``"columnar"``; sniffed
        from the path when ``None``.
    :param errors: row-level error policy for the row-oriented formats
        (:data:`repro.errors.ERROR_POLICIES`); the columnar store has no
        malformed rows by construction.
    :param channel: quarantine channel receiving unreadable rows under
        ``errors="quarantine"``.
    :param chunk_records: records per chunk for the row-oriented
        formats (the columnar store streams its own chunks).
    """
    resolved = format or sniff_format(path)
    if resolved == "csv":
        return CsvSource(
            path, chunk_records=chunk_records, errors=errors, channel=channel
        )
    if resolved == "jsonl":
        return JsonlSource(
            path, chunk_records=chunk_records, errors=errors, channel=channel
        )
    if resolved == "columnar":
        return ColumnarSource(path)
    raise ValueError(
        f"unknown log format {resolved!r}; "
        "expected 'csv', 'jsonl' or 'columnar'"
    )


def as_source(
    log: Union[QueryLog, Sequence[LogRecord], PathLike, LogSource],
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    errors: str = "strict",
    channel: Optional[QuarantineChannel] = None,
) -> Tuple[LogSource, bool]:
    """Resolve any accepted log input to a source.

    Returns ``(source, owned)`` — ``owned`` is ``True`` when this call
    created the source (the caller should close it), ``False`` when the
    caller passed an existing :class:`LogSource` in (its lifecycle stays
    with whoever built it).
    """
    if isinstance(log, LogSource):
        return log, False
    if isinstance(log, (str, Path)):
        return (
            open_log(
                log,
                errors=errors,
                channel=channel,
                chunk_records=chunk_records,
            ),
            True,
        )
    return InMemorySource(log, chunk_records=chunk_records), True
