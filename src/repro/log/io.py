"""Reading and writing query logs (CSV and JSON-lines).

The CSV layout mirrors the SkyServer SQL-log export the paper points to
(statement, timestamp, IP, session label, row count); JSONL is offered for
lossless round-trips of synthetic logs with ground truth kept elsewhere.

Since the :mod:`repro.store` input API landed, the one entry point for
*reading* any log file is :func:`repro.open_log` — it sniffs the format,
returns a streaming :class:`~repro.store.LogSource` and leaves
materialisation (``.read()``) to the caller; the row readers below are
its kernels.

Writers take an ``errors``-free path: they create missing parent
directories and write **atomically** (a temp file in the target directory
followed by ``os.replace``), so a crash mid-write can never leave a
truncated log behind — the same contract as the observability layer's
``JsonlSink`` and the checkpoint store.

Both row readers take an ``errors`` policy (:data:`repro.errors
.ERROR_POLICIES`): ``"strict"`` raises on the first malformed row (the
historical behaviour), ``"lenient"`` skips it, and ``"quarantine"``
skips it *and* records the raw line in the caller-supplied
:class:`~repro.errors.QuarantineChannel` — real log exports are full of
truncated lines, and dying on line 31 of 42 million is not an option.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Dict, Iterable, Iterator, Optional, Union

from ..errors import (
    UNREADABLE_RECORD,
    QuarantineChannel,
    validate_error_policy,
)
from .models import LogRecord

PathLike = Union[str, Path]

CSV_FIELDS = ("seq", "timestamp", "user", "ip", "session", "rows", "sql")


# ----------------------------------------------------------------------
# Record codecs — one canonical dict shape, shared by JSONL files, the
# checkpoint spill format and the columnar store's metadata columns.


def record_as_dict(record: LogRecord) -> Dict[str, object]:
    """The canonical JSON-ready rendering of one record (lossless)."""
    return {
        "seq": record.seq,
        "timestamp": record.timestamp,
        "user": record.user,
        "ip": record.ip,
        "session": record.session,
        "rows": record.rows,
        "sql": record.sql,
    }


def record_from_dict(data: Dict[str, object]) -> LogRecord:
    """Inverse of :func:`record_as_dict` (raises on malformed input)."""
    return LogRecord(
        seq=int(data["seq"]),  # type: ignore[arg-type]
        sql=data["sql"],  # type: ignore[arg-type]
        timestamp=float(data["timestamp"]),  # type: ignore[arg-type]
        user=data.get("user"),  # type: ignore[arg-type]
        ip=data.get("ip"),  # type: ignore[arg-type]
        session=data.get("session"),  # type: ignore[arg-type]
        rows=data.get("rows"),  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# Atomic file writing


def atomic_text_writer(path: PathLike, newline: Optional[str] = None):
    """Context manager: a UTF-8 text handle that lands on ``path`` only
    if the ``with`` block completes.

    The temp file lives in the target directory (so ``os.replace`` is an
    atomic same-filesystem rename); missing parent directories are
    created.  On an exception the temp file is removed and the previous
    file content — if any — survives untouched.
    """
    return _AtomicTextFile(Path(path), newline)


class _AtomicTextFile:
    def __init__(self, path: Path, newline: Optional[str]) -> None:
        self._path = path
        self._newline = newline
        self._handle: Optional[IO[str]] = None
        self._tmp_name: Optional[str] = None

    def __enter__(self) -> IO[str]:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd, self._tmp_name = tempfile.mkstemp(
            dir=str(self._path.parent), prefix=self._path.name + ".", suffix=".tmp"
        )
        self._handle = os.fdopen(
            fd, "w", encoding="utf-8", newline=self._newline
        )
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._handle is not None and self._tmp_name is not None
        self._handle.close()
        if exc_type is None:
            os.replace(self._tmp_name, self._path)
        else:
            try:
                os.unlink(self._tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def write_csv(log: Iterable[LogRecord], path: PathLike) -> None:
    """Write ``log`` to ``path`` as a UTF-8 CSV with header.

    Accepts any iterable of records (a :class:`QueryLog`, a list, a
    generator); missing parent directories are created and the file is
    written atomically.
    """
    with atomic_text_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for record in log:
            writer.writerow(
                [
                    record.seq,
                    repr(record.timestamp),
                    record.user or "",
                    record.ip or "",
                    record.session or "",
                    "" if record.rows is None else record.rows,
                    record.sql,
                ]
            )


def write_jsonl(log: Iterable[LogRecord], path: PathLike) -> None:
    """Write ``log`` as one JSON object per line (atomically, creating
    missing parent directories)."""
    with atomic_text_writer(path) as handle:
        for record in log:
            handle.write(json.dumps(record_as_dict(record), ensure_ascii=False))
            handle.write("\n")


# ----------------------------------------------------------------------
# Streaming row readers — the kernels behind CsvSource / JsonlSource.


def iter_csv_records(
    path: PathLike,
    *,
    errors: str = "strict",
    channel: Optional[QuarantineChannel] = None,
) -> Iterator[LogRecord]:
    """Yield the records of a CSV log one by one (file order).

    Raises immediately on a missing header column; malformed rows follow
    the ``errors`` policy.
    """
    validate_error_policy(errors)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(
                f"log CSV {path} is missing columns: {sorted(missing)}"
            )
        for row in reader:
            try:
                record = LogRecord(
                    seq=int(row["seq"]),
                    sql=row["sql"],
                    timestamp=float(row["timestamp"]),
                    user=row["user"] or None,
                    ip=row["ip"] or None,
                    session=row["session"] or None,
                    rows=int(row["rows"]) if row["rows"] else None,
                )
            except (TypeError, ValueError, KeyError) as exc:
                if errors == "strict":
                    raise ValueError(
                        f"{path}:{reader.line_num}: malformed row: {exc}"
                    ) from exc
                if errors == "quarantine" and channel is not None:
                    channel.add_raw(
                        str(row),
                        UNREADABLE_RECORD,
                        "io",
                        detail=f"{path}:{reader.line_num}: {exc}",
                    )
                continue
            yield record


def iter_jsonl_records(
    path: PathLike,
    *,
    errors: str = "strict",
    channel: Optional[QuarantineChannel] = None,
) -> Iterator[LogRecord]:
    """Yield the records of a JSONL log one by one (file order).

    ``errors`` / ``channel`` behave as in :func:`iter_csv_records`.
    """
    validate_error_policy(errors)
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_dict(json.loads(line))
            except (
                json.JSONDecodeError,
                TypeError,
                ValueError,
                KeyError,
            ) as exc:
                if errors == "strict":
                    kind = (
                        "invalid JSON"
                        if isinstance(exc, json.JSONDecodeError)
                        else "malformed line"
                    )
                    raise ValueError(
                        f"{path}:{line_number}: {kind}: {exc}"
                    ) from exc
                if errors == "quarantine" and channel is not None:
                    channel.add_raw(
                        line,
                        UNREADABLE_RECORD,
                        "io",
                        detail=f"{path}:{line_number}: {exc}",
                    )
                continue
            yield record
