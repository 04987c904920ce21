"""Adapter for the real SkyServer SQL-log export format.

The SDSS SkyServer publishes its SQL traffic (the log the paper analysed)
as CSV with, among others, the columns documented at
``skyserver.sdss.org/log/en/traffic/sql.asp``:

    yy, mm, dd, hh, mi, ss, seq, theTime, logID, clientIP, requestor,
    server, dbname, access, elapsed, busy, rows, statement, error,
    errorMessage

This reader maps such an export onto :class:`~repro.log.models.QueryLog`
so the cleaning framework runs on the genuine log unchanged:

* timestamp — from ``theTime`` (several datetime spellings accepted) or,
  if absent, assembled from the ``yy``-``ss`` parts;
* user — ``requestor`` when present, else ``clientIP`` (the SkyServer
  studies' notion of a user);
* ip — ``clientIP``; rows — ``rows``.

Column matching is case-insensitive and tolerant of extra columns, since
different SkyServer exports include different subsets.
"""

from __future__ import annotations

import csv
import datetime
from pathlib import Path
from typing import Dict, List, Optional, Union

from .models import LogRecord, QueryLog

PathLike = Union[str, Path]

#: Accepted datetime spellings for the ``theTime`` column.
_TIME_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%m/%d/%Y %I:%M:%S %p",
    "%m/%d/%Y %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
)


class SkyServerFormatError(ValueError):
    """The file does not look like a SkyServer SQL-log export."""


def _parse_the_time(value: str) -> Optional[float]:
    for fmt in _TIME_FORMATS:
        try:
            parsed = datetime.datetime.strptime(value.strip(), fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=datetime.timezone.utc).timestamp()
    return None


def _assemble_time(row: Dict[str, str]) -> Optional[float]:
    try:
        year = int(row["yy"])
        if year < 100:
            year += 2000
        parsed = datetime.datetime(
            year,
            int(row["mm"]),
            int(row["dd"]),
            int(row.get("hh", "0") or 0),
            int(row.get("mi", "0") or 0),
            int(float(row.get("ss", "0") or 0)),
        )
    except (KeyError, ValueError, OverflowError):
        # OverflowError: an infinite ``ss``, or a part too large for
        # datetime's C ints.
        return None
    return parsed.replace(tzinfo=datetime.timezone.utc).timestamp()


def read_skyserver_csv(path: PathLike) -> QueryLog:
    """Read a SkyServer SQL-log CSV export into a :class:`QueryLog`.

    :raises SkyServerFormatError: when no statement column or no usable
        time information is present.
    """
    records: List[LogRecord] = []
    with open(path, newline="", encoding="utf-8", errors="replace") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SkyServerFormatError(f"{path}: empty file")
        fields = {name.lower().strip(): name for name in reader.fieldnames}
        statement_key = fields.get("statement") or fields.get("sql")
        if statement_key is None:
            raise SkyServerFormatError(
                f"{path}: no 'statement' column (found {sorted(fields)})"
            )

        for index, raw_row in enumerate(reader):
            row = {
                name.lower().strip(): (value or "")
                for name, value in raw_row.items()
                if name is not None
            }
            sql = row.get(statement_key.lower().strip(), "").strip()
            if not sql:
                continue

            timestamp: Optional[float] = None
            if row.get("thetime"):
                timestamp = _parse_the_time(row["thetime"])
            if timestamp is None:
                timestamp = _assemble_time(row)
            if timestamp is None:
                raise SkyServerFormatError(
                    f"{path}: row {index + 2}: no usable time "
                    "(need 'theTime' or yy/mm/dd[/hh/mi/ss])"
                )

            ip = row.get("clientip") or None
            user = row.get("requestor") or ip
            rows_value: Optional[int] = None
            if row.get("rows"):
                try:
                    rows_value = int(float(row["rows"]))
                except (ValueError, OverflowError):  # junk, NaN or inf
                    rows_value = None
            session = row.get("logid") or None

            seq = index
            if row.get("seq"):
                try:
                    seq = int(row["seq"])
                except ValueError:
                    seq = index
            records.append(
                LogRecord(
                    seq=seq,
                    sql=sql,
                    timestamp=timestamp,
                    user=user,
                    ip=ip,
                    session=session,
                    rows=rows_value,
                )
            )
    return QueryLog(records)
