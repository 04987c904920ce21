"""Query-log data model.

A :class:`QueryLog` is an ordered collection of :class:`LogRecord` — one
record per submitted statement.  The model mirrors the SkyServer SQL log
(see Section 6.1 of the paper): besides the statement and its timestamp it
optionally carries the user IP, a session label and the number of result
rows.  Only statement + timestamp are required (Section 6.8 shows the
framework works with that minimal input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: The user key of a record without user information (Section 4.1.1).
ANONYMOUS_USER = "<anonymous>"


@dataclass(frozen=True)
class LogRecord:
    """One log line.

    :param seq: position of the record in the original log (0-based).  It
        is the tiebreaker that keeps ordering stable for equal timestamps —
        patterns are *sequences*, so order matters (Section 6.8).
    :param sql: the statement text as submitted.
    :param timestamp: submission time, seconds since the epoch.
    :param user: user identity if the log has one (SkyServer: derived from
        IP + session).  ``None`` means unknown.
    :param ip: client IP, if logged.
    :param session: session label, if logged.
    :param rows: number of result rows reported by the server, if logged.
    """

    seq: int
    sql: str
    timestamp: float
    user: Optional[str] = None
    ip: Optional[str] = None
    session: Optional[str] = None
    rows: Optional[int] = None

    def user_key(self) -> str:
        """Grouping key for "same user" axioms.

        When the log carries no user information the paper assumes one
        user issued all queries (Section 4.1.1); we encode that as the
        single key ``"<anonymous>"``.
        """
        return self.user if self.user is not None else ANONYMOUS_USER

    def with_sql(self, sql: str) -> "LogRecord":
        """Copy of this record with the statement text replaced (used by
        the rewriter when an antipattern instance is solved in place)."""
        return replace(self, sql=sql)


def record_order_key(record: LogRecord) -> Tuple[int, float, int]:
    """The canonical (timestamp, seq) sort key, made NaN-safe.

    ``sorted`` with raw NaN timestamps silently mis-orders *neighbouring
    valid records* too (NaN compares false both ways, breaking Timsort's
    transitivity assumption).  Ranking NaN records after every finite
    one — deterministically, by seq — keeps the valid prefix perfectly
    ordered, so downstream validation can quarantine the tail without
    the garbage having scrambled the good records.
    """
    timestamp = record.timestamp
    if isinstance(timestamp, float) and math.isnan(timestamp):
        return (1, 0.0, record.seq)
    return (0, timestamp, record.seq)


class QueryLog:
    """An ordered, indexable query log.

    Records are kept in (timestamp, seq) order.  The class is deliberately
    a thin, immutable-ish container: the pipeline stages consume one log
    and produce a new one, so each intermediate artifact of Fig. 1
    (original / pre-clean / parsed / clean) is a separate ``QueryLog``.

    The constructor sorts (stably, by :func:`record_order_key`).  A stage
    whose output is an in-order subsequence of a log — records dropped,
    or statement texts replaced in place — builds it with
    :meth:`_in_order` instead, since sorting it again would return the
    same order.
    """

    def __init__(self, records: Iterable[LogRecord] = ()) -> None:
        self._records: List[LogRecord] = sorted(records, key=record_order_key)

    @classmethod
    def _in_order(cls, records: Iterable[LogRecord]) -> "QueryLog":
        """A log of ``records`` as given, unsorted: only for records that
        are an in-order subsequence of a ``QueryLog`` (texts may have been
        replaced; timestamps and seqs may not)."""
        log = cls.__new__(cls)
        log._records = list(records)
        return log

    # ------------------------------------------------------------------
    # Container protocol

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> LogRecord:
        return self._records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryLog):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryLog({len(self._records)} records)"

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def from_statements(
        cls,
        statements: Iterable[str],
        *,
        start_time: float = 0.0,
        spacing: float = 1.0,
        user: Optional[str] = None,
    ) -> "QueryLog":
        """Build a log from bare statement strings with synthetic,
        evenly spaced timestamps — convenient in tests and examples."""
        records = [
            LogRecord(
                seq=index,
                sql=sql,
                timestamp=start_time + index * spacing,
                user=user,
            )
            for index, sql in enumerate(statements)
        ]
        return cls(records)

    # ------------------------------------------------------------------
    # Views

    def records(self) -> List[LogRecord]:
        """The records as a list (a copy; the log stays unchanged)."""
        return list(self._records)

    def statements(self) -> List[str]:
        """Just the SQL texts, in log order."""
        return [record.sql for record in self._records]

    def by_user(self) -> Dict[str, List[LogRecord]]:
        """Records grouped by user key, each group in log order."""
        groups: Dict[str, List[LogRecord]] = {}
        for record in self._records:
            groups.setdefault(record.user_key(), []).append(record)
        return groups

    def distinct_users(self) -> int:
        """Number of distinct user keys in the log."""
        return len({record.user_key() for record in self._records})

    def time_span(self) -> Tuple[float, float]:
        """(first, last) timestamp; (0.0, 0.0) for an empty log."""
        if not self._records:
            return (0.0, 0.0)
        return (self._records[0].timestamp, self._records[-1].timestamp)

    # ------------------------------------------------------------------
    # Derivation

    def filter(self, keep: Callable[[LogRecord], bool]) -> "QueryLog":
        """New log with only the records satisfying ``keep``."""
        return QueryLog._in_order(
            record for record in self._records if keep(record)
        )

    def map_sql(self, fn: Callable[[LogRecord], str]) -> "QueryLog":
        """New log with every statement text passed through ``fn``."""
        return QueryLog._in_order(
            record.with_sql(fn(record)) for record in self._records
        )

    def without_metadata(self) -> "QueryLog":
        """Copy of the log stripped down to statements + timestamps —
        the reduced-information input of the Fig. 2(c) experiment."""
        return QueryLog(
            LogRecord(seq=record.seq, sql=record.sql, timestamp=record.timestamp)
            for record in self._records
        )
