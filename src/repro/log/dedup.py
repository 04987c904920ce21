"""Duplicate deletion — the first processing step of the pipeline (Fig. 1).

Section 5.2: *duplicates are identical statements with a small difference
in time*, perceived as unintended errors (web-form reloads, application
retries).  Two identical statements from the same user stand for the same
information need when their time difference is below a threshold; the case
study (Table 4) finds one second catches almost all of them.

The removal keeps the *first* submission of a run of duplicates and counts
removals in :class:`DedupResult`, because a large number of removals may
itself indicate an application worth refactoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

from .models import LogRecord, QueryLog, record_order_key


def _in_log_order(
    log: Union[QueryLog, Iterable[LogRecord]]
) -> Iterable[LogRecord]:
    """``log`` in (timestamp, seq) order, sorting only when necessary.

    A :class:`QueryLog` is sorted by construction and is returned as-is
    (no copy).  Other iterables get a single-pass sortedness check over
    :func:`~repro.log.models.record_order_key` — one key computation per
    record, against the n·log(n) key *comparisons* plus full copy of an
    unconditional ``sorted()`` — and are sorted (into a new list; the
    caller's sequence is never mutated) only if actually out of order.
    """
    if isinstance(log, QueryLog):
        return log
    records = log if isinstance(log, (list, tuple)) else list(log)
    previous = None
    for record in records:
        key = record_order_key(record)
        if previous is not None and key < previous:
            return sorted(records, key=record_order_key)
        previous = key
    return records


def normalize_statement_text(sql: str) -> str:
    """Light textual normalisation used for duplicate *identity*.

    Identity is deliberately textual (not skeleton-based): a reload sends
    byte-identical SQL.  We only collapse whitespace so that logs that
    re-wrap long statements do not hide duplicates.

    A printable string's only whitespace is the ASCII space, so one
    with no doubled, leading or trailing space is already normal and
    comes back as itself, without the split and the join.
    """
    if (
        sql.isprintable()
        and "  " not in sql
        and not sql.startswith(" ")
        and not sql.endswith(" ")
    ):
        return sql
    return " ".join(sql.split())


@dataclass(frozen=True)
class DedupResult:
    """Outcome of one duplicate-removal pass.

    :param log: the pre-clean query log (duplicates removed).
    :param removed: how many records were dropped.
    :param threshold: the time threshold (seconds) that was applied;
        ``math.inf`` means unrestricted.
    """

    log: QueryLog
    removed: int
    threshold: float

    @property
    def kept(self) -> int:
        return len(self.log)


def delete_duplicates(
    log: Union[QueryLog, Iterable[LogRecord]], threshold: float = 1.0
) -> DedupResult:
    """Remove duplicate statements from ``log``.

    A record is a duplicate iff an identical statement (after whitespace
    normalisation) from the same user occurred at most ``threshold``
    seconds before it.  Every occurrence restarts the clock, removed
    ones included, so a slow steady stream of reloads each within
    ``threshold`` of the previously *seen* one collapses to its first
    statement however long it runs — matching the paper's "small
    difference in time" reading and keeping the pass O(n).

    The single-pass rule assumes per-user timestamps are non-decreasing;
    an out-of-order input (clock skew, raw merged shards passed as a
    plain list) would silently under-remove.  Out-of-order records are
    therefore stable-sorted into (timestamp, seq) order first — but only
    when actually needed: a :class:`QueryLog` is sorted by construction,
    and any other input gets a single sortedness pass before paying for
    ``sorted()``'s O(n log n) comparison work plus full copy (see
    :func:`_in_log_order`).

    :param threshold: seconds; use ``math.inf`` for the unrestricted
        variant of Table 4.
    :raises ValueError: if threshold is negative.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    last_seen: Dict[Tuple[str, str], float] = {}
    kept = []
    removed = 0
    for record in _in_log_order(log):
        key = (record.user_key(), normalize_statement_text(record.sql))
        previous = last_seen.get(key)
        if previous is not None and record.timestamp - previous <= threshold:
            removed += 1
            # The clock still moves: a long run of sub-threshold reloads
            # is one information need, however long the run is.
            last_seen[key] = record.timestamp
            continue
        last_seen[key] = record.timestamp
        kept.append(record)
    # ``_in_log_order`` hands the records over in log order, so the
    # kept ones are already in order.
    return DedupResult(
        log=QueryLog._in_order(kept), removed=removed, threshold=threshold
    )


def threshold_sweep(log: QueryLog, thresholds=(1.0, 2.0, 5.0, 10.0, math.inf)):
    """Reproduce Table 4: log size after dedup for several thresholds.

    Returns a list of ``(threshold, kept, percent_of_original)`` rows,
    prefixed with the original size row.
    """
    rows = [("original", len(log), 100.0)]
    original = len(log) or 1
    for threshold in thresholds:
        result = delete_duplicates(log, threshold)
        label = "non restricted" if math.isinf(threshold) else f"{threshold:g} sec"
        rows.append((label, result.kept, 100.0 * result.kept / original))
    return rows
