"""Streaming variant of the cleaning pipeline.

The paper's log has 42 million statements; holding the parsed log in
memory (as :class:`~repro.pipeline.framework.CleaningPipeline` does) is
fine for samples but not for full-scale runs.  The streaming cleaner
processes records in time order with bounded state, as a thin feeder of
the framework's stage kernel (:mod:`repro.pipeline.framework`): it owns
how records are buffered, never what happens to one.

* **validate + parse** — each record gets the batch stages' own
  per-record verdicts, :func:`~repro.pipeline.framework.validate_record`
  and :func:`~repro.pipeline.framework.parse_one` (without the batch
  run's exact-text memo, which would grow with the stream), against a
  parse cache set up by
  :func:`~repro.pipeline.framework.open_parse_cache`; a columnar
  store's chunk (:class:`~repro.store.columnar.StoreChunk`) also hands
  over its rows' stored splits, which bind rows without a raw scan;
* **dedup** — a last-seen map keyed by (user, normalised statement),
  pruned of entries older than the threshold;
* **blocking** — per-user open blocks; a block closes when its user goes
  quiet for longer than the miner's ``block_gap`` (measured against the
  stream clock), when it reaches the execution config's
  ``max_block_queries``, or at end of stream;
* **detect + solve** — each closed block runs
  :func:`~repro.pipeline.framework.clean_block` (the same detect→solve
  stage code the batch pipeline composes) and its clean records are
  emitted;
* **counters** — :class:`~repro.pipeline.framework.StreamingStats`,
  booked on the ledger by :func:`~repro.pipeline.framework.book_stats`
  through the same field ↔ counter table parallel shards read back.

The result is record-for-record identical to the batch pipeline's clean
log whenever no block was force-closed by the size bound, because both
detectors and solver only ever look *within* a block.  Global analyses
that need the whole log (the pattern registry, SWS classification) are
out of scope here by design — they are downstream consumers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import QuarantineChannel
from ..log.dedup import normalize_statement_text
from ..log.models import LogRecord
from ..obs import Recorder
from ..patterns.models import Block, ParsedQuery
from ..skeleton.interner import TemplateInterner
from ..store.columnar import StoreChunk
from .config import PipelineConfig
from .framework import (
    StreamingStats,
    book_stats,
    clean_block,
    open_parse_cache,
    parse_one,
    parse_record,
    validate_record,
)


class StreamingCleaner:
    """Process a record stream with bounded memory.

    :param config: the same configuration the batch pipeline takes;
        ``config.sws`` is ignored (needs global state).  The force-close
        bound per open block comes from ``config.execution
        .max_block_queries`` — the memory ceiling is roughly ``open
        users × max_block_queries``.
    :param recorder: observability recorder; a fresh
        :class:`~repro.obs.Recorder` by default, so per-stage metrics
        are always collected (pass :data:`repro.obs.NULL` to opt out).
        Dedup/parse wall times are measured per record and credited in
        bulk; mine/detect/solve are booked per closed block by
        :func:`~repro.pipeline.framework.clean_block`.  Counters are
        flushed by :meth:`finish` (and :meth:`export_state`) — a
        partially consumed stream leaves the ledger behind by design.
    :param template_witnesses: witness statement texts to pre-warm the
        parse cache with (see
        :meth:`~repro.skeleton.cache.TemplateCache.preload`).
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        recorder: Optional[Recorder] = None,
        template_witnesses: Optional[Iterable[str]] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.recorder = Recorder() if recorder is None else recorder
        self.max_block_queries = self.config.execution.max_block_queries
        self.stats = StreamingStats()
        #: records set aside under the ``quarantine`` error policy.
        self.quarantine = QuarantineChannel()
        self._open: Dict[str, List[ParsedQuery]] = {}
        self._last_seen: Dict[Tuple[str, str], float] = {}
        self._last_prune = 0.0
        #: counters already flushed to the recorder (delta bookkeeping).
        self._flushed = StreamingStats()
        #: the parse cache — one per cleaner instance — and how many
        #: templates its preload admitted.
        self._parse_cache, self._dict_preloaded = open_parse_cache(
            self.config, template_witnesses
        )
        #: run-scoped template dictionary — one per cleaner instance,
        #: exactly like the parse cache above.
        self._interner = TemplateInterner()
        # Per-record hot-path state: config knobs hoisted to attributes
        # (a dataclass-field chain costs two attribute loads per record),
        # a running open-query total, and the earliest stream time at
        # which any open block could go idle — _flush_idle only scans the
        # open table when the clock actually passes that deadline.
        self._dedup_threshold = self.config.dedup_threshold
        self._block_gap = self.config.miner.block_gap
        self._open_count = 0
        self._oldest_open = float("inf")
        # Mirror baselines: a cleaner restored from a checkpoint starts
        # with a *fresh* parse cache, so the public stats mirror the
        # pre-restore totals plus this instance's own cache and preload
        # counters (see _flush_counters).
        self._base = StreamingStats()

    # ------------------------------------------------------------------
    # Stages

    def _is_duplicate(self, record: LogRecord) -> bool:
        threshold = self._dedup_threshold
        key = (record.user_key(), normalize_statement_text(record.sql))
        previous = self._last_seen.get(key)
        self._last_seen[key] = record.timestamp
        # The 0 <= guard matters for out-of-order streams: a record that
        # arrives *before* its last-seen twin (negative delta) is clock
        # skew, not a reload, and must not be swallowed as a duplicate.
        if previous is not None and 0 <= record.timestamp - previous <= threshold:
            return True
        # periodically prune entries that can never match again
        if record.timestamp - self._last_prune > max(threshold, 1.0) * 64:
            horizon = record.timestamp - threshold
            self._last_seen = {
                k: ts for k, ts in self._last_seen.items() if ts >= horizon
            }
            self._last_prune = record.timestamp
        return False

    def _close_block(self, user: str) -> List[LogRecord]:
        queries = self._open.pop(user, [])
        if not queries:
            return []
        self._open_count -= len(queries)
        self.stats.blocks_closed += 1
        block = Block(user=user, queries=tuple(queries))
        result = clean_block(block, self.config, self.recorder)
        self.stats.instances_detected += result.instances_detected
        self.stats.instances_solved += result.instances_solved
        return result.records

    def _flush_idle(self, now: float) -> Iterator[LogRecord]:
        """Close every block idle at stream time ``now``; remember the
        oldest last-activity timestamp among the blocks that stay open.

        ``_oldest_open`` lets :meth:`feed` skip this scan entirely
        until a record's timestamp could actually expire something.  It
        is a *lower bound* (appends to existing blocks don't raise it),
        so a stale value only causes a harmless extra scan — and the
        skip test uses the same ``now - last > gap`` expression as the
        close test here, so a skipped scan provably had nothing to do.
        """
        gap = self._block_gap
        oldest = float("inf")
        for user in list(self._open):
            queries = self._open[user]
            if not queries:
                continue
            last = queries[-1].timestamp
            if now - last > gap:
                yield from self._emit(self._close_block(user))
            elif last < oldest:
                oldest = last
        self._oldest_open = oldest

    def _emit(self, records: List[LogRecord]) -> Iterator[LogRecord]:
        # records_out is counted here, at the single emission point, so
        # the stats are correct whether a record left through feed() or
        # finish().
        self.stats.records_out += len(records)
        return iter(records)

    # ------------------------------------------------------------------
    # Driver

    def feed(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Consume a slice of the stream *without* ending it; yield the
        clean records of the blocks it closes.

        Open blocks stay open across calls — a chunk boundary is not a
        quiet period, so feeding a stream in arbitrary slices yields
        the same records as feeding it whole; :meth:`finish` performs
        the end-of-stream closes.  The slices must jointly be
        time-ordered, like the stream itself.  Emission order is
        block-close order; feed the output into a
        :class:`~repro.log.models.QueryLog` to restore global time order.
        """
        recorder = self.recorder
        timed = recorder.enabled
        clock = time.perf_counter
        validate_seconds = 0.0
        dedup_seconds = 0.0
        parse_seconds = 0.0
        stats = self.stats
        config = self.config
        policy = config.error_policy
        channel = self.quarantine
        cache = self._parse_cache
        interner = self._interner
        fold_variables = config.fold_variables
        strict_triple = config.strict_triple
        gap = self._block_gap
        max_block = self.max_block_queries
        # A store chunk hands its rows' stored splits to the parse
        # stage, which binds the rows they vouch for without a raw scan.
        splits = records.take_splits() if type(records) is StoreChunk else None
        for position, record in enumerate(records):
            stats.records_in += 1
            # Validation runs *before* the stream clock is consulted, so
            # a non-finite timestamp never pollutes idle-flush arithmetic.
            if timed:
                started = clock()
                valid = validate_record(record, policy, channel)
                after_validate = clock()
                validate_seconds += after_validate - started
            else:
                valid = validate_record(record, policy, channel)
            if not valid:
                stats.records_invalid += 1
                continue
            # Only scan the open-block table when this record's stream
            # time can actually expire the *oldest* open block — the
            # common case is a cheap subtraction instead of a full scan.
            if record.timestamp - self._oldest_open > gap:
                yield from self._flush_idle(record.timestamp)
                if timed:
                    # Block cleaning ran untimed in between (clean_block
                    # books its own spans); rebaseline the dedup timer.
                    after_validate = clock()

            duplicate = self._is_duplicate(record)
            if timed:
                after_dedup = clock()
                dedup_seconds += after_dedup - after_validate
            if duplicate:
                stats.duplicates_removed += 1
                continue
            # No exact-text memo: it would grow with the stream.
            parsed = parse_one(
                record,
                cache,
                None,
                interner,
                fold_variables,
                strict_triple,
                policy,
                channel,
                stats,
                None,
                None if splits is None else splits.raw_split(position, record),
            )
            if timed:
                parse_seconds += clock() - after_dedup
            if parsed is None:
                continue
            user = record.user_key()
            bucket = self._open.get(user)
            if bucket is None:
                bucket = self._open[user] = []
            bucket.append(parsed)
            self._open_count += 1
            if record.timestamp < self._oldest_open:
                self._oldest_open = record.timestamp
            if self._open_count > stats.max_open_queries:
                stats.max_open_queries = self._open_count
            if len(bucket) >= max_block:
                stats.blocks_force_closed += 1
                yield from self._emit(self._close_block(user))
        if timed:
            recorder.add_seconds("validate", validate_seconds, calls=1)
            recorder.add_seconds("dedup", dedup_seconds, calls=1)
            recorder.add_seconds("parse", parse_seconds, calls=1)

    def finish(self) -> Iterator[LogRecord]:
        """End the stream: close every open block and flush the
        counters."""
        for user in list(self._open):
            yield from self._emit(self._close_block(user))
        self._flush_counters()

    def _flush_counters(self) -> None:
        """Book the per-record counters accumulated since the last flush.

        Validate, dedup and parse happen per record here, so their
        counters are booked from :class:`StreamingStats` deltas
        (:func:`~repro.pipeline.framework.book_stats`); mine/detect/solve
        were already booked per closed block by
        :func:`~repro.pipeline.framework.clean_block`.
        """
        stats, base, cache = self.stats, self._base, self._parse_cache
        # The cache keeps the authoritative totals; mirror them into the
        # public stats so both views agree at every flush point.
        stats.parse_cache_hits = base.parse_cache_hits + cache.hits
        stats.parse_cache_misses = base.parse_cache_misses + cache.misses
        stats.parse_cache_evictions = base.parse_cache_evictions + cache.evictions
        stats.parse_materialised = base.parse_materialised + cache.materialised
        stats.parse_dict_preloaded = (
            base.parse_dict_preloaded + self._dict_preloaded
        )
        # Same mirroring for the interner's dictionary size.
        stats.interner_size = len(self._interner)
        if not self.recorder.enabled:
            return
        self.recorder.ensure_counters()
        book_stats(self.recorder, stats, since=self._flushed)
        self._flushed = replace(stats)

    # ------------------------------------------------------------------
    # Checkpointing (see :mod:`repro.store.checkpoint`)

    def export_state(self) -> Dict[str, object]:
        """Snapshot the cleaner's full mutable state as JSON-ready data.

        Call between :meth:`feed` slices.  Counters are flushed first,
        so a recorder serialised right after this call agrees with the
        snapshot.  Open blocks are stored as their *source records* —
        :meth:`restore_state` re-parses them, which is cheaper than
        serialising parsed ASTs and provably equivalent (parsing is
        deterministic).
        """
        from ..log.io import record_as_dict

        self._flush_counters()
        oldest = self._oldest_open
        return {
            "stats": dataclasses.asdict(self.stats),
            "flushed": dataclasses.asdict(self._flushed),
            "interner": list(self._interner.fingerprints()),
            "last_seen": [
                [user, text, timestamp]
                for (user, text), timestamp in self._last_seen.items()
            ],
            "last_prune": self._last_prune,
            "open": [
                [user, [record_as_dict(query.record) for query in queries]]
                for user, queries in self._open.items()
            ],
            "oldest_open": None if oldest == float("inf") else oldest,
            "cache_baseline": [
                self.stats.parse_cache_hits,
                self.stats.parse_cache_misses,
                self.stats.parse_cache_evictions,
                self.stats.parse_materialised,
            ],
            # Witness texts of the interned templates, so a resume
            # starts with the warm cache the dead run had earned.
            "template_dict_witnesses": self._parse_cache.dict_witnesses(),
            "quarantine": self.quarantine.to_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a freshly constructed cleaner from :meth:`export_state`.

        The interner is rebuilt first (its id order *is* its state), so
        re-parsing the open-block records reassigns exactly the interned
        ids the dead run had handed out.  The parse cache starts empty —
        its counter baselines carry the dead run's totals, keeping the
        ``hits + misses == parse.records_in`` conservation law additive
        across the restore.
        """
        from ..log.io import record_from_dict

        self.stats = StreamingStats(**state["stats"])  # type: ignore[arg-type]
        self._flushed = StreamingStats(**state["flushed"])  # type: ignore[arg-type]
        self._interner = TemplateInterner(state["interner"])  # type: ignore[arg-type]
        self._last_seen = {
            (user, text): timestamp
            for user, text, timestamp in state["last_seen"]  # type: ignore[union-attr]
        }
        self._last_prune = state["last_prune"]  # type: ignore[assignment]
        hits, misses, evictions, materialised = state["cache_baseline"]  # type: ignore[misc]
        # The restored stats already include the dead run's preload
        # total; rebase so this instance's own preloads stay additive.
        self._base = StreamingStats(
            parse_cache_hits=hits,
            parse_cache_misses=misses,
            parse_cache_evictions=evictions,
            parse_materialised=materialised,
            parse_dict_preloaded=self.stats.parse_dict_preloaded,
        )
        self.quarantine = QuarantineChannel.from_state(state["quarantine"])  # type: ignore[arg-type]
        _, self._dict_preloaded = open_parse_cache(
            self.config,
            state.get("template_dict_witnesses"),  # type: ignore[arg-type]
            self._parse_cache,
        )
        self._open = {}
        self._open_count = 0
        for user, record_dicts in state["open"]:  # type: ignore[union-attr]
            queries: List[ParsedQuery] = []
            for data in record_dicts:
                record = record_from_dict(data)
                # Cacheless, so the restore books no parse counters.
                parsed = parse_record(
                    record,
                    None,
                    fold_variables=self.config.fold_variables,
                    strict_triple=self.config.strict_triple,
                    interner=self._interner,
                )
                if type(parsed) is tuple:
                    raise ValueError(
                        "checkpoint is inconsistent: open-block record "
                        f"seq={record.seq} no longer parses"
                    )
                queries.append(parsed)
            self._open[user] = queries
            self._open_count += len(queries)
        oldest = state["oldest_open"]
        self._oldest_open = float("inf") if oldest is None else oldest  # type: ignore[assignment]

