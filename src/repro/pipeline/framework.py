"""The cleaning framework — Fig. 1's processing pipeline, end to end.

Stages (each producing an inspectable artifact, like the figure's boxes):

1. **Delete duplicates** (Section 5.2) → pre-clean query log.
2. **Parse statements** (Section 5.3) → parsed query log; syntax errors
   and non-SELECT statements are excluded and counted.
3. **Mine patterns** (Section 4.1) → blocks, pattern instances, registry
   with frequency / userPopularity.
4. **Detect antipatterns** (Section 4.2) → labelled instances; the
   registry rows are marked so Tables 6/7 can be ranked.
5. **Optionally scan for SWS** (Section 6.5).
6. **Solve antipatterns** (Section 5.5) → clean query log + statistics.

Each stage is a module-level function so that every execution path —
batch (:class:`CleaningPipeline`), streaming
(:class:`~repro.pipeline.streaming.StreamingCleaner`) and parallel
(:class:`~repro.pipeline.parallel.ParallelCleaner`) — composes the *same*
stage code and only differs in how it feeds records through them.  The
decisions all three share have one home each here: the parse-cache
set-up (:func:`open_parse_cache`), the per-record verdicts
(:func:`validate_record`, :func:`parse_one`), the stage chain
(:func:`run_stages`) and the :class:`StreamingStats` ↔ ledger table
(:data:`STATS_COUNTERS`).

:func:`CleaningPipeline.run` executes all of it; the intermediate results
live on the returned :class:`PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from ..antipatterns.base import run_detectors
from ..antipatterns.cth import CthCensusRow, cth_census
from ..antipatterns.types import CTH_CANDIDATE, AntipatternInstance
from ..errors import (
    NESTING_DEPTH,
    PARSE_ERROR,
    QuarantineChannel,
    RecordFailure,
    record_fault,
)
from ..log.dedup import DedupResult, delete_duplicates
from ..log.models import LogRecord, QueryLog
from ..obs import NULL, PipelineMetrics, Recorder
from ..patterns.miner import MiningResult, mine, segment_block
from ..patterns.models import Block, ParsedQuery
from ..patterns.registry import PatternRegistry
from ..patterns.sws import SwsReport, detect_sws
from ..rewrite.solver import SolveResult, remove, solve
from ..skeleton.cache import (
    LazyParsedQuery,
    TemplateCache,
    collector_paused,
    rebind_query,
)
from ..skeleton.interner import TemplateInterner
from ..sqlparser import SqlError, UnsupportedStatementError, parse
from .config import PipelineConfig
from .statistics import Overview, census_by_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.columnar import StoredSplits
    from .parallel import ParallelStats


@dataclass
class ParseStageResult:
    """Outcome of the parse stage (Section 5.3).

    ``quarantined`` is only populated under the ``quarantine`` error
    policy: the records that failed to parse and were routed into the
    run's :class:`~repro.errors.QuarantineChannel` instead of being
    counted as syntax errors.
    """

    queries: List[ParsedQuery] = field(default_factory=list)
    syntax_errors: List[Tuple[LogRecord, str]] = field(default_factory=list)
    non_select: List[LogRecord] = field(default_factory=list)
    quarantined: List[LogRecord] = field(default_factory=list)
    #: whether the parse input was a :class:`QueryLog`: ``queries`` are
    #: then its records' queries in its order.
    from_log: bool = field(default=False, repr=False, compare=False)

    @property
    def parsed_log(self) -> QueryLog:
        """The parsed query log as a plain log (SELECTs that parsed)."""
        records = (query.record for query in self.queries)
        if self.from_log:
            return QueryLog._in_order(records)
        return QueryLog(records)


@dataclass
class StreamingStats:
    """Counters of one run, kept record by record.

    The streaming executor keeps one for its whole run; each parallel
    shard reads one off its ledger (:func:`stats_from_ledger`) and the
    parent folds them; the batch parse stage tallies its verdicts in
    one.  :data:`STATS_COUNTERS` is the one correspondence between these
    fields and the ledger's counters.

    The ``parse_cache_*`` trio mirrors the run's
    :class:`~repro.skeleton.cache.TemplateCache` totals (all zero on
    the cacheless reference parse); streaming synchronises them from
    the cache whenever it flushes counters to the recorder.
    """

    records_in: int = 0
    records_out: int = 0
    records_invalid: int = 0
    duplicates_removed: int = 0
    syntax_errors: int = 0
    non_select: int = 0
    parse_quarantined: int = 0
    blocks_closed: int = 0
    blocks_force_closed: int = 0
    instances_detected: int = 0
    instances_solved: int = 0
    max_open_queries: int = 0
    parse_cache_hits: int = 0
    parse_cache_misses: int = 0
    parse_cache_evictions: int = 0
    #: queries emitted as lazy skeleton binds (parse-cache fast path).
    parse_lazy_hits: int = 0
    #: lazy queries a downstream consumer forced to materialise
    #: (mirrored from the cache's counter at every flush).
    parse_materialised: int = 0
    #: statements that went through the full parser (the cold path) —
    #: with a parse cache this equals ``parse_cache_misses``.
    parse_cold: int = 0
    #: templates admitted from a template dictionary (a columnar store's
    #: or a checkpoint's witnesses) before the first record.
    parse_dict_preloaded: int = 0
    #: distinct template fingerprints the run's interner assigned ids to
    #: (mirrored from the :class:`~repro.skeleton.interner
    #: .TemplateInterner` at every counter flush).
    interner_size: int = 0

    def merge(self, other: "StreamingStats") -> None:
        """Fold another run's counters into this one (sharded runs).

        Every field adds up.  ``max_open_queries`` too: concurrent
        shards are resident at the same time, so the sum is the honest
        peak estimate.  Like the cache counters, ``interner_size`` sums
        per-shard distinct counts (shards intern independently); the
        folded run-level dictionary lives in ``ParallelStats.interner``.
        """
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


#: ``StreamingStats`` field ↔ ``(stage, counter)`` of the run's ledger.
#: ``blocks_force_closed`` and ``max_open_queries`` describe how an
#: executor buffers the log, so no counter carries them.
STATS_COUNTERS = (
    ("records_in", "validate", "records_in"),
    ("records_invalid", "validate", "records_quarantined"),
    ("duplicates_removed", "dedup", "duplicates_removed"),
    ("syntax_errors", "parse", "syntax_errors"),
    ("non_select", "parse", "non_select"),
    ("parse_quarantined", "parse", "records_quarantined"),
    ("parse_lazy_hits", "parse", "parse_lazy_hits"),
    ("parse_cold", "parse", "parse_cold"),
    ("parse_cache_hits", "parse", "parse_cache_hits"),
    ("parse_cache_misses", "parse", "parse_cache_misses"),
    ("parse_cache_evictions", "parse", "parse_cache_evictions"),
    ("parse_materialised", "parse", "parse_materialised"),
    ("parse_dict_preloaded", "parse", "parse_dict_preloaded"),
    ("interner_size", "parse", "interner_size"),
    ("blocks_closed", "mine", "blocks"),
    ("instances_detected", "detect", "instances_detected"),
    ("instances_solved", "solve", "instances_solved"),
    ("records_out", "solve", "records_out"),
)

#: The stages an executor runs record by record.  The block stages
#: (mine, detect, solve) book their own counters in :func:`clean_block`.
RECORD_STAGES = ("validate", "dedup", "parse")


def book_stats(
    recorder: Recorder,
    stats: StreamingStats,
    since: Optional[StreamingStats] = None,
    stages: Sequence[str] = RECORD_STAGES,
) -> None:
    """Book what ``stats`` counted after the ``since`` snapshot as the
    ledger counters of ``stages``.

    Every :data:`STATS_COUNTERS` row is booked as counted; the stage
    hand-offs (what each stage passed on) follow from the conservation
    laws.
    """
    base = vars(since) if since is not None else {}
    delta = {name: value - base.get(name, 0) for name, value in vars(stats).items()}
    validated = delta["records_in"] - delta["records_invalid"]
    unique = validated - delta["duplicates_removed"]
    parsed = (
        unique
        - delta["syntax_errors"]
        - delta["non_select"]
        - delta["parse_quarantined"]
    )
    counters = [
        (stage, counter, delta[name]) for name, stage, counter in STATS_COUNTERS
    ]
    counters += [
        ("validate", "records_out", validated),
        ("dedup", "records_in", validated),
        ("dedup", "records_out", unique),
        ("parse", "records_in", unique),
        ("parse", "records_out", parsed),
        ("parse", "parse_eager", parsed - delta["parse_lazy_hits"]),
    ]
    for stage, counter, value in counters:
        if stage in stages:
            recorder.count(stage, counter, value)


def stats_from_ledger(metrics: PipelineMetrics) -> StreamingStats:
    """Read a run's :class:`StreamingStats` off its ledger — the inverse
    of :func:`book_stats` over :data:`STATS_COUNTERS`."""
    stats = StreamingStats()
    for name, stage, counter in STATS_COUNTERS:
        stage_metrics = metrics.stages.get(stage)
        if stage_metrics is not None:
            setattr(stats, name, stage_metrics.counters.get(counter, 0))
    return stats


def open_parse_cache(
    config: PipelineConfig,
    witnesses: Optional[Iterable[str]] = None,
    cache: Optional[TemplateCache] = None,
) -> Tuple[TemplateCache, int]:
    """A run's parse cache, preloaded: ``(cache, templates admitted)``.

    A given ``cache`` is preloaded in place (a restored streaming run
    warms the cache it already has); otherwise a fresh one is built.
    The preload re-parses ``witnesses`` (see
    :meth:`~repro.skeleton.cache.TemplateCache.preload`); ``None`` or
    an empty sequence preloads nothing.
    """
    if cache is None:
        cache = TemplateCache()
    if not witnesses:
        return cache, 0
    preloaded = cache.preload(
        witnesses,
        fold_variables=config.fold_variables,
        strict_triple=config.strict_triple,
    )
    return cache, preloaded


def validate_record(
    record: LogRecord,
    policy: str,
    channel: Optional[QuarantineChannel] = None,
) -> bool:
    """Stage 0's verdict on one record: ``True`` when it may go on.

    :func:`repro.errors.record_fault` finds what is wrong with it; the
    error ``policy`` decides what happens to a reject (see
    :func:`validate_stage`).
    """
    reason = record_fault(record)
    if reason is None:
        return True
    if policy == "strict":
        raise RecordFailure(record, reason, "validate")
    if policy == "quarantine" and channel is not None:
        channel.add(record, reason, "validate")
    return False


# ----------------------------------------------------------------------
# Stage functions — the shared kernel of all execution paths
#
# Every stage function takes an optional ``recorder``
# (:class:`~repro.obs.Recorder`); when given, the stage times itself as
# one span and books its counters (see ``repro.obs.STAGE_COUNTERS``), so
# that every executor composing these functions emits identical
# per-stage metrics.  Without a recorder the functions behave exactly as
# before — :data:`repro.obs.NULL` makes instrumentation a no-op.


def validate_stage(
    log: QueryLog,
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
    channel: Optional[QuarantineChannel] = None,
) -> QueryLog:
    """Stage 0: reject structurally unusable records.

    :func:`repro.errors.record_fault` is the shared verdict — a record
    with a non-finite timestamp or a non-string statement cannot be
    ordered or parsed, so no stage downstream of this one ever sees it.
    What happens to the rejects is the config's ``error_policy``:
    ``strict`` raises :class:`~repro.errors.RecordFailure`, ``lenient``
    drops and counts, ``quarantine`` also captures them in ``channel``.
    """
    recorder = recorder or NULL
    policy = config.error_policy
    with recorder.span("validate"):
        kept = [
            record for record in log if validate_record(record, policy, channel)
        ]
        dropped = len(log) - len(kept)
        if dropped == 0:
            result = log
        elif isinstance(log, QueryLog):
            result = QueryLog._in_order(kept)
        else:
            result = QueryLog(kept)
    recorder.count("validate", "records_in", len(kept) + dropped)
    recorder.count("validate", "records_out", len(kept))
    recorder.count("validate", "records_quarantined", dropped)
    return result


def dedup_stage(
    log: QueryLog,
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
) -> DedupResult:
    """Stage 1: delete duplicates (Section 5.2)."""
    recorder = recorder or NULL
    with recorder.span("dedup"):
        result = delete_duplicates(log, config.dedup_threshold)
    recorder.count("dedup", "records_in", len(log))
    recorder.count("dedup", "records_out", len(result.log))
    recorder.count("dedup", "duplicates_removed", result.removed)
    return result


def parse_record(
    record: LogRecord,
    cache: Optional[TemplateCache],
    *,
    fold_variables: bool,
    strict_triple: bool,
    interner: Optional[TemplateInterner],
) -> Union[ParsedQuery, Tuple[SqlError, str]]:
    """Full-parse one record: its prototype query, or ``(error, reason)``.

    The one place a statement reaches the parser, for every executor.
    With a cache this is the one-shot
    :meth:`~repro.skeleton.cache.TemplateCache.build` after a ``fetch``
    miss (which admits a success itself; a failure is stored here).
    Without one it is the plain ``parse`` +
    :meth:`~repro.patterns.models.ParsedQuery.from_statement`.  A
    :class:`~repro.sqlparser.errors.SqlError` — including
    :class:`~repro.sqlparser.errors.UnsupportedStatementError`, which
    callers classify as non-SELECT — becomes a
    :data:`~repro.errors.PARSE_ERROR` outcome; a ``RecursionError``
    (hundreds of nested conjuncts exceed the tree walkers' depth)
    becomes :data:`~repro.errors.NESTING_DEPTH`.
    """
    try:
        if cache is not None:
            return cache.build(
                record,
                fold_variables=fold_variables,
                strict_triple=strict_triple,
                interner=interner,
            )
        return ParsedQuery.from_statement(
            record,
            parse(record.sql),
            fold_variables=fold_variables,
            strict_triple=strict_triple,
            interner=interner,
        )
    except SqlError as error:
        # The failure outlives this call (the cache keeps it), so it must
        # not keep its traceback: those frames would pin the callers'
        # locals, a streamed chunk among them.
        failure = (error.with_traceback(None), PARSE_ERROR)
    except RecursionError:
        failure = (
            SqlError("statement exceeds supported nesting depth"),
            NESTING_DEPTH,
        )
    if cache is not None:
        cache.store(record.sql, failure)
    return failure


def parse_one(
    record: LogRecord,
    cache: Optional[TemplateCache],
    memo: Optional[dict],
    interner: TemplateInterner,
    fold_variables: bool,
    strict_triple: bool,
    policy: str,
    channel: Optional[QuarantineChannel],
    tally: StreamingStats,
    rejects: Optional[ParseStageResult] = None,
    split: Optional[Tuple[str, List[Tuple[str, str]]]] = None,
) -> Optional[ParsedQuery]:
    """The parse stage's verdict on one record: its query, or ``None``.

    A repeat is served by ``cache`` or, without one, by the exact-text
    ``memo`` (``None`` for no memo: streaming stays bounded); anything
    else goes through :func:`parse_record`.  ``split``, when given, is
    the raw scan of ``record.sql`` a store vouched for
    (:meth:`~repro.store.columnar.StoredSplits.raw_split`): the cache
    binds the record by it without scanning the text
    (:meth:`~repro.skeleton.cache.TemplateCache.fetch_raw`).  A failure
    is a non-SELECT, a record set aside in ``channel`` under the
    ``quarantine`` policy, or a syntax error.  A query is bound to
    ``record`` with its id from ``interner``, verified even on a cache
    hit (a prewarmed cache may carry another run's ids).

    ``tally`` counts the verdicts (``parse_cold``, ``parse_lazy_hits``,
    ``non_select``, ``parse_quarantined``, ``syntax_errors``);
    ``rejects``, when given, also keeps the rejected records.
    """
    if cache is not None:
        if split is None:
            cached = cache.fetch(record)
        else:
            cached = cache.fetch_raw(record, *split)
    elif memo is not None:
        cached = memo.get(record.sql)
    else:
        cached = None
    if cached is None:
        tally.parse_cold += 1
        cached = parse_record(
            record,
            cache,
            fold_variables=fold_variables,
            strict_triple=strict_triple,
            interner=interner,
        )
        if memo is not None:
            memo[record.sql] = cached
    if type(cached) is tuple:
        error, reason = cached
        if isinstance(error, UnsupportedStatementError):
            tally.non_select += 1
            if rejects is not None:
                rejects.non_select.append(record)
        elif policy == "quarantine":
            tally.parse_quarantined += 1
            if rejects is not None:
                rejects.quarantined.append(record)
            if channel is not None:
                channel.add(record, reason, "parse", detail=str(error))
        else:
            tally.syntax_errors += 1
            if rejects is not None:
                rejects.syntax_errors.append((record, str(error)))
        return None
    query = rebind_query(cached, record, interner.intern(cached.template_id))
    if type(query) is LazyParsedQuery:
        tally.parse_lazy_hits += 1
    return query


def parse_log(
    log: Iterable[LogRecord],
    *,
    fold_variables: bool = False,
    strict_triple: bool = False,
    recorder: Optional[Recorder] = None,
    policy: str = "strict",
    channel: Optional[QuarantineChannel] = None,
    cache: Optional[TemplateCache] = None,
    interner: Optional[TemplateInterner] = None,
    splits: Optional["StoredSplits"] = None,
) -> ParseStageResult:
    """Parse every statement; classify failures (Fig. 1's parse stage).

    Real logs repeat statement texts heavily (the whole premise of the
    paper), so parsing and feature extraction are cached per distinct
    statement text: a repeated statement reuses the immutable AST,
    template and clause features and only swaps in its own log record.

    With a :class:`~repro.skeleton.cache.TemplateCache` the reuse goes
    further: statements that differ *only in constants* bind to the
    cached template of their fingerprint class, skipping the parser
    entirely (the fast path).  The cache object may outlive this call
    (streaming feeds one record at a time); a given cache must only
    ever serve one ``(fold_variables, strict_triple)`` combination,
    which holds because every caller derives both from a single config.
    Without one — the cacheless reference parse every executor's
    cached run is tested against — a per-run dict keyed by exact text
    is used.  Either way each record's verdict is :func:`parse_one`'s,
    the same per-record kernel the streaming executor runs.

    Parse failures are part of the paper's accounting, not exceptions:
    under ``strict`` and ``lenient`` they keep the classic
    counted-as-``syntax_errors`` treatment (Section 5.3).  Under
    ``quarantine`` they are booked as ``records_quarantined`` and routed
    into ``channel`` with a :data:`~repro.errors.PARSE_ERROR` or
    :data:`~repro.errors.NESTING_DEPTH` reason instead.

    Every emitted query carries the run-scoped ``interned_id`` of its
    template fingerprint, assigned by ``interner`` (one is created for
    this call when the caller has none).  Each record's id is verified
    against the interner even on a cache hit — a prewarmed or pickled
    :class:`~repro.skeleton.cache.TemplateCache` may carry ids from a
    *previous* run's interner, which must never leak into this one.

    Cache hits that bind to an interned skeleton emit
    :class:`~repro.skeleton.cache.LazyParsedQuery` objects that defer
    the splice and the AST until a downstream consumer actually touches
    them; the count of lazy emissions is booked as ``parse_lazy_hits``
    (with ``parse_eager`` its complement — cold-built prototypes and
    the text memo's repeats — so ``parse_lazy_hits + parse_eager ==
    records_out`` is a ledger law).

    Every statement that reaches the full parser is booked as
    ``parse_cold``, so with a cache in play ``parse_cold ==
    parse_cache_misses`` is another ledger law.

    ``splits``, when given, are the stored splits of the records ``log``
    was cut from (a decoded shard's,
    :class:`~repro.store.columnar.StoredSplits`): each record's split is
    looked up by identity, and the cache binds the record by it where
    the store's shape rule vouches for it.
    """
    recorder = recorder or NULL
    result = ParseStageResult(from_log=isinstance(log, QueryLog))
    if interner is None:
        interner = TemplateInterner()
    base_interned = len(interner)
    if cache is not None:
        base_hits = cache.hits
        base_misses = cache.misses
        base_evictions = cache.evictions
    tally = StreamingStats()
    with recorder.span("parse"):
        #: sql text -> prototype ParsedQuery, or an (error, reason) pair
        #: (only consulted when no TemplateCache was provided).
        memo = {} if cache is None else None
        append_query = result.queries.append
        # Two loops, so that a run without splits pays nothing for them.
        if splits is None:
            for record in log:
                query = parse_one(
                    record,
                    cache,
                    memo,
                    interner,
                    fold_variables,
                    strict_triple,
                    policy,
                    channel,
                    tally,
                    result,
                )
                if query is not None:
                    append_query(query)
        else:
            split_of = splits.split_of
            for record in log:
                query = parse_one(
                    record,
                    cache,
                    memo,
                    interner,
                    fold_variables,
                    strict_triple,
                    policy,
                    channel,
                    tally,
                    result,
                    split_of(record),
                )
                if query is not None:
                    append_query(query)
    # The tally starts at this stage: its input is the parse input.
    tally.records_in = (
        len(result.queries)
        + tally.syntax_errors
        + tally.non_select
        + tally.parse_quarantined
    )
    tally.interner_size = len(interner) - base_interned
    if cache is not None:
        tally.parse_cache_hits = cache.hits - base_hits
        tally.parse_cache_misses = cache.misses - base_misses
        tally.parse_cache_evictions = cache.evictions - base_evictions
    book_stats(recorder, tally, stages=("parse",))
    return result


def parse_stage(
    log: Iterable[LogRecord],
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
    channel: Optional[QuarantineChannel] = None,
    cache: Optional[TemplateCache] = None,
    interner: Optional[TemplateInterner] = None,
    splits: Optional["StoredSplits"] = None,
) -> ParseStageResult:
    """Stage 2: :func:`parse_log` with the config's parsing knobs.

    Executors pass their own ``cache`` (see :func:`open_parse_cache`):
    one per batch run, one per streaming instance, and one persistent
    cache per parallel worker process (``_process_parse_cache``).
    ``None`` runs the cacheless reference parse.  The ``interner``
    travels the same way (created by :func:`parse_log` itself when
    absent), and so do a parallel shard's stored ``splits``.
    """
    return parse_log(
        log,
        fold_variables=config.fold_variables,
        strict_triple=config.strict_triple,
        recorder=recorder,
        policy=config.error_policy,
        channel=channel,
        cache=cache,
        interner=interner,
        splits=splits,
    )


def mine_stage(
    queries: Sequence[ParsedQuery],
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
) -> MiningResult:
    """Stage 3: blocking + periodic segmentation (Section 4.1)."""
    recorder = recorder or NULL
    with recorder.span("mine"):
        result = mine(queries, config.miner)
    recorder.count("mine", "queries_in", len(queries))
    recorder.count("mine", "blocks", len(result.blocks))
    recorder.count("mine", "pattern_instances", result.instance_count)
    recorder.count("mine", "periodic_runs", len(result.runs))
    return result


def detect_stage(
    blocks: Sequence[Block],
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
) -> List[AntipatternInstance]:
    """Stage 4: run the configured detector set over ``blocks``."""
    recorder = recorder or NULL
    with recorder.span("detect"):
        instances = run_detectors(blocks, config.detection, config.detectors)
    recorder.count("detect", "blocks_in", len(blocks))
    recorder.count("detect", "instances_detected", len(instances))
    if recorder.enabled:
        for instance in instances:
            recorder.count_label("detect", "antipatterns", instance.label)
    return instances


def registry_stage(
    mining: MiningResult,
    antipatterns: Sequence[AntipatternInstance],
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
) -> Tuple[PatternRegistry, Optional[SwsReport]]:
    """Build the global pattern registry, mark antipatterns, scan SWS.

    This is the only stage that needs the *whole* log's mining output —
    frequency, userPopularity and SWS are global statistics — which is
    why the streaming and parallel paths skip it (their reports say so).
    """
    recorder = recorder or NULL
    with recorder.span("registry"):
        # Aggregate run-by-run: every cycle of a periodic run shares its
        # unit and user, so add_run books a whole run in one probe —
        # identical rows to from_instances(mining.instances) at a
        # fraction of the dictionary traffic.
        registry = PatternRegistry.from_runs(mining.runs)
        for instance in antipatterns:
            # Interned unit when available (the registry's fast keys);
            # the string unit otherwise — mark_antipattern takes both.
            registry.mark_antipattern(
                instance.unit_ids or instance.unit, instance.label
            )
        sws_report = None
        if config.sws is not None:
            sws_report = detect_sws(
                registry, mining.instances, config.sws, mark=True
            )
    recorder.count("registry", "patterns", len(registry))
    if sws_report is not None:
        recorder.count("registry", "sws_flagged", len(sws_report.patterns))
    return registry, sws_report


def solve_stage(
    parsed_log: QueryLog,
    antipatterns: Sequence[AntipatternInstance],
    recorder: Optional[Recorder] = None,
) -> SolveResult:
    """Stage 6: rewrite solvable instances (Section 5.5)."""
    recorder = recorder or NULL
    with recorder.span("solve"):
        result = solve(parsed_log, antipatterns)
    recorder.count("solve", "records_in", len(parsed_log))
    recorder.count("solve", "records_out", len(result.log))
    recorder.count("solve", "instances_solved", len(result.solved))
    recorder.count("solve", "queries_removed", result.queries_removed)
    recorder.count("solve", "skipped_conflicts", len(result.skipped_conflicts))
    recorder.count("solve", "not_applicable", len(result.not_applicable))
    recorder.count("solve", "unsolvable", len(result.unsolvable))
    if recorder.enabled:
        for solved in result.solved:
            recorder.count_label("solve", "solved", solved.instance.label)
    return result


@dataclass
class BlockCleanResult:
    """Outcome of cleaning one block in isolation."""

    records: List[LogRecord]
    instances_detected: int
    instances_solved: int


def clean_block(
    block: Block,
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
) -> BlockCleanResult:
    """Detect + solve one block locally (detectors and solver only ever
    look *within* a block — the invariant both the streaming and the
    parallel cleaner are built on).

    With an enabled ``recorder`` the block is additionally run through
    the miner's periodic segmentation, purely to book the ``mine`` stage
    counters — a closed block's queries are all within ``block_gap`` of
    each other, so segmenting them reproduces exactly the instances the
    batch miner would have found for this block.
    """
    recorder = recorder or NULL
    if recorder.enabled:
        with recorder.span("mine"):
            runs = segment_block(block, config.miner)
        recorder.count("mine", "queries_in", len(block.queries))
        recorder.count("mine", "blocks", 1)
        recorder.count(
            "mine", "pattern_instances", sum(run.repeats for run in runs)
        )
        recorder.count("mine", "periodic_runs", len(runs))
    instances = detect_stage([block], config, recorder)
    block_log = QueryLog(query.record for query in block.queries)
    result = solve_stage(block_log, instances, recorder)
    return BlockCleanResult(
        records=result.log.records(),
        instances_detected=len(instances),
        instances_solved=len(result.solved),
    )


@dataclass
class PipelineResult:
    """Every artifact of one pipeline run (the boxes of Fig. 1).

    Batch runs fill every field.  Streaming and parallel runs trade the
    global artifacts (mining output, registry, SWS) for bounded memory /
    multi-core speed: they fill ``cleaned`` plus their stats object and
    leave the per-stage artifacts ``None`` — accessing one raises a
    :class:`ValueError` naming the mode that skipped it.
    """

    config: PipelineConfig
    #: the input log — ``None`` for out-of-core runs (a streamed source
    #: is never materialised; re-read it through the source if needed).
    original: Optional[QueryLog] = None
    dedup: Optional[DedupResult] = None
    parse_stage: Optional[ParseStageResult] = None
    mining: Optional[MiningResult] = None
    registry: Optional[PatternRegistry] = None
    antipatterns: Optional[List[AntipatternInstance]] = None
    solve_result: Optional[SolveResult] = None
    sws_report: Optional[SwsReport] = None
    #: the clean log of a streaming / parallel run (batch runs expose it
    #: through ``solve_result``).
    cleaned: Optional[QueryLog] = None
    streaming_stats: Optional["StreamingStats"] = None
    parallel_stats: Optional["ParallelStats"] = None
    execution_mode: str = "batch"
    #: the run's observability ledger (every execution mode fills it;
    #: ``None`` only when the run was driven with the null recorder).
    metrics: Optional[PipelineMetrics] = None
    #: the run-scoped template interner (batch fills it directly; the
    #: parallel path exposes the folded run-level interner through
    #: ``parallel_stats.interner``).  Ids in any artifact of this result
    #: resolve against exactly this dictionary.
    interner: Optional[TemplateInterner] = None
    #: everything the run set aside under the ``quarantine`` error
    #: policy; empty under ``strict`` / ``lenient``.  Every execution
    #: mode fills it, so callers can audit degraded runs uniformly.
    quarantine: QuarantineChannel = field(default_factory=QuarantineChannel)

    def _artifact(self, value, name: str):
        if value is None:
            raise ValueError(
                f"{name} is not available: this result came from a "
                f"{self.execution_mode!r} run, which does not materialise "
                f"the {name} artifact (use batch mode for full artifacts)"
            )
        return value

    # ------------------------------------------------------------------
    # Convenience accessors

    @property
    def clean_log(self) -> QueryLog:
        if self.solve_result is not None:
            return self.solve_result.log
        return self._artifact(self.cleaned, "clean_log")

    @property
    def removal_log(self) -> QueryLog:
        """The *removal* variant: antipattern queries dropped, not
        rewritten (the third input of the Section 6.9 experiment)."""
        stage = self._artifact(self.parse_stage, "removal_log")
        return remove(
            stage.parsed_log, self._artifact(self.antipatterns, "removal_log")
        )

    def cth_candidates(self) -> List[CthCensusRow]:
        """Ranked census of CTH candidate patterns (Fig. 2(d))."""
        instances = self._artifact(self.antipatterns, "cth_candidates")
        return cth_census([a for a in instances if a.label == CTH_CANDIDATE])

    def overview(self) -> Overview:
        """Assemble the Table 5 statistics for this run."""
        dedup = self._artifact(self.dedup, "overview")
        parse_result = self._artifact(self.parse_stage, "overview")
        registry = self._artifact(self.registry, "overview")
        antipatterns = self._artifact(self.antipatterns, "overview")
        solve_result = self._artifact(self.solve_result, "overview")
        stats = Overview(
            original_size=len(self.original),
            select_count=len(self.original)
            - len(parse_result.non_select)
            - len(parse_result.syntax_errors),
            syntax_errors=len(parse_result.syntax_errors),
            non_select=len(parse_result.non_select),
            after_dedup=len(dedup.log),
            duplicates_removed=dedup.removed,
            final_size=len(self.clean_log),
            pattern_count=len(registry),
            max_pattern_frequency=registry.max_frequency(),
            antipatterns=census_by_label(antipatterns),
            cth_candidates_real=sum(
                1 for row in self.cth_candidates() if row.oracle_real
            ),
            solved_counts=solve_result.solved_counts(),
            queries_removed_by_solving=solve_result.queries_removed,
        )
        return stats


def run_stages(
    log: QueryLog,
    config: PipelineConfig,
    recorder: Recorder,
    cache: Optional[TemplateCache],
    *,
    registry: bool,
    splits: Optional["StoredSplits"] = None,
) -> PipelineResult:
    """Fig. 1's stage chain over ``log``: validate → dedup → parse → mine
    → detect → (registry) → solve.

    The batch pipeline runs it over the whole log with the global
    ``registry`` stage; each parallel shard runs it over its users
    without.  ``cache`` is the run's parse cache, which may have served
    earlier runs: the ``parse_materialised`` it books is what this run's
    stages forced, counted once they have all run (SWS and the solver
    materialise lazy queries too).  ``splits`` are a decoded shard's
    stored splits (:func:`parse_log`): validate and dedup pass its
    record objects through, and the chain lets go of them once the parse
    stage has bound the records.

    Both callers hand it a bounded log, so the chain runs under
    :func:`~repro.skeleton.cache.collector_paused`: it builds a heap of
    long-lived artifacts that the cyclic collector would re-traverse at
    every 25% of growth without freeing anything.
    """
    channel = QuarantineChannel()
    interner = TemplateInterner()
    base_materialised = cache.materialised if cache is not None else 0
    with collector_paused():
        validated = validate_stage(log, config, recorder, channel)
        dedup = dedup_stage(validated, config, recorder)
        parse_result = parse_stage(
            dedup.log,
            config,
            recorder,
            channel,
            cache=cache,
            interner=interner,
            splits=splits,
        )
        splits = None
        mining = mine_stage(parse_result.queries, config, recorder)
        antipatterns = detect_stage(mining.blocks, config, recorder)
        pattern_registry = sws_report = None
        if registry:
            pattern_registry, sws_report = registry_stage(
                mining, antipatterns, config, recorder
            )
        solve_result = solve_stage(parse_result.parsed_log, antipatterns, recorder)
    if cache is not None:
        recorder.count(
            "parse", "parse_materialised", cache.materialised - base_materialised
        )
    return PipelineResult(
        config=config,
        original=log,
        dedup=dedup,
        parse_stage=parse_result,
        mining=mining,
        registry=pattern_registry,
        antipatterns=antipatterns,
        solve_result=solve_result,
        sws_report=sws_report,
        interner=interner,
        quarantine=channel,
    )


class CleaningPipeline:
    """The framework object: configure once, run on any query log."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()

    def run(
        self,
        log: QueryLog,
        recorder: Optional[Recorder] = None,
        *,
        template_witnesses: Optional[Sequence[str]] = None,
    ) -> PipelineResult:
        """Execute all stages of Fig. 1 on ``log``.

        ``recorder`` receives the run's metrics and trace spans; by
        default a fresh :class:`~repro.obs.Recorder` is created so the
        result's :attr:`~PipelineResult.metrics` ledger is always
        available (pass :data:`repro.obs.NULL` to opt out entirely).

        ``template_witnesses`` pre-warms the parse cache from the given
        witness statement texts (see
        :meth:`~repro.skeleton.cache.TemplateCache.preload`).  Preloaded
        template counts are booked as ``parse_dict_preloaded``.
        """
        config = self.config
        recorder = Recorder() if recorder is None else recorder
        recorder.ensure_counters()
        cache, preloaded = open_parse_cache(config, template_witnesses)
        result = run_stages(log, config, recorder, cache, registry=True)
        recorder.count("parse", "parse_dict_preloaded", preloaded)
        result.metrics = recorder.metrics if recorder.enabled else None
        return result
