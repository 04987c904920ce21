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
stage code and only differs in how it feeds records through them.

:func:`CleaningPipeline.run` executes all of it; the intermediate results
live on the returned :class:`PipelineResult`.
"""

from __future__ import annotations

import os
import warnings
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
from ..skeleton.cache import LazyParsedQuery, TemplateCache, rebind_query
from ..skeleton.interner import TemplateInterner
from ..sqlparser import SqlError, UnsupportedStatementError, parse
from .config import PipelineConfig
from .statistics import Overview, census_by_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .parallel import ParallelStats
    from .streaming import StreamingStats


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

    @property
    def parsed_log(self) -> QueryLog:
        """The parsed query log as a plain log (SELECTs that parsed)."""
        return QueryLog(query.record for query in self.queries)


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
        kept: List[LogRecord] = []
        dropped = 0
        for record in log:
            reason = record_fault(record)
            if reason is None:
                kept.append(record)
                continue
            if policy == "strict":
                raise RecordFailure(record, reason, "validate")
            dropped += 1
            if policy == "quarantine" and channel is not None:
                channel.add(record, reason, "validate")
        result = log if dropped == 0 else QueryLog(kept)
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
        failure = (error, PARSE_ERROR)
    except RecursionError:
        failure = (
            SqlError("statement exceeds supported nesting depth"),
            NESTING_DEPTH,
        )
    if cache is not None:
        cache.store(record.sql, failure)
    return failure


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
    Without a cache the classic per-run dict keyed by exact text is
    used.  Either way a miss goes through :func:`parse_record`.

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
    their exact-text repeats — so ``parse_lazy_hits + parse_eager ==
    records_out`` is a ledger law).

    Every statement that reaches the full parser is booked as
    ``parse_cold``, so with a cache in play ``parse_cold ==
    parse_cache_misses`` is another ledger law.
    """
    recorder = recorder or NULL
    result = ParseStageResult()
    if interner is None:
        interner = TemplateInterner()
    base_interned = len(interner)
    if cache is not None:
        base_hits = cache.hits
        base_misses = cache.misses
        base_evictions = cache.evictions
    lazy_emitted = 0
    cold_parses = 0
    with recorder.span("parse"):
        #: sql text -> prototype ParsedQuery, or an (error, reason) pair
        #: (only consulted when no TemplateCache was provided).
        exact: dict = {}
        intern = interner.intern
        append_query = result.queries.append
        for record in log:
            if cache is not None:
                cached = cache.fetch(record)
            else:
                cached = exact.get(record.sql)
            if cached is None:
                cold_parses += 1
                cached = parse_record(
                    record,
                    cache,
                    fold_variables=fold_variables,
                    strict_triple=strict_triple,
                    interner=interner,
                )
                if cache is None:
                    exact[record.sql] = cached
            if type(cached) is tuple:
                error, reason = cached
                if isinstance(error, UnsupportedStatementError):
                    result.non_select.append(record)
                elif policy == "quarantine":
                    result.quarantined.append(record)
                    if channel is not None:
                        channel.add(record, reason, "parse", detail=str(error))
                else:
                    result.syntax_errors.append((record, str(error)))
                continue
            query = rebind_query(cached, record, intern(cached.template_id))
            if type(query) is LazyParsedQuery:
                lazy_emitted += 1
            append_query(query)
    recorder.count(
        "parse",
        "records_in",
        len(result.queries)
        + len(result.syntax_errors)
        + len(result.non_select)
        + len(result.quarantined),
    )
    recorder.count("parse", "records_out", len(result.queries))
    recorder.count("parse", "parse_lazy_hits", lazy_emitted)
    recorder.count("parse", "parse_eager", len(result.queries) - lazy_emitted)
    recorder.count("parse", "parse_cold", cold_parses)
    recorder.count("parse", "syntax_errors", len(result.syntax_errors))
    recorder.count("parse", "non_select", len(result.non_select))
    recorder.count("parse", "records_quarantined", len(result.quarantined))
    recorder.count("parse", "interner_size", len(interner) - base_interned)
    if cache is not None:
        recorder.count("parse", "parse_cache_hits", cache.hits - base_hits)
        recorder.count("parse", "parse_cache_misses", cache.misses - base_misses)
        recorder.count(
            "parse", "parse_cache_evictions", cache.evictions - base_evictions
        )
    return result


def parse_stage(
    log: Iterable[LogRecord],
    config: PipelineConfig,
    recorder: Optional[Recorder] = None,
    channel: Optional[QuarantineChannel] = None,
    cache: Optional[TemplateCache] = None,
    interner: Optional[TemplateInterner] = None,
) -> ParseStageResult:
    """Stage 2: :func:`parse_log` with the config's parsing knobs.

    When the execution config enables the parse cache and the caller did
    not supply one, a fresh :class:`~repro.skeleton.cache.TemplateCache`
    is created for this call — one cache per batch run, and (via the
    explicit ``cache`` argument) one per streaming instance and one per
    parallel shard.  The ``interner`` travels the same way (created by
    :func:`parse_log` itself when absent).
    """
    execution = config.execution
    if cache is None and execution.parse_cache:
        cache = TemplateCache(execution.parse_cache_size)
    return parse_log(
        log,
        fold_variables=config.fold_variables,
        strict_triple=config.strict_triple,
        recorder=recorder,
        policy=config.error_policy,
        channel=channel,
        cache=cache,
        interner=interner,
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
        :meth:`~repro.skeleton.cache.TemplateCache.preload`); when
        absent, the execution config's ``template_dict`` sidecar is
        loaded instead.  Preloaded template counts are booked as
        ``parse_dict_preloaded``; the sidecar (if configured) is
        re-saved when the run finishes.
        """
        config = self.config
        recorder = Recorder() if recorder is None else recorder
        recorder.ensure_counters()
        channel = QuarantineChannel()
        interner = TemplateInterner()
        execution = config.execution
        # The cache is created here (not inside parse_stage) so the run
        # can read back how many lazy queries the *downstream* stages
        # forced to materialise, once they have all executed.
        cache = (
            TemplateCache(execution.parse_cache_size)
            if execution.parse_cache
            else None
        )
        dict_preloaded = 0
        if cache is not None:
            witnesses = template_witnesses
            if witnesses is None and execution.template_dict is not None:
                witnesses = TemplateCache.load_dict(
                    execution.template_dict,
                    fold_variables=config.fold_variables,
                    strict_triple=config.strict_triple,
                )
            if witnesses:
                dict_preloaded = cache.preload(
                    witnesses,
                    fold_variables=config.fold_variables,
                    strict_triple=config.strict_triple,
                )

        validated = validate_stage(log, config, recorder, channel)
        dedup = dedup_stage(validated, config, recorder)
        parse_result = parse_stage(
            dedup.log, config, recorder, channel, cache=cache, interner=interner
        )
        mining = mine_stage(parse_result.queries, config, recorder)
        antipatterns = detect_stage(mining.blocks, config, recorder)
        registry, sws_report = registry_stage(
            mining, antipatterns, config, recorder
        )
        solve_result = solve_stage(
            parse_result.parsed_log, antipatterns, recorder
        )
        if cache is not None:
            recorder.count("parse", "parse_materialised", cache.materialised)
            recorder.count("parse", "parse_dict_preloaded", dict_preloaded)
            if execution.template_dict is not None:
                try:
                    cache.save_dict(
                        execution.template_dict,
                        fold_variables=config.fold_variables,
                        strict_triple=config.strict_triple,
                    )
                except OSError as exc:
                    warnings.warn(
                        "could not save template dict "
                        f"{os.fspath(execution.template_dict)!r}: {exc}"
                    )

        return PipelineResult(
            config=config,
            original=log,
            dedup=dedup,
            parse_stage=parse_result,
            mining=mining,
            registry=registry,
            antipatterns=antipatterns,
            solve_result=solve_result,
            sws_report=sws_report,
            execution_mode="batch",
            metrics=recorder.metrics if recorder.enabled else None,
            interner=interner,
            quarantine=channel,
        )

