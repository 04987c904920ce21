"""Parallel sharded cleaning executor.

Dedup (keyed by user + statement), blocking, detection and solving are
all confined to a single user's timeline — a query log is embarrassingly
parallel *by user*.  The :class:`ParallelCleaner` exploits that:

1. **Shard** — records are hash-sharded by ``user_key()`` (a stable
   CRC-32, so shard assignment is identical across processes and runs)
   into per-task lists; a user's whole timeline always lands in
   exactly one task.  The shard count adapts to the fan-out: about
   ``2 × workers`` tasks, rebalanced by record counts.  A columnar
   store is cut *store-native* (:func:`shard_store`): each chunk is
   read once, its ``user`` column hashed once per distinct user into
   the same buckets, and each bucket's rows gathered column by column
   (:class:`~repro.store.columnar.StoreShard`) before the chunk is
   dropped; the buckets pack into the same shards.  The parent never
   builds a record or a statement text from a store.
2. **Fan out** — each shard is packed into one buffer of pickled
   columns: record fields, a per-shard template table with each
   record's template id, and the constant vectors, each distinct string
   shipped once (:func:`repro.store.columnar.encode_shard`; a store's
   rows pack to the same bytes as the records they store, without
   re-running the raw scan), and handed to a worker as a single bytes
   object.  The parent drops a shard's input once it is encoded; a
   shard that fails for good is recovered from its buffer for the error
   policy.  The worker decodes it into records carrying their stored
   splits (:class:`~repro.store.columnar.StoreChunk`) and runs the
   batch pipeline's own stage chain over them
   (:func:`~repro.pipeline.framework.run_stages`: validate → dedup →
   parse → mine → detect → solve, without the global registry), with a
   process-persistent parse cache that binds each record by its split
   where the store's shape rule vouches for it, as the streaming
   executor does (:meth:`~repro.skeleton.cache.TemplateCache.fetch_raw`),
   and reads its :class:`~repro.pipeline.framework.StreamingStats` back
   off the shard's ledger
   (:func:`~repro.pipeline.framework.stats_from_ledger`, the same field
   ↔ counter table streaming books through).
3. **Merge** — clean records from all shards are re-merged into global
   (timestamp, seq) order; per-worker counters and stage timings are
   folded into one :class:`ParallelStats` report.

The executor owns sharding, transport and fault handling only; the
parse cache set-up (:func:`~repro.pipeline.framework.open_parse_cache`),
every verdict on a record and the stage chain are the framework's.

Because every stage a worker runs is user-local, the merged clean log is
record-for-record identical to the batch pipeline's.  Global artifacts
(pattern registry, SWS, Table-5 overview) need the whole log and are out
of scope here, exactly as in the streaming path.

**Warm worker pools.**  Forking and tearing down a process pool per run
dominates small runs, so every fan-out runs on a reusable pool:
:func:`get_worker_pool` parks one :class:`WorkerPool` per worker count in
a process-wide registry, reused across :func:`repro.clean` calls.  Each
worker keeps a persistent :class:`~repro.skeleton.cache.TemplateCache`
across shards *and* runs.  A run over a columnar store preloads one
cache from the store's witness texts and ships the same texts in every
shard payload; a worker preloads a fresh cache from them whenever the
witnesses or the parse knobs differ from the ones its cache was built
under.  Witnesses therefore never retire a pool: runs over different
stores share the same warm workers.
Outputs stay byte-identical because the cache is correctness-checked
per hit; only the ``parse_cache_*`` counters (executor-dependent by
contract) change.  All registry pools are shut down atexit, or earlier
by :func:`shutdown_worker_pools`; a raising run discards its pool rather
than leaving queued shards running behind the caller's back.  A run
with more than one worker starts its pool's workers before it plans
(:meth:`WorkerPool.start`), so a cold pool forks from a heap that does
not hold the plan yet: the workers inherit none of it (a worker's peak
RSS is the run's peak).  A log that plans to a single shard (one
worker, one user, or nothing at all) never leaves the parent.

**Collector pause.**  A run is bounded by its input, so the parent's
whole :meth:`ParallelCleaner.run` and each worker's shard body run under
:func:`~repro.skeleton.cache.collector_paused`, and neither pays a
cyclic-collector pass.  A pool forked inside the parent's pause would
inherit a disabled collector, so every executor starts its workers with
:func:`~repro.skeleton.cache.enable_collector`: under every start
method a warm worker collects between shards as usual.

**Fault tolerance.**  The fan-out runs on
:class:`concurrent.futures.ProcessPoolExecutor` rather than
``multiprocessing.Pool`` because a killed worker surfaces promptly as
``BrokenProcessPool`` instead of hanging the parent forever.  A shard
whose worker crashed, timed out (``execution.task_timeout``) or raised a
transient exception is re-queued up to :data:`MAX_SHARD_RETRIES` times,
sleeping :data:`RETRY_BACKOFF_S` doubled each round (the encoded buffer
is reused across retries); a crashed or timed-out pool is rebuilt in
place
(:meth:`WorkerPool.rebuild`).  A shard that exhausts its retries is
handed to the config's ``error_policy`` — ``strict`` raises
:class:`~repro.errors.ShardFailure`, ``lenient`` drops its records,
``quarantine`` sets them aside whole with a
:data:`~repro.errors.SHARD_FAILURE` reason.  A
:class:`~repro.errors.RecordFailure` from a worker is a *verdict*, not a
fault, and is re-raised immediately without retrying.
"""

from __future__ import annotations

import atexit
import time
import zlib
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Sized,
    Tuple,
    TypeVar,
    Union,
)

from ..errors import (
    SHARD_FAILURE,
    QuarantineChannel,
    RecordFailure,
    ShardFailure,
)
from ..log.models import ANONYMOUS_USER, LogRecord, QueryLog
from ..obs import PipelineMetrics, Recorder
from ..skeleton.cache import TemplateCache, collector_paused, enable_collector
from ..skeleton.interner import TemplateInterner
from ..store.columnar import (
    StoreChunk,
    StoreShard,
    decode_shard,
    encode_shard,
    group_rows,
)
from .config import PipelineConfig
from .framework import (
    StreamingStats,
    open_parse_cache,
    run_stages,
    stats_from_ledger,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.sources import ColumnarSource, LogSource

#: Stage names in execution order (the keys of a timings report).
STAGES = ("dedup", "parse", "mine", "detect", "solve", "merge")

#: What a shard plan holds per task: records, or a store's rows.
_Shard = Union[List[LogRecord], StoreShard]

#: How many times a failed shard is re-submitted (worker crash, timeout,
#: transient stage exception) before the error policy gets it.
MAX_SHARD_RETRIES = 2

#: Seconds slept before the first retry round; doubles each round.
RETRY_BACKOFF_S = 0.05


@dataclass
class StageTimings:
    """Wall-clock seconds spent per pipeline stage.

    Since the observability layer landed this is a *view* over a
    :class:`~repro.obs.PipelineMetrics` ledger (see
    :meth:`from_metrics`), kept as a stable dataclass for report
    consumers.  Worker-side timings fill the five processing stages; the
    parent fills ``merge`` (global re-ordering of the emitted records).
    Summed across workers the numbers are *aggregate* compute seconds —
    on N busy cores they exceed the run's wall time by up to a factor N.
    """

    dedup: float = 0.0
    parse: float = 0.0
    mine: float = 0.0
    detect: float = 0.0
    solve: float = 0.0
    merge: float = 0.0

    @classmethod
    def from_metrics(cls, metrics: PipelineMetrics) -> "StageTimings":
        """Project a metrics ledger onto the six classic stage slots."""
        timings = cls()
        for name in STAGES:
            stage = metrics.stages.get(name)
            if stage is not None:
                setattr(timings, name, stage.wall_seconds)
        return timings

    def add(self, other: "StageTimings") -> None:
        self.dedup += other.dedup
        self.parse += other.parse
        self.mine += other.mine
        self.detect += other.detect
        self.solve += other.solve
        self.merge += other.merge

    @property
    def total(self) -> float:
        return (
            self.dedup + self.parse + self.mine
            + self.detect + self.solve + self.merge
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in STAGES}


@dataclass
class ShardReport:
    """One worker task's outcome (also the worker's return value)."""

    shard: int
    records_in: int
    records_out: int
    clean_records: List[LogRecord]
    stats: StreamingStats
    timings: StageTimings
    wall_seconds: float
    #: the worker's full observability ledger (plain data — pickles).
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    #: records this shard set aside under the ``quarantine`` policy.
    quarantine: QuarantineChannel = field(default_factory=QuarantineChannel)
    #: the shard's template interner (picklable), folded by the parent
    #: into the run-level dictionary — shard-local ids are meaningless
    #: outside the worker, the fingerprints travel home with the report.
    interner: TemplateInterner = field(default_factory=TemplateInterner)
    #: encoded payload size shipped for this shard (0 when it ran
    #: inline); annotated by the parent, not the worker.
    bytes_shipped: int = 0


@dataclass
class ParallelStats:
    """Merged report of one parallel run.

    :param workers: worker processes used.
    :param shard_count: tasks the log was sharded into (a task never
        splits a user; adaptive sizing targets ≈ ``2 × workers`` tasks).
    :param stats: all shards' counters folded into one
        :class:`~repro.pipeline.streaming.StreamingStats`.
    :param timings: per-stage wall clock summed across shards, plus the
        parent-side merge (a view over ``metrics``).
    :param wall_seconds: end-to-end wall time of the run.
    :param shards: the per-shard reports (clean records dropped).
    :param metrics: the run's merged observability ledger (all shards'
        counters and stage times folded together, plus the merge stage).
    :param interner: the run-level template dictionary — every shard
        interner folded in shard order, so its size is the run's global
        distinct-template count (the per-shard sum lives in
        ``stats.interner_size``, like the cache counters).
    :param shards_retried: how many shard re-submissions the run needed
        (worker crashes, timeouts, transient exceptions).
    :param shards_failed: shards that exhausted their retries and were
        handed to the error policy.
    :param bytes_shipped: total encoded shard-buffer bytes the run
        shipped to workers (each shard's buffer counted once — retries
        reuse it); also on the merge stage as ``bytes_shipped``.
    """

    workers: int
    shard_count: int
    stats: StreamingStats = field(default_factory=StreamingStats)
    timings: StageTimings = field(default_factory=StageTimings)
    wall_seconds: float = 0.0
    shards: List[ShardReport] = field(default_factory=list)
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    interner: TemplateInterner = field(default_factory=TemplateInterner)
    shards_retried: int = 0
    shards_failed: int = 0
    bytes_shipped: int = 0

    @property
    def records_in(self) -> int:
        return self.stats.records_in

    @property
    def records_out(self) -> int:
        return self.stats.records_out

    @property
    def throughput(self) -> float:
        """Input records cleaned per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.records_in / self.wall_seconds


def shard_index(user_key: str, shard_count: int) -> int:
    """Stable shard assignment for one user key.

    CRC-32 rather than :func:`hash`: Python's string hash is randomised
    per process, and shard assignment must agree across workers, runs
    and machines.
    """
    return zlib.crc32(user_key.encode("utf-8")) % shard_count


def _bucket_count(workers: int) -> int:
    """How many hash buckets a plan for ``workers`` packs into tasks."""
    return max(64, workers * 16)


_Bucket = TypeVar("_Bucket", bound=Sized)


def _pack_buckets(
    buckets: Dict[int, _Bucket], workers: int
) -> List[List[_Bucket]]:
    """Group ``buckets`` into tasks, in bucket-index order, about
    ``2 × workers`` of them balanced by size (see
    :func:`shard_records`)."""
    sizes = {index: len(bucket) for index, bucket in buckets.items()}
    if not sizes:
        return []
    # One shard per worker would stall the run on its slowest shard; 2×
    # gives the pool a second wave to rebalance into.  A single worker
    # gets a single shard (it runs inline anyway).
    target = 2 * workers if workers > 1 else 1
    budget = -(-sum(sizes.values()) // min(target, len(sizes)))

    groups: List[List[_Bucket]] = []
    current: List[_Bucket] = []
    size = 0
    for index in sorted(sizes):
        if current and size + sizes[index] > budget:
            groups.append(current)
            current, size = [], 0
        current.append(buckets[index])
        size += sizes[index]
    if current:
        groups.append(current)
    return groups


def shard_records(
    log: Iterable[LogRecord], workers: int
) -> List[List[LogRecord]]:
    """Split ``log`` into per-task lists, never splitting a user.

    Records are first hashed into fine-grained buckets (several per
    worker, so one heavy user cannot serialise the whole run), then the
    buckets are packed in index order into tasks.  The packing budget is
    chosen so the run yields about ``2 × workers`` shards balanced by
    record count — enough tasks that one slow shard cannot straggle the
    run, few enough that per-task overhead (encode, submit, report)
    stays amortised.  A single bucket larger than the budget stays one
    task, because a user's timeline is indivisible.

    ``log`` only needs to be iterable — :meth:`ParallelCleaner.run_source`
    feeds a chunk-flattening record generator through here, and the
    sharding is insensitive to how the records were chunked on the way
    in: bucket membership is per user, task packing depends only on
    bucket sizes, and each worker sorts its shard into time order.
    Bucket membership is, by the CRC invariant, deterministic per user —
    changing the worker count only repacks buckets, it never splits a
    user's records across tasks.  A columnar store is cut into the same
    tasks by :func:`shard_store`.
    """
    bucket_count = _bucket_count(workers)
    buckets: Dict[int, List[LogRecord]] = {}
    for record in log:
        index = shard_index(record.user_key(), bucket_count)
        buckets.setdefault(index, []).append(record)
    return [
        list(chain.from_iterable(group))
        for group in _pack_buckets(buckets, workers)
    ]


def shard_store(source: "ColumnarSource", workers: int) -> List[StoreShard]:
    """:func:`shard_records` of a columnar store, cut from its chunk
    columns: the same tasks, each holding the same rows in the same
    order, as :class:`~repro.store.columnar.StoreShard` columns.

    Each chunk is read once.  Its ``user`` column is hashed once per
    distinct user (:meth:`~repro.log.models.LogRecord.user_key`'s key),
    and each bucket's rows are gathered into the bucket's columns
    (:func:`~repro.store.columnar.group_rows`) before the chunk is
    dropped; then the buckets pack into tasks exactly as
    :func:`shard_records` packs them.  No record, row object or
    statement text is built, so a store's shard packs
    (:func:`~repro.store.columnar.encode_shard`) without a raw scan.
    """
    bucket_count = _bucket_count(workers)
    templates = source.template_texts()
    buckets: Dict[int, StoreShard] = {}
    for columns in source.chunk_columns():
        users = columns["user"]
        bucket_of = {
            user: shard_index(
                user if user is not None else ANONYMOUS_USER, bucket_count
            )
            for user in set(users)
        }
        for index, rows in group_rows(columns, list(map(bucket_of.get, users))):
            bucket = buckets.get(index)
            if bucket is None:
                bucket = buckets[index] = StoreShard(templates)
            bucket.extend(rows)
    shards: List[StoreShard] = []
    for group in _pack_buckets(buckets, workers):
        shard = group[0]
        for bucket in group[1:]:
            shard.extend(bucket.columns)
        shards.append(shard)
    return shards


# ----------------------------------------------------------------------
# Worker-side machinery
#
# Everything here is module-level (not closures) so it pickles under
# every ``multiprocessing`` start method.  The two globals below live in
# the *worker* processes: the cache persists across shards and runs.

_WORKER_CACHE: Optional[TemplateCache] = None
_WORKER_CACHE_KEY: Optional[Tuple[bool, bool, Optional[Tuple[str, ...]]]] = None


def _process_parse_cache(
    config: PipelineConfig, witnesses: Optional[Tuple[str, ...]]
) -> TemplateCache:
    """This worker's persistent parse cache.

    The cache is keyed by the parse knobs it may legally serve and by
    the run's ``witnesses`` (the store's template witness texts;
    ``None`` when the parent preloaded nothing) — a change of either
    rebuilds it rather than risking a stale skeleton (see the invariant
    on :func:`~repro.pipeline.framework.parse_log`).  The rebuilt cache
    is preloaded from the witnesses under the run's own knobs, so it
    starts as warm as the parent's.
    """
    global _WORKER_CACHE, _WORKER_CACHE_KEY
    key = (config.fold_variables, config.strict_triple, witnesses)
    if _WORKER_CACHE is None or _WORKER_CACHE_KEY != key:
        _WORKER_CACHE, _ = open_parse_cache(config, witnesses)
        _WORKER_CACHE_KEY = key
    return _WORKER_CACHE


def _clean_shard_log(
    shard: int,
    records: Sequence[LogRecord],
    config: PipelineConfig,
    cache: TemplateCache,
) -> ShardReport:
    """Run the batch stage chain over one shard's records.

    ``cache`` is the worker's persistent parse cache, or the run's
    dictionary-warmed one for an inline shard.  A
    :class:`~repro.store.columnar.StoreChunk` hands its stored splits to
    the parse stage, once: the chain lets go of them after parsing.
    """
    started = time.perf_counter()
    recorder = Recorder()
    shard_log = QueryLog(records)
    result = run_stages(
        shard_log,
        config,
        recorder,
        cache,
        registry=False,
        splits=records.take_splits() if type(records) is StoreChunk else None,
    )
    clean_records = result.solve_result.log.records()
    stats = stats_from_ledger(recorder.metrics)
    # Workers hold whole blocks (no size bound, nothing force-closed),
    # and the whole parsed shard is resident at once.
    stats.max_open_queries = len(result.parse_stage.queries)
    return ShardReport(
        shard=shard,
        records_in=len(shard_log),
        records_out=len(clean_records),
        clean_records=clean_records,
        stats=stats,
        timings=StageTimings.from_metrics(recorder.metrics),
        wall_seconds=time.perf_counter() - started,
        metrics=recorder.metrics,
        quarantine=result.quarantine,
        interner=result.interner,
    )


def _clean_shard_encoded(
    payload: Tuple[int, bytes, PipelineConfig, Optional[Tuple[str, ...]]]
) -> ShardReport:
    """Worker body: clean one encoded shard buffer (the pool path).

    ``payload`` is ``(shard, buffer, config, witnesses)``, where
    ``buffer`` is the :func:`~repro.store.columnar.encode_shard`
    encoding of the shard's records and ``witnesses`` the run's template
    witness texts (or ``None``).  The worker's persistent parse cache
    serves every shard it is handed, binding each record by the split
    the buffer shipped.
    The body is bounded by its shard, so it runs under
    :func:`~repro.skeleton.cache.collector_paused`, like the parent's
    run.
    """
    shard, buffer, config, witnesses = payload
    with collector_paused():
        cache = _process_parse_cache(config, witnesses)
        return _clean_shard_log(shard, decode_shard(buffer), config, cache)


# ----------------------------------------------------------------------
# Warm worker pools

#: Process-wide registry of reusable pools, keyed by worker count.
_POOLS: Dict[int, WorkerPool] = {}


class WorkerPool:
    """A reusable :class:`~concurrent.futures.ProcessPoolExecutor`.

    The executor is created lazily on first :meth:`submit` and kept warm
    until :meth:`shutdown` — the whole point is to pay the fork +
    interpreter cost once, not per ``repro.clean()`` call.
    :meth:`rebuild` retires a broken executor (crashed or hung workers)
    and provisions a fresh one in place; :attr:`generation` counts how
    many executors this pool has provisioned, so tests can assert a
    rebuild actually happened.

    Every executor is provisioned with
    :func:`~repro.skeleton.cache.enable_collector` as its workers'
    initializer: a pool forked inside a paused parent run would
    otherwise inherit a disabled collector and never collect again.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: Optional[futures.ProcessPoolExecutor] = None
        #: executors provisioned over this pool's lifetime.
        self.generation = 0

    @property
    def executor(self) -> futures.ProcessPoolExecutor:
        """The live executor, provisioning one if needed."""
        if self._executor is None:
            self._executor = futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=enable_collector
            )
            self.generation += 1
        return self._executor

    @property
    def alive(self) -> bool:
        """Whether an executor is currently provisioned."""
        return self._executor is not None

    def submit(self, fn, /, *args, **kwargs) -> "futures.Future":
        return self.executor.submit(fn, *args, **kwargs)

    def start(self) -> None:
        """Start the workers now, unless they are running: the executor
        forks them on its first task, so it is handed a no-op one."""
        if self._executor is None:
            self.submit(enable_collector)

    def rebuild(self) -> futures.ProcessPoolExecutor:
        """Retire the current executor (if any) and provision a new one."""
        self.shutdown(wait=False)
        return self.executor

    def shutdown(self, wait: bool = True) -> None:
        """Shut the executor down; the pool can be reused afterwards."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def get_worker_pool(workers: int) -> WorkerPool:
    """The process-wide reusable pool for ``workers`` worker processes.

    Created on first request, then returned as-is — callers share the
    warm workers.  All registry pools are shut down atexit.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = WorkerPool(workers)
        _POOLS[workers] = pool
    return pool


def discard_worker_pool(workers: int) -> None:
    """Drop (and shut down) the registry pool for ``workers``, if any."""
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False)


def shutdown_worker_pools(wait: bool = True) -> None:
    """Shut down every registry pool (also runs atexit)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_worker_pools)


class ParallelCleaner:
    """Clean a query log on several CPU cores.

    Same contract as :class:`~repro.pipeline.streaming.StreamingCleaner`:
    the clean log matches the batch pipeline record for record, global
    artifacts (registry / SWS / overview) are out of scope.  After
    :meth:`run`, :attr:`stats` holds the :class:`ParallelStats` report.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        recorder: Optional[Recorder] = None,
        template_witnesses: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.recorder = Recorder() if recorder is None else recorder
        self.stats = ParallelStats(
            workers=self.config.execution.resolved_workers(), shard_count=0
        )
        #: everything the last run set aside (quarantine policy only).
        self.quarantine = QuarantineChannel()
        #: witness texts to pre-warm the run's parse caches with.
        self._template_witnesses = template_witnesses

    # ------------------------------------------------------------------
    # Fault handling

    def _terminal_failure(
        self,
        shard: int,
        records: Sequence[LogRecord],
        attempts: int,
        detail: str,
        quarantine: QuarantineChannel,
    ) -> None:
        """A shard is out of retries: apply the error policy to it."""
        if self.config.error_policy == "strict":
            raise ShardFailure(shard, attempts, detail)
        if self.config.error_policy == "quarantine":
            for record in records:
                quarantine.add(record, SHARD_FAILURE, "shard", detail=detail)
        # lenient: the records are simply dropped; the merge-stage
        # counters still say how many shards were lost.

    def _run_inline(
        self,
        records: Sequence[LogRecord],
        quarantine: QuarantineChannel,
        cache: TemplateCache,
    ) -> Tuple[List[ShardReport], int, List[int]]:
        """Run a single-shard plan in-process.

        Same retry and error-policy contract as the pool path, minus the
        timeout (there is no separate process to abandon) and minus the
        codec — the records never leave the parent, so encoding them
        would be pure overhead.  ``cache`` is the run's parse cache.
        A store's records bind by their stored splits on the first
        attempt; a retry parses them by their texts.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                report = _clean_shard_log(0, records, self.config, cache)
            except RecordFailure:
                raise  # strict-policy verdict, not a fault — no retry
            except Exception as exc:
                if attempt > MAX_SHARD_RETRIES:
                    self._terminal_failure(
                        0, records, attempt, repr(exc), quarantine
                    )
                    return [], attempt - 1, [0]
                if RETRY_BACKOFF_S:
                    time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            else:
                return [report], attempt - 1, []

    def _run_pool(
        self,
        shards: List[_Shard],
        workers: int,
        quarantine: QuarantineChannel,
        witnesses: Optional[Tuple[str, ...]],
    ) -> Tuple[List[ShardReport], int, List[int], int]:
        """Fan the shards out over the warm pool, re-queueing failures.

        Each round submits every still-pending shard and waits for the
        wave to finish.  A crashed worker poisons the whole pool
        (``BrokenProcessPool`` fails every in-flight future), so the
        pool is rebuilt and *all* pending shards get one attempt
        charged — innocents succeed on the next round, and the
        accounting stays bounded: no shard is ever submitted more than
        ``MAX_SHARD_RETRIES + 1`` times.

        Takes ownership of ``shards`` (the list is emptied): each shard
        is encoded exactly once and its input dropped right away; the
        buffer is reused across retries and dropped the moment the shard
        completes.  A shard that fails for good hands the records
        decoded from its buffer to the error policy.  Every payload
        carries ``witnesses``, the run's template witness texts
        (``None`` when nothing was preloaded).  Returns the reports, the
        retry count, the failed shards and the bytes shipped.
        """
        execution = self.config.execution
        max_attempts = MAX_SHARD_RETRIES + 1
        inputs = dict(enumerate(shards))
        shards.clear()
        pending = set(inputs)
        attempts = {shard: 0 for shard in pending}
        errors: Dict[int, str] = {}
        reports: List[ShardReport] = []
        retried = 0
        failed: List[int] = []
        buffers: Dict[int, bytes] = {}
        bytes_shipped = 0
        pool = get_worker_pool(workers)
        round_number = 0
        try:
            while pending:
                for shard in [
                    s for s in sorted(pending) if attempts[s] >= max_attempts
                ]:
                    # an attempt was charged, so the shard was encoded
                    self._terminal_failure(
                        shard,
                        list(decode_shard(buffers.pop(shard))),
                        attempts[shard],
                        errors.get(shard, "exhausted retries"),
                        quarantine,
                    )
                    failed.append(shard)
                    pending.discard(shard)
                if not pending:
                    break
                round_number += 1
                if round_number > 1:
                    retried += len(pending)
                    if RETRY_BACKOFF_S:
                        time.sleep(RETRY_BACKOFF_S * 2 ** (round_number - 2))
                submitted: Dict[futures.Future, int] = {}
                broken = False
                for shard in sorted(pending):
                    buffer = buffers.get(shard)
                    if buffer is None:
                        buffer = buffers[shard] = encode_shard(inputs.pop(shard))
                        bytes_shipped += len(buffer)
                    try:
                        future = pool.submit(
                            _clean_shard_encoded,
                            (shard, buffer, self.config, witnesses),
                        )
                    except BrokenProcessPool as exc:
                        # A warm worker died while the wave was still
                        # being submitted (cold pools never see this —
                        # their workers are still forking).  Stop
                        # submitting; already-submitted futures surface
                        # the same crash below.
                        broken = True
                        attempts[shard] += 1
                        errors[shard] = f"worker crashed: {exc!r}"
                        break
                    submitted[future] = shard
                timeout = None
                if execution.task_timeout is not None:
                    # The budget is per shard; a wave wider than the pool
                    # runs its shards in several passes.
                    waves = -(-len(submitted) // pool.workers)
                    timeout = execution.task_timeout * waves
                done, not_done = futures.wait(set(submitted), timeout=timeout)
                for future in done:
                    shard = submitted[future]
                    try:
                        report = future.result()
                    except RecordFailure:
                        raise  # strict-policy verdict — no retry
                    except BrokenProcessPool as exc:
                        broken = True
                        attempts[shard] += 1
                        errors[shard] = f"worker crashed: {exc!r}"
                    except Exception as exc:
                        attempts[shard] += 1
                        errors[shard] = repr(exc)
                    else:
                        report.bytes_shipped = len(buffers.pop(shard))
                        reports.append(report)
                        pending.discard(shard)
                for future in not_done:
                    shard = submitted[future]
                    broken = True
                    attempts[shard] += 1
                    errors[shard] = (
                        f"shard exceeded task_timeout="
                        f"{execution.task_timeout}s"
                    )
                if broken:
                    # The pool may hold dead or still-busy workers;
                    # retire its executor and provision a fresh one for
                    # the next round (the warm pool object survives).
                    pool.rebuild()
        except BaseException:
            # A raising run must not leave shards queued in a warm pool
            # behind the caller's back: discard the pool (workers exit
            # once their current task drains); the registry re-provisions
            # lazily on the next run.
            discard_worker_pool(workers)
            raise
        return reports, retried, failed, bytes_shipped

    def run_source(self, source: "LogSource") -> QueryLog:
        """Clean a :class:`~repro.store.sources.LogSource` end to end.

        The source is drained chunk by chunk straight into the sharder,
        so the input is never materialised as one list in the parent —
        peak parent-side memory is the bucketed shard payloads.  A
        columnar store is cut from its chunk columns
        (:func:`shard_store`), which the parent never turns into
        statements or records (unless the plan is a single shard, which
        runs inline).  The clean log is identical to
        ``run(source.read())``.
        """
        from ..store.sources import ColumnarSource

        if isinstance(source, ColumnarSource):
            return self._run(lambda workers: shard_store(source, workers))
        return self.run(
            record for chunk in source.open_chunks() for record in chunk
        )

    def run(self, log: Iterable[LogRecord]) -> QueryLog:
        """Shard, fan out, clean, and re-merge into global time order.

        With template witnesses (a columnar store's own) the run
        preloads one warmed cache: a single-shard run cleans with it
        inline, and pool runs ship the witnesses in every shard payload,
        so the workers' persistent caches start as warm.
        """
        return self._run(lambda workers: shard_records(log, workers))

    @collector_paused()
    def _run(self, plan: Callable[[int], List[_Shard]]) -> QueryLog:
        """:meth:`run` over the shards ``plan(workers)`` cuts.

        The whole run is bounded by its input, which the parent holds
        whole once it is sharded, so it runs under
        :func:`~repro.skeleton.cache.collector_paused`: the pool start,
        the plan, the chunk reads, the encode, the pool wait (the
        executor's thread unpickles the reports meanwhile) and the fold.
        """
        execution = self.config.execution
        workers = execution.resolved_workers()
        started = time.perf_counter()

        if workers > 1:
            # Fork before the plan fills the heap (see the module notes).
            get_worker_pool(workers).start()
        cache, dict_preloaded = open_parse_cache(
            self.config, self._template_witnesses
        )
        shards = plan(workers)
        shard_count = len(shards)
        quarantine = QuarantineChannel()

        # A single-shard plan (one worker, one user, a tiny log) runs
        # in-process: the fork+encode tax buys nothing without a second
        # shard to overlap with.  An empty log plans no shards at all.
        bytes_shipped = 0
        if shard_count > 1:
            witnesses = None
            if dict_preloaded:
                witnesses = tuple(self._template_witnesses)
            reports, retried, failed, bytes_shipped = self._run_pool(
                shards, workers, quarantine, witnesses
            )
        elif shards:
            shard = shards.pop()
            reports, retried, failed = self._run_inline(
                shard.chunk() if type(shard) is StoreShard else shard,
                quarantine,
                cache,
            )
        else:
            reports, retried, failed = [], 0, []

        clock = time.perf_counter()
        cleaned = QueryLog(
            record for report in reports for record in report.clean_records
        )
        merge_seconds = time.perf_counter() - clock

        # Fold the workers' ledgers into one per-run ledger, then absorb
        # it into the cleaner's recorder (which may span several runs).
        run_metrics = PipelineMetrics()
        run_metrics.ensure_counters()
        stats = ParallelStats(workers=workers, shard_count=shard_count)
        run_interner = stats.interner
        for report in sorted(reports, key=lambda r: r.shard):
            stats.stats.merge(report.stats)
            run_metrics.merge(report.metrics)
            quarantine.merge(report.quarantine)
            # Fold the shard's template dictionary into the run-level
            # one (deterministic: shard order, then shard-local id
            # order, so the run ids are reproducible across runs).
            run_interner.merge(report.interner)
            report.clean_records = []  # keep the report, drop the payload
            stats.shards.append(report)
        stats.shards_retried = retried
        stats.shards_failed = len(failed)
        stats.bytes_shipped = bytes_shipped
        if dict_preloaded:
            # One preload event for the run's dictionary-warmed cache
            # (the shards' ledgers never see the preload — it happens
            # before any record flows).
            stats.stats.parse_dict_preloaded += dict_preloaded
            run_metrics.stage("parse").count(
                "parse_dict_preloaded", dict_preloaded
            )
        merge_stage = run_metrics.stage("merge")
        merge_stage.wall_seconds += merge_seconds
        merge_stage.calls += 1
        merge_stage.count("records_out", len(cleaned))
        merge_stage.count("shards_retried", retried)
        merge_stage.count("shards_failed", len(failed))
        merge_stage.count("bytes_shipped", bytes_shipped)
        # The run-level dictionary size: global distinct templates (the
        # "parse" counter carries the per-shard sum, like cache misses).
        merge_stage.count("interner_size", len(run_interner))
        if self.recorder.enabled:
            self.recorder.absorb(run_metrics)
            self.recorder.emit(
                {"event": "span", "stage": "merge", "seconds": merge_seconds}
            )
        stats.metrics = run_metrics
        stats.timings = StageTimings.from_metrics(run_metrics)
        stats.wall_seconds = time.perf_counter() - started
        self.stats = stats
        self.quarantine = quarantine
        return cleaned
