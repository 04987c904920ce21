"""Per-layer tracing inside one traced E29 child.

:class:`Tracer` wraps the program's layer entry points with
``perf_counter`` timers and counters for the duration of a ``with``
block and restores the originals on exit.  Nothing in ``src/`` changes:
the wrappers replace module and class attributes in this process only.

Parse tiers are inferred from which scanner a ``TemplateCache.fetch``
called: neither (exact-text L1 hit), only ``_raw_scan`` (raw-template
hit), ``scan`` (fingerprint hit), or a ``None`` result (miss).

Pool workers fork from the traced child after the wrappers are in place,
so they inherit them.  Each shard resets the worker's copy of the
counters and ships them home as an extra attribute of its
``ShardReport``; :func:`layer_metrics` folds them into the parent's.
Under a start method other than ``fork`` workers run untraced.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from collections import Counter, defaultdict
from concurrent import futures
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: Stages whose wall seconds the recorder books, in pipeline order.
STAGES = (
    "validate", "dedup", "parse", "mine", "detect", "registry", "solve", "merge"
)

#: ``(tracer, original worker body)`` while a tracer is installed.  A
#: forked pool worker reaches its copy of the tracer through here,
#: because the shard function crosses the pipe by reference.
_ACTIVE: Optional[Tuple["Tracer", object]] = None


class Tracer:
    """Call counts and seconds per traced entry point."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self._in_preload = False

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        return dict(self.counts), dict(self.seconds)

    def absorb(self, snapshot: Tuple[Dict[str, int], Dict[str, float]]) -> None:
        counts, seconds = snapshot
        self.counts.update(counts)
        for key, value in seconds.items():
            self.seconds[key] += value

    def _timed(self, key: str, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - started
                counts[key] += 1

        return timed

    def _fetch(self, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def fetch(cache, record):
            scans, raw_scans = counts["scan"], counts["raw_scan"]
            started = clock()
            result = fn(cache, record)
            elapsed = clock() - started
            if result is None:
                tier = "miss"
            elif counts["scan"] != scans:
                tier = "fp"
            elif counts["raw_scan"] != raw_scans:
                tier = "raw"
            else:
                tier = "l1"
            counts[tier] += 1
            seconds[tier] += elapsed
            return result

        return fetch

    def _build(self, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def build(cache, record, **kwargs):
            key = "preload_build" if self._in_preload else "build"
            started = clock()
            try:
                return fn(cache, record, **kwargs)
            finally:
                seconds[key] += clock() - started
                counts[key] += 1

        return build

    def _preload(self, fn):
        @functools.wraps(fn)
        def preload(cache, witnesses, **kwargs):
            self._in_preload = True
            try:
                return fn(cache, witnesses, **kwargs)
            finally:
                self._in_preload = False

        return preload

    def _read_chunk(self, fn):
        from repro.store.columnar import chunk_file_name

        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def read_chunk(path, index, templates):
            started = clock()
            records = fn(path, index, templates)
            seconds["read_chunk"] += clock() - started
            counts["read_chunk"] += 1
            counts["bytes_read"] += os.path.getsize(
                os.path.join(path, chunk_file_name(index))
            )
            return records

        return read_chunk

    def _encode_shard(self, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def encode_shard(records):
            started = clock()
            blob = fn(records)
            seconds["encode_shard"] += clock() - started
            counts["encode_shard"] += 1
            counts["bytes_encoded"] += len(blob)
            return blob

        return encode_shard

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced entry point; restore them all on exit."""
        global _ACTIVE
        from repro.pipeline import parallel, streaming
        from repro.skeleton import cache
        from repro.store import columnar

        patches: List[Tuple[object, str, object]] = []

        def patch(owner, name, wrap) -> None:
            original = getattr(owner, name)
            patches.append((owner, name, original))
            setattr(owner, name, wrap(original))

        try:
            patch(cache.TemplateCache, "fetch", self._fetch)
            patch(cache.TemplateCache, "build", self._build)
            patch(cache.TemplateCache, "preload", self._preload)
            patch(cache, "scan", functools.partial(self._timed, "scan"))
            patch(cache, "_raw_scan", functools.partial(self._timed, "raw_scan"))
            patch(
                cache.LazyParsedQuery,
                "_materialise",
                functools.partial(self._timed, "materialise"),
            )
            patch(columnar, "read_chunk", self._read_chunk)
            patch(
                streaming, "clean_block", functools.partial(self._timed, "clean_block")
            )
            patch(
                parallel,
                "shard_records",
                functools.partial(self._timed, "shard_records"),
            )
            patch(parallel, "encode_shard", self._encode_shard)
            patch(futures, "wait", functools.partial(self._timed, "wait"))
            if multiprocessing.get_start_method() == "fork":
                _ACTIVE = (self, parallel._clean_shard_encoded)
                patch(parallel, "_clean_shard_encoded", lambda fn: _traced_shard)
            yield self
        finally:
            _ACTIVE = None
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)


def _traced_shard(payload):
    """Pool-worker body under tracing: the shard's own layer counts ride
    home on its report."""
    tracer, original = _ACTIVE  # type: ignore[misc]
    tracer.reset()
    report = original(payload)
    report.traced_layers = tracer.snapshot()
    return report


def layer_metrics(tracer: Tracer, result, wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced call, by its ledger name.

    Stage seconds and parse counters come from the run's recorder ledger
    (``result.metrics``); tier, scanner, materialisation, store, block
    and data-plane figures from the tracer, with pool workers' counts
    folded in.  Parallel stage seconds are summed over workers, so
    ``pipeline.unattributed_s`` can be negative there.
    """
    stats = result.parallel_stats
    if stats is not None:
        for report in stats.shards:
            snapshot = getattr(report, "traced_layers", None)
            if snapshot is not None:
                tracer.absorb(snapshot)
    counts, seconds = tracer.counts, tracer.seconds
    stages = result.metrics.stages
    parse = stages["parse"].counters
    records_in = parse["records_in"]

    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[f"pipeline.{stage}_s"] = (
            stages[stage].wall_seconds if stage in stages else 0.0
        )
    metrics["pipeline.unattributed_s"] = wall - sum(
        metrics[f"pipeline.{stage}_s"] for stage in STAGES
    )

    fetches = sum(counts[tier] for tier in ("l1", "raw", "fp", "miss"))
    metrics["parse.memo_hits"] = records_in - fetches
    for tier in ("l1", "raw", "fp"):
        metrics[f"parse.{tier}_hits"] = counts[tier]
        metrics[f"parse.{tier}_s"] = seconds[tier]
    metrics["parse.misses"] = counts["miss"]
    metrics["parse.miss_s"] = seconds["miss"]
    metrics["parse.cold_builds"] = counts["build"]
    metrics["parse.cold_build_s"] = seconds["build"]
    metrics["parse.raw_scan_s"] = seconds["raw_scan"]
    metrics["parse.scan_s"] = seconds["scan"]
    metrics["parse.evictions"] = parse["parse_cache_evictions"]
    metrics["parse.hit_ratio"] = (
        parse["parse_cache_hits"] / records_in if records_in else 0.0
    )
    metrics["parse.materialised"] = counts["materialise"]
    metrics["parse.materialise_s"] = seconds["materialise"]

    metrics["store.read_s"] = seconds["read_chunk"]
    metrics["store.chunks_read"] = counts["read_chunk"]
    metrics["store.bytes_read"] = counts["bytes_read"]

    streaming = result.streaming_stats is not None
    metrics["streaming.clean_block_s"] = seconds["clean_block"]
    metrics["streaming.blocks_closed"] = counts["clean_block"]
    metrics["streaming.record_loop_s"] = (
        wall - seconds["clean_block"] - seconds["read_chunk"] if streaming else 0.0
    )

    metrics["parallel.shard_s"] = seconds["shard_records"]
    metrics["parallel.encode_s"] = seconds["encode_shard"]
    metrics["parallel.bytes_shipped"] = counts["bytes_encoded"]
    metrics["parallel.wait_s"] = seconds["wait"]
    shards = [report.records_in for report in stats.shards] if stats else []
    metrics["parallel.shards"] = len(shards)
    metrics["parallel.shard_skew"] = (
        max(shards) * len(shards) / sum(shards) if shards else 0.0
    )
    busy = sum(report.wall_seconds for report in stats.shards) if stats else 0.0
    metrics["parallel.worker_busy_s"] = busy
    metrics["parallel.worker_busy_share"] = busy / (wall * stats.workers) if stats else 0.0
    return metrics


def reconciliation(metrics: Dict[str, float], result) -> List[str]:
    """Cross-check the traced counts against the recorder's ledger;
    return the broken identities.  (Memo hits are derived from parse
    ``records_in``, so hits + misses == ``records_in`` holds by
    definition; with the first two laws it ties the tiers to the
    ledger's own hits + misses conservation law.)"""
    parse = result.metrics.stages["parse"].counters
    hits = sum(
        metrics[name]
        for name in ("parse.memo_hits", "parse.l1_hits", "parse.raw_hits", "parse.fp_hits")
    )
    laws = (
        ("tier hits + memo hits == parse_cache_hits", hits, parse["parse_cache_hits"]),
        ("misses == parse_cache_misses", metrics["parse.misses"], parse["parse_cache_misses"]),
        ("cold_builds == parse_cold", metrics["parse.cold_builds"], parse["parse_cold"]),
        (
            "materialised == parse_materialised",
            metrics["parse.materialised"],
            parse["parse_materialised"],
        ),
    )
    return [
        f"{law}: {left} != {right}" for law, left, right in laws if left != right
    ]
