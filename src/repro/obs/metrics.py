"""Pipeline metrics — the accounting ledger of one cleaning run.

The paper's framework (Fig. 1, Table 5) is fundamentally an accounting
exercise: every stage drops, merges or flags queries, and the numbers
must add up.  :class:`PipelineMetrics` is that ledger, kept *per stage*:

* **counters** — integer facts (``records_in``, ``duplicates_removed``,
  ``pattern_instances``, …);
* **labelled counters** — counters broken down by a label dimension
  (antipatterns per class, solved instances per class);
* **wall_seconds / calls** — how long the stage ran and how often it was
  entered (once for batch, once per block for streaming, once per shard
  for parallel).

Two derived views make the ledger useful beyond logging:

* :meth:`PipelineMetrics.comparable` — the deterministic counter subset
  of the stages every executor runs.  Batch, streaming and parallel runs
  over the same log must produce *equal* comparable views; the
  differential suite (``tests/differential``) enforces it.
* :meth:`PipelineMetrics.conservation_violations` — the framework's
  conservation laws (``records_in == records_out + duplicates_removed``
  and friends) checked in one place, so any executor that miscounts is
  caught regardless of which test ran it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Stage names in execution order.  ``registry`` is batch-only (needs the
#: whole log), ``merge`` is parallel-only (parent-side re-ordering).
STAGES = (
    "validate",
    "dedup",
    "parse",
    "mine",
    "detect",
    "solve",
    "registry",
    "merge",
)

#: The stages every executor runs — the domain of :meth:`comparable`.
SHARED_STAGES = ("validate", "dedup", "parse", "mine", "detect", "solve")

#: Canonical counter names per shared stage (the docs' metric table).
#: Executors pre-create these at zero so that runs over degenerate
#: inputs (an empty log, a log with no antipatterns) still produce
#: structurally identical ledgers across batch / streaming / parallel.
#: ``records_quarantined`` counts records set aside by the error policy
#: (dropped under ``lenient``, captured under ``quarantine``).
STAGE_COUNTERS = {
    "validate": ("records_in", "records_out", "records_quarantined"),
    "dedup": ("records_in", "records_out", "duplicates_removed"),
    "parse": (
        "records_in",
        "records_out",
        "syntax_errors",
        "non_select",
        "records_quarantined",
        "parse_cache_hits",
        "parse_cache_misses",
        "parse_cache_evictions",
        "parse_lazy_hits",
        "parse_eager",
        "parse_materialised",
        "parse_cold",
        "parse_dict_preloaded",
        "interner_size",
    ),
    "mine": ("queries_in", "blocks", "pattern_instances", "periodic_runs"),
    "detect": ("blocks_in", "instances_detected"),
    "solve": (
        "records_in",
        "records_out",
        "instances_solved",
        "queries_removed",
        "skipped_conflicts",
        "not_applicable",
        "unsolvable",
    ),
}

#: Counters that are *not* executor-independent and therefore excluded
#: from :meth:`PipelineMetrics.comparable`.  The parse-cache traffic
#: depends on how records are partitioned: a parallel run misses once
#: per template per shard where batch misses once per template total.
#: The cache conservation law still holds per ledger (hits + misses ==
#: statements parsed), so correctness remains checkable.
#: ``interner_size`` is excluded for the same partitioning reason: each
#: parallel shard interns its own distinct templates, so the parse-stage
#: sum exceeds the run-global dictionary size that batch and streaming
#: book (the parallel merge stage carries the global count).
#: The lazy-parse trio follows the cache traffic: how many queries go
#: out lazy (and how many of those later materialise) depends on which
#: records each cache instance saw first, so only the ledger-local law
#: ``parse_lazy_hits + parse_eager == records_out`` is portable.
#: ``parse_cold`` rides with the cache misses it mirrors, and
#: ``parse_dict_preloaded`` with how many preloads a run makes: one per
#: run for every executor (the parallel parent books its run's single
#: preload; pool workers preload theirs from its shipped witnesses and
#: book none), but a resumed streaming run adds its checkpoint's on top.
EXECUTOR_DEPENDENT_COUNTERS = {
    "parse": frozenset(
        {
            "parse_cache_hits",
            "parse_cache_misses",
            "parse_cache_evictions",
            "parse_lazy_hits",
            "parse_eager",
            "parse_materialised",
            "parse_cold",
            "parse_dict_preloaded",
            "interner_size",
        }
    ),
}

#: Counters the parallel executor books on its parent-side ``merge``
#: stage.  The merge stage is deliberately *not* part of
#: :data:`STAGE_COUNTERS` (and hence never of :meth:`PipelineMetrics
#: .comparable`): it exists only under the parallel executor, so these
#: are observability for the data plane, not cross-executor contracts.
#: ``bytes_shipped`` is the total encoded shard-buffer bytes handed to
#: workers (each shard's buffer counted once; retries reuse it; 0 when
#: the run's single shard ran inline).
MERGE_COUNTERS = (
    "records_out",
    "shards_retried",
    "shards_failed",
    "bytes_shipped",
    "interner_size",
)

#: Counters ``repro.clean`` books on a ``store`` stage when its input is
#: a columnar store, under every executor: the chunk files read and
#: their compressed size on disk (the stage's wall time is the time
#: spent loading and decoding them).  Like the merge stage, ``store`` is
#: outside :meth:`PipelineMetrics.comparable` — a resumed checkpointed
#: run reads only the chunks its predecessor had not finished — and
#: in-memory inputs book no ``store`` stage at all.
STORE_COUNTERS = ("chunks_read", "bytes_read")


@dataclass
class StageMetrics:
    """Counters and timing of one pipeline stage.

    :param name: stage name (one of :data:`STAGES` for built-in stages;
        custom stages may use any name).
    :param counters: integer counters, e.g. ``records_in``.
    :param labels: labelled counters: counter name → label → value
        (e.g. ``{"antipatterns": {"dwStifle": 3}}``).
    :param wall_seconds: total wall-clock seconds spent in the stage.
    :param calls: how many times the stage was entered.
    """

    name: str
    counters: Dict[str, int] = field(default_factory=dict)
    labels: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    calls: int = 0

    def count(self, counter: str, value: int = 1) -> None:
        """Add ``value`` to ``counter``."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def count_label(self, counter: str, label: str, value: int = 1) -> None:
        """Add ``value`` to the ``label`` bucket of ``counter``."""
        bucket = self.labels.setdefault(counter, {})
        bucket[label] = bucket.get(label, 0) + value

    def get(self, counter: str, default: int = 0) -> int:
        return self.counters.get(counter, default)

    def merge(self, other: "StageMetrics") -> None:
        """Fold another stage's numbers into this one (sharded runs)."""
        for counter, value in other.counters.items():
            self.count(counter, value)
        for counter, bucket in other.labels.items():
            for label, value in bucket.items():
                self.count_label(counter, label, value)
        self.wall_seconds += other.wall_seconds
        self.calls += other.calls

    def as_dict(self, include_timings: bool = True) -> Dict[str, object]:
        """Deterministically ordered plain-dict rendering."""
        data: Dict[str, object] = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.labels:
            data["labels"] = {
                counter: {k: bucket[k] for k in sorted(bucket)}
                for counter, bucket in sorted(self.labels.items())
            }
        if include_timings:
            data["wall_seconds"] = self.wall_seconds
            data["calls"] = self.calls
        return data

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]) -> "StageMetrics":
        """Inverse of :meth:`as_dict` (checkpoint restore)."""
        return cls(
            name=name,
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            labels={
                counter: dict(bucket)
                for counter, bucket in data.get("labels", {}).items()  # type: ignore[union-attr]
            },
            wall_seconds=float(data.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            calls=int(data.get("calls", 0)),  # type: ignore[arg-type]
        )


@dataclass
class PipelineMetrics:
    """All stages' metrics of one pipeline run.

    Plain data (dicts, ints, floats) throughout, so the object pickles
    across ``multiprocessing`` workers and serialises to JSON directly.
    """

    stages: Dict[str, StageMetrics] = field(default_factory=dict)

    def stage(self, name: str) -> StageMetrics:
        """The metrics of stage ``name``, created empty on first use."""
        metrics = self.stages.get(name)
        if metrics is None:
            metrics = StageMetrics(name=name)
            self.stages[name] = metrics
        return metrics

    def merge(self, other: "PipelineMetrics") -> None:
        """Fold another run's ledger into this one (sharded runs)."""
        for name, stage in other.stages.items():
            self.stage(name).merge(stage)

    def ensure_counters(self) -> None:
        """Create every canonical shared-stage counter at zero.

        Executors call this once per run so that ledgers are structurally
        identical across execution modes even when a stage saw no work.
        """
        for name, counters in STAGE_COUNTERS.items():
            stage = self.stage(name)
            for counter in counters:
                stage.counters.setdefault(counter, 0)

    # ------------------------------------------------------------------
    # Views

    def _ordered_names(self) -> List[str]:
        known = [name for name in STAGES if name in self.stages]
        extra = sorted(name for name in self.stages if name not in STAGES)
        return known + extra

    def as_dict(self, include_timings: bool = True) -> Dict[str, object]:
        """Deterministically ordered plain-dict rendering of every stage.

        With ``include_timings=False`` the result contains only the
        deterministic counters — the form the golden-file test pins.
        """
        return {
            "stages": {
                name: self.stages[name].as_dict(include_timings)
                for name in self._ordered_names()
            }
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PipelineMetrics":
        """Inverse of :meth:`as_dict` (checkpoint restore).

        A ledger serialised with ``include_timings=False`` restores with
        zero wall times and call counts — counters round-trip exactly.
        """
        metrics = cls()
        for name, stage_data in data.get("stages", {}).items():  # type: ignore[union-attr]
            metrics.stages[name] = StageMetrics.from_dict(name, stage_data)
        return metrics

    def comparable(self) -> Dict[str, Dict[str, object]]:
        """The executor-independent view: counters and labelled counters
        of the :data:`SHARED_STAGES` only — no wall times, no call
        counts (batch enters ``detect`` once, streaming once per block).

        Two runs of different executors over the same log must return
        equal values here; that is the contract the differential suite
        asserts.
        """
        view: Dict[str, Dict[str, object]] = {}
        for name in SHARED_STAGES:
            stage = self.stages.get(name)
            if stage is None:
                continue
            data = stage.as_dict(include_timings=False)
            dependent = EXECUTOR_DEPENDENT_COUNTERS.get(name)
            if dependent:
                counters = data["counters"]
                data["counters"] = {
                    key: value
                    for key, value in counters.items()  # type: ignore[union-attr]
                    if key not in dependent
                }
            view[name] = data
        return view

    # ------------------------------------------------------------------
    # Conservation laws

    def conservation_violations(self) -> List[str]:
        """Check Fig. 1's accounting identities; return the broken ones.

        An empty list means every query is accounted for:

        * validate: ``records_in == records_out + records_quarantined``
        * dedup:  ``records_in == records_out + duplicates_removed``
        * parse:  ``records_in == records_out + syntax_errors +
          non_select + records_quarantined``
        * solve:  ``records_in == records_out + queries_removed``
        * parse cache (when it booked traffic): ``parse_cache_hits +
          parse_cache_misses == parse.records_in`` — every statement
          entering the parse stage consults the cache exactly once.
        * lazy parse (when the counters exist): ``parse_lazy_hits +
          parse_eager == parse.records_out`` — every emitted query is
          either a lazy skeleton bind or a fully materialised parse.
        * cold parse (when the cache ran and the counter exists):
          ``parse_cold == parse_cache_misses`` — every cache miss goes
          through the full parser exactly once.
        * hand-offs: validate out == dedup in, dedup out == parse in,
          parse out == mine in == solve in.
        """
        violations: List[str] = []

        def check(law: str, left: Optional[int], right: Optional[int]) -> None:
            if left is None or right is None:
                return
            if left != right:
                violations.append(f"{law}: {left} != {right}")

        def counter(stage: str, name: str) -> Optional[int]:
            metrics = self.stages.get(stage)
            if metrics is None or name not in metrics.counters:
                return None
            return metrics.counters[name]

        validate_in = counter("validate", "records_in")
        validate_out = counter("validate", "records_out")
        validate_quarantined = counter("validate", "records_quarantined")
        if None not in (validate_in, validate_out, validate_quarantined):
            check(
                "validate: records_in == records_out + records_quarantined",
                validate_in,
                validate_out + validate_quarantined,
            )

        dedup_in = counter("dedup", "records_in")
        dedup_out = counter("dedup", "records_out")
        dups = counter("dedup", "duplicates_removed")
        if None not in (dedup_in, dedup_out, dups):
            check(
                "dedup: records_in == records_out + duplicates_removed",
                dedup_in,
                dedup_out + dups,
            )

        parse_in = counter("parse", "records_in")
        parse_out = counter("parse", "records_out")
        syntax = counter("parse", "syntax_errors")
        non_select = counter("parse", "non_select")
        # Pre-quarantine ledgers have no records_quarantined counter;
        # treat its absence as zero so old ledgers still validate.
        parse_quarantined = counter("parse", "records_quarantined") or 0
        if None not in (parse_in, parse_out, syntax, non_select):
            check(
                "parse: records_in == records_out + syntax_errors"
                " + non_select + records_quarantined",
                parse_in,
                parse_out + syntax + non_select + parse_quarantined,
            )

        cache_hits = counter("parse", "parse_cache_hits") or 0
        cache_misses = counter("parse", "parse_cache_misses") or 0
        if cache_hits + cache_misses:
            # Zero traffic means the cacheless reference parse (or a
            # pre-cache ledger); the law only binds when the cache ran.
            check(
                "parse-cache: parse_cache_hits + parse_cache_misses"
                " == parse.records_in",
                cache_hits + cache_misses,
                parse_in,
            )

        cold = counter("parse", "parse_cold")
        if cache_hits + cache_misses and cold is not None:
            # Ledgers from before parse engine v3 have no parse_cold
            # counter; the law binds only when both sides were booked.
            check(
                "cold-parse: parse_cold == parse_cache_misses",
                cold,
                cache_misses,
            )

        lazy_hits = counter("parse", "parse_lazy_hits") or 0
        eager = counter("parse", "parse_eager") or 0
        if lazy_hits + eager:
            # Like the cache law: zero traffic means a ledger from
            # before the lazy fast path (or one assembled by hand) —
            # the law only binds when the parse stage booked emissions.
            check(
                "lazy-parse: parse_lazy_hits + parse_eager"
                " == parse.records_out",
                lazy_hits + eager,
                parse_out,
            )

        solve_in = counter("solve", "records_in")
        solve_out = counter("solve", "records_out")
        removed = counter("solve", "queries_removed")
        if None not in (solve_in, solve_out, removed):
            check(
                "solve: records_in == records_out + queries_removed",
                solve_in,
                solve_out + removed,
            )

        check("hand-off: validate.records_out == dedup.records_in",
              validate_out, dedup_in)
        check("hand-off: dedup.records_out == parse.records_in",
              dedup_out, parse_in)
        check("hand-off: parse.records_out == mine.queries_in",
              parse_out, counter("mine", "queries_in"))
        check("hand-off: parse.records_out == solve.records_in",
              parse_out, solve_in)
        return violations
