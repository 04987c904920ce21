"""Sliding-window-search (SWS) pattern detection (Section 6.5).

SWS patterns are *frequent* patterns with *low user popularity* whose
instances walk disjoint filter windows across the data space — "machine
downloads" of a database that caps result sizes.  The paper does not class
them as antipatterns (no performance harm) but flags them because they
bias user-interest analyses and recommendation training sets.

Detection has two layers:

* the threshold classification of Table 8 — frequency ≥ ``min_frequency``
  (given as a share of the log) and userPopularity ≤ ``max_popularity``;
* an optional *shape check*: the instances' filter constants must be
  (mostly) non-repeating, the signature of a window sliding over the data
  rather than a user re-examining the same objects.  The check inspects
  every literal of each instance's WHERE clauses — number, string and
  NULL — in :meth:`~repro.sqlparser.ast_nodes.Node.walk` (pre-)order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .models import PatternInstance
from .registry import PatternRegistry, PatternStats

SWS_LABEL = "SWS"


def _instance_constants(instance: PatternInstance) -> Tuple[str, ...]:
    """All literals (number, string and NULL) of an instance's WHERE
    clauses as ``kind:value`` strings, in walk order.

    Read through :meth:`~.models.ParsedQuery.where_constants`: a lazy query
    formats its entry's WHERE plan from its constant vector, so the
    check builds no AST for the parse cache's members.
    """
    constants: List[str] = []
    for query in instance.queries:
        constants.extend(query.where_constants())
    return tuple(constants)


@dataclass(frozen=True)
class SwsConfig:
    """Thresholds of the SWS classification.

    :param min_frequency_share: minimal pattern frequency as a fraction of
        the total instance count (Table 8 uses 10 %, 1 %, 0.1 %, 0.01 %).
    :param max_popularity: maximal userPopularity (Table 8 uses 1–16).
    :param check_disjoint_windows: also require the sliding-window shape
        (mostly fresh constants across instances).
    :param min_fresh_share: fraction of instances that must carry a
        constant tuple not seen in earlier instances of the same pattern.
    :param skip_antipatterns: never classify a pattern already labelled an
        antipattern as SWS (the paper treats SWS and antipatterns as
        disjoint phenomena: SWS "does not have a negative performance
        effect", Section 6.5).
    """

    min_frequency_share: float = 0.001
    max_popularity: int = 2
    check_disjoint_windows: bool = True
    min_fresh_share: float = 0.8
    skip_antipatterns: bool = True


@dataclass
class SwsReport:
    """Result of one SWS scan."""

    patterns: List[PatternStats]
    covered_queries: int
    total_queries: int

    @property
    def coverage(self) -> float:
        """Share of the (parsed) log covered by SWS patterns — the cell
        value of Table 8."""
        return self.covered_queries / self.total_queries if self.total_queries else 0.0


def detect_sws(
    registry: PatternRegistry,
    instances: Iterable[PatternInstance],
    config: SwsConfig = SwsConfig(),
    *,
    mark: bool = True,
) -> SwsReport:
    """Classify SWS patterns and (optionally) label them in the registry.

    :param instances: the miner's instances — needed for the shape check;
        pass an empty iterable when ``check_disjoint_windows`` is False.
    """
    total_instances = registry.total_instances()
    total_queries = registry.total_queries()
    min_frequency = max(1.0, config.min_frequency_share * total_instances)

    # Candidates are keyed the way the registry keys its rows: interned
    # unit ids when the mining run interned its queries (int-tuple
    # hashing on the per-instance loop below), string units otherwise.
    candidates: Dict[Tuple, PatternStats] = {}
    for stats in registry:
        if config.skip_antipatterns and stats.is_antipattern:
            continue
        if stats.frequency >= min_frequency and (
            0 < stats.user_popularity <= config.max_popularity
        ):
            key = stats.unit_ids if stats.unit_ids is not None else stats.unit
            candidates[key] = stats

    if config.check_disjoint_windows and candidates:
        seen: Dict[Tuple, Set[Tuple[str, ...]]] = {}
        fresh: Dict[Tuple, int] = {}
        counted: Dict[Tuple, int] = {}
        for instance in instances:
            key = instance.unit_ids or instance.unit
            if key not in candidates:
                continue
            constants = _instance_constants(instance)
            counted[key] = counted.get(key, 0) + 1
            bucket = seen.setdefault(key, set())
            if constants not in bucket:
                fresh[key] = fresh.get(key, 0) + 1
                bucket.add(constants)
        for unit in list(candidates):
            total = counted.get(unit, 0)
            if total == 0:
                # No instance reached us (caller passed a subset); keep the
                # candidate on threshold evidence alone.
                continue
            fresh_share = fresh.get(unit, 0) / total
            if fresh_share < config.min_fresh_share:
                del candidates[unit]

    selected = sorted(candidates.values(), key=lambda s: -s.frequency)
    if mark:
        for stats in selected:
            stats.antipattern_types.add(SWS_LABEL)
    return SwsReport(
        patterns=selected,
        covered_queries=sum(stats.query_count for stats in selected),
        total_queries=total_queries,
    )


def coverage_grid(
    registry: PatternRegistry,
    instances: Sequence[PatternInstance],
    frequency_shares: Sequence[float] = (0.10, 0.01, 0.001, 0.0001),
    popularities: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    check_disjoint_windows: bool = False,
) -> List[List[float]]:
    """Reproduce Table 8: SWS coverage for a grid of thresholds.

    Rows follow ``popularities``, columns follow ``frequency_shares``;
    cells are coverage fractions of the parsed log.  The shape check is
    off by default because Table 8 varies only the two thresholds.
    """
    grid: List[List[float]] = []
    for popularity in popularities:
        row: List[float] = []
        for share in frequency_shares:
            config = SwsConfig(
                min_frequency_share=share,
                max_popularity=popularity,
                check_disjoint_windows=check_disjoint_windows,
            )
            report = detect_sws(registry, instances, config, mark=False)
            row.append(report.coverage)
        grid.append(row)
    return grid
