"""Circuitous-Treasure-Hunt detection — Definition 15 and Section 6.6.

A CTH candidate is a pattern (SQ1, …, SQn) where

* SQ1 ≠ SQ2 (the first query differs from the follow-ups),
* every follow-up has exactly one predicate, θ = 'equality',
* the follow-ups' filter columns appear in SQ1's SELECT clause — the hint
  that the result of the first query feeds the others (a join computed
  outside the database).

Re-querying is ruled out (Section 1), so only *candidates* can be
detected.  The paper resolves candidates to real CTHs by expert judgement
(28 of 50); the experts' published rule — "the decision regarding the next
statement is predefined", evidenced by zero think-time between first query
and follow-up (Table 9 vs Table 10) — is mechanised here as
:func:`classify_candidate`, and the workload generator's ground truth lets
the benchmarks score it like Fig. 2(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..patterns.models import Block, ParsedQuery
from .base import DetectionContext
from .types import CTH_CANDIDATE, AntipatternInstance


def _followup_matches(first: ParsedQuery, follow: ParsedQuery) -> bool:
    """Does ``follow`` look like it consumes ``first``'s result?"""
    column = follow.filter_column()
    if column is None:
        return False
    # SQ1 ≠ SQ2 (Definition 15's first axiom).  Template identity is an
    # int compare when both queries carry run-scoped interned ids (the
    # pipeline always interns); the fingerprint strings are the fallback
    # for hand-built queries.
    first_id = first.interned_id
    follow_id = follow.interned_id
    if first_id >= 0 and follow_id >= 0:
        if follow_id == first_id:
            return False
    elif follow.template_id == first.template_id:
        return False
    return column in first.outputs or "*" in first.outputs


#: Default think-time bound (seconds) of the real-CTH oracle: Table 10's
#: real candidate has a zero gap, Table 9's false one 27 seconds.
DEFAULT_THINK_TIME = 2.0


def classify_candidate(
    instance: AntipatternInstance, think_time: float = DEFAULT_THINK_TIME
) -> bool:
    """The mechanised expert rule: a candidate is a *real* CTH when the
    first follow-up arrives within ``think_time`` seconds of the first
    query — no human reflection in between, so the decision about the next
    statement was predefined (Section 6.6, Example 17)."""
    first, followups = instance.queries[0], instance.queries[1:]
    if not followups:
        return False
    gap = followups[0].timestamp - first.timestamp
    return gap <= think_time


class CthDetector:
    """Scans blocks for first-query + follow-up-run shapes."""

    label = CTH_CANDIDATE

    def __init__(self, think_time: float = DEFAULT_THINK_TIME) -> None:
        self.think_time = think_time

    def detect(
        self, blocks: Sequence[Block], context: DetectionContext
    ) -> List[AntipatternInstance]:
        instances: List[AntipatternInstance] = []
        for block in blocks:
            instances.extend(self._scan_block(block, context))
        return instances

    def _scan_block(
        self, block: Block, context: DetectionContext
    ) -> List[AntipatternInstance]:
        queries = block.queries
        instances: List[AntipatternInstance] = []
        index = 0
        while index < len(queries) - 1:
            first = queries[index]
            end = index
            while (
                end + 1 < len(queries)
                and end - index < context.cth_max_followups
                and _followup_matches(first, queries[end + 1])
            ):
                end += 1
            if end > index:
                run = queries[index : end + 1]
                instance = AntipatternInstance(
                    label=CTH_CANDIDATE,
                    queries=run,
                    solvable=False,
                    details={
                        "followups": end - index,
                        "first_template": first.template_id,
                        "followup_template": queries[index + 1].template_id,
                    },
                )
                verdict = classify_candidate(instance, self.think_time)
                instance.details["oracle_real"] = verdict
                instances.append(instance)
                # The follow-up run may itself open a new hunt; resume at
                # its first query so chained hunts are all found.
                index = index + 1
            else:
                index += 1
        return instances


@dataclass
class CthCensusRow:
    """Aggregate of one CTH candidate *pattern* (first template +
    follow-up template), the unit Fig. 2(d) ranks."""

    key: Tuple[str, str]
    first_skeleton: str
    followup_skeleton: str
    frequency: int = 0
    users: Set[str] = None  # type: ignore[assignment]
    oracle_real_votes: int = 0

    def __post_init__(self) -> None:
        if self.users is None:
            self.users = set()

    @property
    def user_popularity(self) -> int:
        return len(self.users)

    @property
    def oracle_real(self) -> bool:
        """Majority vote of the per-instance oracle."""
        return self.oracle_real_votes * 2 > self.frequency


def cth_census(instances: Sequence[AntipatternInstance]) -> List[CthCensusRow]:
    """Aggregate CTH candidate instances into ranked pattern rows."""
    rows: Dict[Tuple[str, str], CthCensusRow] = {}
    for instance in instances:
        if instance.label != CTH_CANDIDATE:
            continue
        key = (
            str(instance.details["first_template"]),
            str(instance.details["followup_template"]),
        )
        row = rows.get(key)
        if row is None:
            row = CthCensusRow(
                key=key,
                first_skeleton=instance.queries[0].template.skeleton_sql,
                followup_skeleton=instance.queries[1].template.skeleton_sql,
            )
            rows[key] = row
        row.frequency += 1
        row.users.add(instance.user)
        if instance.details.get("oracle_real"):
            row.oracle_real_votes += 1
    ranked = sorted(rows.values(), key=lambda r: -r.frequency)
    return ranked
