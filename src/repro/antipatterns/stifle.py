"""Stifle detection — Definitions 11–14.

A Stifle (Definition 11) is a pattern (SQ1, …, SQn) where every query has

* exactly one predicate (CP = 1),
* with the equality operator (θ = 'equality'),
* filtering a *key* attribute (waived when no schema is available).

The class is determined by which clause differs across the run:

* **DW-Stifle** (Definition 12): same SC, FC and SWC, different WHERE
  *values* — the classic get-by-id loop of Example 5/9.
* **DS-Stifle** (Definition 13): same FC and WC (constants included!),
  different SELECT clauses — Example 11 reads two column sets of the same
  row.
* **DF-Stifle** (Definition 14): same WC, different FROM clauses —
  Example 13 reads the same object from redundant tables.

Detection scans each block for maximal runs of consecutive queries of the
stifle shape whose adjacent pairs agree on one class.  Runs never overlap
each other (the scan consumes queries), but they may overlap CTH
candidates — the paper's Table 2 shows exactly that double marking.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..patterns.models import Block, ParsedQuery
from ..skeleton.features import _lowered_key_set
from .base import DetectionContext
from .types import (
    DF_STIFLE,
    DS_STIFLE,
    DW_STIFLE,
    AntipatternInstance,
)


def has_stifle_shape(query: ParsedQuery, context: DetectionContext) -> bool:
    """CP = 1, θ = equality, filter column is a key attribute.

    Reads :meth:`~repro.patterns.models.ParsedQuery.filter_column`, which
    a lazy query answers from its interned entry without binding a
    predicate, against the context's key set lower-cased once
    (as :func:`~repro.skeleton.features.is_key_filter` does).
    """
    column = query.filter_column()
    if column is None:
        return False
    keys = _lowered_key_set(context.key_columns)
    return keys is None or column in keys


def classify_pair(first: ParsedQuery, second: ParsedQuery) -> Optional[str]:
    """Which Stifle class (if any) the adjacent pair belongs to.

    The clause comparisons follow Definitions 12–14 exactly, using the
    canonical clause renderings (identifiers case-folded, constants
    preserved) so that formatting noise never separates clauses.  Two
    lazy binds of one parse-cache entry compare them by constants
    instead of rendering them
    (:meth:`~repro.patterns.models.ParsedQuery.same_clauses`).
    """
    same_sc, same_fc, same_wc = first.same_clauses(second)
    same_swc = first.template.swc == second.template.swc

    if same_sc and same_fc and same_swc and not same_wc:
        return DW_STIFLE
    if same_fc and same_wc and not same_sc:
        return DS_STIFLE
    if same_wc and not same_fc:
        return DF_STIFLE
    return None


class StifleDetector:
    """Detects all three Stifle classes in one pass per block."""

    label = "Stifle"

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
            if not has_stifle_shape(queries[index], context):
                index += 1
                continue
            run_class = None
            end = index
            while end + 1 < len(queries):
                nxt = queries[end + 1]
                if not has_stifle_shape(nxt, context):
                    break
                pair_class = classify_pair(queries[end], nxt)
                if pair_class is None:
                    break
                if run_class is None:
                    run_class = pair_class
                elif pair_class != run_class:
                    break
                end += 1
            length = end - index + 1
            if run_class is not None and length >= context.min_run_length:
                run = queries[index : end + 1]
                instances.append(
                    AntipatternInstance(
                        label=run_class,
                        queries=run,
                        solvable=True,
                        details={
                            "filter_column": run[0].filter_column_name(),
                            "run_length": length,
                        },
                    )
                )
                index = end + 1
            else:
                index += 1
        return instances
