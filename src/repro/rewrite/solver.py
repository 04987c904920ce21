"""Solving antipatterns — the "Solve antipatterns" stage of Fig. 1.

The solver walks the detected instances in log order (Section 5.5: *solving
starts with the antipattern which appears in the log first*), applies the
registered rewrite rule of each solvable instance, and emits the clean
query log: the run's queries are replaced by a single rewritten statement
placed at the run's first position (cf. Table 2 → Table 3).

Instances whose queries were already consumed by an earlier solved
instance are skipped — that is the paper's conflict-resolution rule for
queries belonging to multiple solvable antipatterns.  Unsolvable instances
(CTH candidates) are recorded in the statistics and left in the log.

New rewrites plug in via :data:`REWRITE_RULES` (Section 5.4's "include it
in the step 'Solve antipatterns'").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..antipatterns.types import (
    DF_STIFLE,
    DS_STIFLE,
    DW_STIFLE,
    SNC,
    AntipatternInstance,
)
from ..log.models import LogRecord, QueryLog
from ..patterns.models import ParsedQuery
from ..sqlparser import ast_nodes as ast
from ..sqlparser.formatter import format_sql
from .snc_rewrite import rewrite_snc_statement
from .stifle_rewrites import (
    RewriteNotApplicable,
    rewrite_df_stifle,
    rewrite_ds_stifle,
    rewrite_dw_stifle,
)

#: A rewrite rule: queries of one instance → replacement statement.
RewriteRule = Callable[[Sequence[ParsedQuery]], ast.Statement]


def _snc_rule(queries: Sequence[ParsedQuery]) -> ast.Statement:
    rewritten = rewrite_snc_statement(queries[0].statement)
    if rewritten == queries[0].statement:
        raise RewriteNotApplicable("no NULL comparison found to rewrite")
    return rewritten


#: Label → rewrite rule.  Extending the framework with a new solvable
#: antipattern means registering its rule here (or passing a custom map
#: to :func:`solve`).
REWRITE_RULES: Dict[str, RewriteRule] = {
    DW_STIFLE: rewrite_dw_stifle,
    DS_STIFLE: rewrite_ds_stifle,
    DF_STIFLE: rewrite_df_stifle,
    SNC: _snc_rule,
}


@dataclass
class SolvedInstance:
    """Bookkeeping for one solved instance."""

    instance: AntipatternInstance
    replacement_sql: str
    replaced_seqs: Tuple[int, ...]


@dataclass
class SolveResult:
    """Outcome of the solving stage.

    :param log: the clean query log.
    :param solved: successfully rewritten instances.
    :param skipped_conflicts: instances skipped because an earlier solved
        instance already consumed some of their queries.
    :param not_applicable: solvable-by-label instances whose concrete
        shape the rewrite rule refused (kept in the log).
    :param unsolvable: detected instances with no rewrite rule (CTH).
    """

    log: QueryLog
    solved: List[SolvedInstance] = field(default_factory=list)
    skipped_conflicts: List[AntipatternInstance] = field(default_factory=list)
    not_applicable: List[AntipatternInstance] = field(default_factory=list)
    unsolvable: List[AntipatternInstance] = field(default_factory=list)

    def solved_counts(self) -> Dict[str, int]:
        """Number of solved instances per antipattern label."""
        counts: Dict[str, int] = {}
        for solved in self.solved:
            label = solved.instance.label
            counts[label] = counts.get(label, 0) + 1
        return counts

    @property
    def queries_removed(self) -> int:
        """How many statements the rewrites eliminated."""
        return sum(len(s.replaced_seqs) - 1 for s in self.solved)


def solve(
    log: QueryLog,
    instances: Sequence[AntipatternInstance],
    rules: Optional[Dict[str, RewriteRule]] = None,
) -> SolveResult:
    """Rewrite all solvable antipattern instances of ``log``.

    ``instances`` must reference records of ``log`` by their ``seq``
    numbers (the pipeline guarantees this).
    """
    if rules is None:
        rules = REWRITE_RULES

    ordered = sorted(instances, key=lambda inst: (inst.start_seq, inst.label))
    consumed: Set[int] = set()
    replacement_at: Dict[int, str] = {}
    dropped: Set[int] = set()

    result = SolveResult(log=log)  # placeholder; replaced below
    for instance in ordered:
        if not instance.solvable:
            result.unsolvable.append(instance)
            continue
        rule = rules.get(instance.label)
        if rule is None:
            result.unsolvable.append(instance)
            continue
        seqs = instance.record_seqs()
        if any(seq in consumed for seq in seqs):
            result.skipped_conflicts.append(instance)
            continue
        try:
            replacement = rule(instance.queries)
        except RewriteNotApplicable:
            result.not_applicable.append(instance)
            continue
        sql = format_sql(replacement)
        consumed.update(seqs)
        replacement_at[seqs[0]] = sql
        dropped.update(seqs[1:])
        result.solved.append(
            SolvedInstance(
                instance=instance, replacement_sql=sql, replaced_seqs=seqs
            )
        )

    records: List[LogRecord] = []
    for record in log:
        if record.seq in dropped:
            continue
        if record.seq in replacement_at:
            records.append(record.with_sql(replacement_at[record.seq]))
        else:
            records.append(record)
    # A subsequence of ``log`` with texts replaced in place: in order.
    if isinstance(log, QueryLog):
        result.log = QueryLog._in_order(records)
    else:
        result.log = QueryLog(records)
    return result


def remove(
    log: QueryLog, instances: Sequence[AntipatternInstance]
) -> QueryLog:
    """The *removal* variant used by the downstream study (Section 6.9):
    drop every query belonging to any detected antipattern instance
    instead of rewriting.  The result is smaller than the clean log."""
    doomed: Set[int] = set()
    for instance in instances:
        doomed.update(instance.record_seqs())
    return log.filter(lambda record: record.seq not in doomed)
