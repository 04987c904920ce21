"""Data model of the mining stage: parsed queries, blocks, instances.

The pipeline's *Parsed Query Log* (Fig. 1 / Table 2) is a list of
:class:`ParsedQuery` — each log record joined with its syntax tree, its
query template and the precomputed clause features the antipattern
definitions quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple

from ..log.models import LogRecord
from ..skeleton import (
    ClauseTexts,
    QueryTemplate,
    TemplateInterner,
    build_clause_texts,
    build_template,
    template_fingerprint,
)
from ..skeleton.features import (
    Predicate,
    null_comparison_predicates,
    output_columns,
    predicate_facts,
)
from ..sqlparser import ast_nodes as ast


@dataclass(frozen=True)
class ParsedQuery:
    """One successfully parsed SELECT statement of the log.

    :param record: the underlying log record.
    :param statement: full parsed statement (may be a Union).
    :param select: the leading SELECT of the statement — the clause-level
        definitions (Defs. 11–15) quantify over this.
    :param template: the query template (Definition 4).
    :param template_id: stable fingerprint of :attr:`template`.
    :param clauses: canonical SC/FC/WC texts, constants preserved.
    :param predicate_count: CP of Definition 11.
    :param equality_filter: the single ``column = constant`` predicate,
        when the WHERE clause consists of exactly that (else ``None``).
    :param outputs: lower-cased output column names (``'*'`` for stars).
    :param interned_id: run-scoped dense int for :attr:`template_id`,
        assigned by the executor's
        :class:`~repro.skeleton.interner.TemplateInterner` (``-1`` when
        the query was built outside a pipeline run).  Excluded from
        equality: it is per-run bookkeeping, not parse semantics.
    """

    record: LogRecord
    statement: ast.Statement
    select: ast.SelectStatement
    template: QueryTemplate
    template_id: str
    clauses: ClauseTexts
    predicate_count: int
    equality_filter: Optional[Predicate]
    outputs: frozenset
    interned_id: int = field(default=-1, compare=False)

    @property
    def timestamp(self) -> float:
        return self.record.timestamp

    @property
    def user(self) -> str:
        return self.record.user_key()

    def null_predicate_count(self) -> int:
        """Number of ``= NULL`` / ``<> NULL`` predicates (the SNC shape).

        Memoised into ``__dict__`` (like :class:`Block`'s id tuples) —
        the SNC detector asks for every query of every block.  The lazy
        subclass answers from its interned entry without building the
        AST; this eager default derives it from :attr:`select`.
        """
        count = self.__dict__.get("_null_predicates")
        if count is None:
            count = len(null_comparison_predicates(self.select))
            self.__dict__["_null_predicates"] = count
        return count

    # The facts below are what the post-parse hot loops (SWS, Stifle,
    # CTH, the DW rewrite) read.  Each eager default derives its answer
    # from the AST or the bound predicate; the lazy subclass answers
    # from its interned entry and its constant vector instead.

    def where_constants(self) -> Tuple[str, ...]:
        """Every literal (number, string and NULL) of the leading
        SELECT's WHERE clause as a ``kind:value`` string, in
        :meth:`~repro.sqlparser.ast_nodes.Node.walk` (pre-)order — the
        SWS shape check's constant tuple."""
        where = self.select.where
        if where is None:
            return ()
        return tuple(
            f"{node.kind}:{node.value}"
            for node in where.walk()
            if isinstance(node, ast.Literal)
        )

    def filter_column(self) -> Optional[str]:
        """Lower-cased :meth:`filter_column_name`."""
        name = self.filter_column_name()
        return None if name is None else name.lower()

    def filter_column_name(self) -> Optional[str]:
        """The column of :attr:`equality_filter` as written, or ``None``
        when the query has no single equality filter."""
        predicate = self.equality_filter
        if predicate is None or predicate.column is None:
            return None
        return predicate.column.name

    def filter_value(self) -> Optional[ast.Literal]:
        """The constant side of :attr:`equality_filter`, or ``None``."""
        predicate = self.equality_filter
        return None if predicate is None else predicate.value

    def same_clauses(self, other: "ParsedQuery") -> Tuple[bool, bool, bool]:
        """Whether this query and ``other`` agree on their SC, FC and WC
        texts (constants included), in that order."""
        mine, theirs = self.clauses, other.clauses
        return (mine.sc == theirs.sc, mine.fc == theirs.fc, mine.wc == theirs.wc)

    @classmethod
    def from_statement(
        cls,
        record: LogRecord,
        statement: ast.Statement,
        *,
        fold_variables: bool = False,
        strict_triple: bool = False,
        interner: Optional[TemplateInterner] = None,
    ) -> "ParsedQuery":
        """Build a :class:`ParsedQuery`, computing template and features.

        With an ``interner`` the fingerprint is interned inline and the
        query carries its run-scoped :attr:`interned_id`.
        """
        select = statement
        while isinstance(select, ast.Union):
            select = select.left
        assert isinstance(select, ast.SelectStatement)
        template = build_template(
            statement,
            fold_variables=fold_variables,
            strict_triple=strict_triple,
        )
        return cls.assemble(
            record,
            statement,
            select,
            template,
            template_fingerprint(template),
            build_clause_texts(statement),
            interner,
        )

    @classmethod
    def assemble(
        cls,
        record: LogRecord,
        statement: ast.Statement,
        select: ast.SelectStatement,
        template: QueryTemplate,
        template_id: str,
        clauses: ClauseTexts,
        interner: Optional[TemplateInterner],
    ) -> "ParsedQuery":
        """Build a freshly parsed query around its template and clauses.

        The one constructor of both cold paths, cacheless
        (:meth:`from_statement`) and cached
        (:meth:`repro.skeleton.cache.TemplateCache.build`): one
        :func:`~repro.skeleton.features.predicate_facts` pass gives CP,
        the equality filter and the NULL-comparison count, which seeds
        :meth:`null_predicate_count`'s memo.
        """
        predicate_count, equality_filter, nulls = predicate_facts(select)
        query = cls(
            record=record,
            statement=statement,
            select=select,
            template=template,
            template_id=template_id,
            clauses=clauses,
            predicate_count=predicate_count,
            equality_filter=equality_filter,
            outputs=frozenset(output_columns(select)),
            interned_id=-1 if interner is None else interner.intern(template_id),
        )
        query.__dict__["_null_predicates"] = nulls
        return query


@dataclass(frozen=True)
class Block:
    """A maximal same-user burst of queries.

    Definition 8's axioms — same user, time-ordered, no intervening query
    from that user — are satisfied by construction for any *consecutive*
    slice of a block.  The additional "short time between them" property
    (Section 4.1.1) is enforced by the miner's ``block_gap``: consecutive
    queries more than that many seconds apart start a new block.
    """

    user: str
    queries: Tuple[ParsedQuery, ...]

    def __len__(self) -> int:
        return len(self.queries)

    # The id tuples below are memoised straight into ``__dict__`` — the
    # one mutation a frozen dataclass allows — because the miner, the
    # detectors and clean_block's re-segmentation all ask for the same
    # block's ids.  ``__dict__`` entries pickle along with the block (the
    # parallel executor's requirement) and never enter the generated
    # ``__eq__``/``__repr__``, which only consult the declared fields.

    def template_ids(self) -> Tuple[str, ...]:
        """The queries' template fingerprints, in order (cached)."""
        ids = self.__dict__.get("_template_ids")
        if ids is None:
            # map(attrgetter) keeps the extraction loop in C; blocks
            # cover the whole log, so this runs once per parsed query.
            ids = tuple(map(_template_id_of, self.queries))
            self.__dict__["_template_ids"] = ids
        return ids

    def interned_ids(self) -> Optional[Tuple[int, ...]]:
        """The queries' run-scoped interned template ids (cached), or
        ``None`` when any query was built outside a pipeline run — such
        ids would not share one interner, so they cannot be trusted as
        global template identity (use :meth:`local_ids` then)."""
        cached = self.__dict__.get("_interned_ids", -1)
        if cached == -1:
            ids = tuple(map(_interned_id_of, self.queries))
            cached = ids if (not ids or min(ids) >= 0) else None
            self.__dict__["_interned_ids"] = cached
        return cached

    def local_ids(self) -> Tuple[int, ...]:
        """Block-local dense encoding of :meth:`template_ids` (cached).

        Equality within this block matches fingerprint equality exactly,
        so segmentation kernels can always run on ints; the ids carry no
        meaning outside the block.
        """
        ids = self.__dict__.get("_local_ids")
        if ids is None:
            local: dict = {}
            setdefault = local.setdefault
            ids = tuple(
                setdefault(template_id, len(local))
                for template_id in self.template_ids()
            )
            self.__dict__["_local_ids"] = ids
        return ids

    def slice(self, start: int, stop: int) -> Tuple[ParsedQuery, ...]:
        return self.queries[start:stop]


_template_id_of = attrgetter("template_id")
_interned_id_of = attrgetter("interned_id")


@dataclass(frozen=True)
class PatternInstance:
    """One instance (Definition 8) of a pattern: one cycle of its unit.

    :param unit: the pattern identity — the sequence of template ids
        (SQ1, …, SQn) of Definition 7.
    :param queries: the instance's queries, one per unit position.
    :param unit_ids: ``unit`` as run-scoped interned ints (``None`` when
        the queries were not interned).  Excluded from equality: ids are
        not comparable across runs.
    """

    unit: Tuple[str, ...]
    queries: Tuple[ParsedQuery, ...]
    unit_ids: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    @property
    def user(self) -> str:
        return self.queries[0].user

    @property
    def start_time(self) -> float:
        return self.queries[0].timestamp


@dataclass(frozen=True)
class PeriodicRun:
    """A maximal periodic segment of a block: ``repeats`` back-to-back
    cycles of ``unit``.  Stifle instances are exactly such runs (with
    repeats ≥ 2 and the clause conditions of Defs. 12–14); the run object
    keeps the underlying queries together so a solver can rewrite the
    whole run into a single statement."""

    unit: Tuple[str, ...]
    queries: Tuple[ParsedQuery, ...]
    repeats: int
    #: ``unit`` as run-scoped interned ints (``None`` when the queries
    #: were not interned); excluded from equality like everywhere else.
    unit_ids: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    @property
    def user(self) -> str:
        return self.queries[0].user

    def cycles(self) -> List[Tuple[ParsedQuery, ...]]:
        """The run's queries grouped per cycle."""
        period = len(self.unit)
        return [
            self.queries[i : i + period]
            for i in range(0, len(self.queries), period)
        ]
