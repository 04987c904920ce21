"""Unit tests for the predicate census (repro.skeleton.features)."""

import pytest

from repro.skeleton.features import (
    THETA_EQUALITY,
    THETA_IN,
    THETA_INEQUALITY,
    THETA_IS_NULL,
    THETA_LIKE,
    THETA_RANGE,
    _lowered_key_set,
    filter_columns,
    is_key_filter,
    null_comparison_predicates,
    output_columns,
    predicate_facts,
    predicates_of,
    referenced_tables,
    single_equality_filter,
)
from repro.sqlparser import parse_select


class TestPredicateCensus:
    def test_no_where_means_zero_predicates(self):
        assert predicate_facts(parse_select("SELECT a FROM t"))[0] == 0

    def test_single_equality(self):
        predicates = predicates_of(parse_select("SELECT a FROM t WHERE id = 5"))
        assert len(predicates) == 1
        assert predicates[0].theta == THETA_EQUALITY
        assert predicates[0].column.name == "id"
        assert predicates[0].value.value == "5"

    def test_reversed_equality_still_finds_column(self):
        predicate = predicates_of(parse_select("SELECT a FROM t WHERE 5 = id"))[0]
        assert predicate.column.name == "id"

    def test_conjunction_counts_both(self):
        statement = parse_select("SELECT a FROM t WHERE a = 1 AND b > 2")
        assert predicate_facts(statement)[0] == 2

    def test_disjunction_counts_both(self):
        statement = parse_select("SELECT a FROM t WHERE a = 1 OR b = 2")
        assert predicate_facts(statement)[0] == 2

    def test_not_descends(self):
        predicate = predicates_of(
            parse_select("SELECT a FROM t WHERE NOT a = 1")
        )[0]
        assert predicate.theta == THETA_EQUALITY

    @pytest.mark.parametrize(
        "sql,theta",
        [
            ("SELECT a FROM t WHERE a <> 1", THETA_INEQUALITY),
            ("SELECT a FROM t WHERE a < 1", THETA_RANGE),
            ("SELECT a FROM t WHERE a >= 1", THETA_RANGE),
            ("SELECT a FROM t WHERE a BETWEEN 1 AND 2", THETA_RANGE),
            ("SELECT a FROM t WHERE a IN (1, 2)", THETA_IN),
            ("SELECT a FROM t WHERE a LIKE 'x%'", THETA_LIKE),
            ("SELECT a FROM t WHERE a IS NULL", THETA_IS_NULL),
        ],
    )
    def test_theta_classification(self, sql, theta):
        assert predicates_of(parse_select(sql))[0].theta == theta

    def test_join_condition_in_where_has_no_column(self):
        predicate = predicates_of(
            parse_select("SELECT a FROM t, u WHERE t.id = u.id")
        )[0]
        assert predicate.column is None


class TestSingleEqualityFilter:
    def test_the_stifle_shape(self):
        predicate = single_equality_filter(
            parse_select("SELECT name FROM Employee WHERE empId = 8")
        )
        assert predicate is not None
        assert predicate.column.name == "empId"

    def test_two_predicates_do_not_qualify(self):
        assert (
            single_equality_filter(
                parse_select("SELECT a FROM t WHERE a = 1 AND b = 2")
            )
            is None
        )

    def test_range_does_not_qualify(self):
        assert (
            single_equality_filter(parse_select("SELECT a FROM t WHERE a > 1"))
            is None
        )

    def test_column_to_column_does_not_qualify(self):
        assert (
            single_equality_filter(
                parse_select("SELECT a FROM t, u WHERE t.id = u.id")
            )
            is None
        )


class TestOutputColumns:
    def test_plain_columns(self):
        assert output_columns(parse_select("SELECT a, B FROM t")) == {"a", "b"}

    def test_alias_wins(self):
        assert output_columns(parse_select("SELECT a AS x FROM t")) == {"x"}

    def test_star_is_wildcard(self):
        assert output_columns(parse_select("SELECT * FROM t")) == {"*"}

    def test_unnamed_expression_contributes_nothing(self):
        assert output_columns(parse_select("SELECT a + 1 FROM t")) == set()


class TestReferencedTables:
    def test_single_table(self):
        assert referenced_tables(parse_select("SELECT a FROM T")) == {"t"}

    def test_join_tables(self):
        tables = referenced_tables(
            parse_select("SELECT a FROM t JOIN u ON t.i = u.i")
        )
        assert tables == {"t", "u"}

    def test_function_table(self):
        tables = referenced_tables(
            parse_select("SELECT a FROM fGetNearbyObjEq(1,2,3) n, photoprimary p")
        )
        assert tables == {"fgetnearbyobjeq", "photoprimary"}

    def test_derived_table_descends(self):
        tables = referenced_tables(
            parse_select("SELECT a FROM (SELECT a FROM inner_t) s")
        )
        assert tables == {"inner_t"}


class TestNullComparisons:
    def test_equals_null_found(self):
        found = null_comparison_predicates(
            parse_select("SELECT * FROM bugs WHERE assigned_to = NULL")
        )
        assert len(found) == 1
        assert found[0].compares_null

    def test_not_equals_null_found(self):
        assert null_comparison_predicates(
            parse_select("SELECT * FROM bugs WHERE assigned_to <> NULL")
        )

    def test_is_null_is_fine(self):
        assert not null_comparison_predicates(
            parse_select("SELECT * FROM bugs WHERE assigned_to IS NULL")
        )

    def test_range_against_null_not_snc(self):
        assert not null_comparison_predicates(
            parse_select("SELECT * FROM bugs WHERE assigned_to > NULL")
        )



class TestPredicateFacts:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t",
            "SELECT a FROM t WHERE id = 5",
            "SELECT a FROM t WHERE id = NULL",
            "SELECT a FROM t WHERE a <> NULL AND NOT (b = NULL OR c = 'x')",
            "SELECT a FROM t WHERE a = 1 AND b IN (1, 2) AND c IS NULL",
            "SELECT a FROM t WHERE x.id = y.id",
        ],
    )
    def test_one_pass_equals_the_separate_censuses(self, sql):
        statement = parse_select(sql)
        assert predicate_facts(statement) == (
            len(predicates_of(statement)),
            single_equality_filter(statement),
            len(null_comparison_predicates(statement)),
        )


class TestKeyFilter:
    def test_key_check_with_schema(self):
        predicate = single_equality_filter(
            parse_select("SELECT a FROM t WHERE objid = 5")
        )
        assert is_key_filter(predicate, ["objid"])
        assert not is_key_filter(predicate, ["other"])

    def test_key_check_waived_without_schema(self):
        predicate = single_equality_filter(
            parse_select("SELECT a FROM t WHERE anything = 5")
        )
        assert is_key_filter(predicate, None)

    def test_key_check_is_case_insensitive(self):
        predicate = single_equality_filter(
            parse_select("SELECT a FROM t WHERE ObjID = 5")
        )
        assert is_key_filter(predicate, ["OBJID"])

    def test_key_set_is_lowered_once_per_set(self):
        keys = frozenset({"ObjID", "SpecObjID"})
        lowered = _lowered_key_set(keys)
        assert lowered == {"objid", "specobjid"}
        assert _lowered_key_set(frozenset(keys)) is lowered
        # Unhashable key collections are lowered on every call.
        assert _lowered_key_set(["ObjID"]) == {"objid"}
        assert _lowered_key_set({"ObjID"}) == {"objid"}
        assert _lowered_key_set(None) is None
