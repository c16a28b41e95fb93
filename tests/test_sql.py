"""Tests for the SQL front-end."""

import math

import pytest

from repro.engine import Relation
from repro.engine.sql import SqlError, execute, parse_sql
from repro.workloads.telephony import figure1_database, revenue_by_zip


@pytest.fixture
def relations():
    cust, calls, plans = figure1_database()
    return {"Cust": cust, "Calls": calls, "Plans": plans}


RUNNING_EXAMPLE = (
    "SELECT Zip, SUM(Calls.Dur * Plans.Price) "
    "FROM Calls, Cust, Plans "
    "WHERE Cust.Plan = Plans.Plan AND Cust.ID = Calls.CID "
    "AND Calls.Mo = Plans.Mo "
    "GROUP BY Cust.Zip"
)


class TestParsing:
    def test_parse_running_example(self):
        query = parse_sql(RUNNING_EXAMPLE)
        assert query.tables == ["Calls", "Cust", "Plans"]
        assert query.has_aggregate
        assert len(query.predicates) == 3
        assert len(query.group_by) == 1

    def test_keywords_case_insensitive(self):
        query = parse_sql("select A from T group by A")
        assert query.tables == ["T"]

    def test_rejects_trailing_garbage(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT a FROM t WHERE a = 1 EXTRA")

    def test_rejects_missing_from(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT a")

    def test_rejects_bad_operator(self):
        with pytest.raises(SqlError):
            parse_sql("SELECT a FROM t WHERE a ~ 1")

    def test_expression_precedence(self):
        query = parse_sql("SELECT SUM(a + b * c) FROM t")
        kind, expr = query.items[0]
        assert kind == "sum"
        assert expr[0] == "+"  # * binds tighter

    def test_parenthesized_expression(self):
        query = parse_sql("SELECT SUM((a + b) * c) FROM t")
        _, expr = query.items[0]
        assert expr[0] == "*"

    def test_unary_minus(self):
        query = parse_sql("SELECT SUM(-a) FROM t")
        _, expr = query.items[0]
        assert expr[0] == "-"


class TestExecution:
    def test_running_example_matches_dsl(self, relations):
        via_sql = execute(RUNNING_EXAMPLE, relations)
        cust, calls, plans = (
            relations["Cust"], relations["Calls"], relations["Plans"]
        )
        via_dsl = revenue_by_zip(cust, calls, plans, plan_variable=lambda p: p)
        for key in via_dsl.groups:
            assert via_sql.value(key) == pytest.approx(via_dsl.value(key))

    def test_running_example_with_params(self, relations):
        result = execute(
            RUNNING_EXAMPLE,
            relations,
            params=lambda row: [str(row["Cust.Plan"]), f"m{row['Calls.Mo']}"],
        )
        polynomial = result.polynomial((10001,))
        assert polynomial.num_monomials == 8
        assert "m1" in polynomial.variables

    def test_projection_query(self, relations):
        result = execute(
            "SELECT Zip FROM Cust WHERE Plan = 'A'", relations
        )
        assert sorted(result.rows) == [(10001,)]

    def test_filter_comparisons(self, relations):
        result = execute(
            "SELECT CID FROM Calls WHERE Dur >= 1000", relations
        )
        assert all(row == (6,) for row in result.rows)

    def test_join_two_tables(self, relations):
        result = execute(
            "SELECT Cust.Zip, Calls.Dur FROM Cust, Calls "
            "WHERE Cust.ID = Calls.CID AND Calls.Mo = 1",
            relations,
        )
        assert len(result) > 0

    def test_aggregate_without_group_by(self, relations):
        result = execute(
            "SELECT SUM(Dur) FROM Calls WHERE Mo = 1", relations
        )
        expected = sum(
            row[2] for row, _ in relations["Calls"] if row[1] == 1
        )
        assert result.value(()) == expected

    def test_group_key_after_join_alias(self, relations):
        """Grouping on a column the join dropped resolves via its alias."""
        result = execute(
            "SELECT Calls.CID, SUM(Calls.Dur) FROM Calls, Cust "
            "WHERE Cust.ID = Calls.CID GROUP BY Cust.ID",
            relations,
        )
        assert len(result) == 7

    def test_unknown_table(self, relations):
        with pytest.raises(SqlError, match="unknown tables"):
            execute("SELECT a FROM Nope", relations)

    def test_unknown_column(self, relations):
        with pytest.raises(SqlError, match="unknown column"):
            execute("SELECT Missing FROM Cust", relations)

    def test_ambiguous_column(self):
        left = Relation.from_rows(["k", "v"], [(1, 2)])
        right = Relation.from_rows(["k", "v"], [(1, 3)])
        with pytest.raises(SqlError, match="ambiguous"):
            execute(
                "SELECT v FROM L, R WHERE L.k = R.k",
                {"L": left, "R": right},
            )

    def test_cartesian_product_rejected(self, relations):
        with pytest.raises(SqlError, match="cartesian|join condition"):
            execute("SELECT Cust.Zip FROM Cust, Calls", relations)

    def test_multiple_sums_rejected(self, relations):
        with pytest.raises(SqlError, match="one SUM"):
            execute(
                "SELECT SUM(Dur), SUM(Mo) FROM Calls GROUP BY CID",
                relations,
            )

    def test_string_literal_filter(self, relations):
        result = execute(
            "SELECT ID FROM Cust WHERE Plan = 'SB1'", relations
        )
        assert sorted(result.rows) == [(3,)]

    def test_arithmetic_in_sum(self, relations):
        result = execute(
            "SELECT SUM(Dur * 2 + 1) FROM Calls WHERE CID = 1", relations
        )
        durations = [row[2] for row, _ in relations["Calls"] if row[0] == 1]
        assert result.value(()) == sum(2 * d + 1 for d in durations)


class TestEndToEndProvenance:
    def test_sql_provenance_equals_paper_polynomial(self, relations):
        """The §1 SQL query + parameterization == Example 2's polynomial."""
        from repro.core.parser import parse
        from repro.workloads.telephony import figure1_plan_variables

        plan_vars = figure1_plan_variables()
        result = execute(
            RUNNING_EXAMPLE,
            relations,
            params=lambda row: [
                plan_vars[row["Cust.Plan"]], f"m{row['Calls.Mo']}"
            ],
        )
        expected = parse(
            "220.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + "
            "75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3"
        )
        assert result.polynomial((10001,)).almost_equal(expected, 1e-9)


def _tpch_params(row):
    return [
        f"s{row['lineitem.L_SUPPKEY'] % 16}",
        f"p{row['lineitem.L_PARTKEY'] % 16}",
    ]


def assert_same_provenance(result, expected):
    """The same groups and monomials, coefficients within 1e-9 relative.

    Joining in another order sums each coefficient's rows in another
    order, so floats may differ in the last bits.
    """
    assert len(expected) > 0
    assert result.groups.keys() == expected.groups.keys()
    for key, polynomial in expected.groups.items():
        terms = result.groups[key].terms
        assert terms.keys() == polynomial.terms.keys()
        for monomial, coefficient in polynomial.terms.items():
            assert math.isclose(terms[monomial], coefficient, rel_tol=1e-9)


class TestJoinPlanning:
    def test_textbook_q5_order_plans(self, tiny_tpch):
        """A join condition on a column an earlier join dropped follows
        its alias to the column holding the value."""
        textbook = execute(
            "SELECT N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
            "FROM customer, orders, lineitem, supplier, nation "
            "WHERE customer.C_CUSTKEY = orders.O_CUSTKEY "
            "AND lineitem.L_ORDERKEY = orders.O_ORDERKEY "
            "AND lineitem.L_SUPPKEY = supplier.S_SUPPKEY "
            "AND customer.C_NATIONKEY = supplier.S_NATIONKEY "
            "AND supplier.S_NATIONKEY = nation.N_NATIONKEY "
            "GROUP BY N_NAME",
            tiny_tpch.tables,
            params=_tpch_params,
        )
        reordered = execute(
            "SELECT N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
            "FROM lineitem, orders, customer, supplier, nation "
            "WHERE lineitem.L_ORDERKEY = orders.O_ORDERKEY "
            "AND orders.O_CUSTKEY = customer.C_CUSTKEY "
            "AND lineitem.L_SUPPKEY = supplier.S_SUPPKEY "
            "AND customer.C_NATIONKEY = nation.N_NATIONKEY "
            "AND supplier.S_NATIONKEY = nation.N_NATIONKEY "
            "GROUP BY N_NAME",
            tiny_tpch.tables,
            params=_tpch_params,
        )
        assert_same_provenance(textbook, reordered)

    @pytest.mark.parametrize("order", ["orders, lineitem", "lineitem, orders"])
    def test_same_table_equality_filters_its_table(self, tiny_tpch, order):
        """A same-table equality is a filter wherever its table sits in FROM."""
        where = (
            "WHERE orders.O_ORDERKEY = lineitem.L_ORDERKEY "
            "AND lineitem.L_SHIPDATE = lineitem.L_COMMITDATE "
        )
        query = (
            "SELECT O_ORDERPRIORITY, SUM(L_EXTENDEDPRICE) FROM {order} "
            + where
            + "GROUP BY O_ORDERPRIORITY"
        )
        result = execute(
            query.format(order=order), tiny_tpch.tables, params=_tpch_params
        )
        expected = execute(
            query.format(order="lineitem, orders"),
            tiny_tpch.tables,
            params=_tpch_params,
        )
        assert_same_provenance(result, expected)
        lineitem = tiny_tpch.lineitem
        shipped, committed = (
            lineitem.schema.index(c) for c in ("L_SHIPDATE", "L_COMMITDATE")
        )
        total = sum(
            row[lineitem.schema.index("L_EXTENDEDPRICE")]
            for row, _ in lineitem
            if row[shipped] == row[committed]
        )
        assert sum(result.values().values()) == pytest.approx(total)

    @pytest.mark.parametrize(
        "tables_and_where",
        [
            "Cust WHERE Nope.X = 5",
            "Cust, Calls WHERE Cust.ID = Calls.CID AND Nope.X = 5",
            "Cust, Calls WHERE Cust.ID = Calls.CID AND Nope.X = Nope.Y",
            "Cust, Calls WHERE Cust.ID = Calls.CID AND Nope.X = Calls.CID",
            "Cust, Calls WHERE Cust.ID = Calls.CID AND Calls.Missing >= 3",
            "Cust, Calls WHERE Cust.Missing = Calls.CID",
            "Cust, Calls WHERE Cust.ID = Calls.Missing",
        ],
    )
    def test_column_outside_the_tables_is_a_sql_error(
        self, relations, tables_and_where
    ):
        with pytest.raises(SqlError, match="not available"):
            execute(f"SELECT Cust.Zip FROM {tables_and_where}", relations)
