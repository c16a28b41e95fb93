"""Differential tests: the engine against its per-row reference code.

The ``reference_*`` functions below are the straightforward per-row
implementations of ``aggregate_sum``, ``select``, ``join``, ``rename``
and the SQL ``execute`` planner: one ``Relation.add`` per output row,
one ``Polynomial.__add__`` per aggregated row, every predicate applied
after all joins. The engine accumulates group polynomials in place and
filters tables before joining them; its results must be identical term
for term — the same keys and rows in the same order, the same
monomials in the same order, and coefficients of the same type and
``repr``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.polynomial import Monomial, Polynomial
from repro.engine import Relation, aggregate_sum, join, project, rename, select
from repro.engine.aggregates import AggregateResult
from repro.engine.operators import _normalize_on
from repro.engine.sql import (
    SqlError,
    _expression_evaluator,
    _Resolver,
    execute,
    parse_sql,
)

# --------------------------------------------------------------- reference


def reference_aggregate_sum(relation, group_by, value, params=None):
    group_positions = [relation.schema.index(c) for c in group_by]
    if isinstance(value, str):
        value_position = relation.schema.index(value)
        extract = None
    else:
        value_position = None
        extract = value

    groups = {}
    for row, annotation in relation:
        if extract is None:
            amount = row[value_position]
        else:
            amount = extract(relation.schema.row_to_dict(row))
        if params is None:
            monomial = Monomial.ONE
        else:
            monomial = Monomial.of(*params(relation.schema.row_to_dict(row)))
        contribution = _reference_contribution(amount, annotation, monomial)
        key = tuple(row[p] for p in group_positions)
        if key in groups:
            groups[key] = groups[key] + contribution
        else:
            groups[key] = contribution
    return AggregateResult(group_by, groups)


def _reference_contribution(amount, annotation, monomial):
    if isinstance(annotation, Polynomial):
        return (annotation * amount) * monomial
    return Polynomial({monomial: amount * annotation})


def reference_select(relation, predicate):
    out = Relation(relation.schema, semiring=relation.semiring, name=relation.name)
    for row, annotation in relation:
        if predicate(relation.schema.row_to_dict(row)):
            out.add(row, annotation)
    return out


def reference_rename(relation, mapping):
    for column in mapping:
        relation.schema.index(column)
    out = Relation(
        relation.schema.rename(mapping),
        semiring=relation.semiring,
        name=relation.name,
    )
    for row, annotation in relation:
        out.add(row, annotation)
    return out


def reference_join(left, right, on):
    pairs = _normalize_on(on)
    left_positions = [left.schema.index(col) for col, _ in pairs]
    right_positions = [right.schema.index(r) for _, r in pairs]
    right_join_cols = {r for _, r in pairs}
    right_keep = [
        (position, column)
        for position, column in enumerate(right.schema.columns)
        if column not in right_join_cols
    ]
    schema = left.schema.concat(right.schema, drop_from_other=right_join_cols)

    index = {}
    for row, annotation in right:
        key = tuple(row[p] for p in right_positions)
        index.setdefault(key, []).append((row, annotation))

    semiring = left.semiring
    out = Relation(schema, semiring=semiring)
    for row, annotation in left:
        key = tuple(row[p] for p in left_positions)
        for right_row, right_annotation in index.get(key, ()):
            combined = semiring.times(annotation, right_annotation)
            out.add(
                row + tuple(right_row[p] for p, _ in right_keep),
                combined,
            )
    return out


_REFERENCE_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _reference_operand_getter(operand, resolver, schema):
    kind, value = operand
    if kind == "lit":
        return lambda row: value
    qualified = resolver.live(value, schema)
    return lambda row: row[qualified]


def reference_execute(text, relations, params=None):
    query = parse_sql(text)
    missing = [t for t in query.tables if t not in relations]
    if missing:
        raise SqlError(f"unknown tables {missing}; have {sorted(relations)}")
    qualified = {
        name: reference_rename(
            relations[name],
            {column: f"{name}.{column}" for column in relations[name].schema.columns},
        )
        for name in query.tables
    }
    resolver = _Resolver({name: relations[name] for name in query.tables})

    equalities = []
    filters = []
    for predicate in query.predicates:
        if (
            predicate.op == "="
            and predicate.left[0] == "col"
            and predicate.right[0] == "col"
        ):
            equalities.append(predicate)
        else:
            filters.append(predicate)

    def tables_of(predicate):
        out = set()
        for operand in (predicate.left, predicate.right):
            if operand[0] == "col":
                out.add(resolver.resolve(operand[1]).split(".", 1)[0])
        return out

    plan = qualified[query.tables[0]]
    joined = {query.tables[0]}
    remaining_tables = list(query.tables[1:])
    pending_equalities = list(equalities)
    while remaining_tables:
        table_name = remaining_tables.pop(0)
        on = []
        for predicate in list(pending_equalities):
            involved = tables_of(predicate)
            if table_name in involved and involved - {table_name} <= joined:
                left_ref, right_ref = predicate.left[1], predicate.right[1]
                left_q = resolver.resolve(left_ref)
                right_q = resolver.resolve(right_ref)
                if left_q.split(".", 1)[0] == table_name:
                    left_q, right_q = right_q, left_q
                on.append((left_q, right_q))
                pending_equalities.remove(predicate)
        if not on:
            raise SqlError(
                f"no join condition connects {table_name!r}; "
                "cartesian products are not supported"
            )
        right = qualified[table_name]
        plan = reference_join(plan, right, on=on)
        joined.add(table_name)
        for left_q, right_q in on:
            resolver.alias(right_q, left_q)

    for predicate in pending_equalities + filters:
        left = _reference_operand_getter(predicate.left, resolver, plan.schema)
        right = _reference_operand_getter(predicate.right, resolver, plan.schema)
        comparator = _REFERENCE_COMPARATORS[predicate.op]
        plan = reference_select(
            plan,
            lambda row, get_left=left, get_right=right, compare=comparator: compare(
                get_left(row), get_right(row)
            ),
        )

    if query.has_aggregate:
        group_columns = [resolver.live(ref, plan.schema) for ref in query.group_by]
        sums = [item for item in query.items if item[0] == "sum"]
        if len(sums) != 1:
            raise SqlError("exactly one SUM(...) item is supported")
        evaluator = _expression_evaluator(sums[0][1], resolver, plan.schema)
        return reference_aggregate_sum(plan, group_columns, evaluator, params=params)

    columns = [
        resolver.live(ref, plan.schema) for kind, ref in query.items if kind == "column"
    ]
    return project(plan, columns)


# ------------------------------------------------------------- comparison


def _spelled_terms(polynomial):
    return [
        (monomial.powers, type(coeff), repr(coeff))
        for monomial, coeff in polynomial.terms.items()
    ]


def _spelled_annotation(annotation):
    if isinstance(annotation, Polynomial):
        return _spelled_terms(annotation)
    return type(annotation), repr(annotation)


def spelled(result):
    """Everything a result shows, in order, with coefficient types."""
    if isinstance(result, AggregateResult):
        return result.group_columns, [
            (repr(key), _spelled_terms(polynomial))
            for key, polynomial in result.groups.items()
        ]
    return (
        result.schema.columns,
        result.semiring.name,
        result.name,
        [(repr(row), _spelled_annotation(a)) for row, a in result.rows.items()],
    )


# ------------------------------------------------------------- strategies

# Amounts that cancel (0.1 + 0.2 - 0.30000000000000004 is 0.0), signed
# zeros, big floats that swallow small ones, and exact types.
AMOUNTS = [
    0,
    0.0,
    -0.0,
    1,
    -1,
    2,
    0.1,
    0.2,
    -0.30000000000000004,
    1.5,
    -1.5,
    1e16,
    -1e16,
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(0),
]

amounts = st.sampled_from(AMOUNTS)
small = st.integers(0, 2)
agg_rows = st.lists(st.tuples(small, small, amounts, small), max_size=14)


def _agg_relation(rows, annotated):
    relation = Relation.from_rows(["g", "h", "x", "v"], rows)
    if annotated:
        relation = relation.with_tuple_variables("t")
    return relation


VALUES = {
    "column": "x",
    "scaled": lambda row: row["x"] * 2,
    "shifted": lambda row: row["x"] - row["g"],
}

PARAMS = {
    "none": None,
    "one": lambda row: [f"v{row['v']}"],
    "repeated": lambda row: [f"v{row['v']}", "w", f"v{row['v']}"],
    "exponents": lambda row: [(f"v{row['v']}", row["g"] + 1), ("w", 2), "w"],
    "generator": lambda row: (f"v{n}" for n in range(row["v"] + 1)),
    # Equal but differently printed names: 1 and 1.0 are the variables
    # "1" and "1.0".
    "numeric": lambda row: [row["v"] if row["g"] % 2 else float(row["v"])],
    # A list is not a pair: Monomial.of names a variable by its str.
    "unhashable": lambda row: [[f"v{row['v']}", 2]],
}

GROUP_BY = [[], ["g"], ["g", "h"], ["h", "v"]]


class TestAggregateSum:
    @given(
        agg_rows,
        st.booleans(),
        st.sampled_from(GROUP_BY),
        st.sampled_from(sorted(VALUES)),
        st.sampled_from(sorted(PARAMS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference(self, rows, annotated, group_by, value, params):
        relation = _agg_relation(rows, annotated)
        args = (relation, group_by, VALUES[value], PARAMS[params])
        assert spelled(aggregate_sum(*args)) == spelled(reference_aggregate_sum(*args))

    @given(agg_rows, agg_rows, st.sampled_from(sorted(PARAMS)))
    @settings(max_examples=100, deadline=None)
    def test_join_annotations(self, left_rows, right_rows, params):
        """N[X] annotations with two variables and product coefficients."""
        left = _agg_relation(left_rows, annotated=True)
        right = Relation.from_rows(["g2", "y"], [(g, x) for g, _, x, _ in right_rows])
        joined = join(left, right.with_tuple_variables("u"), on=("g", "g2"))
        args = (joined, ["h"], lambda row: row["x"] * row["y"], PARAMS[params])
        assert spelled(aggregate_sum(*args)) == spelled(reference_aggregate_sum(*args))

    def test_all_zero_group_keeps_its_key(self):
        relation = Relation.from_rows(
            ["g", "x"], [(1, 0.1), (1, 0.2), (1, -0.30000000000000004), (2, 0)]
        )
        result = aggregate_sum(relation, ["g"], "x")
        reference = reference_aggregate_sum(relation, ["g"], "x")
        assert spelled(result) == spelled(reference)
        assert result.polynomial((2,)) == Polynomial.zero()
        assert list(result.groups) == [(1,), (2,)]

    def test_cancelled_term_reappears_last(self):
        relation = Relation.from_rows(
            ["g", "x", "v"],
            [(0, 1.5, "a"), (0, 2.0, "b"), (0, -1.5, "a"), (0, 1.0, "a")],
        )
        result = aggregate_sum(relation, ["g"], "x", params=lambda row: [row["v"]])
        assert [str(m) for m in result.polynomial((0,)).terms] == ["b", "a"]
        reference = reference_aggregate_sum(
            relation, ["g"], "x", params=lambda row: [row["v"]]
        )
        assert spelled(result) == spelled(reference)


# ------------------------------------------------------ relational operators

keys = st.integers(0, 3)
pair_rows = st.lists(st.tuples(keys, st.integers(0, 3)), max_size=10)
# Annotations whose products can underflow to 0.0: the join must drop them.
MULTIPLICITIES = [1, 2, 1e-200, 0.5]


def _relation(rows, columns, mode, prefix="t"):
    if mode == "natural":
        return Relation.from_rows(columns, rows)
    if mode == "weighted":
        return Relation.from_rows(
            columns,
            rows,
            annotator=lambda row, ordinal: MULTIPLICITIES[ordinal % 4],
        )
    return Relation.from_rows(columns, rows).with_tuple_variables(prefix)


modes = st.sampled_from(["natural", "weighted", "provenance"])


class TestOperators:
    @given(pair_rows, pair_rows, modes, st.sampled_from(["k", "pair", "two"]))
    @settings(max_examples=150, deadline=None)
    def test_join(self, left_rows, right_rows, mode, on):
        left = _relation(left_rows, ["k", "a"], mode, prefix="l")
        right = _relation(right_rows, ["k", "b"], mode, prefix="r")
        if on == "pair":
            right = rename(right, {"k": "k2"})
            on = ("k", "k2")
        elif on == "two":
            right = rename(right, {"k": "k2", "b": "a2"})
            on = [("k", "k2"), ("a", "a2")]
        reference = reference_join(left, right, on)
        assert spelled(join(left, right, on)) == spelled(reference)

    @given(pair_rows, modes, st.sampled_from([{}, {"k": "K"}, {"k": "a", "a": "k"}]))
    def test_rename(self, rows, mode, mapping):
        relation = _relation(rows, ["k", "a"], mode)
        assert spelled(rename(relation, mapping)) == spelled(
            reference_rename(relation, mapping)
        )

    @given(pair_rows, modes, st.integers(0, 4))
    def test_select(self, rows, mode, threshold):
        relation = _relation(rows, ["k", "a"], mode)

        def predicate(row):
            return row["k"] + row["a"] >= threshold

        assert spelled(select(relation, predicate)) == spelled(
            reference_select(relation, predicate)
        )


# --------------------------------------------------------------------- SQL

sql_amounts = st.sampled_from([1.5, -1.5, 0.1, 0.2, -0.30000000000000004, 2.0, 0.0])
# Join columns (T.a, U.a, U.c, V.c) take two values so that most joins match.
join_keys = st.integers(0, 1)
t_rows = st.lists(st.tuples(join_keys, keys, sql_amounts), min_size=1, max_size=8)
u_rows = st.lists(st.tuples(join_keys, join_keys, sql_amounts), min_size=1, max_size=8)
v_rows = st.lists(st.tuples(join_keys, keys), min_size=1, max_size=6)

#: FROM orders that plan: every table meets an equality with an earlier one.
FROM_ORDERS = ["T, U, V", "U, T, V", "V, U, T", "U, V, T"]
JOINS = ["T.a = U.a", "V.c = U.c"]

#: Single-table filters on the first and later tables (the first table
#: of an order is one of T, U, V), same-table comparisons, literal-only
#: predicates and a comparison across tables that must wait for the join.
EXTRA_PREDICATES = [
    "T.b >= {n}",
    "U.y < {f}",
    "V.z != {n}",
    "{n} <= T.a",
    "T.a = T.b",
    "U.c <= U.a",
    "V.c > V.z",
    "{n} = {m}",
    "'a' < 'b'",
    "T.x < U.y",
]

SELECTS = [
    "SELECT T.b, SUM(T.x * U.y - V.z) FROM {tables} WHERE {where} GROUP BY T.b",
    "SELECT SUM(T.x + U.y) FROM {tables} WHERE {where} GROUP BY U.c, V.z",
    "SELECT SUM(T.x) FROM {tables} WHERE {where}",
    "SELECT T.b, V.z FROM {tables} WHERE {where}",
]


def _sql_params(row):
    # Join columns of the right side are dropped; name only kept ones.
    return [f"s{row['T.b'] % 2}", (f"p{row['V.z']}", 1 + (row["U.y"] > 0))]


class TestSqlExecute:
    @given(
        t_rows,
        u_rows,
        v_rows,
        st.sampled_from(FROM_ORDERS),
        st.lists(st.sampled_from(EXTRA_PREDICATES), max_size=4),
        st.sampled_from(SELECTS),
        # The grammar has no negative literals.
        st.tuples(keys, keys, st.sampled_from([0.0, 0.1, 1.5, 2.0])),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference(
        self, t, u, v, tables, extra, select_text, literals, annotated, with_params
    ):
        n, m, f = literals
        # The reference plans a same-table equality as a join condition
        # unless its table comes first in FROM; keep to the queries it
        # answers.
        if tables.split(",")[0] != "T":
            extra = [p for p in extra if p != "T.a = T.b"]
        where = " AND ".join(JOINS + [p.format(n=n, m=m, f=f) for p in extra])
        text = select_text.format(tables=tables, where=where)
        relations = {
            "T": Relation.from_rows(["a", "b", "x"], t),
            "U": Relation.from_rows(["a", "c", "y"], u),
            "V": Relation.from_rows(["c", "z"], v),
        }
        if annotated:
            relations = {
                name: relation.with_tuple_variables(name.lower())
                for name, relation in relations.items()
            }
        params = _sql_params if with_params and "SUM" in text else None
        assert spelled(execute(text, relations, params)) == spelled(
            reference_execute(text, relations, params)
        )


#: The end-to-end benchmark's captured queries and parameterization.
TPCH_QUERIES = {
    "q1": (
        "SELECT L_RETURNFLAG, L_LINESTATUS, "
        "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem WHERE L_SHIPDATE <= 19980901 "
        "GROUP BY L_RETURNFLAG, L_LINESTATUS"
    ),
    "q5": (
        "SELECT N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem, orders, customer, supplier, nation "
        "WHERE lineitem.L_ORDERKEY = orders.O_ORDERKEY "
        "AND orders.O_CUSTKEY = customer.C_CUSTKEY "
        "AND lineitem.L_SUPPKEY = supplier.S_SUPPKEY "
        "AND customer.C_NATIONKEY = nation.N_NATIONKEY "
        "AND supplier.S_NATIONKEY = nation.N_NATIONKEY "
        "GROUP BY N_NAME"
    ),
    "q10": (
        "SELECT C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME, "
        "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem, orders, customer, nation "
        "WHERE lineitem.L_ORDERKEY = orders.O_ORDERKEY "
        "AND orders.O_CUSTKEY = customer.C_CUSTKEY "
        "AND customer.C_NATIONKEY = nation.N_NATIONKEY "
        "AND orders.O_ORDERDATE >= 19931001 "
        "AND orders.O_ORDERDATE < 19940101 "
        "AND lineitem.L_RETURNFLAG = 'R' "
        "GROUP BY C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME"
    ),
}


def tpch_params(row):
    return [
        f"s{row['lineitem.L_SUPPKEY'] % 128}",
        f"p{row['lineitem.L_PARTKEY'] % 128}",
    ]


@pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
def test_tpch_capture_identical_to_reference(tiny_tpch, query):
    text = TPCH_QUERIES[query]
    result = execute(text, tiny_tpch.tables, params=tpch_params)
    reference = reference_execute(text, tiny_tpch.tables, params=tpch_params)
    assert len(result) > 0
    assert spelled(result) == spelled(reference)
