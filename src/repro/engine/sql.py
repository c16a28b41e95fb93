"""A small SQL front-end for the provenance engine.

Supports exactly the query class the paper works with (SPJ + one
commutative SUM aggregate, §2.1) so the running example can be written
as it appears in §1::

    SELECT Zip, SUM(Calls.Dur * Plans.Price)
    FROM Calls, Cust, Plans
    WHERE Cust.Plan = Plans.Plan
      AND Cust.ID = Calls.CID
      AND Calls.Mo = Plans.Mo
    GROUP BY Cust.Zip

Grammar (case-insensitive keywords)::

    query   := SELECT items FROM tables [WHERE conj] [GROUP BY cols]
    items   := item (',' item)*        item := column | SUM '(' expr ')'
    tables  := NAME (',' NAME)*
    conj    := pred (AND pred)*
    pred    := operand op operand      op ∈ {=, !=, <>, <, <=, >, >=}
    expr    := arithmetic over columns, numbers, + - * / and parentheses
    column  := NAME | NAME '.' NAME

Planning is deliberately simple and linear in the rows read:

* every predicate that names a single table (a literal filter or a
  same-table column comparison) filters that table before any join —
  σ keeps annotations and commutes with ⋈, so this holds in every
  semiring;
* equalities between columns of two tables drive hash joins in FROM
  order;
* whatever is left (comparisons across tables, literal-only
  predicates) filters the joined plan;
* a SUM item becomes a provenance aggregate (``params`` may be
  supplied at execution time to place scenario variables, exactly like
  the DSL).

Predicates are compiled against tuple positions, so testing a row
builds no dict.
"""

from __future__ import annotations

import operator
import re

from repro.engine.aggregates import aggregate_sum
from repro.engine.operators import join, project, rename, select_rows

__all__ = ["execute", "parse_sql", "SqlError", "SqlQuery"]


class SqlError(ValueError):
    """Raised on SQL syntax or planning errors."""


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<string>'[^']*')"
    r"|(?P<op><=|>=|!=|<>|[=<>*/+\-(),.])"
    r")"
)

_KEYWORDS = {"select", "from", "where", "group", "by", "and", "sum", "as"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise SqlError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        if match.group("number") is not None:
            literal = match.group("number")
            tokens.append(
                ("number", float(literal) if "." in literal else int(literal))
            )
        elif match.group("name") is not None:
            name = match.group("name")
            if name.lower() in _KEYWORDS:
                tokens.append(("keyword", name.lower()))
            else:
                tokens.append(("name", name))
        elif match.group("string") is not None:
            tokens.append(("string", match.group("string")[1:-1]))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", None))
    return tokens


class _ColumnRef:
    """A (possibly table-qualified) column reference."""

    __slots__ = ("table", "column")

    def __init__(self, table, column):
        self.table = table
        self.column = column

    def __repr__(self):
        return f"{self.table}.{self.column}" if self.table else self.column


class _Predicate:
    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right


# Expression nodes for the SUM argument: ("col", ref) | ("lit", value)
# | (operator, left, right).


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind, value=None):
        actual_kind, actual_value = self.advance()
        if actual_kind != kind or (value is not None and actual_value != value):
            raise SqlError(f"expected {value or kind}, got {actual_value!r}")
        return actual_value

    def at_keyword(self, word):
        kind, value = self.peek()
        return kind == "keyword" and value == word

    def at_op(self, op):
        kind, value = self.peek()
        return kind == "op" and value == op

    # ------------------------------------------------------------- grammar

    def parse_query(self):
        self.expect("keyword", "select")
        items = [self.parse_item()]
        while self.at_op(","):
            self.advance()
            items.append(self.parse_item())
        self.expect("keyword", "from")
        tables = [self.expect("name")]
        while self.at_op(","):
            self.advance()
            tables.append(self.expect("name"))
        predicates = []
        if self.at_keyword("where"):
            self.advance()
            predicates.append(self.parse_predicate())
            while self.at_keyword("and"):
                self.advance()
                predicates.append(self.parse_predicate())
        group_by = []
        if self.at_keyword("group"):
            self.advance()
            self.expect("keyword", "by")
            group_by.append(self.parse_column())
            while self.at_op(","):
                self.advance()
                group_by.append(self.parse_column())
        kind, value = self.peek()
        if kind != "end":
            raise SqlError(f"trailing input starting at {value!r}")
        return SqlQuery(items, tables, predicates, group_by)

    def parse_item(self):
        if self.at_keyword("sum"):
            self.advance()
            self.expect("op", "(")
            expression = self.parse_expression()
            self.expect("op", ")")
            return ("sum", expression)
        return ("column", self.parse_column())

    def parse_column(self):
        first = self.expect("name")
        if self.at_op("."):
            self.advance()
            second = self.expect("name")
            return _ColumnRef(first, second)
        return _ColumnRef(None, first)

    def parse_predicate(self):
        left = self.parse_operand()
        kind, op = self.advance()
        if kind != "op" or op not in {"=", "!=", "<>", "<", "<=", ">", ">="}:
            raise SqlError(f"expected comparison operator, got {op!r}")
        right = self.parse_operand()
        return _Predicate(left, "!=" if op == "<>" else op, right)

    def parse_operand(self):
        kind, value = self.peek()
        if kind in ("number", "string"):
            self.advance()
            return ("lit", value)
        return ("col", self.parse_column())

    def parse_expression(self):
        node = self.parse_term()
        while self.at_op("+") or self.at_op("-"):
            _, op = self.advance()
            node = (op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_op("*") or self.at_op("/"):
            _, op = self.advance()
            node = (op, node, self.parse_factor())
        return node

    def parse_factor(self):
        kind, value = self.peek()
        if kind == "number":
            self.advance()
            return ("lit", value)
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_expression()
            self.expect("op", ")")
            return node
        if kind == "op" and value == "-":
            self.advance()
            return ("-", ("lit", 0), self.parse_factor())
        return ("col", self.parse_column())


class SqlQuery:
    """A parsed query; ``plan`` executes it against named relations."""

    def __init__(self, items, tables, predicates, group_by):
        self.items = items
        self.tables = tables
        self.predicates = predicates
        self.group_by = group_by

    @property
    def has_aggregate(self):
        return any(kind == "sum" for kind, _ in self.items)


def parse_sql(text):
    """Parse SQL text into a :class:`SqlQuery` (no execution)."""
    return _Parser(_tokenize(text)).parse_query()


# ---------------------------------------------------------------------------
# Planning / execution
# ---------------------------------------------------------------------------


def _qualify(relation, table_name):
    """Prefix every column with ``Table.`` so references stay unambiguous."""
    return rename(
        relation,
        {column: f"{table_name}.{column}" for column in relation.schema.columns},
    )


class _Resolver:
    """Maps parsed column references onto qualified schema columns.

    Joins drop the right side's join columns; ``alias`` records where
    those values live on (their left counterpart), and ``live`` follows
    the alias chain into the executed plan's schema.
    """

    def __init__(self, relations):
        self.columns = {}
        self.aliases = {}
        for table_name, relation in relations.items():
            for column in relation.schema.columns:
                self.columns.setdefault(column, []).append(
                    f"{table_name}.{column}"
                )

    def resolve(self, ref):
        if ref.table is not None:
            return f"{ref.table}.{ref.column}"
        candidates = self.columns.get(ref.column, [])
        if not candidates:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(candidates) > 1:
            raise SqlError(
                f"ambiguous column {ref.column!r}: {sorted(candidates)}"
            )
        return candidates[0]

    def alias(self, dropped_column, surviving_column):
        self.aliases[dropped_column] = surviving_column

    def live(self, ref, schema):
        qualified = self.resolve(ref)
        seen = set()
        while qualified not in schema and qualified in self.aliases:
            if qualified in seen:
                break
            seen.add(qualified)
            qualified = self.aliases[qualified]
        if qualified not in schema:
            raise SqlError(f"column {ref!r} is not available in the result")
        return qualified


_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _row_test(predicate, resolver, schema):
    """``predicate`` as a test over value tuples of ``schema``."""
    compare = _COMPARATORS[predicate.op]
    left = _operand_getter(predicate.left, resolver, schema)
    right = _operand_getter(predicate.right, resolver, schema)
    return lambda row: compare(left(row), right(row))


def _operand_getter(operand, resolver, schema):
    kind, value = operand
    if kind == "lit":
        return lambda row: value
    return operator.itemgetter(schema.index(resolver.live(value, schema)))


def _expression_evaluator(node, resolver, schema):
    kind = node[0]
    if kind == "lit":
        value = node[1]
        return lambda row: value
    if kind == "col":
        qualified = resolver.live(node[1], schema)
        return lambda row: row[qualified]
    op, left_node, right_node = node
    left = _expression_evaluator(left_node, resolver, schema)
    right = _expression_evaluator(right_node, resolver, schema)
    if op == "+":
        return lambda row: left(row) + right(row)
    if op == "-":
        return lambda row: left(row) - right(row)
    if op == "*":
        return lambda row: left(row) * right(row)
    if op == "/":
        return lambda row: left(row) / right(row)
    raise SqlError(f"unknown operator {op!r}")


def execute(text, relations, params=None):
    """Parse and execute SQL against ``{table_name: Relation}``.

    Aggregate queries return an
    :class:`~repro.engine.aggregates.AggregateResult` (whose group
    polynomials carry the scenario variables produced by ``params``, a
    ``row_dict -> [variable, ...]`` callable over *qualified* column
    names); non-aggregate queries return a
    :class:`~repro.engine.table.Relation`.

    >>> from repro.workloads.telephony import figure1_database
    >>> cust, calls, plans = figure1_database()
    >>> result = execute(
    ...     "SELECT Zip, SUM(Calls.Dur * Plans.Price) "
    ...     "FROM Calls, Cust, Plans "
    ...     "WHERE Cust.Plan = Plans.Plan AND Cust.ID = Calls.CID "
    ...     "AND Calls.Mo = Plans.Mo GROUP BY Cust.Zip",
    ...     {"Cust": cust, "Calls": calls, "Plans": plans})
    >>> round(result.value((10001,)), 2)
    917.25
    """
    query = parse_sql(text)
    missing = [t for t in query.tables if t not in relations]
    if missing:
        raise SqlError(f"unknown tables {missing}; have {sorted(relations)}")
    resolver = _Resolver({name: relations[name] for name in query.tables})

    def tables_of(predicate):
        out = set()
        for operand in (predicate.left, predicate.right):
            if operand[0] == "col":
                out.add(resolver.resolve(operand[1]).split(".", 1)[0])
        return out

    # Classify predicates: single-table ones filter their table first,
    # column=column equalities across tables feed joins, the rest (and
    # any predicate naming a table outside FROM) filter the joined plan.
    local = {name: [] for name in query.tables}
    equalities = []
    residual = []
    for predicate in query.predicates:
        named = sorted(tables_of(predicate))
        if len(named) == 1 and named[0] in local:
            local[named[0]].append(predicate)
        elif (
            len(named) > 1
            and predicate.op == "="
            and predicate.left[0] == "col"
            and predicate.right[0] == "col"
        ):
            equalities.append(predicate)
        else:
            residual.append(predicate)

    scans = {}
    for name in query.tables:
        scan = _qualify(relations[name], name)
        for predicate in local[name]:
            scan = select_rows(scan, _row_test(predicate, resolver, scan.schema))
        scans[name] = scan

    plan = scans[query.tables[0]]
    joined = {query.tables[0]}
    remaining_tables = list(query.tables[1:])
    pending_equalities = list(equalities)
    while remaining_tables:
        table_name = remaining_tables.pop(0)
        right = scans[table_name]
        on = []
        for predicate in list(pending_equalities):
            involved = tables_of(predicate)
            if table_name in involved and involved - {table_name} <= joined:
                left_ref, right_ref = predicate.left[1], predicate.right[1]
                if resolver.resolve(left_ref).split(".", 1)[0] == table_name:
                    left_ref, right_ref = right_ref, left_ref
                # The plan side may name a column an earlier join dropped;
                # ``live`` follows it to the column holding its value.
                left_q = resolver.live(left_ref, plan.schema)
                right_q = resolver.live(right_ref, right.schema)
                on.append((left_q, right_q))
                pending_equalities.remove(predicate)
        if not on:
            raise SqlError(
                f"no join condition connects {table_name!r}; "
                "cartesian products are not supported"
            )
        plan = join(plan, right, on=on)
        joined.add(table_name)
        # The join drops the right-side join columns; their values live
        # on in the left counterpart.
        for left_q, right_q in on:
            resolver.alias(right_q, left_q)

    # Equalities never consumed name a table outside FROM; they and the
    # residual predicates filter the joined plan (``live`` raises a
    # SqlError for a column not in it).
    for predicate in pending_equalities + residual:
        plan = select_rows(plan, _row_test(predicate, resolver, plan.schema))

    if query.has_aggregate:
        group_columns = [
            resolver.live(ref, plan.schema) for ref in query.group_by
        ]
        sums = [item for item in query.items if item[0] == "sum"]
        if len(sums) != 1:
            raise SqlError("exactly one SUM(...) item is supported")
        evaluator = _expression_evaluator(sums[0][1], resolver, plan.schema)
        return aggregate_sum(plan, group_columns, evaluator, params=params)

    columns = [
        resolver.live(ref, plan.schema)
        for kind, ref in query.items
        if kind == "column"
    ]
    return project(plan, columns)
