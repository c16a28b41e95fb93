"""Group-by aggregates with provenance polynomials (§2.1, setting 2).

For a SUM aggregate, each contributing row adds one term

    value(row) · annotation(row) · Π params(row)

to its group's polynomial: ``value`` is the aggregated number,
``annotation`` is the row's ``N[X]`` annotation (1 for unannotated
relations), and ``params`` are the analyst-chosen scenario variables
placed on cells (the ``p1``/``m1`` of the running example, the
``si``/``pj`` of the TPC-H workload). Valuating all variables at 1
recovers the plain SQL answer; other valuations answer what-ifs.

``MIN``/``MAX``/other commutative aggregates reuse the same symbolic
construction — the paper's model interprets the polynomial's ``+`` *as*
the aggregate operation. :func:`evaluate_aggregate` therefore takes the
combining function used at valuation time.
"""

from __future__ import annotations

from repro.core.polynomial import Monomial, Polynomial, PolynomialSet

__all__ = ["aggregate_sum", "AggregateResult", "evaluate_aggregate"]


class AggregateResult:
    """The result of a provenance-aware group-by aggregate.

    Maps group keys (tuples of group-by values) to provenance
    polynomials; iteration order is sorted by group key so output is
    deterministic.

    >>> from repro.engine.table import Relation
    >>> r = Relation.from_rows(["zip", "amount"], [(1, 10.0), (1, 5.0), (2, 7.0)])
    >>> result = aggregate_sum(r, ["zip"], "amount")
    >>> result.value((1,)), result.value((2,))
    (15.0, 7.0)
    """

    __slots__ = ("group_columns", "groups")

    def __init__(self, group_columns, groups):
        self.group_columns = tuple(group_columns)
        self.groups = dict(groups)

    def __iter__(self):
        """Iterate ``(group_key, polynomial)`` sorted by key."""
        for key in sorted(self.groups, key=repr):
            yield key, self.groups[key]

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, key):
        return self.groups[tuple(key) if not isinstance(key, tuple) else key]

    def polynomial(self, key):
        """The provenance polynomial of one group."""
        return self.groups[key]

    @property
    def polynomials(self):
        """All group polynomials as a :class:`PolynomialSet` (sorted)."""
        return PolynomialSet(polynomial for _, polynomial in self)

    def value(self, key, valuation=None):
        """The aggregate value of a group under a valuation (default: 1)."""
        polynomial = self.groups[key]
        if valuation is None:
            return polynomial.evaluate({})
        return valuation.evaluate(polynomial)

    def values(self, valuation=None):
        """``{group_key: value}`` under a valuation (default: all 1)."""
        return {key: self.value(key, valuation) for key in self.groups}


def aggregate_sum(relation, group_by, value, params=None):
    """Provenance-aware ``SELECT group_by, SUM(value) … GROUP BY group_by``.

    :param relation: an annotated or plain :class:`Relation`.
    :param group_by: list of grouping column names.
    :param value: a column name or ``fn(row_dict) -> number``.
    :param params: optional ``fn(row_dict) -> iterable of variable
        names`` placing scenario variables on this row's contribution
        (may also yield ``(name, exponent)`` pairs).

    Each group's terms accumulate in place, in row order, under the
    rule of :meth:`Polynomial.__add__`: a monomial's coefficient is
    summed as it arrives and the monomial is dropped when the sum is
    0, so the result is the left fold ``c₁ + c₂ + …`` of the rows'
    contributions term for term. A group whose contributions are all
    0 keeps its key with the zero polynomial.
    """
    schema = relation.schema
    group_key = schema.tuple_getter(group_by)
    if isinstance(value, str):
        value_position = schema.index(value)
        extract = None
    else:
        extract = value
    columns = schema.columns
    needs_dict = extract is not None or params is not None
    monomials = {}  # params(row) as a tuple -> its Monomial
    groups = {}
    for row, annotation in relation.rows.items():
        if needs_dict:
            row_dict = dict(zip(columns, row, strict=True))
        amount = row[value_position] if extract is None else extract(row_dict)
        if params is None:
            monomial = Monomial.ONE
        else:
            factors = tuple(params(row_dict))
            try:
                monomial = monomials.get(factors)
            except TypeError:  # an unhashable factor: build it every time
                monomial = None
            if monomial is None:
                monomial = Monomial.of(*factors)
                if _shareable(factors):
                    monomials[factors] = monomial
        key = group_key(row)
        terms = groups.get(key)
        if isinstance(annotation, Polynomial):
            contribution = ((annotation * amount) * monomial).terms
            if terms is None:  # the fold starts from the first contribution
                groups[key] = contribution
                continue
        else:
            # Numeric annotation (bag multiplicity): fold it into the
            # coefficient.
            if terms is None:
                terms = groups[key] = {}
            coefficient = amount * annotation
            if coefficient == 0:
                continue
            contribution = {monomial: coefficient}
        for term, coeff in contribution.items():
            new = terms.get(term, 0) + coeff
            if new == 0:
                terms.pop(term, None)
            else:
                terms[term] = new
    return AggregateResult(
        group_by, {key: Polynomial._raw(terms) for key, terms in groups.items()}
    )


def _shareable(factors):
    """Whether ``factors`` may key the monomial cache.

    :meth:`Monomial.of` reads names through ``str`` and exponents
    through ``int``. A tuple equal to one whose names are all ``str``
    names the same variables with the same exponents; equal names of
    other types may print differently (``1 == 1.0``, yet ``"1" !=
    "1.0"``), so only tuples naming their variables by ``str`` are
    cached.
    """
    return all(
        type(factor) is str
        or (type(factor) is tuple and len(factor) == 2 and type(factor[0]) is str)
        for factor in factors
    )


def evaluate_aggregate(polynomial, assignment, combine=None, default=1.0):
    """Valuate an aggregate polynomial, with ``+`` read as ``combine``.

    ``combine=None`` means SUM (ordinary polynomial evaluation); pass
    ``min``/``max`` for the other commutative aggregates of §2.1.

    >>> from repro.core.parser import parse
    >>> p = parse("3*x + 5*y")
    >>> evaluate_aggregate(p, {"x": 1.0, "y": 1.0}, combine=min)
    3.0
    """
    if combine is None:
        return polynomial.evaluate(assignment, default)
    terms = [
        coeff * monomial.evaluate(assignment, default)
        for monomial, coeff in polynomial.terms.items()
    ]
    if not terms:
        raise ValueError("cannot combine an empty polynomial with min/max")
    result = terms[0]
    for term in terms[1:]:
        result = combine(result, term)
    return result
