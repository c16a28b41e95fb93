"""Provenance polynomials (§2.1 of the paper).

A *provenance polynomial* is a sum of monomials; each monomial is a
product of a numeric coefficient and indeterminates ("variables"), each
raised to a positive integer exponent. Polynomials arise here in two
settings (both supported, see ``repro.engine``):

1. semiring annotations of SPJU query results over tuple variables
   (Green et al.'s ``N[X]``), and
2. parameterized aggregate values, where the plus of the polynomial is
   the aggregate and variables scale chosen cells (the paper's running
   example).

The paper measures a polynomial ``P`` by

* its *size* ``|P|_M`` — the number of monomials, and
* its *granularity* ``|P|_V`` — the number of distinct variables,

and lifts both point-wise to (multi)sets of polynomials. This module
implements :class:`Monomial`, :class:`Polynomial`, and
:class:`PolynomialSet` with exactly those measures. Abstraction
(``P↓S``) is not a method here: :func:`repro.core.abstraction.abstract`
computes it, for a set or a single polynomial, on the set's columnar
view.

Representation: variable names are interned through
:data:`repro.core.interning.VARIABLES`; each monomial's canonical form
is its ``key`` — a tuple of ``(var_id, exponent)`` pairs sorted by id.
All hashing, equality and multiplication run on keys;
the string-facing ``powers`` view (sorted by variable *name*, as the
parser and printers expect) is derived lazily. Polynomials are treated
as immutable once built, so their variable sets are computed once and
cached.
"""

from __future__ import annotations

import numbers

from repro.core.interning import VARIABLES

__all__ = ["Monomial", "Polynomial", "PolynomialSet"]


class Monomial:
    """An immutable product of variables raised to positive exponents.

    The coefficient is *not* part of the monomial — polynomials map
    monomials to coefficients, mirroring the paper's implementation note
    (§4.1: "Python's dictionaries for the polynomials").

    ``powers`` is a sorted tuple of ``(variable, exponent)`` pairs with
    ``exponent >= 1``; variables are strings. Internally the monomial is
    identified by ``key``, the same pairs over interned variable ids.

    >>> m = Monomial.of(("x", 2), "y")
    >>> str(m)
    'x^2*y'
    >>> m.degree
    3
    >>> m.exponent("x")
    2
    """

    __slots__ = ("key", "_powers", "_exps", "_hash")

    #: The empty monomial (the constant term's monomial).
    ONE: "Monomial"

    def __init__(self, powers=()):
        items = tuple(sorted((str(v), int(e)) for v, e in powers))
        for var, exp in items:
            if exp < 1:
                raise ValueError(f"exponent of {var!r} must be >= 1, got {exp}")
        seen = set()
        for var, _ in items:
            if var in seen:
                raise ValueError(f"duplicate variable {var!r}; use Monomial.of")
            seen.add(var)
        key = tuple(sorted((VARIABLES.intern(var), exp) for var, exp in items))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_powers", items)
        object.__setattr__(self, "_exps", None)
        object.__setattr__(self, "_hash", hash(key))

    @classmethod
    def _from_key(cls, key):
        """Fast path: build from an id-sorted, validated key (internal)."""
        self = object.__new__(cls)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_powers", None)
        object.__setattr__(self, "_exps", None)
        object.__setattr__(self, "_hash", hash(key))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def of(cls, *factors):
        """Build a monomial from variables and ``(variable, exponent)`` pairs.

        Repeated variables multiply (exponents add):

        >>> str(Monomial.of("x", "y", "x"))
        'x^2*y'
        """
        acc = {}
        for factor in factors:
            if isinstance(factor, tuple):
                var, exp = factor
            else:
                var, exp = factor, 1
            acc[str(var)] = acc.get(str(var), 0) + int(exp)
        return cls(acc.items())

    @property
    def powers(self):
        """Sorted ``(variable, exponent)`` pairs (the string-facing view)."""
        powers = self._powers
        if powers is None:
            name = VARIABLES.name
            powers = tuple(sorted((name(vid), exp) for vid, exp in self.key))
            object.__setattr__(self, "_powers", powers)
        return powers

    def _exponents(self):
        """Cached ``{var_id: exponent}`` for O(1) membership/exponent."""
        exps = self._exps
        if exps is None:
            exps = dict(self.key)
            object.__setattr__(self, "_exps", exps)
        return exps

    @property
    def variables(self):
        """The set of variables occurring in this monomial."""
        name = VARIABLES.name
        return frozenset(name(vid) for vid, _ in self.key)

    @property
    def degree(self):
        """Total degree (sum of exponents)."""
        return sum(exp for _, exp in self.key)

    def exponent(self, variable):
        """The exponent of ``variable`` (0 if absent)."""
        vid = VARIABLES.lookup(variable)
        if vid is None:
            return 0
        return self._exponents().get(vid, 0)

    def __contains__(self, variable):
        vid = VARIABLES.lookup(variable)
        return vid is not None and vid in self._exponents()

    def __iter__(self):
        """Iterate over ``(variable, exponent)`` pairs in sorted order."""
        return iter(self.powers)

    def __len__(self):
        return len(self.key)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        acc = dict(self.key)
        for vid, exp in other.key:
            acc[vid] = acc.get(vid, 0) + exp
        return Monomial._from_key(tuple(sorted(acc.items())))

    def evaluate(self, assignment, default=1.0):
        """The numeric value of the monomial under ``assignment``.

        Variables absent from ``assignment`` take ``default`` — the
        neutral "scenario leaves this parameter unchanged" semantics.
        The accumulator starts from the integer 1, so exact coefficient
        types (``fractions.Fraction``) survive evaluation unharmed.
        """
        value = 1
        for var, exp in self.powers:
            value *= assignment.get(var, default) ** exp
        return value

    def __reduce__(self):
        """Pickle by the string-facing powers (ids are process-local)."""
        return (Monomial, (self.powers,))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __lt__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.powers < other.powers

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.key:
            return "1"
        parts = []
        for var, exp in self.powers:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial({self.powers!r})"


Monomial.ONE = Monomial()


class Polynomial:
    """A provenance polynomial: a finite map from monomials to coefficients.

    Coefficients may be any ``numbers.Number`` — ``int``, ``float`` or
    ``fractions.Fraction``. Zero-coefficient terms are dropped on
    construction, so ``|P|_M`` is always the count of *surviving*
    monomials.

    >>> p = Polynomial({Monomial.of("x"): 2, Monomial.of("y"): 3})
    >>> p.num_monomials, p.num_variables
    (2, 2)
    """

    __slots__ = ("terms", "_vids")

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for monomial, coeff in items:
                if not isinstance(monomial, Monomial):
                    raise TypeError(f"expected Monomial, got {type(monomial).__name__}")
                if coeff == 0:
                    continue
                new = acc.get(monomial, 0) + coeff
                if new == 0:
                    acc.pop(monomial, None)
                else:
                    acc[monomial] = new
        self.terms = acc
        self._vids = None

    @classmethod
    def _raw(cls, terms):
        """Adopt a ready ``{Monomial: coeff}`` dict (internal fast path)."""
        result = cls()
        result.terms = terms
        return result

    @classmethod
    def zero(cls):
        """The empty polynomial (0)."""
        return cls()

    @classmethod
    def constant(cls, value):
        """A constant polynomial ``value``."""
        return cls({Monomial.ONE: value})

    @classmethod
    def variable(cls, name, coefficient=1):
        """The polynomial ``coefficient * name``."""
        return cls({Monomial.of(name): coefficient})

    @classmethod
    def from_terms(cls, terms):
        """Build from an iterable of ``(coefficient, Monomial)`` pairs."""
        return cls((monomial, coeff) for coeff, monomial in terms)

    # ---------------------------------------------------------------- sizes

    @property
    def monomials(self):
        """``M(P)`` — the monomials of this polynomial (a view)."""
        return self.terms.keys()

    @property
    def num_monomials(self):
        """``|P|_M`` — the number of monomials."""
        return len(self.terms)

    def variable_ids(self):
        """``V(P)`` as interned ids (cached — polynomials are immutable)."""
        vids = self._vids
        if vids is None:
            out = set()
            for monomial in self.terms:
                for vid, _ in monomial.key:
                    out.add(vid)
            vids = frozenset(out)
            self._vids = vids
        return vids

    @property
    def variables(self):
        """``V(P)`` — the set of variables occurring in ``P``."""
        name = VARIABLES.name
        return {name(vid) for vid in self.variable_ids()}

    @property
    def num_variables(self):
        """``|P|_V`` — the granularity (number of distinct variables)."""
        return len(self.variable_ids())

    def coefficient(self, monomial):
        """The coefficient of ``monomial`` (0 if absent)."""
        return self.terms.get(monomial, 0)

    # ----------------------------------------------------------- arithmetic

    @staticmethod
    def _lift(other):
        """Coerce a scalar operand to a Polynomial (or return it as-is)."""
        if isinstance(other, numbers.Number):
            return Polynomial.constant(other)
        return other

    def __add__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self.terms)
        for monomial, coeff in other.terms.items():
            new = acc.get(monomial, 0) + coeff
            if new == 0:
                acc.pop(monomial, None)
            else:
                acc[monomial] = new
        return Polynomial._raw(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Monomial):
            return Polynomial._raw({m * other: c for m, c in self.terms.items()})
        if isinstance(other, Polynomial):
            acc = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 * m2
                    new = acc.get(m, 0) + c1 * c2
                    if new == 0:
                        acc.pop(m, None)
                    else:
                        acc[m] = new
            return Polynomial._raw(acc)
        if isinstance(other, numbers.Number):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._raw({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------ valuation

    def evaluate(self, assignment, default=1.0):
        """Value of ``P`` under a (hypothetical-scenario) assignment.

        Unassigned variables default to ``default`` (1.0 = "unchanged").
        The accumulator starts from the integer 0, so exact coefficient
        types (``fractions.Fraction``, ``int``) evaluate exactly instead
        of being forced through floats.
        """
        total = 0
        for monomial, coeff in self.terms.items():
            total += coeff * monomial.evaluate(assignment, default)
        return total

    # ------------------------------------------------------------- equality

    def __reduce__(self):
        """Pickle the terms; the id cache is process-local and rebuilt."""
        return (Polynomial, (self.terms,))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def almost_equal(self, other, tolerance=1e-9):
        """Structural equality with per-coefficient float ``tolerance``."""
        if set(self.terms) != set(other.terms):
            return False
        return all(
            abs(self.terms[m] - other.terms[m]) <= tolerance for m in self.terms
        )

    def __iter__(self):
        """Iterate over ``(coefficient, Monomial)`` pairs, sorted by monomial."""
        for monomial in sorted(self.terms):
            yield self.terms[monomial], monomial

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        """The text :func:`repro.parse` reads back to ``self``, coefficient
        types included, for int and finite float coefficients: only an
        int unit coefficient is left out.

        >>> x = Monomial.of("x")
        >>> str(Polynomial({x: 1, Monomial.ONE: 1.0}))
        '1.0 + x'
        >>> str(Polynomial({x: -1.0}))
        '-1.0*x'
        """
        if not self.terms:
            return "0"
        chunks = []
        for coeff, monomial in self:
            sign = "-" if coeff < 0 else "+"
            magnitude = abs(coeff)
            if not monomial.key:
                body = f"{magnitude}"
            elif magnitude == 1 and isinstance(magnitude, int):
                body = str(monomial)
            else:
                body = f"{magnitude}*{monomial}"
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f"{sign} {body}")
        return " ".join(chunks)

    def __repr__(self):
        """``parse('…')``: evaluates back to ``self`` with :func:`repro.parse`
        in scope, for int and finite float coefficients.

        >>> Polynomial.from_terms([(2, Monomial.of("x")), (1e-05, Monomial.ONE)])
        parse('1e-05 + 2*x')
        """
        return f"parse({str(self)!r})"


class PolynomialSet:
    """A multiset of polynomials — the provenance of a whole query result.

    The paper's measures lift point-wise: ``|P|_M`` sums monomial counts
    and ``V(P)`` / ``|P|_V`` union variables. Both are cached; the cache
    is invalidated by :meth:`append` and *repaired* (not dropped) by
    :meth:`extend`, the streaming-provenance mutator.

    A set is backed by ``Polynomial`` objects, by a columnar view
    (:meth:`from_columnar` — what :func:`repro.core.abstraction.abstract`
    returns), or both. A set backed by arrays answers ``len``, the
    measures, :meth:`columnar` and :meth:`compiled` from them and builds
    its ``Polynomial`` objects only when :attr:`polynomials` is first
    read (iteration, indexing, equality), through
    :meth:`ColumnarMultiset.to_polynomial_set
    <repro.core.columnar.ColumnarMultiset.to_polynomial_set>`.

    >>> ps = PolynomialSet([Polynomial.variable("x"), Polynomial.variable("x")])
    >>> ps.num_monomials, ps.num_variables
    (2, 1)
    """

    __slots__ = ("_polynomials", "_vids", "_compiled", "_columnar")

    def __init__(self, polynomials=None):
        self._polynomials = list(polynomials) if polynomials else []
        for p in self._polynomials:
            if not isinstance(p, Polynomial):
                raise TypeError(f"expected Polynomial, got {type(p).__name__}")
        self._vids = None
        self._compiled = None
        self._columnar = None

    @classmethod
    def from_columnar(cls, columnar):
        """A set backed by the :class:`~repro.core.columnar.ColumnarMultiset`
        ``columnar`` (adopted, not copied), its objects built on demand."""
        self = cls.__new__(cls)
        self._polynomials = None
        self._vids = None
        self._compiled = None
        self._columnar = columnar
        return self

    @property
    def polynomials(self):
        """The ``Polynomial`` list (materialized from the columnar view
        on first use for a set backed by arrays)."""
        polynomials = self._polynomials
        if polynomials is None:
            polynomials = self.columnar().to_polynomial_set().polynomials
            self._polynomials = polynomials
        return polynomials

    def append(self, polynomial):
        """Add one polynomial to the multiset."""
        if not isinstance(polynomial, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(polynomial).__name__}")
        self.polynomials.append(polynomial)
        self._vids = None
        self._compiled = None
        self._columnar = None

    def extend(self, polynomials):
        """Append a set's polynomials, *repairing* the caches in place.

        The incremental counterpart of :meth:`append`. ``polynomials``
        is a :class:`PolynomialSet` (any other iterable of polynomials
        is wrapped in one). Its columnar view — extracted once and
        cached on it, or already there for an abstracted set — feeds
        both repairs: :meth:`ColumnarMultiset.extend
        <repro.core.columnar.ColumnarMultiset.extend>` concatenates its
        rows onto the cached columnar view and
        :meth:`CompiledPolynomialSet.extend
        <repro.core.batch.CompiledPolynomialSet.extend>` compiles them
        onto the batch matrix as trailing rows/layers. The variable
        union is repaired the same way; unbuilt caches stay unbuilt,
        and ``Polynomial`` objects are appended only to a set that has
        them already.
        """
        added = (
            polynomials if isinstance(polynomials, PolynomialSet)
            else PolynomialSet(polynomials)
        )
        if not len(added):
            return
        if self._polynomials is not None:
            self._polynomials.extend(added.polynomials)
        if self._vids is not None:
            self._vids = self._vids | added.variable_ids()
        if self._columnar is not None:
            self._columnar.extend(added.columnar())
        if self._compiled is not None:
            self._compiled.extend(added)

    def __reduce__(self):
        """Pickle the polynomials; compiled/columnar caches are rebuilt."""
        return (PolynomialSet, (self.polynomials,))

    @property
    def num_monomials(self):
        """``|P|_M`` summed over the multiset."""
        if self._columnar is not None:
            return self._columnar.num_monomials
        return sum(p.num_monomials for p in self._polynomials)

    def variable_ids(self):
        """``V(P)`` as interned ids (cached until :meth:`append`)."""
        vids = self._vids
        if vids is None:
            if self._columnar is not None:
                vids = self._columnar.variable_ids()
            else:
                out = set()
                for p in self._polynomials:
                    out.update(p.variable_ids())
                vids = frozenset(out)
            self._vids = vids
        return vids

    @property
    def variables(self):
        """``V(P)`` — union of per-polynomial variable sets."""
        name = VARIABLES.name
        return {name(vid) for vid in self.variable_ids()}

    @property
    def num_variables(self):
        """``|P|_V`` — number of distinct variables across the multiset."""
        return len(self.variable_ids())

    def evaluate(self, assignment, default=1.0):
        """Point-wise valuation; returns one value per polynomial."""
        return [p.evaluate(assignment, default) for p in self.polynomials]

    def columnar(self):
        """The columnar (CSR) factor view of this set (built once, cached).

        The substrate of the vectorized compression core — see
        :class:`repro.core.columnar.ColumnarMultiset`. The batch
        evaluator is compiled from these arrays, so building both costs
        at most one extraction pass (none for a set built from arrays).
        """
        columnar = self._columnar
        if columnar is None:
            from repro.core.columnar import ColumnarMultiset

            columnar = ColumnarMultiset(self)
            self._columnar = columnar
        return columnar

    def compiled(self):
        """The NumPy batch evaluator for this set (built once, cached)."""
        compiled = self._compiled
        if compiled is None:
            from repro.core.batch import CompiledPolynomialSet

            compiled = CompiledPolynomialSet(self)
            self._compiled = compiled
        return compiled

    def evaluate_batch(self, assignments, default=1.0, engine="auto"):
        """Valuate many scenarios at once (vectorized over NumPy).

        :param assignments: an iterable of assignments — plain dicts,
            :class:`~repro.core.valuation.Valuation` objects (their own
            ``default`` is honoured), Scenario-like objects (a callable
            ``valuation(default)`` method), or anything with an
            ``assignment`` attribute (see
            :meth:`Valuation.coerce <repro.core.valuation.Valuation.coerce>`).
        :param default: value of unassigned variables for plain dicts.
        :param engine: ``"dense"`` (full-matrix), ``"delta"`` (baseline
            plus sparse per-scenario patches — see
            :meth:`CompiledPolynomialSet.evaluate_delta
            <repro.core.batch.CompiledPolynomialSet.evaluate_delta>`),
            or ``"auto"`` (the default: delta for sparse scenario
            families). Answers are bit-identical either way.
        :returns: a ``(num_assignments, len(self))`` ``numpy.ndarray``;
            row ``i`` equals ``self.evaluate(assignments[i])`` up to
            float rounding (exact coefficient types are degraded to
            float — use :meth:`evaluate` for exact arithmetic).

        Compilation happens once per set and is cached, so the cost of
        building the coefficient/exponent arrays amortizes across
        scenario suites — the paper's Figure 10 workload shape.
        """
        return self.compiled().evaluate(assignments, default, engine)

    def __iter__(self):
        return iter(self.polynomials)

    def __len__(self):
        if self._polynomials is None:
            return self._columnar.num_polynomials
        return len(self._polynomials)

    def __getitem__(self, index):
        return self.polynomials[index]

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialSet)
            and self.polynomials == other.polynomials
        )

    def almost_equal(self, other, tolerance=1e-9):
        """Point-wise :meth:`Polynomial.almost_equal`."""
        if len(self) != len(other):
            return False
        return all(
            a.almost_equal(b, tolerance) for a, b in zip(self, other, strict=True)
        )

    def __repr__(self):
        return f"PolynomialSet({self.polynomials!r})"
