"""A term-at-a-time parser for the textual polynomial notation of the paper.

Accepts expressions such as ``"220.8*p1*m1 + 240*p1*m3"``, ``"x^2*y - 3"``
or ``"1e-05*x"``. The grammar (whitespace between tokens is ignored)::

    polynomial := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := NUMBER | VARIABLE ['^' DIGITS]
    NUMBER     := (DIGITS ['.' DIGITS] | '.' DIGITS) [('e'|'E') ['+'|'-'] DIGITS]
    VARIABLE   := [A-Za-z_][A-Za-z0-9_]*, other than inf and nan

A number with a ``.`` or an exponent is a float, any other an int. A
term's coefficient is its sign times its numbers, multiplied left to
right; repeated variables add exponents; like terms combine as in
:class:`Polynomial`. So ``parse(str(p)) == p``, coefficient types
included, for int and finite float coefficients. ``inf`` and ``nan``
are how ``str()`` writes a coefficient that is not finite, so they are
refused as variable names rather than read as a different polynomial.

One compiled pattern consumes a whole term per call: its sign, its
leading numbers and its monomial text. :func:`parse_set` keeps one map
from monomial text to :class:`Monomial` for the whole call, so each
distinct monomial of a request is split, validated and interned once.
Variables are interned by sorted name within a monomial, monomials in
text order (``.rpb`` column order follows interning order).

A :class:`ParseError` names the offset of the first character that does
not fit the grammar (the term's, for an exponent that sums to 0, a
coefficient that is not finite or a variable named ``inf`` or ``nan``)
and, from :func:`parse_set`, the polynomial's index counting from 0::

    polynomial 2: offset 4: unexpected '$ y'

A coefficient must be finite: a literal past the float range
(``1e999``), a product (``1e200*1e200*x``) or a sum of like terms
(``1e308*x + 1e308*x``) that overflows is an error at the term where the
value overflowed, as is an int too large to meet a float.
"""

import re

from repro.core.interning import VARIABLES
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.errors import ReproError

__all__ = ["parse", "parse_set", "ParseError"]


class ParseError(ReproError, ValueError):
    """Raised when a polynomial string cannot be parsed."""


_NUM = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_FACTOR = rf"(?:{_NUM}|{_NAME}(?:\s*\^\s*\d+)?)"
_MONOMIAL = rf"{_NAME}(?:\s*\^\s*\d+)?(?:\s*\*\s*{_FACTOR})*"
# Groups: sign, leading numbers, monomial text (from the first variable
# on). A term must end at a sign or the end of the text; where none does,
# the second branch consumes the longest prefix a term can start with, and
# its empty group marks the character after it.
_TERM = re.compile(
    rf"\s*(?:([-+])\s*)?(?=[\d.A-Za-z_])({_NUM}(?:\s*\*\s*{_NUM})*)?"
    rf"(?:(?(2)\s*\*\s*)({_MONOMIAL}))?\s*(?=[-+]|\Z)"
    rf"|\s*(?:[-+]\s*)?(?:{_FACTOR}\s*\*\s*)*(?:{_NUM}|{_NAME}(?:\s*\^\s*\d*)?)?\s*()"
)
_FACTORS = re.compile(rf"({_NUM})|({_NAME})(?:\s*\^\s*(\d+))?")
_INF = float("inf")
#: What ``str()`` writes for a coefficient that is not finite.
_NON_FINITE = frozenset({"inf", "nan"})


def _number(literal):
    return int(literal) if literal.isdecimal() else float(literal)


def _monomial(text):
    """``(Monomial, numbers)`` of one monomial text, numbers in text order."""
    powers, numbers = {}, []
    for number, name, exponent in _FACTORS.findall(text):
        if name:
            powers[name] = powers.get(name, 0) + (int(exponent) if exponent else 1)
        else:
            numbers.append(_number(number))
    key = []
    for name, exponent in sorted(powers.items()):
        if not exponent:
            raise ValueError(f"exponent of {name!r} must be >= 1, got 0")
        if name in _NON_FINITE:
            raise ValueError(f"{name!r} is a number that is not finite, not a variable")
        key.append((VARIABLES.intern(name), exponent))
    return Monomial._from_key(tuple(sorted(key))), tuple(numbers)


def _parse(text, monomials, where=""):
    terms = []
    pos, end = 0, len(text)
    while pos < end or not terms:
        term = _TERM.match(text, pos)
        sign, numbers, monomial, stop = term.groups()
        pos = term.end()
        if stop is not None:
            found = repr(text[pos:pos + 20]) if pos < end else "end of text"
            raise ParseError(f"{where}offset {pos}: unexpected {found}")
        coefficient = -1 if sign == "-" else 1
        try:
            if numbers:
                for literal in numbers.split("*"):
                    coefficient *= _number(literal.strip())
            if monomial is None:
                monomial = Monomial.ONE
            else:
                entry = monomials.get(monomial)
                if entry is None:
                    entry = monomials[monomial] = _monomial(monomial)
                monomial, extra = entry
                for number in extra:
                    coefficient *= number
        except (ValueError, OverflowError) as error:
            # Exponent 0, an int past str's digit limit, or one too large
            # for a float it meets.
            offset = term.start(2 if numbers else 3)
            raise ParseError(f"{where}offset {offset}: {error}") from None
        terms.append((monomial, coefficient))
    try:
        polynomial = Polynomial(terms)
        total = sum(polynomial.terms.values())
        if total - total == 0:  # every coefficient finite (inf/nan propagate)
            return polynomial
    except OverflowError:
        pass
    _check_finite(text, terms, where)
    return polynomial


def _check_finite(text, terms, where):
    """Raise the :class:`ParseError` of the first term whose coefficient,
    or the running sum of its like terms, is not a finite number.

    The slow path behind :func:`_parse`'s one-sum test: it re-scans the
    term offsets and adds like terms exactly as :class:`Polynomial`
    does, so it raises precisely when that sum overflows or ends
    non-finite.
    """
    sums = {}
    pos = 0
    for monomial, coefficient in terms:
        term = _TERM.match(text, pos)
        pos = term.end()
        if coefficient == 0:
            continue
        try:
            value = sums.get(monomial, 0) + coefficient
            finite = -_INF < value < _INF
        except OverflowError:
            finite = False
        if not finite:
            offset = term.start(2 if term.group(2) else 3)
            raise ParseError(
                f"{where}offset {offset}: coefficient is not a finite number"
            )
        if value == 0:
            sums.pop(monomial, None)
        else:
            sums[monomial] = value


def parse(text):
    """Parse a single polynomial.

    >>> p = parse("2*x^2*y + 3*y - 1")
    >>> p.num_monomials
    3
    >>> p.coefficient(Monomial.of(("x", 2), "y"))
    2
    >>> parse("x + $ y")
    Traceback (most recent call last):
        ...
    repro.core.parser.ParseError: offset 4: unexpected '$ y'
    """
    return _parse(text, {})


def parse_set(texts):
    """Parse polynomial strings into a PolynomialSet, one cache for all.

    >>> parse_set(["x + y", "2*x", "x + $ y"])
    Traceback (most recent call last):
        ...
    repro.core.parser.ParseError: polynomial 2: offset 4: unexpected '$ y'
    """
    cache = {}
    texts = enumerate(texts)
    return PolynomialSet(_parse(text, cache, f"polynomial {i}: ") for i, text in texts)
