"""A term-at-a-time parser for the textual polynomial notation of the paper.

Accepts expressions such as ``"220.8*p1*m1 + 240*p1*m3"``, ``"x^2*y - 3"``
or ``"1e-05*x"``. The grammar (whitespace between tokens is ignored)::

    polynomial := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := NUMBER | VARIABLE ['^' DIGITS]
    NUMBER     := (DIGITS ['.' DIGITS] | '.' DIGITS) [('e'|'E') ['+'|'-'] DIGITS]
    VARIABLE   := [A-Za-z_][A-Za-z0-9_]*

A number with a ``.`` or an exponent is a float, any other an int. A
term's coefficient is its sign times its numbers, multiplied left to
right; repeated variables add exponents; like terms combine as in
:class:`Polynomial`. So ``parse(str(p)) == p`` for int and finite float
coefficients.

One compiled pattern consumes a whole term per call: its sign, its
leading numbers and its monomial text. :func:`parse_set` keeps one map
from monomial text to :class:`Monomial` for the whole call, so each
distinct monomial of a request is split, validated and interned once.
Variables are interned by sorted name within a monomial, monomials in
text order (``.rpb`` column order follows interning order).

A :class:`ParseError` names the offset of the first character that does
not fit the grammar (the term's, for an exponent that sums to 0) and,
from :func:`parse_set`, the polynomial's index counting from 0::

    polynomial 2: offset 4: unexpected '$ y'
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
        except ValueError as error:  # exponent 0, or an int past str's digit limit
            offset = term.start(2 if numbers else 3)
            raise ParseError(f"{where}offset {offset}: {error}") from None
        terms.append((monomial, coefficient))
    return Polynomial(terms)


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
