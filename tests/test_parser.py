"""Tests for the polynomial parser.

``reference_parse`` below is the token-stream parser that
``repro.core.parser`` replaced: a tokenizer that turns the whole text
into ``(kind, value)`` tuples and a recursive-descent walk that builds a
new ``Monomial`` for every term. The term-at-a-time parser must give the
same polynomials term for term (monomials in the same order, coefficients
of the same value, type and ``repr``), intern variables in the same
order, and reject what the reference rejects — exponent-notation numbers
(``1e-05``) are the one grammar change, and text that uses them must
agree with the reference on the same text with those numbers written out.
"""

import math
import re
from contextlib import contextmanager
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.interning import VariableTable
from repro.core.parser import ParseError, parse, parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.engine.sql import execute
from test_engine_differential import TPCH_QUERIES, tpch_params

# --------------------------------------------------------------- reference

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
    r")"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        if match.group("number") is not None:
            literal = match.group("number")
            tokens.append(("number", float(literal) if "." in literal else int(literal)))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", None))
    return tokens


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

    def expect_op(self, op):
        kind, value = self.advance()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, got {value!r}")

    def parse_polynomial(self):
        terms = []
        sign = 1
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        terms.append(self.parse_term(sign))
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                terms.append(self.parse_term(-1 if value == "-" else 1))
            else:
                break
        kind, value = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {value!r}")
        return Polynomial.from_terms(terms)

    def parse_term(self, sign):
        coefficient = sign
        powers = {}
        while True:
            kind, value = self.advance()
            if kind == "number":
                coefficient *= value
            elif kind == "name":
                exponent = 1
                next_kind, next_value = self.peek()
                if next_kind == "op" and next_value == "^":
                    self.advance()
                    exp_kind, exp_value = self.advance()
                    if exp_kind != "number" or not isinstance(exp_value, int):
                        raise ParseError("exponent must be a positive integer")
                    exponent = exp_value
                powers[value] = powers.get(value, 0) + exponent
            else:
                raise ParseError(f"expected number or variable, got {value!r}")
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                continue
            break
        return coefficient, Monomial(powers.items())


def reference_parse(text):
    return _Parser(_tokenize(text)).parse_polynomial()


def reference_parse_set(texts):
    return PolynomialSet(reference_parse(text) for text in texts)


# ----------------------------------------------------------------- helpers

REJECTED = "rejected"


def spelled(parsed):
    """Terms in order, with coefficient types and reprs (per polynomial
    of a set)."""
    if isinstance(parsed, PolynomialSet):
        return [spelled(p) for p in parsed.polynomials]
    return [(m, type(c), repr(c)) for m, c in parsed.terms.items()]


def outcome(parser, text):
    """``spelled`` of the parse, or ``REJECTED``. The reference may fail
    with any ``ValueError`` (or an ``OverflowError`` where a big int
    meets a float); the parser under test only with ParseError. A
    reference result holding a coefficient that is not finite counts as
    rejected too: the parser under test refuses those, the reference
    predates that check."""
    ours = parser in (parse, parse_set)
    try:
        parsed = parser(text)
    except ParseError:
        return REJECTED
    except (ValueError, OverflowError):
        if ours:
            raise
        return REJECTED
    polynomials = parsed.polynomials if isinstance(parsed, PolynomialSet) else [parsed]
    if not ours and not all(
        -math.inf < c < math.inf for p in polynomials for c in p.terms.values()
    ):
        return REJECTED
    return spelled(parsed)


def written_out(literal):
    """An exponent-free literal the reference reads as the same float."""
    value = float(literal)
    if value == math.inf:
        return "1" + "0" * 309 + ".0"
    text = format(Decimal(repr(value)), "f")
    return text if "." in text else text + ".0"


#: A number in exponent notation that starts a token.
EXPONENT_NUMBER = re.compile(r"(?<![A-Za-z0-9_.])(?:\d+(?:\.\d+)?|\.\d+)[eE][-+]?\d+")


@contextmanager
def interning_calls():
    """Every name passed to ``VariableTable.intern``, in call order."""
    calls = []
    intern = VariableTable.intern

    def recording(table, name):
        calls.append(name)
        return intern(table, name)

    VariableTable.intern = recording
    try:
        yield calls
    finally:
        VariableTable.intern = intern


# -------------------------------------------------------------- strategies

# Names that look like exponent parts (e5, E) test the number/name border.
NAMES = ["x", "y", "z1", "_w", "p0", "s11", "e5", "E", "x_2"]
SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n"])


@st.composite
def numbers(draw):
    """``(literal, reference literal)``, equal but for exponent notation."""
    kind = draw(st.sampled_from(["int", "big", "decimal", "dot", "float", "exponent"]))
    digits = st.text("0123456789", min_size=1, max_size=4)
    if kind == "int":
        literal = str(draw(st.integers(0, 99)))
    elif kind == "big":
        literal = str(draw(st.integers(2**63, 10**40)))
    elif kind == "decimal":
        literal = f"{draw(digits)}.{draw(digits)}"
    elif kind == "dot":
        literal = "." + draw(digits)
    elif kind == "float":
        value = draw(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
        literal = repr(value)
    else:
        mantissa = draw(st.sampled_from(["1", "25", "1.5", ".5", "0.0", "7"]))
        exponent = f"{draw(st.sampled_from(['', '+', '-']))}{draw(st.integers(0, 330))}"
        literal = f"{mantissa}{draw(st.sampled_from('eE'))}{exponent}"
    if EXPONENT_NUMBER.fullmatch(literal):
        return literal, written_out(literal)
    return literal, literal


@st.composite
def factors(draw):
    if draw(st.booleans()):
        return draw(numbers())
    name = draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        power = draw(st.sampled_from(["1", "2", "3", "02", "0"]))
        name = f"{name}{draw(SPACE)}^{draw(SPACE)}{power}"
    return name, name


@st.composite
def polynomial_texts(draw):
    """``(text, reference text)``: whitespace between any tokens, numbers
    anywhere in a term, repeated variables, signs and exponents."""
    text = reference = draw(SPACE)
    for index in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["+", "-"] if index else ["", "", "+", "-"]))
        if sign:
            gap = draw(SPACE)
            text, reference = text + sign + gap, reference + sign + gap
        term = draw(st.lists(factors(), min_size=1, max_size=5))
        for position, (literal, plain) in enumerate(term):
            gap = f"{draw(SPACE)}*{draw(SPACE)}" if position else ""
            text, reference = text + gap + literal, reference + gap + plain
        gap = draw(SPACE)
        text, reference = text + gap, reference + gap
    return text, reference


class TestBasicForms:
    def test_single_variable(self):
        assert parse("x") == Polynomial.variable("x")

    def test_constant_int(self):
        assert parse("7") == Polynomial.constant(7)

    def test_constant_float(self):
        assert parse("2.5").coefficient(Monomial.ONE) == 2.5

    def test_product(self):
        assert parse("2*x*y") == Polynomial({Monomial.of("x", "y"): 2})

    def test_exponent(self):
        assert parse("x^3") == Polynomial({Monomial.of(("x", 3)): 1})

    def test_repeated_variable_multiplies(self):
        assert parse("x*x") == parse("x^2")

    def test_sum_and_difference(self):
        p = parse("2*x - y + 3")
        assert p.coefficient(Monomial.of("y")) == -1
        assert p.coefficient(Monomial.ONE) == 3

    def test_leading_minus(self):
        assert parse("-x + 1").coefficient(Monomial.of("x")) == -1

    def test_whitespace_insensitive(self):
        assert parse(" 2 * x + y ") == parse("2*x+y")

    def test_numbers_multiply_into_coefficient(self):
        assert parse("2*3*x") == parse("6*x")

    @pytest.mark.parametrize(
        "text", ["0.1*0.2*0.3*x", "0.1*x*0.2*0.3", "x*0.1*0.2*0.3"]
    )
    def test_numbers_multiply_left_to_right(self, text):
        coefficient = parse(f"- {text}").coefficient(Monomial.of("x"))
        assert repr(coefficient) == repr(((-1 * 0.1) * 0.2) * 0.3)

    def test_like_terms_combine(self):
        assert parse("x + x") == parse("2*x")

    def test_underscore_and_digit_names(self):
        p = parse("x(1)" .replace("(", "_").replace(")", "") + " + m3")
        assert "x_1" in p.variables and "m3" in p.variables


class TestPaperPolynomials:
    def test_example2_polynomial(self):
        p = parse(
            "220.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + "
            "75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3"
        )
        assert p.num_monomials == 8
        assert p.coefficient(Monomial.of("p1", "m1")) == 220.8

    def test_example2_abstracted_polynomial(self):
        p = parse("460.8*p1*q1 + 241.85*f1*q1 + 148.4*y1*q1 + 66.2*v*q1")
        assert p.num_monomials == 4
        assert p.num_variables == 5


class TestErrors:
    def test_rejects_garbage_character(self):
        with pytest.raises(ParseError):
            parse("x $ y")

    def test_rejects_trailing_operator(self):
        with pytest.raises(ParseError):
            parse("x +")

    def test_rejects_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_rejects_float_exponent(self):
        with pytest.raises(ParseError):
            parse("x^2.5")

    def test_rejects_double_operator(self):
        with pytest.raises(ParseError):
            parse("x ++ y")


class TestParseSet:
    def test_parses_each_string(self):
        ps = parse_set(["x + y", "z"])
        assert len(ps) == 2
        assert ps.num_variables == 3


class TestExponentNotation:
    @pytest.mark.parametrize(
        "text, value",
        [("1e-05*x", 1e-05), ("1.5e+20*x", 1.5e20), ("2E3*x", 2000.0),
         (".5e-1*x", 0.05), ("3e0*x", 3.0)],
    )
    def test_exponent_numbers_are_floats(self, text, value):
        coefficient = parse(text).coefficient(Monomial.of("x"))
        assert type(coefficient) is float and coefficient == value

    def test_str_in_exponent_notation_parses_back(self):
        p = Polynomial.from_terms(
            [(1e-05, Monomial.of("x")), (1.5e20, Monomial.of("y")),
             (-2.5e-300, Monomial.ONE)]
        )
        assert "1e-05*x" in str(p) and "1.5e+20*y" in str(p)
        assert parse(str(p)) == p

    def test_exponent_letters_after_a_star_are_a_name(self):
        assert parse("2*e5") == Polynomial({Monomial.of("e5"): 2})


class TestErrorMessages:
    @pytest.mark.parametrize(
        "text, offset",
        [("x $ y", 2), ("x +", 3), ("", 0), ("  ", 2), ("x * $", 4),
         ("x*", 2), ("x^", 2), ("x ^ * y", 4), ("x^2^3", 3), ("2^3", 1),
         ("x y", 2), ("2x", 1), ("x + * y", 4), ("x ++ y", 3), ("x^2.5", 3),
         ("1.5.3", 3), ("1e", 1), ("(x)", 0)],
    )
    def test_offset_of_first_character_that_does_not_fit(self, text, offset):
        with pytest.raises(ParseError, match=rf"^offset {offset}: unexpected "):
            parse(text)

    def test_parse_set_names_the_polynomial_index(self):
        with pytest.raises(
            ParseError, match=r"^polynomial 2: offset 4: unexpected '\$ y'$"
        ):
            parse_set(["x + y", "2*x", "x + $ y"])

    def test_zero_exponent_is_a_parse_error_at_its_term(self):
        with pytest.raises(
            ParseError, match="^offset 4: exponent of 'y' must be >= 1, got 0$"
        ):
            parse("x + y^0")
        assert parse("x^0*x") == parse("x")  # exponents add before the check


class TestNonFiniteCoefficients:
    """A coefficient that is not a finite number is an error at the term
    where the value overflowed — the literal's, the product's, or the
    like term whose sum overflowed."""

    @pytest.mark.parametrize(
        "text, offset",
        [("1e999*x", 0), ("1e200*1e200*x", 0), ("x*1e999", 0),
         ("1e308*x + 1e308*x", 10), ("y + 1e308*x + 2*y + 1e308*x", 20),
         ("-1e999*x + 1e999*x", 1), ("1e999*0*x", 0), ("2 - 1e999", 4),
         ("1e308*x - 1e308*x + 1e999*x", 20)],
    )
    def test_overflow_names_its_term(self, text, offset):
        with pytest.raises(
            ParseError,
            match=rf"^offset {offset}: coefficient is not a finite number$",
        ):
            parse(text)

    def test_parse_set_names_the_polynomial_index(self):
        with pytest.raises(
            ParseError,
            match=r"^polynomial 1: offset 10: coefficient is not a finite",
        ):
            parse_set(["x", "2*b2*m1 + 1e999*b1*m1"])

    def test_int_too_large_for_a_float(self):
        big = "1" + "0" * 400
        with pytest.raises(ParseError, match="^offset 0: int too large"):
            parse(f"{big}*1.5*x")
        with pytest.raises(ParseError, match="^offset 406: coefficient"):
            parse(f"{big}*x + 1.5*x")

    def test_finite_values_near_the_limit_still_parse(self):
        """Large but finite: sums across monomials, exact big ints and
        cancellation back into range are all fine."""
        assert parse("1e308*x + 1e308*y").terms == {
            Monomial.of("x"): 1e308, Monomial.of("y"): 1e308,
        }
        big = 10 ** 400
        assert parse(f"{big}*x + {big}*x") == Polynomial.variable("x", 2 * big)
        assert parse("1.7e308*x - 1e308*x") == Polynomial.variable(
            "x", 1.7e308 - 1e308
        )
        # A big int next to floats, a zero term and a like-term sum that
        # cancels to 0 before a big int: all finite, all kept.
        x, y, z = (Monomial.of(name) for name in "xyz")
        for text, terms in (
            (f"{big}*x + 1.5*y", {x: big, y: 1.5}),
            (f"{big}*x + 0.0*x + 1e308*y + 1e308*z",
             {x: big, y: 1e308, z: 1e308}),
            (f"1.5*x - 1.5*x + {big}*x + 1.5*y", {x: big, y: 1.5}),
        ):
            assert parse(text).terms == terms


COEFFICIENTS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**60), 10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e16, 0.1]),
)
MONOMIALS = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1, 3)), max_size=3
).map(lambda factors: Monomial.of(*factors))
# Like terms may sum past the float range; str() has no finite text for that.
POLYNOMIALS = (
    st.lists(st.tuples(COEFFICIENTS, MONOMIALS), max_size=6)
    .map(Polynomial.from_terms)
    .filter(lambda p: all(math.isfinite(c) for c in p.terms.values()))
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["x", "2*x + 3*y", "x^2*y + 4", "0.5*a*b^3 - 2*c", "1 + x + x^2"],
    )
    def test_str_then_parse_is_identity(self, text):
        p = parse(text)
        assert parse(str(p)) == p

    @settings(max_examples=300, deadline=None)
    @given(POLYNOMIALS)
    def test_parse_inverts_str_with_coefficient_types(self, p):
        back = parse(str(p))
        assert back == p
        for monomial, coefficient in p.terms.items():
            got = back.terms[monomial]
            assert type(got) is type(coefficient)
            assert repr(got) == repr(coefficient)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_unit_float_coefficients_keep_their_type(self, sign):
        x = Monomial.of("x")
        p = Polynomial({x: sign * 1.0, Monomial.ONE: 1.0, Monomial.of("y"): 1})
        assert str(p) == f"1.0 {'+' if sign > 0 else '-'} 1.0*x + y"
        assert [(m, type(c)) for c, m in parse(str(p))] == [
            (m, type(c)) for c, m in p
        ]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "monomial", [Monomial.ONE, Monomial.of("x"), Monomial.of("x", ("y", 2))]
    )
    def test_non_finite_coefficients_do_not_parse_back(self, value, monomial):
        """str() writes ``inf``/``nan`` for them, which must not read as
        a variable of a different polynomial."""
        p = Polynomial({Monomial.of("z"): 2, monomial: value})
        with pytest.raises(ParseError, match="'(inf|nan)' is a number that is not"):
            parse(str(p))
        with pytest.raises(ParseError, match="^polynomial 1: offset"):
            parse_set(["z", str(p)])

    @settings(max_examples=100, deadline=None)
    @given(POLYNOMIALS)
    def test_repr_evaluates_back(self, p):
        assert repr(p) == f"parse({str(p)!r})"
        assert eval(repr(p), {"parse": repro.parse}) == p


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(polynomial_texts())
    def test_generated_text(self, texts):
        text, reference_text = texts
        assert outcome(parse, text) == outcome(reference_parse, reference_text)

    @settings(max_examples=400, deadline=None)
    @given(
        polynomial_texts(),
        st.lists(
            st.tuples(
                st.integers(0, 10**4),
                st.sampled_from(["insert", "delete", "replace"]),
                st.sampled_from(list("+-*^.eE5_x ()$\t")),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_text(self, texts, mutations):
        text = texts[0]
        for where, how, char in mutations:
            at = where % (len(text) + 1)
            rest = text[at:] if how == "insert" else text[at + 1:]
            text = text[:at] + ("" if how == "delete" else char) + rest
        ours, theirs = outcome(parse, text), outcome(reference_parse, text)
        if ours != theirs:
            # Only exponent notation parts them: the reference rejects it,
            # and reads the text with those numbers written out the same.
            assert theirs == REJECTED and EXPONENT_NUMBER.search(text)
            written = EXPONENT_NUMBER.sub(lambda m: written_out(m[0]), text)
            assert ours == outcome(reference_parse, written)

    @pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
    def test_tpch_capture_text(self, tiny_tpch, query):
        captured = execute(
            TPCH_QUERIES[query], tiny_tpch.tables, params=tpch_params
        ).polynomials
        texts = [str(p) for p in captured.polynomials]
        ours = parse_set(texts)
        assert ours.polynomials == captured.polynomials
        assert spelled(ours) == spelled(reference_parse_set(texts))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(polynomial_texts(), min_size=1, max_size=4))
    def test_interning_order(self, texts):
        with interning_calls() as ours:
            parsed = outcome(parse_set, [text for text, _ in texts])
        with interning_calls() as theirs:
            expected = outcome(reference_parse_set, [ref for _, ref in texts])
        assert parsed == expected
        if parsed != REJECTED:
            assert list(dict.fromkeys(ours)) == list(dict.fromkeys(theirs))

    def test_parse_set_builds_each_distinct_monomial_once(self):
        first, second = parse_set(["2*x*y + 3*z", "4*x*y - z"]).polynomials
        assert next(iter(first.terms)) is next(iter(second.terms))
