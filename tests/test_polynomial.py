"""Unit tests for repro.core.polynomial.Polynomial."""

import pytest

import oracle
from repro.core.interning import VARIABLES
from repro.core.parser import parse
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet


class TestConstruction:
    def test_zero(self):
        assert Polynomial.zero().num_monomials == 0
        assert not Polynomial.zero()

    def test_constant(self):
        p = Polynomial.constant(5)
        assert p.num_monomials == 1
        assert p.coefficient(Monomial.ONE) == 5

    def test_variable(self):
        p = Polynomial.variable("x", 3)
        assert p.coefficient(Monomial.of("x")) == 3

    def test_zero_coefficients_dropped(self):
        p = Polynomial({Monomial.of("x"): 0, Monomial.of("y"): 2})
        assert p.num_monomials == 1

    def test_duplicate_monomials_combine(self):
        p = Polynomial([(Monomial.of("x"), 2), (Monomial.of("x"), 3)])
        assert p.coefficient(Monomial.of("x")) == 5

    def test_cancelling_terms_vanish(self):
        p = Polynomial([(Monomial.of("x"), 2), (Monomial.of("x"), -2)])
        assert p.num_monomials == 0

    def test_from_terms(self):
        p = Polynomial.from_terms([(2, Monomial.of("x")), (3, Monomial.ONE)])
        assert p.num_monomials == 2

    def test_rejects_non_monomial_keys(self):
        with pytest.raises(TypeError):
            Polynomial({"x": 1})


class TestMeasures:
    def test_num_monomials_is_size(self):
        p = parse("2*x*y + 3*x + 1")
        assert p.num_monomials == 3

    def test_variables(self):
        p = parse("2*x*y + 3*z")
        assert p.variables == {"x", "y", "z"}

    def test_num_variables_is_granularity(self):
        assert parse("x*y + y*z + z*x").num_variables == 3

    def test_constant_has_no_variables(self):
        assert Polynomial.constant(7).num_variables == 0


class TestArithmetic:
    def test_addition_merges(self):
        assert parse("x + y") + parse("x") == parse("2*x + y")

    def test_addition_with_scalar(self):
        assert parse("x") + 3 == parse("x + 3")

    def test_subtraction(self):
        assert parse("2*x") - parse("x") == parse("x")

    def test_negation(self):
        assert -parse("x - y") == parse("y - x")

    def test_scalar_multiplication(self):
        assert parse("x + y") * 2 == parse("2*x + 2*y")

    def test_scalar_multiplication_by_zero(self):
        assert (parse("x + y") * 0).num_monomials == 0

    def test_monomial_multiplication(self):
        assert parse("x + 1") * Monomial.of("y") == parse("x*y + y")

    def test_polynomial_multiplication(self):
        assert parse("x + 1") * parse("x - 1") == parse("x^2 - 1")

    def test_multiplication_is_distributive(self):
        a, b, c = parse("x + y"), parse("z"), parse("w + 2")
        assert a * (b + c) == a * b + a * c


def plain(polynomial):
    return {monomial.powers: coeff for monomial, coeff in polynomial.terms.items()}


def substitute(polynomial, mapping):
    """``polynomial`` renamed by ``mapping`` through the one substitution
    kernel, ``ColumnarMultiset.substitute``, checked against the oracle."""
    polys = PolynomialSet([polynomial])
    renamed = polys.columnar().substitute(VARIABLES.intern_mapping(mapping))
    (result,) = PolynomialSet.from_columnar(renamed)
    assert [plain(result)] == oracle.abstract([plain(polynomial)], mapping)
    return result


class TestSubstitution:
    def test_merging_substitution_sums_coefficients(self):
        p = parse("2*m1*x + 3*m3*x")
        assert substitute(p, {"m1": "q1", "m3": "q1"}) == parse("5*q1*x")

    def test_non_merging_substitution_keeps_size(self):
        p = parse("2*m1*x + 3*m1*y")
        q = substitute(p, {"m1": "q1"})
        assert q.num_monomials == 2

    def test_substitution_never_increases_size(self):
        p = parse("a*x + b*y + c*z")
        q = substitute(p, {"a": "g", "b": "g", "c": "g"})
        assert q.num_monomials <= p.num_monomials

    def test_substitute_to_existing_variable_merges_exponents(self):
        p = parse("a*b")
        assert substitute(p, {"a": "b"}) == parse("b^2")


class TestEvaluation:
    def test_all_ones_recovers_coefficient_sum(self):
        p = parse("2*x*y + 3*z + 1")
        assert p.evaluate({}) == 6.0

    def test_partial_assignment(self):
        p = parse("2*x*y + 3*z")
        assert p.evaluate({"x": 0.5}) == pytest.approx(4.0)

    def test_exponent_evaluation(self):
        assert parse("x^3").evaluate({"x": 2.0}) == 8.0

    def test_zero_polynomial_evaluates_to_zero(self):
        assert Polynomial.zero().evaluate({"x": 5.0}) == 0.0


class TestMisc:
    def test_almost_equal_tolerates_float_noise(self):
        a = parse("x") * 0.1 + parse("x") * 0.2
        b = parse("x") * 0.3
        assert a.almost_equal(b, tolerance=1e-9)

    def test_almost_equal_rejects_different_support(self):
        assert not parse("x").almost_equal(parse("y"))

    def test_iteration_is_sorted_and_typed(self):
        p = parse("2*b + 3*a")
        items = list(p)
        assert items[0] == (3, Monomial.of("a"))

    def test_str_of_zero(self):
        assert str(Polynomial.zero()) == "0"

    def test_equality_and_hash(self):
        assert parse("x + y") == parse("y + x")
        assert hash(parse("x + y")) == hash(parse("y + x"))


class TestNumberTowerCoefficients:
    """Arithmetic must lift any numbers.Number — Fractions especially.

    Regression: the scalar branches of __add__/__sub__/__mul__ used to
    accept only int/float and silently returned NotImplemented for
    fractions.Fraction, despite the class promising Fraction support.
    """

    def test_add_fraction_scalar(self):
        from fractions import Fraction

        p = parse("x") + Fraction(1, 2)
        assert p.coefficient(Monomial.ONE) == Fraction(1, 2)

    def test_radd_and_rsub_fraction_scalar(self):
        from fractions import Fraction

        p = Fraction(3, 4) + parse("x")
        assert p.coefficient(Monomial.ONE) == Fraction(3, 4)
        q = Fraction(3, 4) - parse("x")
        assert q.coefficient(Monomial.ONE) == Fraction(3, 4)
        assert q.coefficient(Monomial.of("x")) == -1

    def test_sub_fraction_scalar(self):
        from fractions import Fraction

        p = parse("x") - Fraction(1, 3)
        assert p.coefficient(Monomial.ONE) == Fraction(-1, 3)

    def test_mul_fraction_scalar_keeps_exactness(self):
        from fractions import Fraction

        p = (parse("x") * 2) * Fraction(1, 3)
        assert p.coefficient(Monomial.of("x")) == Fraction(2, 3)

    def test_fraction_coefficients_cancel_exactly(self):
        from fractions import Fraction

        p = parse("x") * Fraction(1, 3)
        q = p * 3 - parse("x")
        assert not q  # (1/3)*3 - 1 == 0 exactly, no float residue


class TestExactEvaluation:
    """evaluate() must not force Fraction/int arithmetic through floats.

    Regression: the accumulators started from 0.0/1.0, so exact
    Fraction coefficients and assignments were corrupted by rounding.
    """

    def test_fraction_coefficients_and_values_stay_exact(self):
        from fractions import Fraction

        p = Polynomial({
            Monomial.of("x"): Fraction(1, 3),
            Monomial.ONE: Fraction(1, 6),
        })
        value = p.evaluate({"x": Fraction(1, 2)})
        assert value == Fraction(1, 3)
        assert isinstance(value, Fraction)

    def test_monomial_evaluate_preserves_fractions(self):
        from fractions import Fraction

        value = Monomial.of(("x", 2)).evaluate({"x": Fraction(2, 3)})
        assert value == Fraction(4, 9)
        assert isinstance(value, Fraction)

    def test_integer_evaluation_stays_integral(self):
        p = parse("2*x + 3")
        value = p.evaluate({"x": 2}, default=1)
        assert value == 7
        assert isinstance(value, int)
