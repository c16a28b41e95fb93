"""Unit tests for repro.core.polynomial.Monomial."""

import pytest

import oracle
from repro.core.interning import VARIABLES
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet


class TestConstruction:
    def test_of_single_variable(self):
        m = Monomial.of("x")
        assert m.exponent("x") == 1
        assert m.variables == {"x"}

    def test_of_repeated_variable_adds_exponents(self):
        m = Monomial.of("x", "x", "x")
        assert m.exponent("x") == 3

    def test_of_pair_syntax(self):
        m = Monomial.of(("x", 2), "y")
        assert m.exponent("x") == 2
        assert m.exponent("y") == 1

    def test_mixed_pairs_and_names_combine(self):
        m = Monomial.of(("x", 2), "x")
        assert m.exponent("x") == 3

    def test_empty_monomial_is_one(self):
        assert Monomial.of() == Monomial.ONE
        assert str(Monomial.ONE) == "1"

    def test_powers_are_sorted(self):
        m = Monomial.of("z", "a", "m")
        assert [v for v, _ in m.powers] == ["a", "m", "z"]

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            Monomial([("x", 0)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Monomial([("x", -1)])

    def test_rejects_duplicate_in_raw_constructor(self):
        with pytest.raises(ValueError):
            Monomial([("x", 1), ("x", 2)])

    def test_immutable(self):
        m = Monomial.of("x")
        with pytest.raises(AttributeError):
            m.powers = ()


class TestAlgebra:
    def test_multiplication_merges_exponents(self):
        assert Monomial.of("x") * Monomial.of("x", "y") == Monomial.of(("x", 2), "y")

    def test_multiplication_with_one_is_identity(self):
        m = Monomial.of("a", "b")
        assert m * Monomial.ONE == m
        assert Monomial.ONE * m == m

    def test_multiplication_is_commutative(self):
        a = Monomial.of("x", ("y", 2))
        b = Monomial.of("z", "x")
        assert a * b == b * a

    def test_degree(self):
        assert Monomial.of(("x", 2), "y").degree == 3
        assert Monomial.ONE.degree == 0

    def test_contains(self):
        m = Monomial.of("x", "y")
        assert "x" in m
        assert "z" not in m

    def test_len_counts_distinct_variables(self):
        assert len(Monomial.of(("x", 5), "y")) == 2


def substitute(monomial, mapping):
    """``monomial`` renamed by ``mapping`` through the one substitution
    kernel, ``ColumnarMultiset.substitute``, checked against the oracle."""
    polys = PolynomialSet([Polynomial({monomial: 1})])
    renamed = polys.columnar().substitute(VARIABLES.intern_mapping(mapping))
    (result,) = PolynomialSet.from_columnar(renamed)[0].monomials
    assert result.powers == oracle.substitute_monomial(monomial.powers, mapping)
    return result


class TestSubstitution:
    def test_identity_when_unmapped(self):
        m = Monomial.of("x", "y")
        assert substitute(m, {}) == m

    def test_simple_rename(self):
        assert substitute(Monomial.of("m1", "x"), {"m1": "q1"}) == Monomial.of(
            "q1", "x"
        )

    def test_merging_rename_adds_exponents(self):
        m = substitute(Monomial.of("a", "b"), {"a": "g", "b": "g"})
        assert m == Monomial.of(("g", 2))

    def test_exponent_preserved_through_rename(self):
        m = substitute(Monomial.of(("m1", 3)), {"m1": "q1"})
        assert m == Monomial.of(("q1", 3))


class TestEvaluation:
    def test_evaluates_product(self):
        m = Monomial.of(("x", 2), "y")
        assert m.evaluate({"x": 3.0, "y": 2.0}) == 18.0

    def test_missing_variables_default_to_one(self):
        assert Monomial.of("x", "y").evaluate({"x": 5.0}) == 5.0

    def test_custom_default(self):
        assert Monomial.of("x").evaluate({}, default=0.0) == 0.0

    def test_one_evaluates_to_one(self):
        assert Monomial.ONE.evaluate({}) == 1.0


class TestOrderingAndHashing:
    def test_equal_monomials_hash_equal(self):
        assert hash(Monomial.of("x", "y")) == hash(Monomial.of("y", "x"))

    def test_ordering_is_total_on_examples(self):
        monomials = [Monomial.of("b"), Monomial.of("a"), Monomial.of("a", "b")]
        ordered = sorted(monomials)
        assert ordered[0] == Monomial.of("a")

    def test_str_formats_exponents(self):
        assert str(Monomial.of(("x", 2), "y")) == "x^2*y"

    def test_repr_roundtrip_via_eval(self):
        m = Monomial.of(("x", 2), "y")
        assert eval(repr(m), {"Monomial": Monomial}) == m
