"""Unit tests for repro.core.polynomial.PolynomialSet (multisets)."""

import pytest

import oracle
from repro.core.interning import VARIABLES
from repro.core.parser import parse, parse_set
from repro.core.polynomial import PolynomialSet


def plain(polynomials):
    return [
        {monomial.powers: coeff for monomial, coeff in p.terms.items()}
        for p in polynomials
    ]


def substitute(polynomials, mapping):
    """``polynomials`` renamed by ``mapping`` through the one substitution
    kernel, ``ColumnarMultiset.substitute``, checked against the oracle."""
    renamed = PolynomialSet.from_columnar(
        polynomials.columnar().substitute(VARIABLES.intern_mapping(mapping))
    )
    assert plain(renamed) == oracle.abstract(plain(polynomials), mapping)
    return renamed


class TestMultisetSemantics:
    def test_duplicates_are_kept(self):
        ps = PolynomialSet([parse("x"), parse("x")])
        assert len(ps) == 2
        assert ps.num_monomials == 2

    def test_num_monomials_sums(self):
        ps = parse_set(["x + y", "x*y + z + 1"])
        assert ps.num_monomials == 5

    def test_variables_union(self):
        ps = parse_set(["x + y", "y + z"])
        assert ps.variables == {"x", "y", "z"}

    def test_num_variables_counts_distinct(self):
        ps = parse_set(["x + y", "y + z"])
        assert ps.num_variables == 3

    def test_append_type_checked(self):
        ps = PolynomialSet()
        with pytest.raises(TypeError):
            ps.append("x + y")

    def test_constructor_type_checked(self):
        with pytest.raises(TypeError):
            PolynomialSet(["nope"])


class TestOperations:
    def test_substitute_is_pointwise(self):
        ps = parse_set(["a*x + b*x", "a*y"])
        merged = substitute(ps, {"a": "g", "b": "g"})
        assert merged[0] == parse("2*g*x")
        assert merged[1] == parse("g*y")

    def test_substitute_does_not_merge_across_polynomials(self):
        ps = parse_set(["a*x", "b*x"])
        merged = substitute(ps, {"a": "g", "b": "g"})
        # Both become g*x but remain separate polynomials.
        assert len(merged) == 2
        assert merged.num_monomials == 2

    def test_evaluate_returns_one_value_per_polynomial(self):
        ps = parse_set(["2*x", "3*x + 1"])
        assert ps.evaluate({"x": 2.0}) == [4.0, 7.0]

    def test_indexing_and_iteration(self):
        ps = parse_set(["x", "y"])
        assert ps[0] == parse("x")
        assert list(ps) == [parse("x"), parse("y")]

    def test_equality(self):
        assert parse_set(["x", "y"]) == parse_set(["x", "y"])
        assert parse_set(["x"]) != parse_set(["y"])

    def test_almost_equal(self):
        a = PolynomialSet([parse("x") * 0.1 + parse("x") * 0.2])
        b = parse_set(["0.3*x"])
        assert a.almost_equal(b)

    def test_almost_equal_length_mismatch(self):
        assert not parse_set(["x"]).almost_equal(parse_set(["x", "y"]))


class TestPaperMeasures:
    def test_example13_sizes(self, ex13_polys):
        # |P|_M = 8 + 6 = 14, |P|_V = 9 (p1 f1 y1 v b1 b2 e m1 m3).
        assert ex13_polys.num_monomials == 14
        assert ex13_polys.num_variables == 9

    def test_example13_p1_size(self, ex13_polys):
        assert ex13_polys[0].num_monomials == 8

    def test_example13_p2_size(self, ex13_polys):
        assert ex13_polys[1].num_monomials == 6
