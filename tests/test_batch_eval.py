"""Tests for the compiled batch evaluator (PolynomialSet.evaluate_batch).

The contract: ``evaluate_batch(assignments)[i] ==
evaluate(assignments[i])`` for every assignment, within 1e-9 — plus the
shape/normalization edge cases the compiled layout has to get right
(constant monomials, zero polynomials, empty sets, per-valuation
defaults) and the compile-cache lifecycle.
"""

import numpy
import pytest

from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.valuation import Valuation
from repro.scenarios.analysis import evaluate_scenarios
from repro.scenarios.scenario import Scenario
from repro.workloads.random_polys import random_polynomials
from repro.util.rng import derive_rng


def assert_matches_scalar(polynomials, assignments, default=1.0):
    batch = polynomials.evaluate_batch(assignments, default)
    assert batch.shape == (len(assignments), len(polynomials))
    for row, assignment in enumerate(assignments):
        if isinstance(assignment, Valuation):
            expected = assignment.evaluate(polynomials)
        else:
            expected = polynomials.evaluate(assignment, default)
        assert numpy.allclose(batch[row], expected, atol=1e-9, rtol=1e-9)


class TestEquivalence:
    def test_random_workload_against_scalar_evaluate(self):
        polynomials = random_polynomials(
            12, 30, [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(6)]],
            seed=3, extra_variables=4,
        )
        rng = derive_rng(9, "batch-eval-test")
        variables = sorted(polynomials.variables)
        assignments = [
            {
                variables[rng.randrange(len(variables))]: rng.uniform(-2.0, 2.0)
                for _ in range(rng.randrange(1, 8))
            }
            for _ in range(40)
        ]
        assert_matches_scalar(polynomials, assignments)

    def test_exponents_above_one(self):
        polynomials = parse_set(["3*x^3*y + 2*x^2 + 5", "x^4 - y^2"])
        assert_matches_scalar(
            polynomials,
            [{"x": 2.0, "y": -3.0}, {"x": -1.5}, {"y": 0.0}, {}],
        )

    def test_custom_default(self):
        polynomials = parse_set(["x*y + z"])
        assert_matches_scalar(polynomials, [{"x": 2.0}], default=0.0)

    def test_valuation_objects_honour_their_own_default(self):
        polynomials = parse_set(["x + y"])
        valuations = [
            Valuation({"x": 5.0}, default=0.0),
            Valuation({}, default=3.0),
        ]
        batch = polynomials.evaluate_batch(valuations)
        assert batch[0, 0] == pytest.approx(5.0)  # y defaults to 0
        assert batch[1, 0] == pytest.approx(6.0)  # both default to 3

    def test_unknown_variables_are_ignored(self):
        polynomials = parse_set(["2*x"])
        batch = polynomials.evaluate_batch([{"x": 3.0, "does-not-occur": 99.0}])
        assert batch[0, 0] == pytest.approx(6.0)


class TestNormalizationEdges:
    def test_constant_monomials(self):
        polynomials = parse_set(["7", "x + 2"])
        assert_matches_scalar(polynomials, [{}, {"x": 4.0}])

    def test_zero_polynomial_rows(self):
        polynomials = PolynomialSet([Polynomial.zero(), Polynomial.variable("x")])
        batch = polynomials.evaluate_batch([{"x": 2.0}])
        assert batch[0, 0] == 0.0
        assert batch[0, 1] == pytest.approx(2.0)

    def test_empty_set(self):
        assert PolynomialSet().evaluate_batch([{}, {}]).shape == (2, 0)

    def test_no_assignments(self):
        polynomials = parse_set(["x"])
        assert polynomials.evaluate_batch([]).shape == (0, 1)

    def test_variable_free_set(self):
        polynomials = PolynomialSet([Polynomial.constant(4)])
        batch = polynomials.evaluate_batch([{}, {"anything": 2.0}])
        assert numpy.allclose(batch, 4.0)

    def test_fraction_coefficients_degrade_to_float(self):
        from fractions import Fraction

        polynomials = PolynomialSet(
            [Polynomial({Monomial.of("x"): Fraction(1, 3)})]
        )
        batch = polynomials.evaluate_batch([{"x": 3.0}])
        assert batch[0, 0] == pytest.approx(1.0)

    def test_coefficients_degrade_exactly_as_float_does(self):
        """Every exact coefficient type becomes the float64 ``float()``
        gives it, bit for bit, at the edges of each type's range."""
        from fractions import Fraction

        coefficients = [
            Fraction(1, 3), Fraction(-(10**40 + 1), 3), 2**53 + 1,
            2**63 + 1, -(2**70) - 12345, 7, -0.1, 5e-324, 1e308,
        ]
        polynomials = PolynomialSet([Polynomial.from_terms([
            (coeff, Monomial.of(f"k{index}"))
            for index, coeff in enumerate(coefficients)
        ])])
        assert polynomials.compiled()._coeffs.tolist() == [
            float(coeff) for coeff in coefficients
        ]


class TestCompileCache:
    def test_compiled_is_cached(self):
        polynomials = parse_set(["x + y"])
        assert polynomials.compiled() is polynomials.compiled()

    def test_append_invalidates_cache(self):
        polynomials = parse_set(["x"])
        before = polynomials.evaluate_batch([{"x": 2.0}])
        assert before.shape == (1, 1)
        polynomials.append(Polynomial.variable("y", 3))
        after = polynomials.evaluate_batch([{"x": 2.0, "y": 2.0}])
        assert after.shape == (1, 2)
        assert after[0, 1] == pytest.approx(6.0)


class TestScenarioHelpers:
    def test_evaluate_scenarios_accepts_scenarios_and_dicts(self):
        polynomials = parse_set(["2*b1*m1 + 3*b1*m3", "b1*m1"])
        suite = [
            Scenario("discount", {"m1": 0.8}),
            Valuation({"m3": 1.5}),
            {"b1": 0.0},
        ]
        values = evaluate_scenarios(polynomials, suite)
        assert values.shape == (3, 2)
        assert values[0, 1] == pytest.approx(0.8)
        assert values[2, 0] == pytest.approx(0.0)
