"""Every worked example of the paper, pinned to its printed numbers.

These tests are the ground truth of the reproduction: Examples 1–8
(model), 13 (optimal DP trace), 15 (greedy trace), 17–24 (hardness
machinery). If one of these fails, the implementation has diverged from
the paper, whatever the other tests say.
"""

import pytest

from repro.algorithms.brute_force import brute_force_vvs
from repro.algorithms.greedy import greedy_vvs
from repro.algorithms.optimal import optimal_vvs
from repro.algorithms.result import InfeasibleBoundError
from repro.core.abstraction import abstract, monomial_loss, variable_loss
from repro.core.forest import AbstractionForest
from repro.core.parser import parse
from repro.core.polynomial import Monomial, PolynomialSet
from repro.workloads.telephony import figure1_database, revenue_by_zip


class TestExample1And2:
    """The running-example query on the Figure 1 fragment."""

    def test_zip_10001_polynomial_matches_example2(self):
        cust, calls, plans = figure1_database()
        result = revenue_by_zip(cust, calls, plans)
        p = result.polynomial((10001,))
        expected = parse(
            "220.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 + "
            "75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3"
        )
        assert p.almost_equal(expected, tolerance=1e-9)

    def test_zip_10002_polynomial_matches_example13_p2(self):
        cust, calls, plans = figure1_database()
        result = revenue_by_zip(cust, calls, plans)
        p = result.polynomial((10002,))
        expected = parse(
            "77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + "
            "69.7*b2*m1 + 100.65*b2*m3"
        )
        assert p.almost_equal(expected, tolerance=1e-9)

    def test_quarter_abstraction_of_example2(self, ex13_polys, figure3_tree):
        """Merging m1,m3 into q1 gives the second Example 2 polynomial."""
        forest = AbstractionForest([figure3_tree.clean(ex13_polys.variables)])
        abstracted = abstract(PolynomialSet([ex13_polys[0]]), forest.root_vvs())
        expected = parse(
            "460.8*p1*q1 + 241.85*f1*q1 + 148.4*y1*q1 + 66.2*v*q1"
        )
        assert abstracted[0].almost_equal(expected, tolerance=1e-9)


class TestExample5And6:
    def test_s1_measures(self, ex13_polys, figure2_tree):
        """|P↓S1|_V = 4, |P↓S1|_M = 4 on the polynomial P of Example 2."""
        p1 = PolynomialSet([ex13_polys[0]])
        forest = AbstractionForest([figure2_tree])
        s1 = forest.vvs({"Business", "Special", "Standard"})
        abstracted = abstract(p1, s1)
        # P (zip 10001) holds no business plans, so only Special+Standard
        # appear; the paper's count of 4 variables includes the months.
        assert abstracted.num_monomials == 4
        assert abstracted.num_variables == 4

    def test_s5_measures(self, ex13_polys, figure2_tree):
        """|P↓S5|_V = 3, |P↓S5|_M = 2."""
        p1 = PolynomialSet([ex13_polys[0]])
        forest = AbstractionForest([figure2_tree])
        s5 = forest.vvs({"Plans"})
        abstracted = abstract(p1, s5)
        assert abstracted.num_monomials == 2
        assert abstracted.num_variables == 3

    def test_example6_loss_values(self, ex13_polys, figure2_tree):
        """ML(S1)=4, ML(S5)=6, VL(S1)=2, VL(S5)=3."""
        p1 = PolynomialSet([ex13_polys[0]])
        forest = AbstractionForest([figure2_tree])
        s1 = forest.vvs({"Business", "Special", "Standard"})
        s5 = forest.vvs({"Plans"})
        assert monomial_loss(p1, s1) == 4
        assert monomial_loss(p1, s5) == 6
        assert variable_loss(p1, s1) == 2
        assert variable_loss(p1, s5) == 3


class TestExample8:
    def test_months_tree_cannot_reach_bound_3(self, ex13_polys, figure3_tree):
        """Maximal compression of P via the months tree leaves 4 monomials."""
        p1 = PolynomialSet([ex13_polys[0]])
        with pytest.raises(InfeasibleBoundError) as excinfo:
            optimal_vvs(p1, figure3_tree, bound=3)
        assert excinfo.value.min_achievable_size == 4


class TestExample13:
    def test_k_is_five(self, ex13_polys):
        assert ex13_polys.num_monomials - 9 == 5

    def test_optimal_vvs(self, ex13_polys, figure2_tree):
        result = optimal_vvs(ex13_polys, figure2_tree, bound=9)
        assert result.vvs.labels == frozenset({"SB", "Special", "e", "p1"})

    def test_optimal_losses(self, ex13_polys, figure2_tree):
        result = optimal_vvs(ex13_polys, figure2_tree, bound=9)
        assert result.monomial_loss == 6
        assert result.variable_loss == 3

    def test_sb_abstraction_of_p2(self, ex13_polys, figure2_tree):
        """147.6·SB·m1 + 181.15·SB·m3 replaces the four b1/b2 monomials."""
        forest = AbstractionForest([figure2_tree])
        vvs = forest.vvs({"SB", "e", "Standard", "Special"})
        abstracted = abstract(PolynomialSet([ex13_polys[1]]), vvs)
        p = abstracted[0]
        assert p.coefficient(Monomial.of("SB", "m1")) == pytest.approx(147.6)
        assert p.coefficient(Monomial.of("SB", "m3")) == pytest.approx(181.15)
        assert p.num_monomials == 4


class TestExample15:
    def test_greedy_full_trace(self, ex13_polys, paper_forest):
        result = greedy_vvs(ex13_polys, paper_forest, bound=4)
        assert [s.chosen for s in result.trace] == ["q1", "SB", "Business",
                                                    "Special"]
        assert [s.cumulative_ml for s in result.trace] == [7, 8, 9, 11]
        assert result.variable_loss == 5

    def test_stated_optimum(self, ex13_polys, paper_forest):
        optimum = brute_force_vvs(ex13_polys, paper_forest, bound=4)
        assert optimum.vvs.labels == frozenset({"q1", "Special", "SB", "e", "p1"})
        assert optimum.monomial_loss == 10
        assert optimum.variable_loss == 4


class TestExamples17Through24:
    def test_example17_19(self):
        from repro.hardness import claim18_sizes, uniformly_partitioned

        p = uniformly_partitioned(4, 3, [(1, 2), (1, 3), (2, 3), (2, 4)])
        assert p.num_monomials == 4 * 9
        assert p.num_variables == 4 * 3
        assert claim18_sizes(4, 3, [(1, 2), (1, 3), (2, 3), (2, 4)]) == (36, 12)

    def test_example21_figure13(self):
        from repro.hardness import flat_abstraction

        forest = flat_abstraction(4, 3)
        roots = {tree.root.label for tree in forest}
        assert roots == {"x(1)", "x(2)", "x(3)", "x(4)"}
        for tree in forest:
            assert len(tree.leaves) == 3

    def test_example24_abstraction(self):
        from repro.core.abstraction import abstract_counts
        from repro.hardness import flat_abstraction, flat_cut, uniformly_partitioned

        p = PolynomialSet(
            [uniformly_partitioned(4, 3, [(1, 2), (1, 3), (2, 3), (2, 4)])]
        )
        forest = flat_abstraction(4, 3)
        vvs = flat_cut(forest, {1, 3}, 4, 3)
        size, granularity = abstract_counts(p, vvs.mapping())
        # P(1,2): 3 monomials, P(1,3): 1, P(2,3): 3, P(2,4): 9.
        assert size == 16
        # {x(1), x(3)} ∪ {x(2)_1..3, x(4)_1..3}.
        assert granularity == 8

    def test_example24_coefficients(self):
        from repro.hardness import (
            flat_abstraction,
            flat_cut,
            uniformly_partitioned,
            variable_name,
        )

        p = uniformly_partitioned(4, 3, [(1, 2), (1, 3), (2, 3), (2, 4)])
        forest = flat_abstraction(4, 3)
        vvs = flat_cut(forest, {1, 3}, 4, 3)
        abstracted = abstract(p, vvs)
        # P(1,3) collapses to 9·x(1)·x(3).
        assert abstracted.coefficient(Monomial.of("x(1)", "x(3)")) == 9
        # P(1,2) yields 3·x(1)·x(2)_j for each j.
        assert abstracted.coefficient(
            Monomial.of("x(1)", variable_name(2, 1))
        ) == 3
