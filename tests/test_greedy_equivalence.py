"""Seeded regression cases: the greedy is *exactly* Algorithm 2.

:func:`greedy_vvs` maintains candidate ranks with per-group collision
counts and a priority queue over the columnar working state;
``oracle.greedy`` re-ranks every candidate from fresh ``|P↓S|`` counts
each round (the paper's literal rescan, ``tests/oracle.py``). They
must agree step for step — same chosen labels in the same order, same
per-step and cumulative losses, same final cut and sizes — on every
compatible instance, in both tie-break modes. Seeded-random instances
keep these cases deterministic; ``tests/test_columnar.py`` drives the
same comparison with Hypothesis.
"""

import pytest

import oracle
from repro.algorithms.greedy import greedy_vvs
from repro.core.forest import AbstractionForest
from repro.workloads.random_polys import (
    random_compatible_instance,
    random_polynomials,
)
from repro.workloads.trees import layered_tree


def trace_tuples(result):
    return [
        (s.chosen, s.delta_ml, s.delta_vl, s.cumulative_ml, s.cumulative_vl)
        for s in result.trace
    ]


def plain(polynomials):
    return [
        {monomial.powers: coeff for monomial, coeff in polynomial.terms.items()}
        for polynomial in polynomials
    ]


def assert_identical(instance, bound, ml_tie_break):
    polynomials, forest = instance
    incremental = greedy_vvs(
        polynomials, forest, bound, ml_tie_break=ml_tie_break
    )
    reference = plain(polynomials)
    cut, trace = oracle.greedy(
        reference, [tree.to_nested() for tree in forest], bound,
        ml_tie_break=ml_tie_break,
    )
    assert trace_tuples(incremental) == trace
    assert incremental.vvs.labels == cut
    mapping = incremental.vvs.mapping()
    assert (incremental.monomial_loss, incremental.variable_loss) == (
        oracle.losses(reference, mapping)
    )
    assert (
        incremental.abstracted_size, incremental.abstracted_granularity
    ) == oracle.counts(reference, mapping)


class TestRandomForests:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("ml_tie_break", [True, False])
    def test_multi_tree_instances(self, seed, ml_tie_break):
        instance = random_compatible_instance(
            seed=seed, num_trees=3, leaves_per_tree=9,
            num_polynomials=6, monomials_per_polynomial=15,
        )
        bound = max(1, instance[0].num_monomials // 3)
        assert_identical(instance, bound, ml_tie_break)

    @pytest.mark.parametrize("seed", range(10))
    def test_deep_binary_trees(self, seed):
        instance = random_compatible_instance(
            seed=100 + seed, num_trees=2, leaves_per_tree=16,
            num_polynomials=5, monomials_per_polynomial=20, max_fanout=2,
        )
        bound = max(1, instance[0].num_monomials // 4)
        assert_identical(instance, bound, True)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_tree_instances(self, seed):
        instance = random_compatible_instance(
            seed=200 + seed, num_trees=1, leaves_per_tree=12,
            num_polynomials=8, monomials_per_polynomial=10,
        )
        bound = max(1, instance[0].num_monomials // 2)
        assert_identical(instance, bound, True)

    @pytest.mark.parametrize("bound_divisor", [1, 2, 4, 1000])
    def test_bound_sweep(self, bound_divisor):
        """From no-op (k <= 0) to exhausting every candidate."""
        instance = random_compatible_instance(
            seed=7, num_trees=2, leaves_per_tree=8,
            num_polynomials=5, monomials_per_polynomial=12,
        )
        bound = max(1, instance[0].num_monomials // bound_divisor)
        assert_identical(instance, bound, True)


class TestStructuredWorkloads:
    def test_layered_forest_with_free_variables(self):
        """The regression benchmark's shape, shrunk."""
        pool = [f"s{i}" for i in range(32)]
        side = [f"m{i}" for i in range(8)]
        polynomials = random_polynomials(
            8, 25, [pool, side], seed=5, extra_variables=6
        )
        forest = AbstractionForest([
            layered_tree(pool, (4, 4), prefix="sup"),
            layered_tree(side, (4,), prefix="q"),
        ]).clean(polynomials)
        bound = max(1, polynomials.num_monomials // 3)
        assert_identical((polynomials, forest), bound, True)

    def test_paper_example(self, ex13_polys, paper_forest):
        """Example 15 end to end through both implementations."""
        assert_identical((ex13_polys, paper_forest), 4, True)
