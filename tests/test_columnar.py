"""The columnar compression core, pinned against the definitional oracle.

Every compression entry point — ``abstract_counts``/``abstract``/
``losses``, ``LossIndex``, ``greedy_vvs``, ``optimal_vvs`` and
``brute_force_vvs`` — runs on the flat arrays of
:mod:`repro.core.columnar`. ``tests/oracle.py`` restates each one from
the paper's definitions over plain dicts (no ``repro`` import), and
Hypothesis drives the comparison over adversarial inputs: exponents
≠ 1, substitutions whose targets collide with existing variables (the
exponent-merging path), empty and variable-free polynomials, pickled/
unpickled sets (interned ids do not survive pickling — names do), and
four coefficient families. Int, ``Fraction`` and big-int coefficients
must equal the oracle's exactly, type included; float coefficients
(positive, so merged sums never cancel) must give the same monomials
with coefficients within 1e-12 relative.
"""

import pickle
import uuid
from fractions import Fraction

import numpy
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracle
from repro.algorithms.brute_force import brute_force_vvs
from repro.algorithms.greedy import greedy_vvs
from repro.algorithms.optimal import optimal_vvs
from repro.algorithms.result import AbstractionResult, InfeasibleBoundError
from repro.core.abstraction import LossIndex, abstract, abstract_counts, losses
from repro.core.columnar import (
    ColumnarMultiset, gather_ranges, invert_index, unique_row_ids,
)
from repro.core.forest import AbstractionForest, CompatibilityError
from repro.core.interning import VARIABLES
from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree
from repro.engine.sql import execute
from repro.workloads.tpch import part_tree, supplier_tree
from test_engine_differential import TPCH_QUERIES, tpch_params

# ---------------------------------------------------------------------------
# Plain-data views and comparisons
# ---------------------------------------------------------------------------


def plain(polynomials):
    """A polynomial set as the oracle's plain data."""
    return [
        {monomial.powers: coeff for monomial, coeff in polynomial.terms.items()}
        for polynomial in polynomials
    ]


def specs(forest):
    return [tree.to_nested() for tree in forest]


def assert_same_polynomials(actual, expected):
    """Exact families to the bit (type included); floats within 1e-12."""
    assert len(actual) == len(expected)
    for mine, theirs in zip(actual, expected, strict=True):
        assert mine.keys() == theirs.keys()
        for monomial, coeff in mine.items():
            reference = theirs[monomial]
            if isinstance(reference, float):
                assert abs(coeff - reference) <= 1e-12 * max(
                    abs(coeff), abs(reference)
                ), (monomial, coeff, reference)
            else:
                assert type(coeff) is type(reference), (monomial, coeff)
                assert coeff == reference, (monomial, coeff, reference)


def fresh_labels(forest):
    """``forest`` with every internal label renamed to a never-interned
    one: the solver interns them in forest order, so the last one is
    the highest variable id."""
    tag = uuid.uuid4().hex

    def rename(spec):
        if isinstance(spec, str):
            return spec
        return (f"{spec[0]}_{tag}", [rename(child) for child in spec[1]])

    return AbstractionForest([
        AbstractionTree.from_nested(rename(tree.to_nested()))
        for tree in forest
    ])


def trace_tuples(result):
    return [
        (s.chosen, s.delta_ml, s.delta_vl, s.cumulative_ml, s.cumulative_vl)
        for s in result.trace
    ]


def assert_greedy_matches_oracle(polys, forest, bound, *, ml_tie_break=True,
                                 clean=True, original=None):
    """Cut, trace, sizes and losses of one greedy run against the rescan.

    ``original`` is the set the oracle reads (defaults to ``polys`` —
    pass the pre-pickling set to check an unpickled run).
    """
    reference = plain(original if original is not None else polys)
    result = greedy_vvs(
        polys, forest, bound, ml_tie_break=ml_tie_break, clean=clean
    )
    cut, trace = oracle.greedy(
        reference, specs(forest), bound,
        ml_tie_break=ml_tie_break, do_clean=clean,
    )
    assert trace_tuples(result) == trace
    assert result.vvs.labels == cut
    mapping = oracle.mapping_of(specs(result.vvs.forest), cut)
    size, granularity = oracle.counts(reference, mapping)
    assert (result.abstracted_size, result.abstracted_granularity) == (
        size, granularity
    )
    assert (result.monomial_loss, result.variable_loss) == oracle.losses(
        reference, mapping
    )
    return result


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

VARIABLES_POOL = [f"v{i}" for i in range(8)]

variable_names = st.sampled_from(VARIABLES_POOL)

#: Coefficient families. Floats are positive: merged sums never
#: cancel, so "within 1e-12 relative" is a meaningful bound.
COEFFICIENTS = {
    "int": st.integers(-50, 50).filter(bool),
    "fraction": st.builds(
        Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)
    ),
    "bigint": st.integers(-(10 ** 30), 10 ** 30).filter(bool),
    "float": st.floats(min_value=1e-3, max_value=1e6),
}
EXACT_FAMILIES = ("int", "fraction", "bigint")


@st.composite
def monomials(draw, pool=VARIABLES_POOL):
    pairs = draw(
        st.dictionaries(st.sampled_from(pool), st.integers(1, 4), max_size=4)
    )
    return Monomial(pairs.items())


@st.composite
def polynomial_sets(draw, families=tuple(COEFFICIENTS)):
    """Multisets mixing empty, constant and multi-variable polynomials."""
    coeffs = COEFFICIENTS[draw(st.sampled_from(families))]
    body = draw(
        st.lists(
            st.dictionaries(monomials(), coeffs, max_size=6),
            min_size=0,
            max_size=4,
        )
    )
    return PolynomialSet(Polynomial(terms) for terms in body)


#: Substitutions including collision-inducing targets: several sources
#: mapping to one fresh name *and* to names already present, so merged
#: exponents and vanishing-variable bookkeeping are exercised.
mappings = st.dictionaries(
    variable_names,
    st.sampled_from(VARIABLES_POOL + ["g0", "g1"]),
    max_size=5,
)


@st.composite
def one_level_cuts(draw):
    """A root cut of one-level trees whose parents may be variables that
    already occur (substitution onto existing variables)."""
    names = draw(st.permutations(VARIABLES_POOL))
    leaves, parents = names[:5], names[5:]
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    trees = []
    start = 0
    for number, size in enumerate(sizes):
        group = leaves[start:start + size]
        start += size
        if not group:
            break
        parent = draw(st.sampled_from([f"g{number}", parents[number]]))
        trees.append(AbstractionTree.from_nested((parent, list(group))))
    return AbstractionForest(trees).root_vvs()


@st.composite
def tree_specs(draw, leaves, prefix):
    """A random tree over ``leaves``: adjacent nodes merge under fresh
    parents (fanout 2–3) until one root remains."""
    level = list(leaves)
    counter = 0
    while len(level) > 1:
        start = draw(st.integers(0, len(level) - 2))
        width = draw(st.integers(2, min(3, len(level) - start)))
        group = level[start:start + width]
        level[start:start + width] = [(f"{prefix}{counter}", group)]
        counter += 1
    return level[0]


@st.composite
def compatible_instances(draw, families=tuple(COEFFICIENTS), max_trees=3):
    """``(polynomials, forest)``: at most one leaf per tree per monomial,
    exponents up to 3, free variables, constants and empty polynomials."""
    coeffs = COEFFICIENTS[draw(st.sampled_from(families))]
    num_trees = draw(st.integers(1, max_trees))
    pools = [
        [f"t{t}l{i}" for i in range(draw(st.integers(2, 6)))]
        for t in range(num_trees)
    ]
    free = ["f0", "f1", "f2"]

    @st.composite
    def monomial(draw):
        pairs = []
        for pool in pools:
            leaf = draw(st.sampled_from(pool + [None]))
            if leaf is not None:
                pairs.append((leaf, draw(st.integers(1, 3))))
        for name, exp in draw(
            st.dictionaries(st.sampled_from(free), st.integers(1, 2),
                            max_size=2)
        ).items():
            pairs.append((name, exp))
        return Monomial(pairs)

    body = draw(st.lists(
        st.dictionaries(monomial(), coeffs, max_size=8),
        min_size=1, max_size=5,
    ))
    polys = PolynomialSet(Polynomial(terms) for terms in body)
    trees = [
        AbstractionTree.from_nested(draw(tree_specs(pool, f"T{t}_")))
        for t, pool in enumerate(pools)
    ]
    return polys, AbstractionForest(trees)


# ---------------------------------------------------------------------------
# Counting and materialization
# ---------------------------------------------------------------------------


class TestAbstractCounts:
    @settings(deadline=None)
    @given(polynomial_sets(), mappings)
    def test_matches_oracle(self, polys, mapping):
        assert abstract_counts(polys, mapping) == oracle.counts(
            plain(polys), mapping
        )

    @settings(deadline=None)
    @given(polynomial_sets(), mappings)
    def test_unpickled_sets_count_identically(self, polys, mapping):
        restored = pickle.loads(pickle.dumps(polys))
        assert restored == polys
        assert abstract_counts(restored, mapping) == oracle.counts(
            plain(polys), mapping
        )

    def test_empty_and_variable_free(self):
        empty = PolynomialSet([])
        assert abstract_counts(empty, {"a": "b"}) == (0, 0)
        constants = PolynomialSet(
            [Polynomial.constant(3), Polynomial.zero(), Polynomial.constant(7)]
        )
        assert abstract_counts(constants, {"a": "b"}) == (2, 0)
        assert oracle.counts(plain(constants), {"a": "b"}) == (2, 0)

    def test_losses_combines_both_measures(self):
        polys = parse_set(["2*b1*m1 + 3*b1*m3 + 4*b2*m1 + 5*b2*m3 + 6*e*m1"])
        tree = AbstractionTree.from_nested(("B", [("SB", ["b1", "b2"]), "e"]))
        forest = AbstractionForest([tree])
        vvs = forest.vvs({"SB", "e"})
        assert losses(polys, vvs) == (2, 1)
        assert oracle.losses(plain(polys), vvs.mapping()) == (2, 1)

    @settings(deadline=None, max_examples=50)
    @given(polynomial_sets(), one_level_cuts())
    def test_losses_match_oracle(self, polys, vvs):
        assert losses(polys, vvs) == oracle.losses(plain(polys), vvs.mapping())


class TestAbstractMaterialization:
    @settings(deadline=None, max_examples=50)
    @given(compatible_instances(families=EXACT_FAMILIES), st.data())
    def test_exact_coefficients_are_identical(self, instance, data):
        """Int/Fraction/big-int ``P↓S`` equals the oracle's to the bit."""
        polys, forest = instance
        cut = data.draw(st.sampled_from(oracle.forest_cuts(specs(forest))))
        vvs = forest.vvs(cut)
        assert_same_polynomials(
            plain(abstract(polys, vvs)),
            oracle.abstract(plain(polys), vvs.mapping()),
        )

    def test_zero_cancellation_matches(self):
        polys = parse_set(["2*a*x - 2*b*x + c"])
        forest = AbstractionForest([AbstractionTree.from_nested(("g", ["a", "b"]))])
        vvs = forest.root_vvs()
        expected = oracle.abstract(plain(polys), vvs.mapping())
        assert expected == [{(("c", 1),): 1}]
        assert_same_polynomials(plain(abstract(polys, vvs)), expected)

    @settings(deadline=None, max_examples=50)
    @given(compatible_instances(families=("float",)), st.data())
    def test_float_coefficients_are_close(self, instance, data):
        polys, forest = instance
        cut = data.draw(st.sampled_from(oracle.forest_cuts(specs(forest))))
        vvs = forest.vvs(cut)
        assert_same_polynomials(
            plain(abstract(polys, vvs)),
            oracle.abstract(plain(polys), vvs.mapping()),
        )

    @settings(deadline=None, max_examples=50)
    @given(polynomial_sets(), one_level_cuts())
    def test_substitution_onto_existing_variables(self, polys, vvs):
        """Parents that already occur merge exponents (``a*g → g^2``)."""
        expected = oracle.abstract(plain(polys), vvs.mapping())
        assert_same_polynomials(plain(abstract(polys, vvs)), expected)
        restored = pickle.loads(pickle.dumps(polys))
        assert_same_polynomials(plain(abstract(restored, vvs)), expected)

    @settings(deadline=None, max_examples=50)
    @given(polynomial_sets(), one_level_cuts())
    def test_single_polynomial_substitutes(self, polys, vvs):
        """A lone ``Polynomial`` abstracts as a one-polynomial set."""
        for polynomial in polys:
            assert_same_polynomials(
                plain([abstract(polynomial, vvs)]),
                oracle.abstract(plain([polynomial]), vvs.mapping()),
            )


def assert_same_arrays(actual, expected):
    """Two multisets array for array; coefficients equal in value and type."""
    assert (actual.num_polynomials, actual.num_monomials) == (
        expected.num_polynomials, expected.num_monomials
    )
    for name in ("vids", "exps", "row_starts", "row_poly", "poly_starts"):
        numpy.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )
    assert [(type(c), c) for c in actual.coeffs] == [
        (type(c), c) for c in expected.coeffs
    ]


#: Names interned in reverse name order (at import, before any test can
#: intern them), so a row's factors in id order are not in name order.
REVERSED_NAMES = [f"zr{letter}" for letter in "abcdefgh"]
for _name in reversed(REVERSED_NAMES):
    VARIABLES.intern(_name)


@st.composite
def reversed_instances(draw, families=tuple(COEFFICIENTS)):
    """``(polynomials, vvs)`` over :data:`REVERSED_NAMES`: one tree over
    five leaves, whose fresh meta-variables sort before or after them by
    name, and three free variables."""
    coeffs = COEFFICIENTS[draw(st.sampled_from(families))]
    leaves, free = REVERSED_NAMES[:5], REVERSED_NAMES[5:]
    monomial = st.builds(
        lambda leaf, others: Monomial([*leaf, *others.items()]),
        st.sampled_from([[]] + [[(leaf, 1)] for leaf in leaves]
                        + [[(leaf, 2)] for leaf in leaves]),
        st.dictionaries(st.sampled_from(free), st.integers(1, 2), max_size=3),
    )
    body = draw(st.lists(st.dictionaries(monomial, coeffs, max_size=8),
                         max_size=4))
    polys = PolynomialSet(Polynomial(terms) for terms in body)
    inner, outer = draw(st.permutations(["a_zr", "zz_zr"]))
    forest = AbstractionForest([AbstractionTree.from_nested(
        (outer, [(inner, leaves[:3]), *leaves[3:]])
    )])
    cut = draw(st.sampled_from(oracle.forest_cuts(specs(forest))))
    return polys, forest.vvs(cut)


class TestAbstractArrays:
    """``abstract`` maps arrays to arrays: the multiset it returns must be
    the one extracted from the ``Polynomial`` objects it materializes —
    canonical row order, id-sorted factors, coefficient values and
    types — so the ``.rpb`` and the compiled evaluator built from it
    are those of the object path."""

    @staticmethod
    def check(polys, vvs):
        abstracted = abstract(polys, vvs)
        assert abstracted._polynomials is None  # nothing built yet
        objects = PolynomialSet(list(abstracted))
        assert_same_arrays(abstracted.columnar(), ColumnarMultiset(objects))
        assert abstracted.variable_ids() == objects.variable_ids()
        assert len(abstracted) == len(objects) == len(polys)
        assert abstracted.num_monomials == objects.num_monomials
        return abstracted

    @settings(deadline=None, max_examples=60)
    @given(compatible_instances(), st.data())
    def test_every_family(self, instance, data):
        polys, forest = instance
        cut = data.draw(st.sampled_from(oracle.forest_cuts(specs(forest))))
        self.check(polys, forest.vvs(cut))

    @settings(deadline=None, max_examples=60)
    @given(reversed_instances())
    def test_interning_order_other_than_name_order(self, instance):
        self.check(*instance)

    @settings(deadline=None, max_examples=60)
    @given(polynomial_sets(), one_level_cuts())
    def test_cancellation_empty_and_constant_polynomials(self, polys, vvs):
        """Int coefficients cancel; parents may already occur."""
        self.check(polys, vvs)

    @settings(deadline=None, max_examples=40)
    @given(reversed_instances(families=EXACT_FAMILIES))
    def test_exact_families_equal_the_oracle(self, instance):
        """Exact sums do not depend on their order, so the polynomials
        equal the oracle's to the bit, type included."""
        polys, vvs = instance
        assert_same_polynomials(
            plain(self.check(polys, vvs)),
            oracle.abstract(plain(polys), vvs.mapping()),
        )

    def test_zero_sums_and_constants(self):
        polys = parse_set(["2*a*x - 2*b*x + c", "0", "5", "a*y - b*y + 3"])
        forest = AbstractionForest([
            AbstractionTree.from_nested(("g", ["a", "b"]))
        ])
        abstracted = self.check(polys, forest.root_vvs())
        assert [str(p) for p in abstracted] == ["c", "0", "5", "3"]


# ---------------------------------------------------------------------------
# One P↓S: every path gives abstract's bits
# ---------------------------------------------------------------------------


def coefficient_bits(polynomials):
    """Per polynomial, every monomial's coefficient as its type and repr."""
    return [
        {monomial: (type(coeff), repr(coeff)) for monomial, coeff in p.terms.items()}
        for p in polynomials
    ]


def assert_one_path(polys, vvs):
    """``vvs.apply``, ``AbstractionResult.apply`` and abstracting each
    polynomial alone all equal ``abstract(polys, vvs)``, bit for bit."""
    expected = coefficient_bits(abstract(polys, vvs))
    result = AbstractionResult(
        vvs, *losses(polys, vvs), *abstract_counts(polys, vvs.mapping())
    )
    assert coefficient_bits(vvs.apply(polys)) == expected
    assert coefficient_bits(result.apply(polys)) == expected
    assert coefficient_bits([abstract(p, vvs) for p in polys]) == expected


#: Float terms that merge into one, inserted in the reverse of their
#: canonical order: summed in insertion order they give 0.6, in row
#: order 0.6000000000000001.
REVERSED_FLOAT_MERGE = (
    PolynomialSet([Polynomial.from_terms(
        [(0.3, Monomial.of("t0l2")), (0.2, Monomial.of("t0l1")),
         (0.1, Monomial.of("t0l0"))]
    )]),
    AbstractionForest([
        AbstractionTree.from_nested(("T0_0", ["t0l0", "t0l1", "t0l2"]))
    ]),
)


class TestOnePath:
    @settings(deadline=None, max_examples=60)
    @given(compatible_instances(), st.integers(0, 2 ** 16))
    @example(REVERSED_FLOAT_MERGE, 0)
    def test_every_family(self, instance, index):
        polys, forest = instance
        cuts = oracle.forest_cuts(specs(forest))
        assert_one_path(polys, forest.vvs(cuts[index % len(cuts)]))

    @pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
    def test_tpch_root_and_middle_cuts(self, tiny_tpch, query):
        polys = execute(
            TPCH_QUERIES[query], tiny_tpch.tables, params=tpch_params
        ).polynomials
        forest = AbstractionForest(
            [supplier_tree(buckets=128), part_tree(buckets=128)]
        ).clean(polys)
        middle = {child.label for tree in forest for child in tree.root.children}
        for vvs in (forest.root_vvs(), forest.vvs(middle)):
            assert_one_path(polys, vvs)


# ---------------------------------------------------------------------------
# LossIndex
# ---------------------------------------------------------------------------


def assert_loss_index_matches_oracle(polys, tree, original=None):
    reference = plain(original if original is not None else polys)
    index = LossIndex(polys, tree)
    expected = oracle.node_losses(reference, tree.to_nested())
    present = oracle.variables_of(reference)
    for label, node in oracle.nodes(tree.to_nested()):
        under = oracle.leaves(node)
        assert (index.ml(label), index.vl(label)) == expected[label], label
        assert index.leaves_present(label) == sum(
            1 for leaf in under if leaf in present
        ), label
        assert index.leaf_count(label) == len(under), label
    assert index.max_ml == expected[tree.root.label][0]


class TestLossIndex:
    @settings(deadline=None, max_examples=50)
    @given(compatible_instances())
    def test_matches_oracle(self, instance):
        polys, forest = instance
        for tree in forest:
            assert_loss_index_matches_oracle(polys, tree)

    def test_exponents_and_sentinel_residuals(self):
        """Residual keys carry the member's exponent (sentinel slot)."""
        polys = parse_set(["b1^2*x + b2^2*x + b1^3*x + 2*b1^2 + 5*b2^2"])
        tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
        assert_loss_index_matches_oracle(polys, tree)
        # b1^2*x/b2^2*x merge and the constants' residuals merge; the
        # b1^3 residual is kept apart by its exponent.
        assert LossIndex(polys, tree).ml("SB") == 2

    def test_unpickled_set(self):
        polys = parse_set(["2*b1*m1 + 3*b2*m1 + b1^2"])
        restored = pickle.loads(pickle.dumps(polys))
        tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
        assert_loss_index_matches_oracle(restored, tree, original=polys)


# ---------------------------------------------------------------------------
# Full solver runs
# ---------------------------------------------------------------------------


class TestGreedyBackend:
    @settings(deadline=None, max_examples=50)
    @given(compatible_instances(), st.integers(1, 4), st.booleans(),
           st.booleans())
    def test_columnar_run_is_identical(self, instance, divisor, tie_break,
                                       clean):
        """Cut, trace and losses equal the literal rescan's, with the ML
        tie-break and footnote-1 cleaning each on and off."""
        polys, forest = instance
        bound = max(1, polys.num_monomials // divisor)
        assert_greedy_matches_oracle(
            polys, forest, bound, ml_tie_break=tie_break, clean=clean
        )

    @settings(deadline=None, max_examples=15)
    @given(compatible_instances())
    def test_unpickled_set_runs_identically(self, instance):
        polys, forest = instance
        restored = pickle.loads(pickle.dumps(polys))
        bound = max(1, polys.num_monomials // 3)
        assert_greedy_matches_oracle(restored, forest, bound, original=polys)

    @settings(deadline=None, max_examples=50)
    @given(compatible_instances(max_trees=3))
    def test_bound_one_fuzz(self, instance):
        """Bound 1 merges every tree up to its root — the regime where
        rows holding a merged-out root meet later merges elsewhere."""
        polys, forest = instance
        assert_greedy_matches_oracle(polys, fresh_labels(forest), 1)

    def test_merged_out_tree_roots_have_no_watcher(self):
        """Rows holding a fully-merged tree's root must not touch ranks.

        Regression: a root's ``parent_vid`` is -1; without masking it,
        the watcher lookup negative-indexed into the candidate slot
        table and corrupted (or crashed on) another candidate's ΔML
        bookkeeping once a later merge in a different tree rewrote
        rows holding that root. Index -1 is the most recently interned
        variable: fresh labels make that the last tree's root, still
        an active candidate when the other roots' rows are rewritten.
        """
        forest = AbstractionForest([
            AbstractionTree.from_nested(("RA", ["a1", "a2"])),
            AbstractionTree.from_nested(("RB", ["b1", "b2"])),
            AbstractionTree.from_nested(("RC", ["c1", "c2", "c3", "c4"])),
        ])
        for provenance in (
            "a1*b1*c1 + a2*b2*c2 + a1*b2*c3 + a2*b1*c4 + a1*c1 + b1*c2 "
            "+ a2*b1 + a1*b2",
            "a1*b1*c1 + b2*c2 + b1*c3 + a1*b1*c3 + a1*b2 + a1*c4 + b1 "
            "+ a1*c3",
        ):
            assert_greedy_matches_oracle(
                parse_set([provenance]), fresh_labels(forest), 1
            )

    def test_rejects_incompatible_forest(self):
        """Both solvers refuse §2.2-incompatible input up front."""
        tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
        for polys, where in (
            (parse_set(["b1*b2 + b1^2 + 3*x"]), "more than one node"),
            (parse_set(["SB*x + b1*x + b2*y"]), "meta-variable 'SB'"),
        ):
            for solve in (greedy_vvs, optimal_vvs):
                with pytest.raises(CompatibilityError, match=where):
                    solve(polys, tree, 1)

    def test_exponents_fractions_and_sentinels(self):
        polys = PolynomialSet([
            Polynomial({
                Monomial.of(("b1", 2), "x"): Fraction(1, 3),
                Monomial.of(("b2", 2), "x"): Fraction(2, 3),
                Monomial.of(("b1", 3)): 4,
                Monomial.of("m1"): 1,
            }),
            Polynomial.zero(),
            Polynomial.constant(7),
        ])
        forest = AbstractionForest([
            AbstractionTree.from_nested(("SB", ["b1", "b2"])),
            AbstractionTree.from_nested(("Q", ["m1"])),
        ])
        for bound in (1, 2, 4, 100):
            assert_greedy_matches_oracle(
                polys, forest.clean(polys), bound, clean=False
            )


class TestOptimalBackend:
    @settings(deadline=None, max_examples=40)
    @given(compatible_instances(max_trees=1), st.integers(1, 4))
    def test_columnar_run_is_identical(self, instance, divisor):
        """The DP's cut is the enumerated optimum, ties included; its
        losses and the infeasibility floor match too."""
        polys, forest = instance
        tree = forest.trees[0]
        bound = max(1, polys.num_monomials // divisor)
        reference = plain(polys)
        cleaned = tree.clean(polys.variables)
        assume(cleaned is not None)
        cut, smallest = oracle.optimum(reference, cleaned.to_nested(), bound)
        if cut is None:
            with pytest.raises(InfeasibleBoundError) as caught:
                optimal_vvs(polys, tree, bound)
            assert caught.value.min_achievable_size == smallest
            return
        result = optimal_vvs(polys, tree, bound)
        assert result.vvs.labels == cut
        mapping = oracle.mapping_of([cleaned.to_nested()], cut)
        assert (result.monomial_loss, result.variable_loss) == oracle.losses(
            reference, mapping
        )
        assert result.abstracted_size == oracle.counts(reference, mapping)[0]
        assert result.abstracted_size <= bound

    @pytest.mark.parametrize("order, expected", [
        ("ABC", {"B", "C"}),
        ("ACB", {"A", "C"}),
        ("BAC", {"B", "C"}),
        ("BCA", {"B", "C"}),
        ("CAB", {"A", "C"}),
        ("CBA", {"B", "C"}),
    ])
    def test_ties_follow_the_children_order(self, order, expected):
        """{A, C} and {B, C} both lose one variable per merge and reach
        the bound (ML 4 and 5 against k = 4). The DP keeps the one whose
        first two children lose more monomials, capped at k — not the
        larger ML that brute force prefers."""
        polys = parse_set([
            "a1*x + a2*x + b1*x + b2*x + b1*y + b2*y"
            " + c1*x + c2*x + c1*y + c2*y + c1*z + c2*z"
        ])
        children = {
            "A": ("A", ["a1", "a2"]),
            "B": ("B", ["b1", "b2"]),
            "C": ("C", ["c1", "c2"]),
        }
        spec = ("R", [children[label] for label in order])
        tree = AbstractionTree.from_nested(spec)
        result = optimal_vvs(polys, tree, bound=8)
        assert {label for label in result.vvs.labels if label.isupper()} == (
            expected
        )
        assert result.vvs.labels == oracle.optimum(plain(polys), spec, 8)[0]
        assert brute_force_vvs(polys, tree, 8).vvs.labels == {
            "a1", "a2", "B", "C"
        }


class TestBruteForce:
    @settings(deadline=None, max_examples=40)
    @given(compatible_instances(), st.integers(1, 4))
    def test_matches_oracle(self, instance, divisor):
        polys, forest = instance
        cleaned = forest.clean(polys)
        assume(cleaned.count_cuts() <= 2_000)
        bound = max(1, polys.num_monomials // divisor)
        reference = plain(polys)
        cut, smallest = oracle.brute_force(reference, specs(cleaned), bound)
        if cut is None:
            with pytest.raises(InfeasibleBoundError) as caught:
                brute_force_vvs(polys, forest, bound)
            assert caught.value.min_achievable_size == smallest
            return
        result = brute_force_vvs(polys, forest, bound)
        assert result.vvs.labels == cut
        mapping = oracle.mapping_of(specs(cleaned), cut)
        assert (result.monomial_loss, result.variable_loss) == oracle.losses(
            reference, mapping
        )
        assert result.abstracted_size == oracle.counts(reference, mapping)[0]


# ---------------------------------------------------------------------------
# §2.2 compatibility (conditions 2 and 3)
# ---------------------------------------------------------------------------


def walk_violates(polys, forest):
    """The definitional per-monomial walk: a meta-variable, or two nodes
    of one tree, in some monomial."""
    owner = {}
    internal = set()
    for index, spec in enumerate(specs(forest)):
        for label, node in oracle.nodes(spec):
            owner[label] = index
            if not isinstance(node, str):
                internal.add(label)
    for polynomial in plain(polys):
        for monomial in polynomial:
            names = [name for name, _ in monomial]
            if internal.intersection(names):
                return True
            trees = [owner[name] for name in names if name in owner]
            if len(trees) != len(set(trees)):
                return True
    return False


class TestCompatibilityCheck:
    @settings(deadline=None, max_examples=50)
    @given(polynomial_sets(), one_level_cuts())
    def test_vectorized_check_matches_walk(self, polys, vvs):
        forest = vvs.forest
        violates = walk_violates(polys, forest)
        if violates:
            with pytest.raises(CompatibilityError):
                polys.columnar().tree_columns(forest)
        else:
            polys.columnar().tree_columns(forest)

    def test_meta_variable_in_input_is_rejected(self):
        """``SB*x`` already holds the meta-variable the cut introduces:
        merging b1 into SB would collide with it (§2.2 condition 2)."""
        free = " + ".join(f"z{i}" for i in range(600))
        polys = parse_set(["SB*x + b1*x + b2*y + " + free])
        tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
        with pytest.raises(CompatibilityError, match=r"SB\*x.*'SB'"):
            greedy_vvs(polys, tree, 600)
        with pytest.raises(CompatibilityError, match="meta-variable"):
            optimal_vvs(polys, tree, 2)
        with pytest.raises(CompatibilityError, match="meta-variable"):
            AbstractionForest([tree]).check_compatible(polys)

    def test_two_leaves_of_one_tree_are_rejected(self):
        polys = parse_set(["b1*b2 + b1^2 + 3*x"])
        tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
        with pytest.raises(CompatibilityError,
                           match=r"b1\*b2 contains more than one node"):
            greedy_vvs(polys, tree, 1)
        with pytest.raises(CompatibilityError):
            optimal_vvs(polys, tree, 2)
        # Brute force counts every cut directly, so it stays exact here:
        # the root cut gives 2*SB^2 + 3*x.
        result = brute_force_vvs(polys, tree, 2)
        assert result.vvs.labels == {"SB"}
        assert result.abstracted_size == 2


# ---------------------------------------------------------------------------
# Shared CSR helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_unique_row_ids_groups_exactly(self):
        import numpy

        matrix = numpy.array([[1, 2], [3, 4], [1, 2], [1, 3]])
        ids, count = unique_row_ids(matrix)
        assert count == 3
        assert ids[0] == ids[2]
        assert len({int(i) for i in ids}) == 3
        empty_ids, empty_count = unique_row_ids(numpy.empty((0, 3), dtype=int))
        assert empty_count == 0 and len(empty_ids) == 0

    def test_invert_index_matches_bruteforce(self):
        import numpy

        values = numpy.array([2, 0, 2, 1, 0, 2])
        starts, order = invert_index(values, 3)
        for value in range(3):
            positions = order[starts[value]:starts[value + 1]]
            assert sorted(positions.tolist()) == [
                i for i, v in enumerate(values) if v == value
            ]

    def test_gather_ranges_concatenates(self):
        import numpy

        starts = numpy.array([5, 0, 9])
        counts = numpy.array([2, 3, 0])
        assert gather_ranges(starts, counts).tolist() == [5, 6, 0, 1, 2]

