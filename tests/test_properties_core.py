"""Property-based tests (hypothesis) for the core provenance model."""

from hypothesis import assume, given, settings, strategies as st

from repro.core.abstraction import LossIndex, abstract, abstract_counts
from repro.core.forest import AbstractionForest
from repro.core.interning import VARIABLES
from repro.core.parser import parse
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.serialize import dumps, loads
from repro.core.valuation import Valuation
from repro.workloads.random_polys import random_compatible_instance

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

variable_names = st.sampled_from(
    [f"v{i}" for i in range(6)] + [f"w{i}" for i in range(3)]
)


@st.composite
def monomials(draw):
    pairs = draw(
        st.dictionaries(variable_names, st.integers(1, 3), max_size=4)
    )
    return Monomial(pairs.items())


@st.composite
def polynomials(draw):
    terms = draw(
        st.dictionaries(monomials(), st.integers(-50, 50), min_size=0, max_size=8)
    )
    return Polynomial(terms)


@st.composite
def instances(draw):
    """A (PolynomialSet, AbstractionForest) pair, compatible by construction."""
    seed = draw(st.integers(0, 10_000))
    num_trees = draw(st.integers(1, 3))
    leaves = draw(st.integers(2, 6))
    polys = draw(st.integers(1, 4))
    monomials_per = draw(st.integers(1, 10))
    return random_compatible_instance(
        seed=seed,
        num_trees=num_trees,
        leaves_per_tree=leaves,
        num_polynomials=polys,
        monomials_per_polynomial=monomials_per,
    )


# ---------------------------------------------------------------------------
# Polynomial algebra properties
# ---------------------------------------------------------------------------


class TestPolynomialAlgebra:
    @given(polynomials(), polynomials())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials(), polynomials())
    def test_addition_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials())
    def test_zero_is_identity(self, p):
        assert p + Polynomial.zero() == p

    @given(polynomials())
    def test_subtraction_cancels(self, p):
        assert (p - p).num_monomials == 0

    @given(polynomials(), polynomials())
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=30)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_one_is_multiplicative_identity(self, p):
        assert p * Polynomial.constant(1) == p

    @given(polynomials(), st.dictionaries(variable_names, st.floats(0.1, 2.0)))
    def test_evaluation_is_additive(self, p, assignment):
        q = parse("3*v0 + w0")
        total = (p + q).evaluate(assignment)
        assert abs(total - (p.evaluate(assignment) + q.evaluate(assignment))) < 1e-6

    @given(polynomials())
    def test_str_parse_roundtrip(self, p):
        if any(isinstance(c, float) for c in p.terms.values()):
            return  # float formatting round-trips are tested elsewhere
        assert parse(str(p)) == p or not p

    @given(polynomials())
    def test_serialize_roundtrip(self, p):
        assert loads(dumps(p)) == p


# ---------------------------------------------------------------------------
# Substitution / abstraction properties
# ---------------------------------------------------------------------------


def substitute(p, mapping):
    """``p`` under any renaming (a cut's or not), through the one
    substitution kernel, ``ColumnarMultiset.substitute``."""
    renamed = PolynomialSet([p]).columnar().substitute(
        VARIABLES.intern_mapping(mapping)
    )
    return PolynomialSet.from_columnar(renamed)[0]


class TestSubstitutionProperties:
    @given(polynomials(), st.dictionaries(variable_names, variable_names))
    def test_substitution_never_grows(self, p, mapping):
        q = substitute(p, mapping)
        assert q.num_monomials <= p.num_monomials

    @given(
        polynomials(),
        st.dictionaries(variable_names, variable_names),
        st.dictionaries(variable_names, st.floats(0.5, 2.0)),
    )
    def test_substitution_respects_pullback(self, p, mapping, target_values):
        """eval(P[σ_rename], σ) == eval(P, σ ∘ rename) — substitution is
        precomposition of valuations."""
        pullback = {
            var: target_values.get(mapping.get(var, var), 1.0)
            for var in p.variables
        }
        q = substitute(p, mapping)
        expected = p.evaluate(pullback)
        actual = q.evaluate(target_values)
        assert abs(actual - expected) <= 1e-6 * (1 + abs(expected))


class TestAbstractionProperties:
    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_every_cut_shrinks_or_preserves(self, instance):
        polys, forest = instance
        assume(forest.count_cuts() <= 200)
        for vvs in forest.iter_cuts():
            size, granularity = abstract_counts(polys, vvs.mapping())
            assert size <= polys.num_monomials
            assert granularity <= polys.num_variables
            assert size >= len([p for p in polys if p.num_monomials])

    @given(instances())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_materialization(self, instance):
        polys, forest = instance
        assume(forest.count_cuts() <= 200)
        for vvs in forest.iter_cuts():
            materialized = abstract(polys, vvs)
            assert abstract_counts(polys, vvs.mapping()) == (
                materialized.num_monomials,
                materialized.num_variables,
            )

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_single_tree_loss_additivity(self, instance):
        polys, forest = instance
        assume(forest.count_cuts() <= 200)
        for tree in forest:
            index = LossIndex(polys, tree)
            single = AbstractionForest([tree])
            for vvs in single.iter_cuts():
                size, granularity = abstract_counts(polys, vvs.mapping())
                assert index.ml_of_cut(vvs.labels) == polys.num_monomials - size
                assert index.vl_of_cut(vvs.labels) == (
                    polys.num_variables - granularity
                )

    @given(instances(), st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_uniform_valuation_lifting_is_exact(self, instance, value):
        """THE semantic guarantee: group-uniform scenarios survive abstraction."""
        polys, forest = instance
        assume(forest.count_cuts() <= 200)
        for vvs in forest.iter_cuts():
            scenario = Valuation(
                {leaf: value for label in vvs.labels for leaf in vvs.group(label)}
            )
            lifted = scenario.lift(vvs)
            abstracted = abstract(polys, vvs)
            for raw, compact in zip(polys, abstracted, strict=True):
                expected = raw.evaluate(scenario.assignment)
                actual = compact.evaluate(lifted.assignment)
                assert abs(actual - expected) <= 1e-6 * (1 + abs(expected))

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_root_cut_is_coarsest(self, instance):
        """No cut compresses below the all-roots cut (single-tree trees)."""
        polys, forest = instance
        assume(forest.count_cuts() <= 200)
        root_size, _ = abstract_counts(polys, forest.root_vvs().mapping())
        for vvs in forest.iter_cuts():
            size, _ = abstract_counts(polys, vvs.mapping())
            assert size >= root_size
