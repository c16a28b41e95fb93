"""The greedy algorithm's working state, observed through its runs.

The working state — the polynomials under the current cut, laid out as
columns over the set's monomial rows — is the piece Example 15 forced
into existence (ML is not additive across trees). These cases pin its
bookkeeping on small hand-checked inputs: candidate ranking (the
simulated ΔML) against the applied merge, the inverted index that finds
the rows a merge rewrites, and size/granularity after each merge. Every
run is also checked step for step against the literal rescan of
``tests/oracle.py``.
"""

import pytest

import oracle
from repro.algorithms.greedy import greedy_vvs
from repro.core.abstraction import abstract
from repro.core.forest import AbstractionForest
from repro.core.parser import parse_set
from repro.core.tree import AbstractionTree

POLYNOMIALS = ["2*a*x + 3*b*x + 4*a*y", "5*b*x + 6*c*x"]


@pytest.fixture
def state():
    return parse_set(POLYNOMIALS)


def plain(polynomials):
    return [
        {monomial.powers: coeff for monomial, coeff in polynomial.terms.items()}
        for polynomial in polynomials
    ]


def steps(result):
    return [
        (s.chosen, s.delta_ml, s.delta_vl, s.cumulative_ml, s.cumulative_vl)
        for s in result.trace
    ]


def run(polynomials, *trees, bound=1):
    """Greedy over uncleaned ``trees``, cross-checked with the oracle."""
    forest = AbstractionForest(
        [AbstractionTree.from_nested(tree) for tree in trees]
    )
    result = greedy_vvs(polynomials, forest, bound, clean=False)
    cut, trace = oracle.greedy(
        plain(polynomials), list(trees), bound, do_clean=False
    )
    assert steps(result) == trace
    assert result.vvs.labels == cut
    return result


class TestConstruction:
    def test_initial_size(self, state):
        result = run(state, ("g", ["a", "b"]), bound=5)
        assert steps(result) == []
        assert result.abstracted_size == 5

    def test_initial_granularity(self, state):
        result = run(state, ("g", ["a", "b"]), bound=5)
        assert result.abstracted_granularity == 5  # a, b, c, x, y

    def test_presence(self, state):
        # zz never occurs: merging it with a loses no variable.
        result = run(state, ("g", ["a", "zz"]))
        assert steps(result) == [("g", 0, 0, 0, 0)]
        assert result.abstracted_granularity == 5  # g, b, c, x, y

    def test_index_covers_every_monomial(self, state):
        # Every monomial holds a, b or c: the merge rewrites all five
        # (one collision per polynomial).
        result = run(state, ("g", ["a", "b", "c"]))
        assert steps(result) == [("g", 2, 2, 2, 2)]
        assert result.abstracted_size == 3


class TestSimulateAndApply:
    def test_simulate_matches_apply(self, state):
        # Equal ΔVL; h's simulated ΔML (a*x ~ a*y) beats g's (none), and
        # the applied losses are exactly the simulated ones.
        result = run(state, ("g", ["a", "c"]), ("h", ["x", "y"]))
        assert steps(result) == [("h", 1, 1, 1, 1), ("g", 0, 1, 1, 2)]

    def test_no_cross_polynomial_merge(self, state):
        # b*x exists in both polynomials; merging b,c only merges inside
        # polynomial 1 (b*x + c*x -> g*x).
        result = run(state, ("g", ["b", "c"]))
        assert steps(result) == [("g", 1, 1, 1, 1)]

    def test_simulate_is_pure(self, state):
        before = state.columnar().vids.copy()
        run(state, ("g", ["a", "b"]), ("h", ["x", "y"]))
        assert state == parse_set(POLYNOMIALS)
        assert (state.columnar().vids == before).all()

    def test_apply_updates_size(self, state):
        result = run(state, ("g", ["a", "b"]), bound=4)
        assert result.abstracted_size == 4

    def test_apply_updates_granularity(self, state):
        result = run(state, ("g", ["a", "b"]), bound=4)
        # a and b replaced by g: {g, c, x, y}.
        assert result.abstracted_granularity == 4
        assert result.vvs.labels == {"g"}

    def test_apply_reindexes_residual_variables(self, state):
        # After g, the rewritten rows still hold x and y: the h merge
        # finds them and loses one variable and one monomial.
        result = run(state, ("g", ["a", "b"]), ("h", ["x", "y"]))
        assert steps(result)[1] == ("h", 1, 1, 2, 2)

    def test_apply_reports_rewrites(self, state):
        # Merging a,b rewrites the three monomials of polynomial 0 and
        # one of polynomial 1; exactly one rewrite collides (a*x ~ b*x).
        result = run(state, ("g", ["a", "b"]), bound=4)
        assert steps(result) == [("g", 1, 1, 1, 1)]
        assert [str(p) for p in abstract(state, result.vvs)] == [
            "5*g*x + 4*g*y", "6*c*x + 5*g*x",
        ]

    def test_sequential_merges_compose(self, state):
        result = run(state, ("g", ["a", "b"]), ("h", ["x", "y"]))
        # After g: poly0 = {g*x, g*y}, poly1 = {g*x, c*x}. Merging x,y:
        # poly0 collapses to {g*h} (1 loss); poly1 -> {g*h, c*h} (0).
        assert [step[1] for step in steps(result)] == [1, 1]
        assert result.abstracted_size == 3

    def test_cross_tree_interaction(self):
        """The Example 15 effect: earlier merges enable later ones."""
        result = run(parse_set(["a*x + b*y"]),
                     ("g", ["a", "b"]), ("h", ["x", "y"]))
        assert steps(result) == [("g", 0, 1, 0, 1), ("h", 1, 1, 1, 2)]

    def test_exponents_preserved(self):
        result = run(parse_set(["a^2*x + b^2*x + b*x"]), ("g", ["a", "b"]))
        # a^2*x and b^2*x merge (both g^2*x); b*x stays g*x.
        assert steps(result)[0][1] == 1
        assert result.abstracted_size == 2
