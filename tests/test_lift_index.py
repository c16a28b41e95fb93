"""Differential tests: the cut's lift index against the definitional walk.

:class:`~repro.core.valuation.LiftIndex` lets
:meth:`Valuation.is_uniform_on`, :meth:`Valuation.lift` and
:func:`approximate_lift` visit only the groups a valuation touches.
Their definition walks every group of the cut; that walk is kept here,
verbatim, as the oracle. Every answer must match it exactly: the same
uniformity verdicts, the same lifted assignments (value types and the
sign of zero included), the same ``NonUniformError``s — and, through
:meth:`CompressedProvenance.ask_many`, the same answers to the bit.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.artifact import CompressedProvenance
from repro.core.forest import AbstractionForest
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree
from repro.core.valuation import NonUniformError, Valuation
from repro.scenarios.analysis import approximate_lift, evaluate_scenarios
from repro.scenarios.scenario import Scenario
from repro.service.warm import WarmArtifact

# ---------------------------------------------------------------------------
# The oracle: the tree walk that defines the three lift operations
# ---------------------------------------------------------------------------


class WalkValuation(Valuation):
    """:class:`Valuation` with the definitional, every-group lift."""

    __slots__ = ()

    def is_uniform_on(self, vvs):
        """True iff all leaves below each chosen node share one value."""
        for label in vvs.labels:
            group = vvs.group(label)
            if len(group) <= 1:
                continue
            values = {self[leaf] for leaf in group}
            if len(values) > 1:
                return False
        return True

    def lift(self, vvs):
        """The valuation on meta-variables induced by this one.

        Each chosen node gets the (unique) value of its group's leaves.
        Raises :class:`NonUniformError` if the valuation is not uniform
        on the VVS — in that case abstraction genuinely loses the
        scenario and there is no faithful lifting.
        """
        lifted = dict(self.assignment)
        for label in vvs.labels:
            group = vvs.group(label)
            values = {self[leaf] for leaf in group}
            if len(values) > 1:
                raise NonUniformError(
                    f"leaves of {label!r} receive distinct values {sorted(values)}"
                )
            for leaf in group:
                lifted.pop(leaf, None)
            (value,) = values
            if value != self.default:
                lifted[label] = value
        return Valuation(lifted, default=self.default)


def walk_approximate_lift(scenario, vvs, default=1.0):
    """Best-effort valuation on meta-variables for a non-uniform scenario.

    Each group's meta-variable takes the *mean* of its leaves' values —
    the least-squares representative. Exact when the scenario is
    uniform on the group. ``scenario`` may be a :class:`Scenario`, a
    :class:`~repro.core.valuation.Valuation` or a plain mapping.
    """
    valuation = Valuation.coerce(scenario, default)
    default = valuation.default
    lifted = dict(valuation.assignment)
    for label in vvs.labels:
        group = vvs.group(label)
        values = [valuation[leaf] for leaf in group]
        for leaf in group:
            lifted.pop(leaf, None)
        mean = sum(values) / len(values)
        if mean != default:
            lifted[label] = mean
    return Valuation(lifted, default=default)


def walk(valuation):
    return WalkValuation(valuation.assignment, default=valuation.default)


def exactly(valuation):
    """An assignment compared to the bit: type and repr of every value
    (``repr`` tells ``-0.0`` from ``0.0`` and round-trips floats)."""
    return {
        variable: (type(value).__name__, repr(value))
        for variable, value in valuation.assignment.items()
    }


# ---------------------------------------------------------------------------
# Random forests, cuts and valuations
# ---------------------------------------------------------------------------

DEFAULTS = [1.0, 0.0, 2.5, 0.1]
VALUE_POOLS = {
    "float": [0.5, 1.5, 0.1, 0.2, 0.3, -0.0, 1.0, 0.0, 2.5],
    "fraction": [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1),
                 Fraction(0)],
    "int": [0, 1, 2, 3, -1, 10**20 + 1],
}
OUTSIDE = ["x0", "x1"]


@st.composite
def trees(draw, index):
    """One abstraction tree: depth <= 3, fan-out 1-3 (so chains of
    single-child nodes occur), unique labels per forest."""
    counter = iter(range(10**6))

    def node(depth):
        if depth >= 3 or draw(st.integers(0, 2)) == 0:
            return f"t{index}l{next(counter)}"
        label = f"t{index}n{next(counter)}"
        return (label, [node(depth + 1) for _ in range(draw(st.integers(1, 3)))])

    return AbstractionTree.from_nested(node(0))


@st.composite
def cuts(draw):
    """``(vvs, internal labels)`` — a random cut of a random forest."""
    forest = AbstractionForest(
        [draw(trees(index)) for index in range(draw(st.integers(1, 3)))]
    )
    chosen = []

    def descend(node):
        if node.is_leaf or draw(st.booleans()):
            chosen.append(node.label)
        else:
            for child in node.children:
                descend(child)

    for tree in forest:
        descend(tree.root)
    internal = sorted(forest.labels - forest.leaf_labels)
    return forest.vvs(chosen), internal


@st.composite
def valuations(draw, vvs, internal, default):
    """A valuation mixing uniform groups, partly or unevenly assigned
    groups, internal labels and variables outside the forest."""
    pool = VALUE_POOLS[draw(st.sampled_from(sorted(VALUE_POOLS)))]
    values = st.sampled_from(pool + [default])
    assignment = {}
    for label in sorted(vvs.labels):
        mode = draw(st.sampled_from(["skip", "uniform", "mixed"]))
        group = vvs.group(label)
        if mode == "uniform":
            value = draw(values)
            for leaf in group:
                assignment[leaf] = value
        elif mode == "mixed":
            for leaf in group:
                if draw(st.booleans()):
                    assignment[leaf] = draw(values)
    extras = draw(st.dictionaries(
        st.sampled_from(internal + OUTSIDE), values, max_size=3,
    ))
    assignment.update(extras)
    return Valuation(assignment, default=default)


@st.composite
def cases(draw, count=1):
    vvs, internal = draw(cuts())
    default = draw(st.sampled_from(DEFAULTS))
    found = [draw(valuations(vvs, internal, default)) for _ in range(count)]
    return vvs, default, found


# ---------------------------------------------------------------------------
# The three lift operations
# ---------------------------------------------------------------------------


def assert_operations_match(vvs, valuation):
    oracle = walk(valuation)
    assert valuation.is_uniform_on(vvs) == oracle.is_uniform_on(vvs)
    try:
        expected = oracle.lift(vvs)
    except NonUniformError:
        with pytest.raises(NonUniformError):
            valuation.lift(vvs)
    else:
        assert exactly(valuation.lift(vvs)) == exactly(expected)
    assert exactly(approximate_lift(valuation, vvs)) == exactly(
        walk_approximate_lift(valuation, vvs)
    )


class TestLiftOperations:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_index_matches_walk(self, case):
        vvs, _, (valuation,) = case
        assert_operations_match(vvs, valuation)

    def test_nan_default_matches_walk(self):
        tree = AbstractionTree.from_nested(("R", [("A", ["a1", "a2"]), "b"]))
        vvs = AbstractionForest([tree]).vvs({"A", "b"})
        nan = float("nan")
        for assignment in ({}, {"a1": 0.5}, {"a1": 0.5, "a2": 0.5}, {"b": 2.0}):
            assert_operations_match(vvs, Valuation(assignment, default=nan))

    def test_non_uniform_lift_raises(self):
        tree = AbstractionTree.from_nested(("R", [("A", ["a1", "a2"]), "b"]))
        vvs = AbstractionForest([tree]).vvs({"A", "b"})
        with pytest.raises(NonUniformError, match="'A'"):
            Valuation({"a1": 0.5, "b": 2.0}).lift(vvs)

    def test_index_is_cached_on_the_cut(self):
        tree = AbstractionTree.from_nested(("R", [("A", ["a1", "a2"]), "b"]))
        vvs = AbstractionForest([tree]).vvs({"A", "b"})
        index = vvs.lift_index()
        assert vvs.lift_index() is index
        assert index._groups == {"A": ("a1", "a2"), "b": ("b",)}
        assert index._label_of == {"a1": "A", "a2": "A"}
        assert index._kept == {"b"}


class TestDriftCache:
    """The per-default table of drifting all-default means is capped."""

    @pytest.fixture
    def vvs(self):
        tree = AbstractionTree.from_nested(("R", [("A", ["a1", "a2", "a3"]), "b"]))
        return AbstractionForest([tree]).vvs({"A", "b"})

    def test_drifting_default_carries_group_mean(self, vvs):
        lifted = approximate_lift(Valuation({"b": 2.0}, default=0.1), vvs)
        assert lifted.assignment == {"b": 2.0, "A": sum([0.1] * 3) / 3}
        assert exactly(lifted) == exactly(
            walk_approximate_lift(Valuation({"b": 2.0}, default=0.1), vvs)
        )

    def test_distinct_defaults_stop_growing_the_cache(self, vvs):
        from repro.core.valuation import _MAX_DRIFT_CACHE

        index = vvs.lift_index()
        for step in range(5 * _MAX_DRIFT_CACHE):
            default = 0.1 + step
            valuation = Valuation({"a1": 0.5}, default=default)
            assert exactly(approximate_lift(valuation, vvs)) == exactly(
                walk_approximate_lift(valuation, vvs)
            )
        assert len(index._drift) == _MAX_DRIFT_CACHE

    def test_nan_defaults_stop_growing_the_cache(self, vvs):
        from repro.core.valuation import _MAX_DRIFT_CACHE

        index = vvs.lift_index()
        for _ in range(3 * _MAX_DRIFT_CACHE):
            approximate_lift(Valuation({"a1": 0.5}, default=float("nan")), vvs)
        assert len(index._drift) <= _MAX_DRIFT_CACHE


# ---------------------------------------------------------------------------
# The ask paths
# ---------------------------------------------------------------------------


@st.composite
def artifacts(draw):
    """``(artifact, default, scenarios)`` over a random cut."""
    vvs, default, found = draw(cases(count=draw(st.integers(1, 6))))
    variables = sorted(vvs.forest.leaf_labels) + OUTSIDE
    polynomials = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            factors = draw(st.lists(
                st.sampled_from(variables), min_size=1, max_size=2, unique=True,
            ))
            monomial = Monomial([(variable, 1) for variable in factors])
            terms[monomial] = terms.get(monomial, 0) + draw(st.integers(1, 5))
        polynomials.append(Polynomial(terms))
    raw = PolynomialSet(polynomials)
    abstracted = vvs.apply(raw)
    artifact = CompressedProvenance(
        abstracted, vvs.forest, vvs, algorithm="test", bound=len(vvs),
        original_size=raw.num_monomials,
        original_granularity=raw.num_variables, monomial_loss=0,
        variable_loss=0,
    )
    scenarios = [
        Scenario(f"s{index}", valuation.assignment) if index % 2 else
        dict(valuation.assignment)
        for index, valuation in enumerate(found)
    ]
    return artifact, default, scenarios


class TestAskPaths:
    @settings(max_examples=150, deadline=None)
    @given(artifacts())
    def test_ask_many_matches_walk(self, case):
        artifact, default, scenarios = case
        vvs = artifact.vvs
        names, exacts, lifted = [], [], []
        for index, item in enumerate(scenarios):
            valuation = Valuation.coerce(item, default)
            names.append(getattr(item, "name", f"scenario-{index}"))
            exact = walk(valuation).is_uniform_on(vvs)
            exacts.append(exact)
            lifted.append(
                walk(valuation).lift(vvs) if exact
                else walk_approximate_lift(valuation, vvs)
            )
            assert artifact.supports(item, default) == exact
            assert exactly(artifact.lift(item, default)) == exactly(lifted[-1])
            got, got_exact = WarmArtifact(artifact).lift_one(valuation)
            assert (exactly(got), got_exact) == (exactly(lifted[-1]), exact)
        matrix = evaluate_scenarios(artifact.polynomials, lifted, default=default)
        expected = [
            (name, tuple(float(v) for v in row), exact)
            for name, row, exact in zip(names, matrix, exacts, strict=True)
        ]
        answers = artifact.ask_many(scenarios, default=default)
        assert [(a.name, a.values, a.exact) for a in answers] == expected
