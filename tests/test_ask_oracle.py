"""Every answer of ``ask_many``, pinned to the exact oracle.

``CompressedProvenance.ask_many`` answers in float64 through the
compiled batch engines. ``tests/oracle.py`` restates each answer from
the definitions in exact arithmetic: ``P↓S`` substituted term by term
and evaluated under the scenario's group-mean lift onto the cut (each
chosen label takes the mean of its leaves' values — exact when they
are equal). Hypothesis drives fresh, JSON-reloaded and ``.rpb``-reloaded
artifacts under both engines; every answer must fall within a tolerance
scaled by the sum of its terms' absolute values, and every answer
flagged ``exact`` must also match the original provenance, evaluated
the same way. The pairwise bit-identity tests (dense vs. delta, JSON
vs. ``.rpb``, served vs. direct) stay where they are.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle
from repro.api.artifact import CompressedProvenance
from repro.api.session import ProvenanceSession
from repro.options import EvalOptions
from test_columnar import compatible_instances, plain, specs

ENGINES = (EvalOptions(engine="dense"), EvalOptions(engine="delta"))

#: Relative to the sum of a polynomial's absolute term values: float64
#: rounding over a few products, a group mean and a short sum, with
#: two orders of magnitude to spare.
TOLERANCE = 1e-12

#: Scenario values are multipliers: nonnegative, so a group mean never
#: cancels and its rounding stays relative; zero or at least 1e-3, so a
#: product of a dozen factors stays far above float64 underflow, where
#: no relative tolerance holds.
MULTIPLIERS = st.one_of(
    st.sampled_from([0.0, 0.5, 0.8, 1.0, 1.25, 2.0]),
    st.floats(min_value=1e-3, max_value=2.0),
)


@st.composite
def scenarios(draw, groups, free):
    """A scenario over ``groups`` (the cut's leaf lists) and ``free``
    variables: each group is left alone, set uniformly (an exact
    answer) or set leaf by leaf."""
    changes = {}
    for group in groups:
        mode = draw(st.sampled_from(["default", "uniform", "mixed"]))
        if mode == "uniform":
            changes.update(dict.fromkeys(group, draw(MULTIPLIERS)))
        elif mode == "mixed":
            for leaf in group:
                if draw(st.booleans()):
                    changes[leaf] = draw(MULTIPLIERS)
    for variable in free:
        if draw(st.booleans()):
            changes[variable] = draw(MULTIPLIERS)
    return changes


def assert_close(values, expected):
    for got, (value, magnitude) in zip(values, expected, strict=True):
        assert abs(Fraction(got) - value) <= TOLERANCE * magnitude, (
            got, float(value), float(magnitude))


def assert_matches_oracle(artifact, original, suite, default):
    forest = specs(artifact.vvs.forest)
    cut = artifact.vvs.labels
    abstracted = oracle.abstract(original, oracle.mapping_of(forest, cut))
    groups = {
        label: oracle.leaves(node)
        for tree in forest
        for label, node in oracle.nodes(tree)
        if label in cut
    }
    for options in ENGINES:
        answers = artifact.ask_many(suite, default=default, options=options)
        for changes, answer in zip(suite, answers, strict=True):
            lifted = oracle.mean_lift(forest, cut, changes, default)
            assert_close(answer.values, oracle.evaluate(abstracted, lifted, default))
            uniform = all(
                len({changes.get(leaf, default) for leaf in group}) == 1
                for group in groups.values()
            )
            assert answer.exact == uniform
            if answer.exact:
                assert_close(
                    answer.values, oracle.evaluate(original, changes, default)
                )


class TestAskMatchesOracle:
    @settings(deadline=None, max_examples=40)
    @given(instance=compatible_instances(), data=st.data())
    def test_fresh_and_reloaded_artifacts(self, instance, data):
        polys, forest = instance
        bound = data.draw(st.integers(1, max(1, polys.num_monomials)))
        artifact = ProvenanceSession(polys, forest).compress(
            bound, algorithm="greedy"
        )
        groups = [
            list(artifact.vvs.group(label)) for label in sorted(artifact.vvs)
        ]
        free = sorted(
            set(polys.variables) - {leaf for group in groups for leaf in group}
        )
        suite = data.draw(
            st.lists(scenarios(groups, free), min_size=1, max_size=6)
        )
        default = data.draw(st.sampled_from([1.0, 0.0, 0.1, 0.5, 2.5]))
        original = plain(polys)
        with tempfile.TemporaryDirectory() as directory:
            json_path = Path(directory) / "artifact.json"
            rpb_path = Path(directory) / "artifact.rpb"
            artifact.save(json_path)
            artifact.save(rpb_path)
            for candidate in (
                artifact,
                CompressedProvenance.load(json_path, mmap=False),
                CompressedProvenance.load(rpb_path),
            ):
                assert_matches_oracle(candidate, original, suite, default)
