"""Every answer of ``ask_many`` and of the service, pinned to the exact oracle.

``CompressedProvenance.ask_many`` answers in float64 through the
compiled batch engines. ``tests/oracle.py`` restates each answer from
the definitions in exact arithmetic: ``P↓S`` substituted term by term
and evaluated under the scenario's group-mean lift onto the cut (each
chosen label takes the mean of its leaves' values — exact when they
are equal). Hypothesis compresses part of the drawn provenance and
appends the rest through ``session.extend``'s repair path; the
compressed artifact (fresh, JSON- and ``.rpb``-reloaded) and the
extended one (fresh and ``.rpb``-reloaded) are asked under both
engines. The service is asked over HTTP about artifacts it created
from fixed provenance, before and after an HTTP extend. Every answer
must fall within a tolerance scaled by the sum of its terms' absolute
values, and every answer flagged ``exact`` must also match the
original provenance, evaluated the same way. The pairwise bit-identity
tests (dense vs. delta, JSON vs. ``.rpb``, served vs. direct) stay
where they are.
"""

import asyncio
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle
from repro.api.artifact import CompressedProvenance
from repro.api.session import ProvenanceSession
from repro.core.parser import parse_set
from repro.core.polynomial import PolynomialSet
from repro.options import EvalOptions
from repro.workloads.telephony import (
    example13_polynomials, months_tree, plans_tree,
)
from test_columnar import compatible_instances, plain, specs
from test_service import FOREST, POLYNOMIALS, call, with_server

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


def assert_answers_match_oracle(answers, forest, cut, original, suite,
                                default):
    """``answers`` — one ``(values, exact)`` pair per scenario of
    ``suite`` — from ``original`` abstracted under ``cut`` of ``forest``
    (the oracle's tree specs)."""
    abstracted = oracle.abstract(original, oracle.mapping_of(forest, cut))
    groups = [
        oracle.leaves(node)
        for tree in forest
        for label, node in oracle.nodes(tree)
        if label in cut
    ]
    for changes, (values, exact) in zip(suite, answers, strict=True):
        lifted = oracle.mean_lift(forest, cut, changes, default)
        assert_close(values, oracle.evaluate(abstracted, lifted, default))
        uniform = all(
            len({changes.get(leaf, default) for leaf in group}) == 1
            for group in groups
        )
        assert exact == uniform
        if exact:
            assert_close(values, oracle.evaluate(original, changes, default))


def assert_matches_oracle(artifact, original, suite, default):
    for options in ENGINES:
        answers = artifact.ask_many(suite, default=default, options=options)
        assert_answers_match_oracle(
            [(answer.values, answer.exact) for answer in answers],
            specs(artifact.vvs.forest), artifact.vvs.labels,
            original, suite, default,
        )


def cut_groups(vvs):
    """The leaf list of every label of the cut, in label order."""
    return [list(vvs.group(label)) for label in sorted(vvs)]


class TestAskMatchesOracle:
    @settings(deadline=None, max_examples=40)
    @given(instance=compatible_instances(), data=st.data())
    def test_fresh_and_reloaded_artifacts(self, instance, data):
        polys, forest = instance
        split = data.draw(st.integers(0, len(polys)))
        base = PolynomialSet(polys.polynomials[:split])
        bound = data.draw(st.integers(1, max(1, base.num_monomials)))
        session = ProvenanceSession(base, forest)
        artifact = session.compress(bound, algorithm="greedy")
        groups = cut_groups(artifact.vvs)
        free = sorted(
            set(polys.variables) - {leaf for group in groups for leaf in group}
        )
        suite = data.draw(
            st.lists(scenarios(groups, free), min_size=1, max_size=6)
        )
        default = data.draw(st.sampled_from([1.0, 0.0, 0.1, 0.5, 2.5]))
        with tempfile.TemporaryDirectory() as directory:
            json_path = Path(directory) / "artifact.json"
            rpb_path = Path(directory) / "artifact.rpb"
            extended_path = Path(directory) / "extended.rpb"
            artifact.save(json_path)
            artifact.save(rpb_path)
            for candidate in (
                artifact,
                CompressedProvenance.load(json_path, mmap=False),
                CompressedProvenance.load(rpb_path),
            ):
                assert_matches_oracle(candidate, plain(base), suite, default)
            # The repair path appends the rest under the same cut.
            result = session.extend(
                polys.polynomials[split:], artifact,
                drift_limit=float("inf"),
            )
            assert result.path == "repaired"
            result.artifact.save(extended_path)
            for candidate in (
                result.artifact,
                CompressedProvenance.load(extended_path),
            ):
                assert_matches_oracle(candidate, plain(polys), suite, default)


#: Fixed provenance the service creates artifacts from: the service
#: tests' polynomials at bound 2, and the paper's Example 13 at bound 9.
SERVED = {
    "service": (POLYNOMIALS, FOREST, 2),
    "example13": (
        [str(polynomial) for polynomial in example13_polynomials()],
        [tree.to_nested() for tree in (plans_tree(), months_tree())],
        9,
    ),
}
#: Appended to the service tests' artifact over HTTP.
ADDED = ["3*b1*m1 + b2*m2"]


def fixed_suite(groups, free):
    """Nothing changed, each group set uniformly (an exact answer) and
    leaf by leaf, and every free variable scaled."""
    suite = [{}]
    for group in groups:
        suite.append(dict.fromkeys(group, 0.5))
        suite.append({leaf: 0.5 + index for index, leaf in enumerate(group)})
    suite.append(dict.fromkeys(free, 1.25))
    return suite


class TestServedAnswersMatchOracle:
    def test_created_and_extended_artifacts(self, tmp_path):
        """Single (micro-batched) and batch asks of artifacts created
        over HTTP, and of one after an HTTP extend, which repairs a copy
        of the stored artifact's compiled set."""
        provenance = {
            name: texts for name, (texts, _, _) in SERVED.items()
        }
        provenance["extended"] = POLYNOMIALS + ADDED

        async def scenario(server):
            port = server.port
            ids = {}
            for name, (texts, forest, bound) in SERVED.items():
                status, created = await asyncio.to_thread(
                    call, port, "POST", "/artifacts",
                    {"polynomials": texts, "forest": forest,
                     "bound": bound, "algorithm": "greedy"})
                assert status == 201
                ids[name] = created["id"]
            status, extended = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{ids['service']}/extend",
                {"polynomials": ADDED, "drift_limit": 1e9})
            assert status == 201
            assert extended["path"] == "repaired"
            ids["extended"] = extended["id"]

            asked = []
            for name, artifact_id in ids.items():
                vvs = server.service.store.get(artifact_id).artifact.vvs
                groups = cut_groups(vvs)
                variables = parse_set(provenance[name]).variables
                suite = fixed_suite(groups, sorted(
                    variables - {leaf for group in groups for leaf in group}
                ))
                path = f"/artifacts/{artifact_id}/ask"
                for default in (1.0, 0.5):
                    status, batch = await asyncio.to_thread(
                        call, port, "POST", path,
                        {"scenarios": [{"changes": c} for c in suite],
                         "default": default})
                    assert status == 200
                    answers = batch["answers"]
                    for changes in suite:
                        status, single = await asyncio.to_thread(
                            call, port, "POST", path,
                            {"scenario": {"changes": changes},
                             "default": default})
                        assert status == 200
                        answers.extend(single["answers"])
                    asked.append((
                        name, specs(vvs.forest), vvs.labels,
                        suite + suite, default, answers,
                    ))
            return asked

        asked = asyncio.run(with_server(scenario)(tmp_path))
        assert len(asked) == 2 * len(provenance)
        for name, forest, cut, suite, default, answers in asked:
            assert_answers_match_oracle(
                [(answer["values"], answer["exact"]) for answer in answers],
                forest, cut, plain(parse_set(provenance[name])),
                suite, default,
            )
