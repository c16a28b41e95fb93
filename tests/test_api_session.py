"""Tests for the session facade and the compression artifact."""

import pytest

from repro.api import Answer, CompressedProvenance, ProvenanceSession, as_forest
from repro.algorithms.result import InfeasibleBoundError
from repro.core import serialize
from repro.core.forest import AbstractionForest, CompatibilityError
from repro.core.tree import AbstractionTree
from repro.core.valuation import Valuation
from repro.scenarios import Scenario, ScenarioSuite
from repro.workloads.telephony import (
    example13_polynomials,
    figure1_database,
    figure1_plan_variables,
    months_tree,
    plans_tree,
)

REVENUE_SQL = (
    "SELECT Zip, SUM(Calls.Dur * Plans.Price) "
    "FROM Calls, Cust, Plans "
    "WHERE Cust.Plan = Plans.Plan AND Cust.ID = Calls.CID "
    "AND Calls.Mo = Plans.Mo GROUP BY Cust.Zip"
)


@pytest.fixture
def session():
    return ProvenanceSession.from_polynomials(
        example13_polynomials(), forest=[plans_tree(), months_tree()]
    )


class TestAsForest:
    def test_none(self):
        assert as_forest(None) is None

    def test_forest_passthrough(self):
        forest = AbstractionForest([AbstractionTree.from_nested(("r", ["x"]))])
        assert as_forest(forest) is forest

    def test_tree_and_nested_and_mixed(self):
        tree = AbstractionTree.from_nested(("r", ["x", "y"]))
        assert as_forest(tree).trees == [tree]
        assert as_forest(("r", ["x", "y"])).trees[0].labels == tree.labels
        mixed = as_forest([tree, ("s", ["z"])])
        assert [t.root.label for t in mixed.trees] == ["r", "s"]


class TestSessionEntryPoints:
    def test_from_strings(self):
        session = ProvenanceSession.from_strings(
            ["2*b1*m1 + 3*b2*m1"], forest=("SB", ["b1", "b2"])
        )
        assert session.polynomials.num_monomials == 2
        assert len(session.forest.trees) == 1

    def test_from_polynomials(self, session):
        assert session.polynomials.num_monomials == 14
        assert session.profile().num_variables == 9

    def test_from_query_matches_example13(self):
        cust, calls, plans = figure1_database()
        plan_vars = figure1_plan_variables()
        session = ProvenanceSession.from_query(
            REVENUE_SQL,
            {"Cust": cust, "Calls": calls, "Plans": plans},
            params=lambda row: [plan_vars[row["Cust.Plan"]],
                                f"m{row['Calls.Mo']}"],
        )
        # Equal up to float epsilon (the engine computes Dur*Price;
        # example13 parses the printed decimals).
        assert session.polynomials.almost_equal(example13_polynomials())

    def test_from_query_non_aggregate(self):
        cust, calls, plans = figure1_database()
        session = ProvenanceSession.from_query(
            "SELECT ID FROM Cust", {"Cust": cust}
        )
        # Unannotated rows carry multiplicity 1 -> constant polynomials.
        assert len(session.polynomials) == 7
        assert all(p.evaluate({}) == 1 for p in session.polynomials)

    def test_with_forest(self, session):
        other = session.with_forest(("SB", ["b1", "b2"]))
        assert other.polynomials is session.polynomials
        assert len(other.forest.trees) == 1

    def test_evaluate_raw(self, session):
        values = session.evaluate({"m1": 0.0})
        assert values == pytest.approx([451.15, 237.65])


class TestCompress:
    def test_auto_picks_greedy_for_forest(self, session):
        artifact = session.compress(bound=6)
        assert artifact.algorithm == "greedy"
        assert artifact.abstracted_size <= 6
        assert artifact.bound == 6
        assert artifact.original_size == 14

    def test_auto_picks_optimal_for_single_tree(self, session):
        artifact = session.with_forest(plans_tree()).compress(bound=9)
        assert artifact.algorithm == "optimal"
        assert artifact.abstracted_size == 8

    def test_auto_optimal_after_cleaning_multi_tree_forest(self, session):
        # The policy judges the *cleaned* forest: the second tree's
        # leaves never occur, so auto must run the DP, not crash on the
        # raw two-tree forest.
        artifact = session.with_forest(
            [plans_tree(), ("ZZ", ["z1", "z2"])]
        ).compress(bound=9)
        assert artifact.algorithm == "optimal"
        assert artifact.abstracted_size == 8

    def test_explicit_algorithm(self, session):
        artifact = session.compress(bound=6, algorithm="brute-force")
        assert artifact.algorithm == "brute-force"
        assert artifact.abstracted_size <= 6

    def test_optimal_rejects_forest(self, session):
        with pytest.raises(ValueError, match="NP-hard"):
            session.compress(bound=6, algorithm="optimal")

    def test_infeasible_bound_propagates(self, session):
        with pytest.raises(InfeasibleBoundError):
            session.with_forest(plans_tree()).compress(bound=1)

    def test_missing_forest(self):
        with pytest.raises(ValueError, match="no abstraction forest"):
            ProvenanceSession.from_strings(["x + y"]).compress(bound=1)

    @pytest.mark.parametrize("polynomial, where", [
        ("SB*x + b1*x + b2*y", "meta-variable 'SB'"),
        ("b1*b2 + b1^2 + 3*x", "more than one node"),
    ])
    def test_incompatible_provenance_rejected(self, polynomial, where):
        """§2.2-incompatible input fails up front instead of compressing
        with wrong losses — whichever solver ``auto`` routes to."""
        session = ProvenanceSession.from_strings(
            [polynomial], forest=("SB", ["b1", "b2"])
        )
        for algorithm in ("auto", "greedy", "optimal"):
            with pytest.raises(CompatibilityError, match=where):
                session.compress(bound=2, algorithm=algorithm)
        # Brute force counts every cut directly and stays exact.
        artifact = session.compress(bound=2, algorithm="brute-force")
        assert artifact.monomial_loss == (
            artifact.original_size - artifact.abstracted_size
        )

    def test_solver_options_forwarded(self, session):
        artifact = session.compress(bound=6, algorithm="greedy",
                                    ml_tie_break=False)
        assert artifact.abstracted_size <= 6

    def test_legacy_solver_without_backend_parameter_still_works(self, session):
        """Solvers need only the common contract — no extra keyword."""
        from repro.algorithms import registry
        from repro.algorithms.greedy import greedy_vvs

        @registry.register("test-legacy")
        def legacy(polynomials, forest, bound, *, clean=True):
            return greedy_vvs(polynomials, forest, bound, clean=clean)

        try:
            artifact = session.compress(bound=6, algorithm="test-legacy")
            assert artifact.algorithm == "test-legacy"
            assert artifact.abstracted_size <= 6
        finally:
            registry._REGISTRY.pop("test-legacy")


class TestAsk:
    @pytest.fixture
    def artifact(self, session):
        return session.compress(bound=6)

    def test_exact_iff_uniform_on_cut(self, artifact):
        uniform = Scenario.uniform("q1", ["m1", "m2", "m3"], 0.8)
        non_uniform = Scenario("jan", {"m1": 0.8})
        assert uniform.is_supported_by(artifact.vvs)
        assert artifact.ask(uniform).exact
        assert not non_uniform.is_supported_by(artifact.vvs)
        assert not artifact.ask(non_uniform).exact

    def test_exact_answer_matches_raw(self, session, artifact):
        scenario = Scenario.uniform("q1", ["m1", "m2", "m3"], 0.8)
        raw = scenario.evaluate(session.polynomials)
        answer = artifact.ask(scenario)
        assert list(answer.values) == pytest.approx(list(raw))

    def test_ask_accepts_valuation_and_mapping(self, artifact):
        from_mapping = artifact.ask({"m1": 0.8, "m2": 0.8, "m3": 0.8})
        from_valuation = artifact.ask(
            Valuation({"m1": 0.8, "m2": 0.8, "m3": 0.8})
        )
        assert from_mapping.values == from_valuation.values
        assert from_mapping.exact and from_valuation.exact

    def test_ask_many_suite(self, artifact):
        suite = ScenarioSuite([
            Scenario.uniform("q1", ["m1", "m2", "m3"], 0.8),
            Scenario("jan", {"m1": 0.8}),
        ])
        answers = artifact.ask_many(suite)
        assert [a.name for a in answers] == ["q1", "jan"]
        assert [a.exact for a in answers] == [True, False]
        assert all(len(a) == 2 for a in answers)

    def test_ask_many_empty(self, artifact):
        assert artifact.ask_many([]) == []

    def test_anonymous_scenarios_get_names(self, artifact):
        answers = artifact.ask_many([{"m1": 1.0}, {"m2": 1.0}])
        assert [a.name for a in answers] == ["scenario-0", "scenario-1"]

    def test_supports(self, artifact):
        assert artifact.supports({"m1": 0.8, "m2": 0.8, "m3": 0.8})
        assert not artifact.supports({"m1": 0.8})


class TestArtifactRoundTrip:
    @pytest.fixture
    def artifact(self, session):
        return session.compress(bound=6)

    def test_envelope_byte_identical(self, artifact):
        text = serialize.dumps(artifact)
        assert serialize.dumps(serialize.loads(text)) == text

    def test_reload_preserves_everything(self, artifact):
        reloaded = serialize.loads(serialize.dumps(artifact))
        assert isinstance(reloaded, CompressedProvenance)
        assert reloaded == artifact
        assert reloaded.vvs.labels == artifact.vvs.labels
        assert reloaded.algorithm == artifact.algorithm
        assert reloaded.monomial_loss == artifact.monomial_loss
        assert reloaded.variable_loss == artifact.variable_loss

    def test_reload_returns_identical_answers(self, artifact):
        suite = [
            Scenario.uniform("q1", ["m1", "m2", "m3"], 0.8),
            Scenario("jan", {"m1": 0.8}),
            Scenario("biz", {"b1": 1.3, "b2": 1.3, "e": 1.3}),
        ]
        reloaded = serialize.loads(serialize.dumps(artifact))
        assert reloaded.ask_many(suite) == artifact.ask_many(suite)

    def test_save_load_file(self, artifact, tmp_path):
        path = str(tmp_path / "artifact.json")
        artifact.save(path)
        assert CompressedProvenance.load(path) == artifact

    def test_load_rejects_other_kinds(self, session, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(serialize.dumps(session.polynomials))
        with pytest.raises(TypeError, match="expected a CompressedProvenance"):
            CompressedProvenance.load(str(path))


class TestEndToEnd:
    def test_query_compress_ask(self):
        """The acceptance flow: from_query -> compress -> ask."""
        cust, calls, plans = figure1_database()
        plan_vars = figure1_plan_variables()
        artifact = ProvenanceSession.from_query(
            REVENUE_SQL,
            {"Cust": cust, "Calls": calls, "Plans": plans},
            params=lambda row: [plan_vars[row["Cust.Plan"]],
                                f"m{row['Calls.Mo']}"],
            forest=[plans_tree(), months_tree()],
        ).compress(bound=6)
        answer = artifact.ask(
            Scenario.uniform("q1 -20%", ["m1", "m2", "m3"], 0.8)
        )
        assert isinstance(answer, Answer)
        assert answer.exact
        # Exact means: equal to valuating the *raw* provenance.
        raw = Valuation({"m1": 0.8, "m2": 0.8, "m3": 0.8}).evaluate(
            example13_polynomials()
        )
        assert list(answer.values) == pytest.approx(list(raw))
