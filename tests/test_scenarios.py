"""Tests for scenarios, speedup analysis, and the sampling pipeline."""

import pytest

from repro.algorithms.greedy import greedy_vvs
from repro.algorithms.optimal import optimal_vvs
from repro.core.forest import AbstractionForest
from repro.core.parser import parse_set
from repro.core.tree import AbstractionTree
from repro.scenarios import (
    Scenario,
    ScenarioOverlapWarning,
    ScenarioSuite,
    adapt_bound,
    approximate_lift,
    assignment_speedup,
    extrapolate_size,
    online_compress,
    sample_polynomials,
    scenario_error,
)
from repro.workloads.random_polys import random_polynomials
from repro.workloads.trees import layered_tree


@pytest.fixture
def instance():
    polys = parse_set(
        ["2*a*x + 3*b*x + 4*c*y + 5*d*y", "6*a*z + 7*b*z"]
    )
    tree = AbstractionTree.from_nested(
        ("r", [("g1", ["a", "b"]), ("g2", ["c", "d"])])
    )
    return polys, AbstractionForest([tree])


class TestScenario:
    def test_uniform_constructor(self):
        s = Scenario.uniform("up", ["a", "b"], 1.2)
        assert s.changes == {"a": 1.2, "b": 1.2}

    def test_evaluate(self, instance):
        polys, _ = instance
        s = Scenario("halve-a", {"a": 0.5})
        values = s.evaluate(polys)
        assert values[0] == pytest.approx(1 + 3 + 4 + 5)
        assert values[1] == pytest.approx(3 + 7)

    def test_compose_multiplies(self):
        with pytest.warns(ScenarioOverlapWarning, match="both change x"):
            s = Scenario("a", {"x": 0.8}).compose(
                Scenario("b", {"x": 0.5, "y": 2.0})
            )
        assert s.changes == {"x": 0.4, "y": 2.0}

    def test_compose_disjoint_does_not_warn(self, recwarn):
        s = Scenario("a", {"x": 0.8}).compose(Scenario("b", {"y": 2.0}))
        assert s.changes == {"x": 0.8, "y": 2.0}
        assert not [w for w in recwarn.list
                    if issubclass(w.category, ScenarioOverlapWarning)]

    def test_compose_warning_names_every_overlap(self):
        with pytest.warns(ScenarioOverlapWarning, match="x, y"):
            Scenario("a", {"x": 0.8, "y": 1.0}).compose(
                Scenario("b", {"x": 0.5, "y": 2.0})
            )

    def test_supported_by(self, instance):
        _, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        assert Scenario.uniform("u", ["a", "b"], 0.9).is_supported_by(vvs)
        assert not Scenario("nu", {"a": 0.9}).is_supported_by(vvs)

    def test_lift(self, instance):
        _, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        lifted = Scenario.uniform("u", ["a", "b"], 0.9).lift(vvs)
        assert lifted["g1"] == 0.9

    def test_from_json_reads_an_entry(self):
        named = Scenario.from_json(
            {"name": "cut", "changes": {"m1": 0.8, "m2": 2}}, 3
        )
        assert (named.name, named.changes) == ("cut", {"m1": 0.8, "m2": 2})
        bare = Scenario.from_json({"m1": 0.8}, 3)
        assert (bare.name, bare.changes) == ("scenario-3", {"m1": 0.8})
        unnamed = Scenario.from_json({"name": None, "changes": {}}, 3)
        assert (unnamed.name, unnamed.changes) == ("scenario-3", {})

    @pytest.mark.parametrize("entry", [
        {"changes": {"b1": "abc"}},
        {"changes": {"b1": None}},
        {"changes": {"b1": True}},
        {"changes": {"b1": float("nan")}},
        {"changes": {"b1": float("-inf")}},
        {"changes": {"b1": 10**400}},  # no float holds it
        {"changes": "b1=0.5"},
        {"changes": None},
        {"name": "no-changes"},
        {"changes": {"b1": 0.5}, "name": 7},
        ["b1", 0.5],
        None,
    ])
    def test_from_json_refuses_a_bad_entry(self, entry):
        with pytest.raises(ValueError, match="^scenario #4"):
            Scenario.from_json(entry, 4)

    def test_suite_filters_supported(self, instance):
        _, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        suite = ScenarioSuite(
            [
                Scenario.uniform("ok", ["a", "b"], 0.9),
                Scenario("not-ok", {"a": 0.9}),
            ]
        )
        assert [s.name for s in suite.supported_by(vvs)] == ["ok"]

    def test_suite_evaluate(self, instance):
        polys, _ = instance
        suite = ScenarioSuite([Scenario("id", {})])
        values = suite.evaluate(polys)
        assert values["id"][0] == pytest.approx(14)


class TestSpeedupAndAccuracy:
    def test_uniform_scenario_is_exact(self, instance):
        polys, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        abstracted = vvs.apply(polys)
        scenario = Scenario.uniform("u", ["a", "b", "c", "d"], 0.75)
        errors = scenario_error(polys, abstracted, vvs, scenario)
        assert all(e == pytest.approx(0.0) for e in errors)

    def test_non_uniform_scenario_has_bounded_error(self, instance):
        polys, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        abstracted = vvs.apply(polys)
        scenario = Scenario("skew", {"a": 0.5, "b": 1.5})
        errors = scenario_error(polys, abstracted, vvs, scenario)
        assert any(e > 0 for e in errors)
        assert all(e < 1.0 for e in errors)

    def test_approximate_lift_uses_group_mean(self, instance):
        _, forest = instance
        vvs = forest.vvs({"g1", "g2"})
        lifted = approximate_lift(Scenario("skew", {"a": 0.5, "b": 1.5}), vvs)
        assert lifted["g1"] == pytest.approx(1.0)

    def test_speedup_report_fields(self):
        polys = random_polynomials(
            10, 50, [[f"v{i}" for i in range(16)]], seed=3
        )
        tree = layered_tree(
            sorted(polys.variables & {f"v{i}" for i in range(16)}), (1,),
            prefix="all"
        )
        # Use the root cut for maximal compression.
        forest = AbstractionForest([tree])
        vvs = forest.root_vvs()
        abstracted = vvs.apply(polys)
        scenarios = [Scenario.uniform(f"s{k}", list(polys.variables), 0.9)
                     for k in range(3)]
        report = assignment_speedup(polys, abstracted, scenarios, vvs=vvs)
        assert report.raw_size == polys.num_monomials
        assert report.abstracted_size == abstracted.num_monomials
        assert report.abstracted_size <= report.raw_size
        assert report.compression_ratio <= 1.0
        assert report.speedup_percent <= 100.0


class TestSampling:
    def test_sample_is_subset(self, instance):
        polys, _ = instance
        sample = sample_polynomials(polys, 0.5, seed=1)
        assert 1 <= len(sample) <= len(polys)
        for polynomial in sample:
            assert polynomial in polys.polynomials

    def test_sample_fraction_validation(self, instance):
        polys, _ = instance
        with pytest.raises(ValueError):
            sample_polynomials(polys, 0.0)
        with pytest.raises(ValueError):
            sample_polynomials(polys, 1.5)

    def test_adapt_bound(self):
        assert adapt_bound(100, 1000, 100) == 10
        assert adapt_bound(5, 0, 10) == 5
        assert adapt_bound(1, 1000, 1) == 1  # never below 1

    def test_extrapolate_linear(self):
        estimate = extrapolate_size([0.25, 0.5, 0.75], [25, 50, 75])
        assert estimate == pytest.approx(100.0)

    def test_extrapolate_needs_enough_points(self):
        with pytest.raises(ValueError):
            extrapolate_size([0.5], [10], degree=1)

    def test_online_compress_end_to_end(self):
        pool = [f"v{i}" for i in range(16)]
        polys = random_polynomials(20, 12, [pool], seed=7, extra_variables=4)
        tree = layered_tree(pool, (4,), prefix="g")
        forest = AbstractionForest([tree])
        bound = polys.num_monomials // 2
        result = online_compress(polys, forest, bound, fraction=0.4, seed=3)
        assert result.vvs is not None
        assert result.achieved_size <= polys.num_monomials
        assert result.sample_bound <= bound

    def test_online_compress_with_optimal_algorithm(self):
        pool = [f"v{i}" for i in range(8)]
        polys = random_polynomials(10, 10, [pool], seed=9)
        tree = layered_tree(pool, (2,), prefix="g")
        result = online_compress(
            polys, AbstractionForest([tree]), bound=polys.num_monomials // 2,
            fraction=0.5, seed=2, algorithm=optimal_vvs,
        )
        assert result.achieved_size <= polys.num_monomials

    def test_online_vvs_remains_valid_for_full_set(self):
        """The sample may miss variables; the VVS must still apply."""
        pool = [f"v{i}" for i in range(8)]
        polys = random_polynomials(12, 4, [pool], seed=13)
        tree = layered_tree(pool, (2,), prefix="g")
        result = online_compress(
            polys, AbstractionForest([tree]), bound=max(1, polys.num_monomials - 3),
            fraction=0.2, seed=1, algorithm=greedy_vvs,
        )
        abstracted = result.vvs.apply(polys)
        assert abstracted.num_monomials == result.achieved_size
