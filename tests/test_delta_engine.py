"""Tests for the delta-aware sparse evaluation engine (core.batch).

The contract under test is strict: ``engine="delta"`` answers are
**bit-identical** to ``engine="dense"`` answers — not merely close —
for every input shape (scenarios, valuations with their own defaults,
Fraction values, unknown variables, exponents above one, zero
polynomials, variable-free multisets, empty families), because the
delta path recomputes affected monomials with the dense layer ordering
and re-sums affected polynomial segments with the same ``add.reduceat``
machinery over the same floats. Both engines agree with the scalar
:meth:`Polynomial.evaluate` path only up to float tolerance — and,
unlike it, *refuse* exact arithmetic: Fraction inputs are degraded to
float64 identically on both engines while the scalar path stays exact.
"""

from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import ENGINES, choose_engine
from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.valuation import Valuation
from repro.options import EvalOptions
from repro.scenarios.analysis import evaluate_scenarios, sensitivity, top_k
from repro.scenarios.parallel import evaluate_scenarios_parallel
from repro.scenarios.sweep import Sweep
from repro.util.rng import derive_rng
from repro.workloads.random_polys import random_polynomials


DENSE = EvalOptions(engine="dense")
DELTA = EvalOptions(engine="delta")


def assert_engines_bit_identical(polynomials, scenarios, default=1.0):
    dense = polynomials.evaluate_batch(scenarios, default, engine="dense")
    delta = polynomials.evaluate_batch(scenarios, default, engine="delta")
    assert numpy.array_equal(dense, delta)
    return dense


@pytest.fixture
def workload():
    return random_polynomials(
        10, 25, [[f"a{i}" for i in range(12)], [f"b{i}" for i in range(5)]],
        seed=5, extra_variables=4,
    )


class TestBitIdentity:
    def test_random_workload_sparse_scenarios(self, workload):
        rng = derive_rng(21, "delta-engine-test")
        variables = sorted(workload.variables)
        scenarios = [
            {
                variables[rng.randrange(len(variables))]: rng.uniform(-2, 2)
                for _ in range(rng.randrange(1, 5))
            }
            for _ in range(60)
        ]
        values = assert_engines_bit_identical(workload, scenarios)
        for row, scenario in enumerate(scenarios):
            assert numpy.allclose(
                values[row], workload.evaluate(scenario), atol=1e-9, rtol=1e-9
            )

    def test_dense_scenarios_still_identical(self, workload):
        """Delta must stay correct even where it is not profitable."""
        rng = derive_rng(22, "delta-engine-test")
        variables = sorted(workload.variables)
        scenarios = [
            {v: rng.uniform(0.1, 2.0) for v in variables} for _ in range(7)
        ]
        assert_engines_bit_identical(workload, scenarios)

    def test_valuations_with_distinct_defaults(self, workload):
        scenarios = [
            Valuation({"a1": 0.5}, default=0.0),
            Valuation({}, default=3.0),
            Valuation({"b2": 2.0, "a0": -1.0}, default=1.0),
            Valuation({"a1": 0.5}, default=0.0),  # cached baseline reused
        ]
        assert_engines_bit_identical(workload, scenarios)

    def test_many_distinct_defaults_exceed_baseline_cache(self, workload):
        """Past the per-set baseline cache cap answers stay identical."""
        scenarios = [
            Valuation({"a1": 0.5}, default=1.0 + i / 64) for i in range(48)
        ]
        assert_engines_bit_identical(workload, scenarios)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "x", "y", "z", "nowhere"]),
            st.one_of(
                st.floats(-4, 4, allow_nan=False, width=32),
                st.fractions(
                    min_value=-3, max_value=3, max_denominator=9
                ),
                st.integers(-3, 3),
            ),
            max_size=6,
        ),
        min_size=0, max_size=12,
    ))
    def test_property_bit_identical_and_near_scalar(self, assignments):
        """Arbitrary float/Fraction/int families: delta == dense bitwise,
        and both within tolerance of the scalar interpreter."""
        polys = parse_set(
            ["2*a*x + 3*b*x^2 + 4*c*y + 5*d*y", "6*a*z + 7*b*z", "1 + c*d"]
        )
        values = assert_engines_bit_identical(polys, assignments)
        for row, assignment in enumerate(assignments):
            exact = polys.evaluate(assignment)
            assert numpy.allclose(
                values[row], [float(v) for v in exact],
                atol=1e-9, rtol=1e-9,
            )

    def test_fraction_fallback_refusal(self):
        """Both engines degrade Fractions to float64 — identically —
        while the scalar path keeps exact arithmetic. Exactness needs
        Polynomial.evaluate; the batch engines refuse it by design."""
        polys = PolynomialSet(
            [Polynomial({Monomial.of("x"): Fraction(1, 3)})]
        )
        scenario = {"x": Fraction(1, 3)}
        dense = polys.evaluate_batch([scenario], engine="dense")
        delta = polys.evaluate_batch([scenario], engine="delta")
        assert numpy.array_equal(dense, delta)
        exact = polys.evaluate(scenario)[0]
        assert exact == Fraction(1, 9)
        assert isinstance(exact, Fraction)
        assert dense[0, 0] != exact  # the float degradation is real
        assert dense[0, 0] == pytest.approx(1.0 / 9.0)

    def test_unpickled_compiled_set_answers_identically(self, workload):
        import pickle

        compiled = workload.compiled()
        scenarios = [{"a1": 0.5}, {"b2": 2.0, "a0": 0.0}]
        expected = compiled.evaluate(scenarios, engine="delta")
        clone = pickle.loads(pickle.dumps(compiled))
        assert numpy.array_equal(
            clone.evaluate(scenarios, engine="delta"), expected
        )


class TestEdgeCases:
    def test_empty_sweep(self):
        polys = parse_set(["x + y"])
        sweep = Sweep.random(["x", "y"], 0, seed=1)
        dense = evaluate_scenarios(polys, sweep, options=DENSE)
        delta = evaluate_scenarios(polys, sweep, options=DELTA)
        assert dense.shape == delta.shape == (0, 1)

    def test_empty_scenario_list(self):
        polys = parse_set(["x"])
        assert polys.evaluate_batch([], engine="delta").shape == (0, 1)

    def test_empty_polynomial_set(self):
        assert PolynomialSet().evaluate_batch(
            [{}, {"x": 2.0}], engine="delta"
        ).shape == (2, 0)

    def test_variable_free_multiset(self):
        polys = PolynomialSet([Polynomial.constant(4), Polynomial.zero()])
        values = assert_engines_bit_identical(
            polys, [{}, {"anything": 2.0}]
        )
        assert numpy.array_equal(
            values, numpy.array([[4.0, 0.0], [4.0, 0.0]])
        )

    def test_exponents_above_one(self):
        polys = parse_set(["3*x^3*y + 2*x^2 + 5", "x^4 - y^2"])
        assert_engines_bit_identical(
            polys, [{"x": 2.0, "y": -3.0}, {"x": -1.5}, {"y": 0.0}, {}]
        )

    def test_zero_polynomial_rows(self):
        polys = PolynomialSet([Polynomial.zero(), Polynomial.variable("x")])
        values = assert_engines_bit_identical(polys, [{"x": 2.0}])
        assert values[0, 0] == 0.0

    def test_unknown_variables_ignored(self):
        polys = parse_set(["2*x"])
        values = assert_engines_bit_identical(
            polys, [{"x": 3.0, "never-seen": 99.0}, {"also-unknown": 5.0}]
        )
        assert values[0, 0] == pytest.approx(6.0)
        assert values[1, 0] == pytest.approx(2.0)

    def test_custom_call_default(self):
        polys = parse_set(["x*y + z"])
        assert_engines_bit_identical(polys, [{"x": 2.0}, {}], default=0.0)

    def test_pow_grouping_regression(self):
        """Regression: numpy's ``**`` ufunc rounds grouping-dependently
        (SIMD lane vs scalar tail), so ``x**2`` computed inside a wide
        dense layer and recomputed in a narrow delta patch used to
        differ in the last bit. Powers now go through the
        multiply-chain ``_int_power`` on both engines."""
        polys = parse_set(
            ["2*a*x + 3*b*x^2 + 4*c*y + 5*d*y", "6*a*z + 7*b*z", "1 + c*d"]
        )
        assert_engines_bit_identical(polys, [{"a": 0.0, "x": Fraction(8, 3)}])

    def test_concurrent_delta_calls_share_one_compiled_set(self, workload):
        """The per-scenario patch/restore runs on call-local baseline
        copies, so threads evaluating the same compiled set in
        parallel must all get the dense answers."""
        from concurrent.futures import ThreadPoolExecutor

        compiled = workload.compiled()
        variables = sorted(workload.variables)
        suites = [
            [{variables[(t + i) % len(variables)]: 0.5 + t / 8}
             for i in range(40)]
            for t in range(4)
        ]
        expected = [compiled.evaluate(s, engine="dense") for s in suites]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(
                lambda s: compiled.evaluate(s, engine="delta"), suites
            ))
        for got, want in zip(results, expected, strict=True):
            assert numpy.array_equal(got, want)


class TestEngineSelection:
    def test_auto_picks_delta_for_sparse_families(self, workload):
        compiled = workload.compiled()
        sparse = [Valuation({"a1": 0.5})] * 4
        assert compiled.resolve_engine("auto", valuations=sparse) == "delta"

    def test_auto_picks_dense_for_dense_families(self, workload):
        compiled = workload.compiled()
        dense = [
            Valuation({v: 2.0 for v in sorted(workload.variables)})
        ]
        assert compiled.resolve_engine("auto", valuations=dense) == "dense"

    def test_auto_uses_sweep_density(self, workload):
        compiled = workload.compiled()
        oaat = Sweep.one_at_a_time(sorted(workload.variables), [0.8, 1.2])
        assert compiled.resolve_engine(
            "auto", mean_changes=oaat.mean_changes()
        ) == "delta"

    def test_auto_counts_affected_monomials_not_variables(self):
        """20 changed variables of 288 sounds sparse, but with ~18.5
        monomials per variable it touches ~20% of the multiset — the
        fan-in-aware policy must pick dense for that shape (and delta
        once the change-set really is small)."""
        fan_in = {"mean_monomials_per_variable": 18.5, "num_monomials": 1781}
        assert choose_engine(20.0, **fan_in) == "dense"
        assert choose_engine(1.0, **fan_in) == "delta"

    def test_unknown_engine_rejected(self, workload):
        with pytest.raises(ValueError, match="unknown engine"):
            workload.evaluate_batch([{}], engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            evaluate_scenarios(workload, [{}], options=EvalOptions("warp"))
        assert "dense" in ENGINES and "delta" in ENGINES


class TestStackThreading:
    """engine= must produce identical results through every layer."""

    def test_evaluate_scenarios_engines_agree_on_sweeps(self, workload):
        sweep = Sweep.one_at_a_time(
            sorted(workload.variables), [0.0, 0.8, 1.2]
        )
        dense = evaluate_scenarios(workload, sweep, options=DENSE)
        delta = evaluate_scenarios(workload, sweep, options=DELTA)
        auto = evaluate_scenarios(workload, sweep, options=EvalOptions())
        assert numpy.array_equal(dense, delta)
        assert numpy.array_equal(dense, auto)

    def test_parallel_delta_spans_bit_identical(self, workload):
        sweep = Sweep.random(
            sorted(workload.variables), 96, changes=2, seed=13
        )
        serial_dense = evaluate_scenarios_parallel(
            workload, sweep, workers=0, engine="dense"
        )
        pooled_delta = evaluate_scenarios_parallel(
            workload, sweep, workers=2, min_parallel=0, chunk_size=17,
            engine="delta",
        )
        assert numpy.array_equal(serial_dense, pooled_delta)

    def test_top_k_and_sensitivity_engines_agree(self, workload):
        sweep = Sweep.one_at_a_time(sorted(workload.variables), [0.5])
        by_engine = [
            top_k(workload, sweep, k=5, options=EvalOptions(engine))
            for engine in ("dense", "delta")
        ]
        assert by_engine[0] == by_engine[1]
        reports = [
            sensitivity(workload, sweep, options=EvalOptions(engine))
            for engine in ("dense", "delta")
        ]
        assert reports[0] == reports[1]

    def test_session_and_artifact_ask_many_engines_agree(self):
        from repro.api.session import ProvenanceSession

        session = ProvenanceSession.from_strings(
            ["2*b1*m1 + 3*b2*m1 + 4*b1*m3", "b1*m1 + 5*b2*m3"],
            forest=("SB", ["b1", "b2"]),
        )
        scenarios = [
            {"m1": 0.8},
            Valuation({"b1": 0.5, "b2": 0.5}),
            {"b1": 0.0, "m3": 1.2},
        ]
        assert session.ask_many(scenarios, options=DENSE) == session.ask_many(
            scenarios, options=DELTA
        )
        artifact = session.compress(bound=4)
        assert artifact.ask_many(scenarios, options=DENSE) == artifact.ask_many(
            scenarios, options=DELTA
        )


class TestSweepDeltaForm:
    """Sweeps emit (baseline, sparse-delta) form natively."""

    @pytest.mark.parametrize("sweep", [
        Sweep.grid({"p": ["a"], "q": ["b", "c"]}, [0.5, 2.0]),
        Sweep.one_at_a_time(["a", "b", "c"], [0.0, 1.2],
                            baseline={"d": 0.9}),
        Sweep.random(["a", "b", "c", "d"], 12, changes=2, seed=3),
    ], ids=["grid", "oaat", "random"])
    def test_changes_at_matches_materialized_scenarios(self, sweep):
        assert [sweep.changes_at(i) for i in range(len(sweep))] == [
            sweep[i].changes for i in range(len(sweep))
        ]
        assert list(sweep.iter_changes(1, 3)) == [
            sweep[1].changes,
            sweep[2].changes,
        ]

    def test_changes_at_range_checked(self):
        sweep = Sweep.one_at_a_time(["a"], [0.5])
        with pytest.raises(IndexError):
            sweep.changes_at(1)

    def test_mean_changes(self):
        assert Sweep.grid(
            {"p": ["a", "b"], "q": ["c"]}, [0.5]
        ).mean_changes() == 3.0
        assert Sweep.one_at_a_time(["a", "b"], [0.5]).mean_changes() == 1.0
        # A baseline change overlapping one of two swept variables:
        # every scenario carries the baseline, half add a fresh one.
        assert Sweep.one_at_a_time(
            ["a", "b"], [0.5], baseline={"a": 0.9}
        ).mean_changes() == pytest.approx(1.5)
        assert Sweep.random(
            ["a", "b", "c"], 10, changes=2, seed=1
        ).mean_changes() == 2.0
