"""Parallel evaluation equivalence, analytics, and cross-process sweeps.

The contract under test: sharding evaluation across a process pool is
*bit-identical* to the serial pass (the issue's property), sweeps are
reproducible across processes, and the streaming analytics (top_k /
sensitivity) agree with full-matrix computations.
"""

import concurrent.futures
import os
import pickle
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parser import parse_set
from repro.core.valuation import Valuation
from repro.options import EvalOptions
from repro.scenarios import (
    Scenario,
    Sweep,
    evaluate_scenarios,
    sensitivity,
    top_k,
)
from repro.scenarios.parallel import (
    evaluate_scenarios_parallel,
    iter_value_blocks,
)
from repro.workloads.random_polys import random_polynomials

VARIABLES = ["a", "b", "c", "d"]

#: Two worker processes: the pool path, whenever the family is large
#: enough (MIN_PARALLEL_SCENARIOS).
TWO_WORKERS = EvalOptions(workers=2)

#: The shard size top_k/sensitivity stream with (not a user knob). The
#: parallel-vs-serial tests patch it only after the serial reference has
#: run, so a one-block serial answer is checked against many pool shards.
CHUNK_SIZE = "repro.scenarios.parallel.DEFAULT_CHUNK_SIZE"


@pytest.fixture(scope="module")
def polys():
    return parse_set(
        ["2*a*x + 3*b*x + 4*c*y + 5*d*y", "6*a*z + 7*b*z", "1 + c*d"]
    )


def _workload():
    pool = [f"v{i}" for i in range(12)]
    return random_polynomials(8, 20, [pool], seed=5, extra_variables=4)


class TestParallelEquivalence:
    def test_sweep_parallel_bit_identical(self, polys):
        sweep = Sweep.random(VARIABLES + ["x", "y"], 600, seed=11, changes=3)
        serial = evaluate_scenarios(polys, sweep)
        parallel = evaluate_scenarios_parallel(
            polys, sweep, workers=2, min_parallel=0, chunk_size=128
        )
        assert serial.shape == (600, 3)
        assert numpy.array_equal(serial, parallel)

    def test_iterable_parallel_bit_identical(self, polys):
        scenarios = [
            Scenario(f"s{i}", {"a": 0.5 + i / 100, "x": 1.0 + i / 50})
            for i in range(300)
        ]
        serial = evaluate_scenarios(polys, scenarios)
        parallel = evaluate_scenarios_parallel(
            polys, scenarios, workers=2, min_parallel=0, chunk_size=64
        )
        assert numpy.array_equal(serial, parallel)

    def test_float_valuations_bit_identical(self, polys):
        valuations = [
            Valuation({"a": 0.1 * i, "c": 1.0 / (i + 1)}) for i in range(80)
        ]
        serial = evaluate_scenarios(polys, valuations)
        parallel = evaluate_scenarios_parallel(
            polys, valuations, workers=2, min_parallel=0, chunk_size=17
        )
        assert numpy.array_equal(serial, parallel)

    def test_fraction_valuations_bit_identical(self, polys):
        """Exact Fraction assignments degrade to float the same way on
        both sides of the pool boundary (the issue's property test)."""
        valuations = [
            Valuation({"a": Fraction(1, 3), "b": Fraction(i, 7)},
                      default=Fraction(1, 1))
            for i in range(60)
        ]
        serial = evaluate_scenarios(polys, valuations)
        parallel = evaluate_scenarios_parallel(
            polys, valuations, workers=2, min_parallel=0, chunk_size=13
        )
        assert numpy.array_equal(serial, parallel)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.dictionaries(
            st.sampled_from(VARIABLES + ["x", "y", "z"]),
            st.one_of(
                st.floats(0.0, 4.0, allow_nan=False),
                st.fractions(min_value=0, max_value=4),
            ),
            max_size=4,
        ),
        min_size=1, max_size=24,
    ))
    def test_property_chunked_serial_identical(self, assignments):
        """Chunked evaluation (the shard shape) equals one-shot batch for
        arbitrary float/Fraction assignments."""
        polys = parse_set(
            ["2*a*x + 3*b*x + 4*c*y + 5*d*y", "6*a*z + 7*b*z", "1 + c*d"]
        )
        one_shot = polys.evaluate_batch(assignments)
        chunked = evaluate_scenarios_parallel(
            polys, assignments, workers=0, chunk_size=5
        )
        assert numpy.array_equal(one_shot, chunked)

    def test_workload_scale_parallel_identical(self):
        polys = _workload()
        sweep = Sweep.random(
            sorted(polys.variables), 700, seed=23, changes=6
        )
        serial = evaluate_scenarios(polys, sweep)
        parallel = evaluate_scenarios(polys, sweep, options=TWO_WORKERS)
        forced = evaluate_scenarios_parallel(
            polys, sweep, workers=2, min_parallel=0
        )
        assert numpy.array_equal(serial, parallel)
        assert numpy.array_equal(serial, forced)

    def test_empty_and_edge_inputs(self, polys):
        assert evaluate_scenarios_parallel(
            polys, [], workers=2
        ).shape == (0, 3)
        assert evaluate_scenarios_parallel(
            polys, Sweep.random(["a"], 0, seed=1), workers=2
        ).shape == (0, 3)
        with pytest.raises(ValueError):
            evaluate_scenarios_parallel(polys, [], workers=-1)
        with pytest.raises(ValueError):
            evaluate_scenarios_parallel(polys, [], workers=2, chunk_size=0)

    def test_serial_threshold_respected(self, polys):
        """Small suites never pay for a pool (same answers either way)."""
        scenarios = [Scenario("s", {"a": 0.5})] * 10
        assert numpy.array_equal(
            evaluate_scenarios(
                polys, scenarios, options=EvalOptions(workers=4)
            ),
            evaluate_scenarios(polys, scenarios),
        )


def _remote_changes(spec):
    sweep, start, stop = spec
    return [s.changes for s in sweep.materialize(start, stop)]


class TestCrossProcessReproducibility:
    def test_random_sweep_identical_in_worker_process(self):
        """Sweep.random(seed=...) regenerates bit-identical scenarios in
        a different process (the issue's property test)."""
        sweep = Sweep.random(["x", "y", "z"], 40, seed=13, changes=2)
        local = [s.changes for s in sweep]
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_remote_changes, (sweep, 0, 40)).result()
            shard = pool.submit(_remote_changes, (sweep, 10, 30)).result()
        assert remote == local
        assert shard == local[10:30]

    def test_compiled_set_pickles_to_identical_answers(self):
        polys = _workload()
        compiled = polys.compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        scenarios = Sweep.random(
            sorted(polys.variables), 32, seed=3
        ).materialize()
        assert numpy.array_equal(
            compiled.evaluate(scenarios), clone.evaluate(scenarios)
        )


class TestSharedMemoryTransport:
    def test_segment_created_once_and_unlinked(self, polys, monkeypatch):
        """The pool publishes ONE shared-memory segment and unlinks it
        on exit — nothing left behind for other processes to attach."""
        from multiprocessing import shared_memory

        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shared_memory, "SharedMemory", spy)
        scenarios = [{"a": 0.5 + i / 100} for i in range(40)]
        serial = evaluate_scenarios(polys, scenarios)
        parallel = evaluate_scenarios_parallel(
            polys, scenarios, workers=2, min_parallel=0, chunk_size=10
        )
        assert numpy.array_equal(serial, parallel)
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real(name=created[0])  # unlinked: attaching must fail

    def test_no_dev_shm_leak(self, polys):
        import glob

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(glob.glob("/dev/shm/repro-*"))
        evaluate_scenarios_parallel(
            polys, [{"a": 1.5}] * 30, workers=2, min_parallel=0,
            chunk_size=8,
        )
        list(iter_value_blocks(
            _workload(),
            Sweep.random(["v0", "v1"], 600, seed=7, changes=1),
            workers=2, chunk_size=128,
        ))
        assert set(glob.glob("/dev/shm/repro-*")) == before

    def test_segment_unlinked_when_worker_task_fails(self, polys,
                                                     monkeypatch):
        """Cleanup runs even when the pool dies mid-stream."""
        from multiprocessing import shared_memory

        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shared_memory, "SharedMemory", spy)
        with pytest.raises((TypeError, ValueError)):
            evaluate_scenarios_parallel(
                polys, [{"a": object()}] * 30, workers=2, min_parallel=0,
                chunk_size=8,
            )
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            real(name=created[0])

    def test_file_backed_artifact_skips_shared_memory(self, tmp_path,
                                                      monkeypatch):
        """A compiled set loaded from a .rpb container ships by path —
        no segment is ever created, workers re-map the file."""
        from multiprocessing import shared_memory

        from repro.api.artifact import CompressedProvenance
        from repro.api.session import ProvenanceSession
        from repro.core.forest import AbstractionForest
        from repro.core.tree import AbstractionTree

        polys = _workload()
        leaves = sorted(polys.variables)
        # One tree over the pool (at most one pool variable per
        # monomial — compatible); the free w* variables stay outside.
        forest = AbstractionForest([AbstractionTree.from_nested(
            ("R", [leaf for leaf in leaves if leaf.startswith("v")])
        )])
        artifact = ProvenanceSession(polys, forest).compress(
            polys.num_monomials
        )
        path = str(tmp_path / "artifact.rpb")
        artifact.save(path)
        loaded = CompressedProvenance.load(path)

        def forbid_create(*args, **kwargs):
            if kwargs.get("create"):
                raise AssertionError(
                    "file-backed compiled sets must not publish shm"
                )
            return real(*args, **kwargs)

        real = shared_memory.SharedMemory
        monkeypatch.setattr(shared_memory, "SharedMemory", forbid_create)
        scenarios = [{leaves[0]: 0.25 * i} for i in range(36)]
        serial = evaluate_scenarios_parallel(
            loaded.polynomials, scenarios, workers=0
        )
        parallel = evaluate_scenarios_parallel(
            loaded.polynomials, scenarios, workers=2, min_parallel=0,
            chunk_size=9,
        )
        assert numpy.array_equal(serial, parallel)

    def test_workers_one_never_builds_pool(self, polys, monkeypatch):
        """Explicit workers=1 routes through the serial chunked path —
        no executor, no segment (the issue's first satellite fix)."""
        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must not construct a pool")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", boom
        )
        scenarios = [{"a": 0.1 * i} for i in range(1000)]
        result = evaluate_scenarios_parallel(
            polys, scenarios, workers=1, min_parallel=0
        )
        assert numpy.array_equal(result, evaluate_scenarios(polys, scenarios))
        blocks = list(iter_value_blocks(polys, scenarios, workers=1))
        stitched = numpy.concatenate([v for _, _, v in blocks], axis=0)
        assert numpy.array_equal(stitched, result)


class TestTopK:
    def test_matches_full_matrix_ranking(self, polys):
        sweep = Sweep.random(VARIABLES + ["x", "y"], 200, seed=5, changes=2)
        matrix = evaluate_scenarios(polys, sweep)
        totals = matrix.sum(axis=1)
        expected = sorted(
            range(200), key=lambda i: (-totals[i], i)
        )[:5]
        ranked = top_k(polys, sweep, k=5)
        assert [entry.index for entry in ranked] == expected
        assert [entry.rank for entry in ranked] == [1, 2, 3, 4, 5]
        assert ranked[0].score == pytest.approx(totals[expected[0]])
        assert len(ranked[0].values) == 3

    def test_smallest_ranking(self, polys):
        sweep = Sweep.one_at_a_time(VARIABLES, [0.0])
        ranked = top_k(polys, sweep, k=2, largest=False)
        full = evaluate_scenarios(polys, sweep).sum(axis=1)
        assert ranked[0].score == pytest.approx(full.min())

    def test_custom_objective(self, polys):
        sweep = Sweep.one_at_a_time(VARIABLES, [0.5, 1.5])
        ranked = top_k(
            polys, sweep, k=1, objective=lambda row: float(row[1])
        )
        matrix = evaluate_scenarios(polys, sweep)
        assert ranked[0].score == pytest.approx(matrix[:, 1].max())

    def test_k_larger_than_family(self, polys):
        ranked = top_k(polys, Sweep.one_at_a_time(["a"], [0.5]), k=10)
        assert len(ranked) == 1
        with pytest.raises(ValueError):
            top_k(polys, [], k=0)

    def test_bad_chunk_size_raises_not_empty(self, polys, monkeypatch):
        """chunk_size <= 0 must raise, never silently return []."""
        sweep = Sweep.one_at_a_time(["a"], [0.5])
        for chunk_size in (0, -3):
            with pytest.raises(ValueError, match="chunk_size"):
                list(iter_value_blocks(polys, sweep, chunk_size=chunk_size))
        monkeypatch.setattr(CHUNK_SIZE, 0)
        with pytest.raises(ValueError, match="chunk_size"):
            top_k(polys, sweep, k=1)
        with pytest.raises(ValueError, match="chunk_size"):
            sensitivity(polys, sweep)

    def test_parallel_matches_serial(self, monkeypatch):
        polys = _workload()
        sweep = Sweep.random(sorted(polys.variables), 600, seed=2, changes=4)
        serial = top_k(polys, sweep, k=7)
        monkeypatch.setattr(CHUNK_SIZE, 128)
        parallel = top_k(polys, sweep, k=7, options=TWO_WORKERS)
        assert serial == parallel

    def test_parallel_over_plain_list_matches_serial(self, monkeypatch):
        """Non-Sweep iterables shard too (rows ship to the pool)."""
        polys = _workload()
        scenarios = Sweep.random(
            sorted(polys.variables), 600, seed=12, changes=4
        ).materialize()
        serial = top_k(polys, scenarios, k=5)
        monkeypatch.setattr(CHUNK_SIZE, 128)
        parallel = top_k(polys, scenarios, k=5, options=TWO_WORKERS)
        assert serial == parallel

    def test_parallel_with_transform_matches_serial(self, monkeypatch):
        """Transforms run in the parent; evaluation still shards."""
        polys = _workload()
        sweep = Sweep.random(sorted(polys.variables), 600, seed=8, changes=3)

        def damp(entry):
            v = Valuation.coerce(entry)
            return Valuation(
                {k: (val + 1.0) / 2.0 for k, val in v.assignment.items()},
                default=v.default,
            )

        serial = top_k(polys, sweep, k=5, transform=damp)
        monkeypatch.setattr(CHUNK_SIZE, 128)
        parallel = top_k(
            polys, sweep, k=5, transform=damp, options=TWO_WORKERS
        )
        assert serial == parallel


class TestSensitivity:
    def test_oaat_ranks_by_induced_delta(self, polys):
        # knocking out each variable moves the totals by its coefficients
        sweep = Sweep.one_at_a_time(VARIABLES, [0.0])
        report = sensitivity(polys, sweep)
        deltas = {item.variable: item.mean_delta for item in report}
        # b appears as 3*b*x and 7*b*z -> delta 10 with all-1 defaults.
        assert deltas["b"] == pytest.approx(10.0)
        assert deltas["a"] == pytest.approx(8.0)
        assert report[0].variable == "b"
        assert report[0].scenarios == 1

    def test_multi_change_scenarios_attribute_to_all(self, polys):
        report = sensitivity(polys, [Scenario("s", {"a": 0.0, "b": 0.0})])
        deltas = {item.variable: item.mean_delta for item in report}
        assert deltas["a"] == deltas["b"] == pytest.approx(18.0)

    def test_parallel_matches_serial(self, monkeypatch):
        polys = _workload()
        sweep = Sweep.random(sorted(polys.variables), 600, seed=6, changes=3)
        serial = sensitivity(polys, sweep)
        monkeypatch.setattr(CHUNK_SIZE, 150)
        assert serial == sensitivity(polys, sweep, options=TWO_WORKERS)


class TestFacadeWorkers:
    def test_session_ask_many_workers_identical(self):
        from repro.api.session import ProvenanceSession

        polys = _workload()
        session = ProvenanceSession.from_polynomials(polys)
        sweep = Sweep.random(sorted(polys.variables), 40, seed=4)
        serial = session.ask_many(sweep)
        parallel = session.ask_many(sweep, options=TWO_WORKERS)
        assert serial == parallel
        assert all(answer.exact for answer in serial)
        assert serial[0].name == sweep[0].name
        one = session.ask(sweep[0])
        assert one.values == serial[0].values

    def test_artifact_ask_many_workers_identical(self):
        from repro.api.session import ProvenanceSession
        from repro.workloads.trees import layered_tree

        polys = _workload()
        pool = sorted(v for v in polys.variables if v.startswith("v"))
        tree = layered_tree(pool, (4,), prefix="g")
        session = ProvenanceSession.from_polynomials(polys, forest=tree)
        artifact = session.compress(bound=max(1, polys.num_monomials // 2))
        sweep = Sweep.random(pool, 50, seed=9, changes=2)
        assert artifact.ask_many(sweep) == artifact.ask_many(
            sweep, options=TWO_WORKERS
        )

    def test_artifact_lift_feeds_top_k(self):
        from repro.api.session import ProvenanceSession
        from repro.workloads.trees import layered_tree

        polys = _workload()
        pool = sorted(v for v in polys.variables if v.startswith("v"))
        tree = layered_tree(pool, (4,), prefix="g")
        session = ProvenanceSession.from_polynomials(polys, forest=tree)
        artifact = session.compress(bound=max(1, polys.num_monomials // 2))
        sweep = Sweep.one_at_a_time(pool, [0.5])
        ranked = top_k(
            artifact.polynomials, sweep, k=3, transform=artifact.lift
        )
        answers = artifact.ask_many(sweep)
        totals = [sum(answer.values) for answer in answers]
        best = max(range(len(totals)), key=lambda i: (totals[i], -i))
        assert ranked[0].index == best
        assert ranked[0].score == pytest.approx(totals[best])
