"""Self-tests of the benchmark, at a tiny TPC-H scale factor.

Run from the root of a checkout (named explicitly, so the repository's
own test run does not collect it)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.require_source()

import analyst  # noqa: E402
import flows  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402


# --------------------------------------------------------------- statistics


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 100) == 100
    assert common.percentile([7.5], 99) == 7.5
    assert common.percentile([1, 2, 3], 1) == 1


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_bad_ranks(bad):
    with pytest.raises(ValueError):
        common.percentile([1, 2], bad)
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_median():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5


def test_combine_takes_per_item_medians():
    records = [
        {"capture_s": {"q1": 1.0, "q5": 9.0}, "extend_ms": {"a": 2.0, "b": 4.0}, "kept": 0.5},
        {"capture_s": {"q1": 3.0, "q5": 1.0}, "extend_ms": {"a": 2.0, "b": 8.0}, "kept": 0.5},
        {"capture_s": {"q1": 2.0, "q5": 2.0}, "extend_ms": {"a": 6.0, "b": 6.0}, "kept": 0.5},
    ]
    combined = common.combine(records)
    assert combined["capture_s"] == 2.0 + 2.0  # *_s items sum
    assert combined["extend_ms"] == (2.0 + 6.0) / 2  # *_ms items average
    assert combined["kept"] == 0.5


def test_ledger_counts_attempts_and_failures():
    ledger = common.Ledger()
    ledger.record("ask", True)
    ledger.record("ask", False)
    with common.attempt(ledger, "extend"):
        pass
    with pytest.raises(RuntimeError), common.attempt(ledger, "create"):
        raise RuntimeError("refused")
    assert ledger.attempted == {"ask": 2, "extend": 1, "create": 1}
    assert ledger.failed == {"ask": 1, "create": 1}
    assert ledger.error_rate == 2 / 4
    other = common.Ledger()
    other.record("ask", False)
    ledger.merge(other)
    assert (ledger.total_attempted, ledger.total_failed) == (5, 3)
    assert common.Ledger().error_rate == 0.0


def test_steady_rate_uses_whole_buckets():
    # 10 completions in second 0, 20 in second 1, 30 in second 2, and a
    # partial last bucket that must not count.
    offsets = [0.05] * 10 + [1.5] * 20 + [2.5] * 30 + [3.1] * 2
    assert serve._steady_rate(offsets) == 20


# ------------------------------------------------------------------ tracing


def test_self_times_and_remainder_sum_to_wall():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.span("inner.work", inner)

    def outer():
        return traced_inner() + sum(range(20000))

    traced_outer = tracer.span("outer.work", outer)
    timeline = flows.Flows(tracer)
    with timeline.section("demo"):
        traced_outer()
    part = timeline.totals["demo"]
    assert part["calls"] == {"outer.work": 1, "inner.work": 1}
    assert part["total_ns"]["outer.work"] >= part["self_ns"]["outer.work"]
    rows, unattributed = tracing.breakdown(part)
    assert abs(sum(share for _, _, share in rows) + unattributed - 1.0) < 1e-9
    assert unattributed >= 0


# ------------------------------------------------------------- workloads


@pytest.fixture(scope="module", autouse=True)
def tiny_scale():
    saved = common.SCALE_FACTOR, common.DELTA_SCALE_FACTOR, serve.EXTEND_EVERY
    # Small enough to run in seconds; large enough that Q1 extends stay
    # inside the drift limit, as they do at the real scale.
    common.SCALE_FACTOR, common.DELTA_SCALE_FACTOR = 0.003, 0.0003
    serve.EXTEND_EVERY = 7
    yield
    common.SCALE_FACTOR, common.DELTA_SCALE_FACTOR, serve.EXTEND_EVERY = saved


def _measured(name, tmp_name):
    module = run.load_workload(name)
    ledger = common.Ledger()
    with common.work_dir(tmp_name) as work:
        inputs, prepared = module.prepare(3)
        _, state, records = run._setup(module, inputs, work, 1, ledger)
        try:
            window = module.measure(state, 0.5, flows.Flows(), ledger)
            module.verify(state, window)
            metrics, notes = module.metrics(state, window)
            assert metrics["ask_p50_ms"] <= notes["ask_p99_ms"]
            combined = {**common.combine([prepared]), **common.combine(records), **metrics}
            yield module, state, window, combined, ledger
        finally:
            module.discard(state)


@pytest.fixture(scope="module", params=["build", "sweep", "serve"])
def measured(request):
    yield from _measured(request.param, f"selftest-{request.param}")


def test_workload_runs_end_to_end(measured):
    _, _, _, metrics, ledger = measured
    assert ledger.total_attempted > 0
    assert ledger.total_failed == 0
    for name in run.E2E:
        if name == "setup_s":
            continue
        assert metrics[name] is not None and metrics[name] >= 0, name
    assert 0 < metrics["exact_share"] < 1
    assert metrics["ask_p50_ms"] > 0


def _first_exact(answers):
    return next(index for index, answer in enumerate(answers) if answer.exact)


def test_corrupted_answer_trips_verification(measured):
    module, state, window, _, _ = measured
    if module is serve:
        connection = window["connections"][0]
        ask = list(connection.asks[0])
        ask[2] = (ask[2][0] * (1 + 1e-12),) + ask[2][1:]
        connection.asks[0] = tuple(ask)
    else:
        answers = window["answers" if "answers" in window else "suite_answers"]
        key = sorted(answers)[0]
        index = _first_exact(answers[key])
        good = answers[key][index]
        answers[key][index] = type(good)(
            good.name, (good.values[0] + 1.0,) + good.values[1:], True
        )
    with pytest.raises(common.VerificationError):
        module.verify(state, window)


def test_sweep_ranking_mismatch_is_caught(measured):
    module, _, window, _, _ = measured
    if "ranking" not in window:
        pytest.skip("no in-process sweep in this workload")
    ranking = list(window["ranking"])
    first = ranking[0]
    ranking[0] = type(first)(first.rank, first.index, first.name, first.score + 1, first.values)
    artifact = (window["artifacts"] if "artifacts" in window else {
        key: value[0] for key, value in window["built"].items()
    })[("q1", 2)]
    with pytest.raises(common.VerificationError):
        analyst.check_sweep(artifact, window["sweep"], ranking, "selftest")


def test_run_without_sources_exits_nonzero(monkeypatch):
    monkeypatch.setattr(common, "SRC", os.path.join(common.WORK_ROOT, "no-checkout", "src"))
    with pytest.raises(SystemExit) as excinfo:
        common.require_source()
    assert excinfo.value.code == 2


def test_stop_children_ends_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_args_are_validated():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "build", "--seed", "1", "--seconds", "0"])
    args = run.parse_args(["--workload", "serve", "--seed", "4", "--seconds", "2"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("serve", 4, 2.0, 0)
