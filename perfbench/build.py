"""``build``: the offline and streaming write path.

Set-up generates TPC-H at SF 0.01 plus a small, separately seeded
delta and captures the delta's provenance. Each pass then, for Q1, Q5
and Q10: captures the query through SQL (``ProvenanceSession.from_query``),
compresses the capture at |P|/2, /4 and /8 and saves each artifact as
``.rpb``, and extends each artifact with the same query's provenance
over the delta (``session.extend``). No ask is part of a pass.

The freshly extended (in-memory, repaired) artifacts are also asked
through the facade — single scenarios and a suite after every pass, a
sharded sweep after the window — so the read-side figures exist on this
workload too: they show how freshly built artifacts answer, where
``sweep`` measures artifacts loaded from disk.
"""

from __future__ import annotations

import gc
import os
import time

import analyst
import common

SETUP_REPEATS = 3
SERVER = False

#: Single asks and the suite after each pass; the sharded sweep after
#: the window, repeated.
ASKS_PER_PASS = 700
PROBE_SUITE = 128
PROBE_SWEEP = 2000
PROBE_REPEATS = 5


class State:
    def __init__(self, seed, base, deltas, directory):
        self.seed = seed
        self.base = base
        self.deltas = deltas
        self.directory = directory


def prepare(seed):
    """Inputs shared by every set-up; nothing is measured here."""
    return seed, {}


def setup(seed, directory, traced=False):
    base, delta = common.generate_databases(seed)
    deltas = {query: common.capture(delta, query).polynomials for query in common.QUERIES}
    return State(seed, base, deltas, directory)


def discard(state):
    pass


def _one_pass(state, flows, ledger):
    """Capture, compress + save and extend every (query, bound) once."""
    from repro.api.session import ProvenanceSession
    from repro.core.polynomial import PolynomialSet

    record = {"capture_s": {}, "compress_s": {}, "extend_ms": {}}
    built = {}
    kept = []
    size = 0
    for query in common.QUERIES:
        with flows.section("capture", samples=common.LONG_SECTION_SAMPLES) as section:
            session = common.capture(state.base, query)
        record["capture_s"][query] = section.seconds
        for divisor in common.BOUND_DIVISORS:
            key = (query, divisor)
            bound = common.bound_for(session.polynomials, divisor)
            path = os.path.join(state.directory, f"{query}-{divisor}.rpb")
            with common.attempt(ledger, "compress"), flows.section("compress") as section:
                artifact = session.compress(bound)
                artifact.save(path)
            record["compress_s"][key] = section.seconds
            kept.append(artifact.abstracted_granularity / artifact.original_granularity)
            size += os.path.getsize(path)
            # One session per artifact: extend appends to its session.
            owner = ProvenanceSession(PolynomialSet(list(session.polynomials)), session.forest)
            with common.attempt(ledger, "extend"), flows.section("extend") as section:
                result = owner.extend(state.deltas[query], artifact)
            record["extend_ms"][key] = section.seconds * 1e3
            built[key] = (result.artifact, owner)
    record["granularity_kept"] = sum(kept) / len(kept)
    record["artifact_bytes"] = size
    return record, built


def measure(state, seconds, flows, ledger):
    from repro.scenarios.sweep import Sweep

    scenarios = common.NodeScenarios(state.seed)
    suite = scenarios.suite(PROBE_SUITE)
    keys = sorted(
        (query, divisor) for query in common.QUERIES for divisor in common.BOUND_DIVISORS
    )
    picks = common.pick_sequence(keys, ASKS_PER_PASS)
    records = []
    suites = []
    latencies = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        record, built = _one_pass(state, flows, ledger)
        records.append(record)
        # Single asks and the suite after every pass (no pool is forked
        # before them), so their samples spread over the run; the pass's
        # garbage is collected first so that it is not charged to them.
        gc.collect()
        artifacts = {key: built[key][0] for key in keys}
        analyst.warm(artifacts.values(), suite[0])
        asked, _ = analyst.ask_singles(
            [(artifacts[key], scenarios.draw()) for key in picks], flows, ledger
        )
        latencies.extend(asked)
        times, answers = analyst.ask_suite(artifacts, suite, flows, ledger)
        suites.append({"suite_s": times})
    sweep = Sweep.random(common.leaf_variables(), PROBE_SWEEP, changes=20, seed=state.seed)
    sweep_times = []
    for _ in range(PROBE_REPEATS):
        elapsed, ranking = analyst.run_sweep(
            artifacts[("q1", 2)], sweep, analyst.workers(), flows, ledger
        )
        sweep_times.append(elapsed)
    return {
        "records": records, "built": built, "ask_latencies": latencies,
        "suite_per_s": len(keys) * len(suite) / common.combine(suites)["suite_s"],
        "suite": suite, "suite_answers": answers,
        "sweep_per_s": PROBE_SWEEP / common.median(sweep_times),
        "sweep": sweep, "ranking": ranking,
    }


def verify(state, window):
    quality = analyst.Quality()
    raw_seconds = 0.0
    raw_count = 0
    inexact = 0
    for key, (artifact, owner) in sorted(window["built"].items()):
        what = f"build {key[0]}/{key[1]}"
        inexact += common.check_same_cut(artifact, owner.polynomials, window["suite"][:8], what)
        seconds, raw = common.timed(owner.ask_many, window["suite"])
        raw_seconds += seconds
        raw_count += len(raw)
        quality.add(window["suite_answers"][key], common.rows_of(raw), what)
    analyst.check_sweep(
        window["built"][("q1", 2)][0], window["sweep"], window["ranking"], "build sweep"
    )
    window["answer_error"] = quality.answer_error
    window["exact_share"] = quality.exact_share
    window["raw_per_s"] = raw_count / raw_seconds
    window["same_cut_inexact"] = inexact


def metrics(state, window):
    latencies = window["ask_latencies"]
    return {
        **common.combine(window["records"]),
        "suite_per_s": window["suite_per_s"],
        "sweep_per_s": window["sweep_per_s"],
        "answer_error": window.get("answer_error"),
        "exact_share": window.get("exact_share"),
        "asks_per_s": common.steady_rate(latencies),
        "ask_p50_ms": common.percentile(latencies, 50),
        "rss_mb": common.peak_rss_mb(),
    }, {
        "ask_samples": len(latencies),
        "ask_p99_ms": common.percentile(latencies, 99),
        "passes": len(window["records"]),
        "same_cut_inexact_polynomials": window.get("same_cut_inexact"),
    }
