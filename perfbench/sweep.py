"""``sweep``: the in-process analyst session.

The artifacts the analyst receives are built before the window: TPC-H
at SF 0.01 is generated and Q1, Q5 and Q10 are captured through SQL
once; each set-up then compresses each capture at |P|/2, /4 and /8 with
an ``.rpb`` save, and extends it with the delta's provenance before the
fresh artifact is saved again for shipping.

For the first half of the window, each pass loads the nine artifacts
(mmap), answers a suite of node-level scenarios with
``artifact.ask_many`` on each, and asks single scenarios one at a time
through ``artifact.ask``. The second half repeats ``top_k`` over a
seeded ``Sweep.random`` (20 leaf changes) on the Q1 |P|/2 artifact with
``transform=artifact.lift`` and one worker per core.
"""

from __future__ import annotations

import os
import time

import analyst
import common
from flows import Flows

SETUP_REPEATS = 3
SERVER = False

SUITE_SIZE = 256
#: Small enough that the second half of the window holds several
#: sweeps, whose median is the figure.
SWEEP_SIZE = 2000
ASKS_PER_PASS = 500
#: Share of the window spent on load + suite + single asks; the rest
#: runs sharded sweeps.
ASK_SHARE = 0.5


class State:
    def __init__(self, inputs, directory):
        self.seed = inputs["seed"]
        self.directory = directory
        self.paths = {}
        self.owners = {}
        self.record = {"compress_s": {}, "extend_ms": {}}


def prepare(seed):
    """TPC-H and its delta, captured once; ``(inputs, {"capture_s": ...})``."""
    base, delta = common.generate_databases(seed)
    # The small delta goes first, so the timed captures find the SQL
    # path warm, as they do in ``build``'s passes.
    deltas = {query: common.capture(delta, query).polynomials for query in common.QUERIES}
    captures, sessions = common.timed_captures(base)
    return {"seed": seed, "sessions": sessions, "deltas": deltas}, {"capture_s": captures}


def setup(inputs, directory, traced=False):
    """Compress, save, extend and re-save the nine artifacts."""
    from repro.api.session import ProvenanceSession
    from repro.core.polynomial import PolynomialSet

    state = State(inputs, directory)
    record = state.record
    timer = Flows()
    kept = []
    size = 0
    for query, session in inputs["sessions"].items():
        for divisor in common.BOUND_DIVISORS:
            key = (query, divisor)
            path = os.path.join(directory, f"{query}-{divisor}.rpb")
            with timer.section("compress") as section:
                artifact = session.compress(common.bound_for(session.polynomials, divisor))
                artifact.save(path)
            record["compress_s"][key] = section.seconds
            kept.append(artifact.abstracted_granularity / artifact.original_granularity)
            size += os.path.getsize(path)
            owner = ProvenanceSession(PolynomialSet(list(session.polynomials)), session.forest)
            with timer.section("extend") as section:
                result = owner.extend(inputs["deltas"][query], artifact)
            record["extend_ms"][key] = section.seconds * 1e3
            result.artifact.save(path)
            state.paths[key] = path
            state.owners[key] = owner
    record["granularity_kept"] = sum(kept) / len(kept)
    record["artifact_bytes"] = size
    return state


def discard(state):
    pass


def measure(state, seconds, flows, ledger):
    from repro.api.artifact import CompressedProvenance
    from repro.scenarios.sweep import Sweep

    scenarios = common.NodeScenarios(state.seed)
    suite = scenarios.suite(SUITE_SIZE)
    keys = sorted(state.paths)
    picks = [(key, scenarios.draw()) for key in common.pick_sequence(keys, ASKS_PER_PASS)]
    sweep = Sweep.random(common.leaf_variables(), SWEEP_SIZE, changes=20, seed=state.seed)
    passes = []
    latencies = []
    # The sharded sweeps run last: forking the pool leaves the parent's
    # pages copy-on-write, and the first touches after it would land on
    # whatever is timed next.
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds * ASK_SHARE:
        with flows.section("load"):
            artifacts = {
                key: CompressedProvenance.load(state.paths[key], mmap=True) for key in keys
            }
        analyst.warm(artifacts.values(), suite[0])
        suite_times, answers = analyst.ask_suite(artifacts, suite, flows, ledger)
        asked, _ = analyst.ask_singles(
            [(artifacts[key], scenario) for key, scenario in picks], flows, ledger
        )
        latencies.extend(asked)
        passes.append({"suite_s": suite_times, "asks_per_s": common.steady_rate(asked)})
    sweeps = []
    while not sweeps or time.perf_counter() < start + seconds:
        sweep_s, ranking = analyst.run_sweep(
            artifacts[("q1", 2)], sweep, analyst.workers(), flows, ledger
        )
        sweeps.append(sweep_s)
    return {
        "passes": passes, "sweeps": sweeps, "latencies": latencies, "suite": suite,
        "answers": answers, "artifacts": artifacts, "sweep": sweep, "ranking": ranking,
    }


def verify(state, window):
    quality = analyst.Quality()
    raw_seconds = 0.0
    raw_count = 0
    inexact = 0
    for key, owner in sorted(state.owners.items()):
        what = f"sweep {key[0]}/{key[1]}"
        artifact = window["artifacts"][key]
        inexact += common.check_same_cut(artifact, owner.polynomials, window["suite"][:8], what)
        seconds, raw = common.timed(owner.ask_many, window["suite"])
        raw_seconds += seconds
        raw_count += len(raw)
        quality.add(window["answers"][key], common.rows_of(raw), what)
    analyst.check_sweep(
        window["artifacts"][("q1", 2)], window["sweep"], window["ranking"], "sweep"
    )
    window["answer_error"] = quality.answer_error
    window["exact_share"] = quality.exact_share
    window["raw_per_s"] = raw_count / raw_seconds
    window["same_cut_inexact"] = inexact


def metrics(state, window):
    passes = window["passes"]
    latencies = window["latencies"]
    per_pass = common.combine(passes)
    return {
        "suite_per_s": len(state.paths) * SUITE_SIZE / per_pass["suite_s"],
        "sweep_per_s": SWEEP_SIZE / common.median(window["sweeps"]),
        "answer_error": window.get("answer_error"),
        "exact_share": window.get("exact_share"),
        "asks_per_s": per_pass["asks_per_s"],
        "ask_p50_ms": common.percentile(latencies, 50),
        "rss_mb": common.peak_rss_mb(),
    }, {
        "ask_samples": len(latencies),
        "ask_p99_ms": common.percentile(latencies, 99),
        "passes": len(passes),
        "sweeps": len(window["sweeps"]),
        "same_cut_inexact_polynomials": window.get("same_cut_inexact"),
    }
