"""``serve``: the HTTP read and write path.

Q1, Q5 and Q10 are captured through SQL at SF 0.01 once. Each set-up
then starts ``python -m repro serve`` as a subprocess with its deployed
defaults (window 2 ms, max-batch 64, cache-size 8, deadline 30 s,
max-pending 256) and creates 12 artifacts through ``POST /artifacts``
(each query at |P|/2, /4, /8 and /16) — more than the store's cache
holds.

The window is a closed loop: one client process and one keep-alive
connection, which sends its next request only after the previous reply.
One connection keeps a single request in flight, so client and server
alternate on the two cores; with two, a neighbour's load on either core
moved the figures by up to 40% between runs. A request is one
node-level scenario asked of an artifact picked with a fixed Zipf skew
(the same pick sequence for every seed), so the hot set fits the LRU
and a steady tail misses. Every ``EXTEND_EVERY``-th request extends a
Q1 artifact over HTTP with the delta's provenance and asks the new id;
Q1's cuts leave room for the delta, so no extend crosses the drift
limit. After the window, suites and a random sweep are asked as
batches (``"scenarios"``) to give the batch-ask figures. The run
repeats set-up, window and probes in three rounds on fresh servers.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import common
from flows import Flows

#: Three rounds of set-up, a third of the window and the batch probes,
#: each on a fresh server: the figures are medians over rounds spread
#: over the whole run, so one slow stretch of the box moves one round.
SETUP_REPEATS = 1
ROUNDS = 3
SERVER = True

CONNECTIONS = 1
DIVISORS = (2, 4, 8, 16)
#: Popularity order (most asked first); a fixed order, so every seed
#: has the same hot set.
POPULARITY = [(query, divisor) for divisor in (4, 8, 2, 16) for query in ("q5", "q10", "q1")]
ZIPF_WEIGHTS = [1 / (rank + 1) for rank in range(len(POPULARITY))]
EXTEND_EVERY = 100
#: Length of each connection's fixed artifact-pick sequence (reused
#: cyclically; a window sends far fewer requests).
PICKS = 50_000
#: The first QUALITY_PREFIX asks of each connection feed answer_error
#: and exact_share, so both are deterministic for a seed.
QUALITY_PREFIX = 250
#: The request loop and the probes are timed as measured, not in
#: calibrated sections: they interleave the client and the server
#: process, and a loop in one process did not track them (correlation
#: 0.0–0.3 over 3-second windows on the reference box). Set-up's creates
#: are one long CPU-bound request at a time and are calibrated sections
#: like the captures.
SUITE_SIZE = 64
SWEEP_SIZE = 2000
SWEEP_BATCH = 250
BOOT_SECONDS = 30


class State:
    def __init__(self, inputs, directory, traced):
        self.seed = inputs["seed"]
        self.texts = inputs["texts"]
        self.monomials = inputs["monomials"]
        self.delta_texts = inputs["delta_texts"]
        self.raw = inputs["raw"]
        self.directory = directory
        self.traced = traced
        self.spool = os.path.join(directory, "spool")
        self.trace_dir = os.path.join(directory, "trace")
        self.process = None
        self.port = None
        self.ids = {}
        self.record = {}
        self.ledger = common.Ledger()
        self.snapshots = 0


# ------------------------------------------------------------------ client


class Client:
    """One keep-alive connection; ``request`` returns ``(status, body)``."""

    def __init__(self, port):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self):
        self.connection.close()


def _boot(state):
    os.makedirs(state.trace_dir, exist_ok=True)
    serve_args = ["serve", "--port", "0", "--spool-dir", state.spool]
    if state.traced:
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "serve_traced.py"), state.trace_dir,
                   *serve_args]
    else:
        command = [sys.executable, "-m", "repro", *serve_args]
    log_path = os.path.join(state.directory, "server.log")
    with open(log_path, "w") as log:
        state.process = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, cwd=common.ROOT,
            env=common.program_env(),
        )
    deadline = time.monotonic() + BOOT_SECONDS
    while time.monotonic() < deadline:
        with open(log_path) as log:
            match = re.search(r"serving on http://[\d.]+:(\d+)", log.read())
        if match:
            state.port = int(match.group(1))
            return
        if state.process.poll() is not None:
            raise RuntimeError(f"server exited during start-up (rc={state.process.returncode})")
        time.sleep(0.02)
    raise RuntimeError("server never reported its port")


def discard(state):
    """Stop the server gracefully (SIGINT), and make sure it has ended."""
    process = state.process
    if process is None:
        return
    state.process = None
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)


def _forest_spec():
    return [tree.to_nested() for tree in common.trees()]


def prepare(seed):
    """TPC-H captured once, as the polynomial strings the client sends."""
    from repro.core.parser import parse_set

    base, delta = common.generate_databases(seed)
    delta_texts = [str(p) for p in common.capture(delta, "q1").polynomials]
    captures, sessions = common.timed_captures(base)
    texts = {
        query: [str(polynomial) for polynomial in session.polynomials]
        for query, session in sessions.items()
    }
    monomials = {query: session.polynomials.num_monomials for query, session in sessions.items()}
    inputs = {
        "seed": seed,
        "texts": texts,
        "monomials": monomials,
        "delta_texts": delta_texts,
        "raw": {query: parse_set(strings) for query, strings in texts.items()},
    }
    return inputs, {"capture_s": captures}


def setup(inputs, directory, traced=False):
    """Boot the server and create the 12 artifacts over HTTP."""
    state = State(inputs, directory, traced)
    record = {"compress_s": {}}
    try:
        _boot(state)
        client = Client(state.port)
        kept = []
        size = 0
        forest = _forest_spec()
        timer = Flows()
        try:
            for query, divisor in POPULARITY:
                body = {
                    "polynomials": state.texts[query],
                    "forest": forest,
                    "bound": max(1, state.monomials[query] // divisor),
                }
                with common.attempt(state.ledger, "create"), timer.section("compress") as section:
                    status, reply = client.request("POST", "/artifacts", body)
                    if status != 201:
                        raise RuntimeError(f"create failed: {status} {reply}")
                record["compress_s"][(query, divisor)] = section.seconds
                state.ids[(query, divisor)] = reply["id"]
                stats = reply["stats"]
                kept.append(stats["abstracted_granularity"] / stats["original_granularity"])
                size += os.path.getsize(os.path.join(state.spool, reply["id"] + ".rpb"))
        finally:
            client.close()
    except BaseException:
        discard(state)
        raise
    record["granularity_kept"] = sum(kept) / len(kept)
    record["artifact_bytes"] = size
    state.record = record
    return state


# ----------------------------------------------------------------- window


def _snapshot(state):
    """The traced server's layer totals now (``None`` when untraced)."""
    if not state.traced:
        return None
    state.snapshots += 1
    path = os.path.join(state.trace_dir, f"snapshot-{state.snapshots}.json")
    state.process.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 10
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError("traced server wrote no snapshot")
        time.sleep(0.005)
    with open(path) as handle:
        return json.load(handle)


def _bracket(state, flows, name, before):
    if before is not None:
        import tracing

        flows.add(name, tracing.diff(before, _snapshot(state)))


class Connection(threading.Thread):
    """One closed-loop client connection over a deterministic request stream."""

    def __init__(self, state, index, deadline, ledger):
        super().__init__(name=f"perfbench-conn-{index}")
        self.state = state
        self.deadline = deadline
        self.ledger = ledger
        self.picks = common.pick_sequence(
            POPULARITY, PICKS, weights=ZIPF_WEIGHTS, stream=index
        )
        self.scenarios = common.NodeScenarios(f"{state.seed}/{index}")
        self.asks = []  # (artifact id, changes, values, exact, ms, done at)
        self.extends = []  # (source id, new id, ms)
        self.statuses = {}
        self.error = None

    def _ask(self, client, artifact_id):
        changes = self.scenarios.changes()
        start = time.perf_counter()
        status, reply = client.request(
            "POST", f"/artifacts/{artifact_id}/ask", {"scenario": {"changes": changes}}
        )
        done = time.perf_counter()
        self._count("ask", status)
        if status == 200:
            answer = reply["answers"][0]
            self.asks.append((
                artifact_id, changes, tuple(answer["values"]), answer["exact"],
                (done - start) * 1e3, done,
            ))

    def _extend(self, client, count):
        source = self.state.ids[("q1", DIVISORS[count % len(DIVISORS)])]
        start = time.perf_counter()
        status, reply = client.request(
            "POST", f"/artifacts/{source}/extend", {"polynomials": self.state.delta_texts}
        )
        elapsed = (time.perf_counter() - start) * 1e3
        self._count("extend", status)
        if status != 201:
            return None
        self.extends.append((source, reply["id"], elapsed))
        return reply["id"]

    def _count(self, kind, status):
        self.ledger.record(kind, 200 <= status < 300)
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def run(self):
        client = Client(self.state.port)
        try:
            sent = 0
            while time.perf_counter() < self.deadline:
                sent += 1
                if sent % EXTEND_EVERY == 0:
                    new_id = self._extend(client, sent // EXTEND_EVERY)
                    if new_id is not None:
                        self._ask(client, new_id)
                    continue
                key = self.picks[sent % PICKS]
                self._ask(client, self.state.ids[key])
        except Exception as error:  # reported by the caller after join
            self.error = error
        finally:
            client.close()


def _healthz(state):
    client = Client(state.port)
    try:
        status, body = client.request("GET", "/healthz")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return body


def _batch_asks(state, flows, name, requests, ledger):
    """Batch asks (``"scenarios"``) over one connection;
    ``(seconds, records)``."""
    client = Client(state.port)
    seconds = 0.0
    records = []
    before = _snapshot(state)
    try:
        for artifact_id, batch in requests:
            body = {"scenarios": [{"changes": changes} for changes in batch]}
            start = time.perf_counter()
            status, reply = client.request("POST", f"/artifacts/{artifact_id}/ask", body)
            seconds += time.perf_counter() - start
            ledger.record("ask", status == 200)
            if status != 200:
                raise RuntimeError(f"batch ask failed: {status} {reply}")
            records.append((artifact_id, batch, reply["answers"]))
    finally:
        client.close()
    _bracket(state, flows, name, before)
    return seconds, records


def measure(state, seconds, flows, ledger):
    from repro.scenarios.sweep import Sweep

    health_before = _healthz(state)
    before = _snapshot(state)
    start = time.perf_counter()
    connections = [
        Connection(state, index, start + seconds, ledger) for index in range(CONNECTIONS)
    ]
    for connection in connections:
        connection.start()
    for connection in connections:
        connection.join()
    wall = time.perf_counter() - start
    _bracket(state, flows, "serve", before)
    for connection in connections:
        if connection.error is not None:
            raise connection.error
    health_after = _healthz(state)

    suite = common.NodeScenarios(state.seed).suite(SUITE_SIZE)
    suite_changes = [scenario.changes for scenario in suite]
    suite_s, suite_records = _batch_asks(
        state, flows, "suite",
        [(state.ids[key], suite_changes) for key in POPULARITY], ledger,
    )
    sweep = Sweep.random(common.leaf_variables(), SWEEP_SIZE, changes=20, seed=state.seed)
    changes = [sweep.changes_at(index) for index in range(SWEEP_SIZE)]
    target = state.ids[("q1", 2)]
    sweep_s, sweep_records = _batch_asks(
        state, flows, "sweep",
        [(target, changes[i:i + SWEEP_BATCH]) for i in range(0, SWEEP_SIZE, SWEEP_BATCH)],
        ledger,
    )
    return {
        "wall": wall,
        "start": start,
        "connections": connections,
        "health": (health_before, health_after),
        "suite_per_s": len(POPULARITY) * SUITE_SIZE / suite_s,
        "sweep_per_s": SWEEP_SIZE / sweep_s,
        "batches": suite_records + sweep_records,
        "rss_mb": common.peak_rss_mb(state.process.pid),
        "serve_totals": flows.totals.get("serve", {}),
    }


# ------------------------------------------------------------ verification


def _provenance(state, extended):
    """The raw provenance behind each artifact id the window touched."""
    from repro.core.polynomial import PolynomialSet

    sources = {artifact_id: key[0] for key, artifact_id in state.ids.items()}
    raw = {artifact_id: state.raw[query] for artifact_id, query in sources.items()}
    delta = None
    for source, new_id in extended.items():
        if delta is None:
            from repro.core.parser import parse_set

            delta = parse_set(state.delta_texts)
        raw[new_id] = PolynomialSet(list(raw[source]) + list(delta))
    return raw


def verify(state, window):
    """Served answers vs in-process ``ask_many`` on the spooled artifact,
    exact answers vs raw provenance, extends vs a same-cut recompress,
    and the client's failure counts vs ``/healthz``."""
    from repro.api.artifact import CompressedProvenance
    from repro.api.session import ProvenanceSession
    from repro.scenarios.scenario import Scenario

    import analyst

    connections = window["connections"]
    extended = {}
    for connection in connections:
        for source, new_id, _ in connection.extends:
            extended[source] = new_id
    raw = _provenance(state, extended)

    served = {}  # artifact id -> [(changes, values, exact, in prefix)]
    for connection in connections:
        for position, (artifact_id, changes, values, exact, *_) in enumerate(connection.asks):
            served.setdefault(artifact_id, []).append(
                (changes, values, exact, position < QUALITY_PREFIX)
            )
    for artifact_id, batch, answers in window["batches"]:
        for changes, answer in zip(batch, answers, strict=True):
            served.setdefault(artifact_id, []).append(
                (changes, tuple(answer["values"]), answer["exact"], False)
            )

    quality = analyst.Quality()
    raw_seconds = 0.0
    raw_count = 0
    for artifact_id, entries in sorted(served.items()):
        what = f"serve {artifact_id[:12]}"
        artifact = CompressedProvenance.load(
            os.path.join(state.spool, artifact_id + ".rpb"), mmap=True
        )
        scenarios = [Scenario(f"s{i}", changes) for i, (changes, *_) in enumerate(entries)]
        direct = artifact.ask_many(scenarios)
        for (changes, values, exact, _), answer in zip(entries, direct, strict=True):
            if values != tuple(answer.values) or exact != answer.exact:
                raise common.VerificationError(
                    f"{what}: served answer differs from in-process ask_many"
                )
        if artifact_id in extended.values():
            common.check_same_cut(artifact, raw[artifact_id], scenarios[:8], what)
        # The raw provenance is asked only what its answers are checked
        # against: the answers flagged exact, and the quality prefix.
        checked = [i for i, (_, _, exact, in_prefix) in enumerate(entries) if exact or in_prefix]
        if not checked:
            continue
        seconds, reference = common.timed(
            ProvenanceSession.from_polynomials(raw[artifact_id]).ask_many,
            [scenarios[i] for i in checked],
        )
        raw_seconds += seconds
        raw_count += len(reference)
        reference = dict(zip(checked, common.rows_of(reference), strict=True))
        common.check_exact([direct[i] for i in checked], list(reference.values()), what)
        prefix = [i for i, entry in enumerate(entries) if entry[3]]
        quality.add([direct[i] for i in prefix], [reference[i] for i in prefix], what)

    before, after = window["health"]
    shed = after["resilience"]["shed"] - before["resilience"]["shed"]
    timed_out = after["resilience"]["timed_out"] - before["resilience"]["timed_out"]
    seen_503 = sum(c.statuses.get(503, 0) for c in connections)
    seen_504 = sum(c.statuses.get(504, 0) for c in connections)
    if (shed, timed_out) != (seen_503, seen_504):
        raise common.VerificationError(
            f"/healthz counts shed={shed} timed_out={timed_out}, the client saw "
            f"{seen_503} 503s and {seen_504} 504s"
        )
    window["answer_error"] = quality.answer_error
    window["exact_share"] = quality.exact_share
    window["raw_per_s"] = raw_count / raw_seconds


def metrics(state, window):
    latencies = [ask[4] for c in window["connections"] for ask in c.asks]
    extends = [extend[2] for c in window["connections"] for extend in c.extends]
    return {
        "extend_ms": common.median(extends),
        "suite_per_s": window["suite_per_s"],
        "sweep_per_s": window["sweep_per_s"],
        "answer_error": window.get("answer_error"),
        "exact_share": window.get("exact_share"),
        "asks_per_s": _steady_rate(
            [ask[5] - window["start"] for c in window["connections"] for ask in c.asks]
        ),
        "ask_p50_ms": common.percentile(latencies, 50),
        "rss_mb": window["rss_mb"],
    }, {
        "ask_samples": len(latencies),
        "ask_p99_ms": common.percentile(latencies, 99),
        "extend_samples": len(extends),
    }


def _steady_rate(offsets, bucket=1.0):
    """Median completions per second over the window's whole buckets."""
    counts = {}
    for offset in offsets:
        counts[int(offset // bucket)] = counts.get(int(offset // bucket), 0) + 1
    whole = [counts.get(index, 0) for index in range(int(max(offsets) // bucket))]
    return common.median(whole or [len(offsets)]) / bucket


def service_metrics(window, totals):
    """Per-layer figures of the serve window from ``/healthz`` and the
    client's latencies next to the server's handler time."""
    before, after = window["health"]
    store_before, store_after = before["store"], after["store"]
    hits = store_after["hits"] - store_before["hits"]
    misses = store_after["misses"] - store_before["misses"]
    sizes = {}
    for size, count in after["batcher"]["batch_size_histogram"].items():
        sizes[int(size)] = count - before["batcher"]["batch_size_histogram"].get(size, 0)
    batches = sum(sizes.values())
    requests = sum(size * count for size, count in sizes.items())
    client_ms = [ask[4] for c in window["connections"] for ask in c.asks]
    client_ms += [extend[2] for c in window["connections"] for extend in c.extends]
    serve = window.get("serve_totals", {})
    handled = serve.get("calls", {}).get("service.handle", 0)
    handle_ms = serve.get("total_ns", {}).get("service.handle", 0) / 1e6
    overhead = (
        sum(client_ms) / len(client_ms) - handle_ms / handled if handled else 0.0
    )
    return {
        "http.overhead_ms": overhead,
        "batcher.mean_batch": requests / batches if batches else 0.0,
        "store.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "store.evictions": store_after["evictions"] - store_before["evictions"],
        "service.shed": after["resilience"]["shed"] - before["resilience"]["shed"],
        "service.timed_out": (
            after["resilience"]["timed_out"] - before["resilience"]["timed_out"]
        ),
    }
