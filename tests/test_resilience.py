"""Chaos suite: self-healing sweeps, crash-safe store, service limits.

The invariant every scenario here pins: resilience changes the
*schedule*, never the *answer*. A sweep healed through worker crashes,
hung shards, or poisoned workers returns the bit-identical matrix the
serial pass produces; a store that quarantines a corrupt spool write
still hands back the artifact whose answers match a clean store's.
Faults are scheduled deterministically via :mod:`repro.faults`.
"""

import asyncio
import glob
import http.client
import json
import os

import numpy
import pytest

from repro import faults
from repro.api.session import ProvenanceSession
from repro.errors import ArtifactNotFound
from repro.faults import FaultPlan, FaultSpec, installed
from repro.scenarios import Sweep, evaluate_scenarios
from repro.scenarios.parallel import (
    evaluate_scenarios_parallel,
    iter_value_blocks,
)
from repro.service.app import WhatIfService, start_service
from repro.service.http import HttpError, Request
from repro.service.resilience import CircuitBreaker
from repro.service.store import ArtifactStore
from repro.util.retry import RetryPolicy
from repro.workloads.random_polys import random_polynomials

#: Chaos tests heal many times over; slow backoff would dominate.
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


@pytest.fixture(autouse=True)
def _disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def polys():
    pool = [f"v{i}" for i in range(10)]
    return random_polynomials(6, 16, [pool], seed=9, extra_variables=3)


@pytest.fixture(scope="module")
def sweep(polys):
    return Sweep.random(sorted(polys.variables), 900, seed=21, changes=3)


@pytest.fixture(scope="module")
def serial(polys, sweep):
    return evaluate_scenarios(polys, sweep)


class TestHealedSweeps:
    def heal(self, polys, sweep, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        return evaluate_scenarios_parallel(
            polys, sweep, workers=2, min_parallel=0, chunk_size=128, **kwargs
        )

    def test_worker_crash_heals_bit_identical(
        self, polys, sweep, serial, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("worker.start", "crash", once=True)],
            token_dir=tmp_path,
        )
        with installed(plan, env=True):
            healed = self.heal(polys, sweep)
        assert numpy.array_equal(serial, healed)

    def test_shard_exception_retries_bit_identical(
        self, polys, sweep, serial, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("shard.evaluate", "exception", at=2, once=True)],
            token_dir=tmp_path,
        )
        with installed(plan, env=True):
            healed = self.heal(polys, sweep)
        assert numpy.array_equal(serial, healed)

    def test_poisoned_shards_quarantine_to_parent(
        self, polys, sweep, serial
    ):
        # Every worker-side evaluation fails, forever: after the retry
        # budget each shard degrades to in-process evaluation — the
        # sweep completes (slowly), it does not error out.
        plan = FaultPlan(
            [FaultSpec("shard.evaluate", "exception", count=10**9)]
        )
        poison_retry = RetryPolicy(
            attempts=2, base_delay=0.001, max_delay=0.002
        )
        with installed(plan, env=True):
            healed = self.heal(polys, sweep, retry=poison_retry)
        assert numpy.array_equal(serial, healed)

    def test_hung_worker_times_out_and_heals(
        self, polys, sweep, serial, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("shard.evaluate", "delay", delay=5.0, once=True)],
            token_dir=tmp_path,
        )
        with installed(plan, env=True):
            healed = self.heal(polys, sweep, shard_timeout=0.3)
        assert numpy.array_equal(serial, healed)

    def test_iter_value_blocks_heals_in_submission_order(
        self, polys, sweep, serial, tmp_path
    ):
        plan = FaultPlan(
            [FaultSpec("shard.evaluate", "exception", once=True)],
            token_dir=tmp_path,
        )
        with installed(plan, env=True):
            blocks = list(iter_value_blocks(
                polys, sweep, workers=2, chunk_size=128, retry=FAST_RETRY
            ))
        starts = [start for start, _, _ in blocks]
        assert starts == sorted(starts)
        stitched = numpy.concatenate([v for _, _, v in blocks], axis=0)
        assert numpy.array_equal(serial, stitched)

    def test_healing_leaves_no_dev_shm_segments(
        self, polys, sweep, tmp_path
    ):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(glob.glob("/dev/shm/repro-*"))
        plan = FaultPlan(
            [FaultSpec("worker.start", "crash", once=True)],
            token_dir=tmp_path,
        )
        with installed(plan, env=True):
            self.heal(polys, sweep)
        assert set(glob.glob("/dev/shm/repro-*")) == before


POLYNOMIALS = [
    "2*b1*m1 + 3*b2*m1 + b3*m2",
    "b1*m2 + 4*b2*m2 + 2*b3*m1",
]
FOREST = [["SB", ["b1", "b2", "b3"]], ["SM", ["m1", "m2"]]]
PROBE = {"b1": 0.5, "b2": 0.25}


def build_artifact(seed=2):
    session = ProvenanceSession.from_strings(
        [f"{seed}*b1*m1 + 3*b2*m1", "b1*m2 + b3*m2"],
        forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
    )
    return session.compress(2, algorithm="greedy")


class TestStoreRecovery:
    def test_startup_quarantines_corruption_and_reaps_temps(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact_id = store.put(build_artifact())
        # Simulate a crash mid-put plus on-disk corruption plus junk.
        spool = store.path_of(artifact_id)
        blob = bytearray(spool.read_bytes())
        blob[-1] ^= 0xFF
        spool.write_bytes(bytes(blob))
        (tmp_path / ".incoming-orphan.rpb").write_bytes(b"partial write")
        (tmp_path / "not-a-content-hash.rpb").write_bytes(b"junk")

        reopened = ArtifactStore(tmp_path)
        stats = reopened.stats()
        assert stats["quarantined"] == 2
        assert stats["reaped_temps"] == 1
        assert stats["spooled"] == 0
        with pytest.raises(ArtifactNotFound):
            reopened.get(artifact_id)
        names = {p.name for p in (tmp_path / "quarantine").iterdir()}
        assert names == {f"{artifact_id}.rpb", "not-a-content-hash.rpb"}

    def test_clean_store_recovery_is_a_noop(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact_id = store.put(build_artifact())
        baseline = store.get(artifact_id).artifact.ask(PROBE).values

        reopened = ArtifactStore(tmp_path)
        assert reopened.stats()["quarantined"] == 0
        assert reopened.get(artifact_id).artifact.ask(PROBE).values == baseline

    def test_put_retries_through_a_corrupted_spool_write(self, tmp_path):
        clean = ArtifactStore(tmp_path / "clean")
        want_id = clean.put(build_artifact())
        baseline = clean.get(want_id).artifact.ask(PROBE).values

        # Corrupt exactly the first spool write (offset 0 breaks the
        # container magic, so decode-verification catches it).
        plan = FaultPlan(
            [FaultSpec("store.spool_write", "corrupt", at=1, offset=0)]
        )
        store = ArtifactStore(tmp_path / "chaos", retry=FAST_RETRY)
        with installed(plan):
            artifact_id = store.put(build_artifact())
        assert artifact_id == want_id
        assert store.quarantined == 1  # the torn write, kept for forensics
        assert store.get(artifact_id).artifact.ask(PROBE).values == baseline

    def test_put_exhausting_retries_raises_serialize_error(self, tmp_path):
        from repro.errors import SerializeError

        plan = FaultPlan(
            [FaultSpec("store.spool_write", "corrupt", offset=0,
                       count=10**9)]
        )
        store = ArtifactStore(tmp_path, retry=FAST_RETRY)
        with installed(plan):
            with pytest.raises(SerializeError, match="after 3 attempts"):
                store.put(build_artifact())


class TestRetryPolicy:
    def test_delays_grow_capped_and_deterministic(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.25, seed=3
        )
        spans = [policy.delay(attempt, "t") for attempt in (1, 2, 3, 4)]
        assert spans == [policy.delay(attempt, "t") for attempt in (1, 2, 3, 4)]
        assert 0.1 <= spans[0] <= 0.125  # base + up to 25% jitter
        assert spans[3] <= 0.5  # capped at max_delay + jitter
        assert policy.delay(1, "other-token") != spans[0]

    def test_call_retries_then_returns(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0)
        assert policy.call(flaky, sleep=lambda span: None) == "ok"
        assert len(attempts) == 3

    def test_call_exhausts_budget_and_reraises(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0)
        attempts = []

        def doomed():
            attempts.append(1)
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            policy.call(doomed, sleep=lambda span: None)
        assert len(attempts) == 2

    def test_call_propagates_non_retryable_immediately(self):
        policy = RetryPolicy(attempts=4, base_delay=0.0, jitter=0.0)
        attempts = []

        def wrong():
            attempts.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(wrong, sleep=lambda span: None)
        assert len(attempts) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def test_trips_half_opens_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, cooldown=10.0, clock=lambda: clock[0]
        )
        breaker.admit("a")
        breaker.record_failure("a")
        breaker.admit("a")  # one failure: still closed
        breaker.record_failure("a")  # trips
        with pytest.raises(HttpError) as caught:
            breaker.admit("a")
        assert caught.value.status == 503
        assert "Retry-After" in caught.value.headers
        clock[0] = 11.0
        breaker.admit("a")  # past cooldown: half-open trial admitted
        breaker.record_failure("a")  # failed trial re-opens immediately
        with pytest.raises(HttpError):
            breaker.admit("a")
        clock[0] = 22.0
        breaker.admit("a")
        breaker.record_success("a")
        breaker.admit("a")  # closed again
        snapshot = breaker.snapshot()
        assert snapshot["a"]["state"] == "closed"
        assert snapshot["a"]["trips"] == 2
        assert snapshot["a"]["consecutive_failures"] == 0

    def test_keys_are_independent_and_clean_keys_invisible(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure("bad")
        breaker.admit("good")  # untouched key admits freely
        assert set(breaker.snapshot()) == {"bad"}
        with pytest.raises(HttpError):
            breaker.admit("bad")

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)


def artifact_body(bound=2):
    return {"polynomials": POLYNOMIALS, "forest": FOREST, "bound": bound,
            "algorithm": "greedy"}


def call(port, method, path, body=None):
    """One HTTP request; returns (status, headers dict, json body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    payload = json.dumps(body).encode() if body is not None else None
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )
    finally:
        conn.close()


async def until(condition, timeout=10.0):
    """Poll ``condition`` on the event loop; fail after ``timeout`` s."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not condition():
        assert loop.time() < give_up, "condition not reached in time"
        await asyncio.sleep(0.005)


def with_server(scenario, **service_kwargs):
    async def main(tmp_path):
        server = await start_service(tmp_path, **service_kwargs)
        try:
            return await scenario(server)
        finally:
            await server.aclose()

    return main


class TestServiceResilience:
    def test_deadline_expiry_is_504(self, tmp_path, hold):
        """An ask parked past its deadline answers 504 and leaves its
        batch unevaluated. A request admitted in the same loop turn
        that never parks (``GET /hold``, never released) keeps the ask
        parked; both outlive the 0.2 s deadline."""
        service = WhatIfService(ArtifactStore(tmp_path), deadline=0.2)
        artifact_id = service.store.put(build_artifact())
        ask = Request(
            "POST", f"/artifacts/{artifact_id}/ask", "HTTP/1.1",
            body=json.dumps({"scenario": {"changes": PROBE}}).encode(),
        )

        async def scenario():
            return await asyncio.gather(
                service.handle(ask),
                service.handle(Request("GET", "/hold", "HTTP/1.1")),
                return_exceptions=True,
            )

        replies = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert [getattr(reply, "status", reply) for reply in replies] == [
            504, 504]
        assert "deadline" in str(replies[0])
        assert (service.batcher.pending, service.batcher.batches) == (0, 0)
        health = service._healthz()
        assert health["resilience"]["timed_out"] == 2
        assert health["resilience"]["deadline_seconds"] == 0.2

    def test_backpressure_sheds_with_retry_after(self, tmp_path, hold):
        async def scenario(server):
            port = server.port
            status, _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            assert status == 201
            held = asyncio.ensure_future(
                asyncio.to_thread(call, port, "GET", "/hold"))
            await until(lambda: server.service._inflight == 1)
            shed = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{created['id']}/ask",
                {"scenario": {"changes": PROBE}})
            hold.set()  # the slot frees once the held request leaves
            held_status, _, _ = await held
            admitted = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{created['id']}/ask",
                {"scenario": {"changes": PROBE}})
            return shed, held_status, admitted

        (status, headers, body), held_status, (ask_status, _, ask_body) = (
            asyncio.run(with_server(scenario, max_pending=1)(tmp_path)))
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "admission queue full" in body["error"]["message"]
        assert held_status == 200
        assert ask_status == 200
        assert ask_body["answers"][0]["values"]

    def test_repeated_map_failures_open_the_breaker(self, tmp_path):
        async def scenario(server):
            port = server.port
            status, _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            artifact_id = created["id"]
            # Evict the resident copy, then corrupt the spool file:
            # every re-map now fails its content-hash check.
            server.service.store._entries.clear()
            path = server.service.store.path_of(artifact_id)
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            statuses = []
            for _ in range(3):
                status, headers, _ = await asyncio.to_thread(
                    call, port, "GET", f"/artifacts/{artifact_id}")
                statuses.append((status, headers.get("Retry-After")))
            _, _, health = await asyncio.to_thread(
                call, port, "GET", "/healthz")
            return artifact_id, statuses, health

        artifact_id, statuses, health = asyncio.run(with_server(
            scenario, breaker_threshold=2, breaker_cooldown=60.0)(tmp_path))
        assert [status for status, _ in statuses] == [400, 400, 503]
        assert statuses[2][1] is not None  # Retry-After on the breaker 503
        breakers = health["resilience"]["breakers"]
        assert breakers[artifact_id]["state"] == "open"
        assert breakers[artifact_id]["trips"] == 1

    def test_healthz_reports_queue_config(self, tmp_path):
        async def scenario(server):
            return await asyncio.to_thread(call, server.port, "GET",
                                           "/healthz")

        _, _, health = asyncio.run(with_server(
            scenario, deadline=12.5, max_pending=9)(tmp_path))
        resilience = health["resilience"]
        assert resilience["deadline_seconds"] == 12.5
        assert resilience["max_pending"] == 9
        assert resilience["shed"] == 0
        assert resilience["inflight"] >= 0  # the healthz request itself

    def test_resilience_knobs_validated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="deadline"):
            WhatIfService(store, deadline=0.0)
        with pytest.raises(ValueError, match="max_pending"):
            WhatIfService(store, max_pending=0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
