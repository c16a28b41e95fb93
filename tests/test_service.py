"""Tests for the what-if HTTP service (`repro.service`).

Real sockets, in-process server: each scenario boots the asyncio
service on an ephemeral port and talks to it with ``http.client`` from
worker threads (the tests are synchronous; ``asyncio.run`` hosts the
server per test).
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.api.artifact import CompressedProvenance
from repro.api.session import ProvenanceSession
from repro.errors import ArtifactNotFound, SerializeError
from repro.service.app import WhatIfService, start_service
from repro.service.batcher import MicroBatcher
from repro.service.http import Request
from repro.service.store import ArtifactStore
from repro.service.warm import WarmArtifact

POLYNOMIALS = [
    "2*b1*m1 + 3*b2*m1 + b3*m2",
    "b1*m2 + 4*b2*m2 + 2*b3*m1",
]
FOREST = [["SB", ["b1", "b2", "b3"]], ["SM", ["m1", "m2"]]]
SCENARIOS = [
    {"name": "halved", "changes": {"b1": 0.5, "b2": 0.5, "b3": 0.5}},
    {"changes": {"m1": 0.0}},
    {"changes": {"b1": 2.0}},
]


def artifact_body(bound=2, **extra):
    return {"polynomials": POLYNOMIALS, "forest": FOREST, "bound": bound,
            "algorithm": "greedy", **extra}


def call(port, method, path, body=None, raw=None):
    """One HTTP request from the calling thread; returns (status, json)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    payload = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"}
                     if payload else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def with_server(scenario, **service_kwargs):
    """Boot the service on an ephemeral port, run ``scenario(server)``.

    ``scenario`` is an async callable; client HTTP happens in threads
    via ``asyncio.to_thread`` so the event loop stays free to serve.
    """

    async def main(tmp_path):
        server = await start_service(tmp_path, **service_kwargs)
        try:
            return await scenario(server)
        finally:
            await server.aclose()

    return main


async def until(condition, timeout=10.0):
    """Poll ``condition`` on the event loop; fail after ``timeout`` s."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not condition():
        assert loop.time() < give_up, "condition not reached in time"
        await asyncio.sleep(0.005)


def direct_answers(bound=2):
    """The facade's answers for SCENARIOS — the service's ground truth."""
    session = ProvenanceSession.from_strings(
        POLYNOMIALS,
        forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
    )
    artifact = session.compress(bound, algorithm="greedy")
    return artifact.ask_many(
        [dict(s["changes"]) for s in SCENARIOS]
    )


class TestEndToEnd:
    def test_create_describe_ask(self, tmp_path):
        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            assert status == 201
            artifact_id = created["id"]
            assert len(artifact_id) == 64
            assert created["stats"]["mmap_active"] is True
            assert created["stats"]["abstracted_size"] <= 2

            status, described = await asyncio.to_thread(
                call, port, "GET", f"/artifacts/{artifact_id}")
            assert status == 200
            assert described["stats"] == created["stats"]

            status, single = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/ask",
                {"scenario": SCENARIOS[0]})
            assert status == 200
            assert single["answers"][0]["name"] == "halved"

            status, batch = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/ask",
                {"scenarios": SCENARIOS})
            assert status == 200
            assert [a["name"] for a in batch["answers"]] == [
                "halved", "scenario-1", "scenario-2"]
            return single, batch

        single, batch = asyncio.run(with_server(scenario)(tmp_path))
        want = direct_answers()
        got = [tuple(a["values"]) for a in batch["answers"]]
        assert got == [a.values for a in want]
        assert [a["exact"] for a in batch["answers"]] == [
            a.exact for a in want]
        assert tuple(single["answers"][0]["values"]) == want[0].values

    def test_create_is_idempotent(self, tmp_path):
        async def scenario(server):
            port = server.port
            results = [
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts", artifact_body())
                for _ in range(2)
            ]
            return results

        (s1, first), (s2, second) = asyncio.run(
            with_server(scenario)(tmp_path))
        assert s1 == s2 == 201
        assert first["id"] == second["id"]

    def test_extend_then_ask_round_trip(self, tmp_path):
        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body(bound=2))
            assert status == 201
            artifact_id = created["id"]

            status, extended = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/extend",
                {"polynomials": ["3*b1*m1 + b2*m2"], "drift_limit": 1e9})
            assert status == 201
            assert extended["path"] == "repaired"
            assert extended["revision"] == 1
            assert extended["added_polynomials"] == 1
            assert extended["added_monomials"] == 2
            new_id = extended["id"]
            assert len(new_id) == 64 and new_id != artifact_id
            assert extended["artifact"]["revision"] == 1

            status, answers = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{new_id}/ask",
                {"scenarios": SCENARIOS})
            assert status == 200
            # The pre-extend artifact still serves under its old id.
            status, old = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/ask",
                {"scenarios": SCENARIOS})
            assert status == 200
            return answers, old

        answers, old = asyncio.run(with_server(scenario)(tmp_path))
        # Ground truth: extend the same session's artifact through the API.
        session = ProvenanceSession.from_strings(
            POLYNOMIALS + ["3*b1*m1 + b2*m2"],
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        # Same cut: the service repaired under the original artifact's
        # VVS, which re-compressing the base provenance reproduces.
        base = ProvenanceSession.from_strings(
            POLYNOMIALS,
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        artifact = base.compress(2, algorithm="greedy")
        from repro.core.abstraction import abstract

        want = [
            tuple(value for value in answer.values)
            for answer in type(artifact)(
                abstract(session.polynomials, artifact.vvs),
                artifact.forest, artifact.vvs,
                algorithm=artifact.algorithm, bound=artifact.bound,
                original_size=session.polynomials.num_monomials,
                original_granularity=session.polynomials.num_variables,
                monomial_loss=0, variable_loss=0,
            ).ask_many([dict(s["changes"]) for s in SCENARIOS])
        ]
        assert [tuple(a["values"]) for a in answers["answers"]] == want
        assert [tuple(a["values"]) for a in old["answers"]] == [
            a.values for a in direct_answers()]

    def test_extend_drift_overflow_is_422(self, tmp_path):
        async def scenario(server):
            port = server.port
            _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body(bound=2))
            artifact_id = created["id"]
            return await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/extend",
                {"polynomials": ["z1*w1 + z2*w2 + z3*w3"],
                 "drift_limit": 0.0})

        status, body = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 422
        assert "drift" in body["error"]["message"] or (
            "bound" in body["error"]["message"])

    def test_extend_malformed_bodies_are_400(self, tmp_path):
        async def scenario(server):
            port = server.port
            _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body(bound=2))
            artifact_id = created["id"]
            cases = []
            for body in (
                {},  # missing polynomials
                {"polynomials": []},  # empty
                {"polynomials": [7]},  # not strings
                {"polynomials": ["b1*m1"], "drift_limit": "lots"},
                {"polynomials": ["b1*m1"], "options": {}},  # no knobs
            ):
                status, _ = await asyncio.to_thread(
                    call, port, "POST",
                    f"/artifacts/{artifact_id}/extend", body)
                cases.append(status)
            status, _ = await asyncio.to_thread(
                call, port, "GET", f"/artifacts/{artifact_id}/extend")
            cases.append(status)
            return cases

        assert asyncio.run(with_server(scenario)(tmp_path)) == [
            400, 400, 400, 400, 400, 405]

    def test_unparseable_polynomial_is_400_naming_its_index(self, tmp_path):
        async def scenario(server):
            port = server.port
            create = await asyncio.to_thread(
                call, port, "POST", "/artifacts",
                artifact_body(polynomials=[*POLYNOMIALS, "b1*m1 + $ b2"]))
            _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            extend = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{created['id']}/extend",
                {"polynomials": ["b1*m1", "2*b2*m2 +"]})
            return create, extend

        (create, created), (extend, extended) = asyncio.run(
            with_server(scenario)(tmp_path))
        assert (create, extend) == (400, 400)
        assert created["error"]["message"] == (
            "ParseError: polynomial 2: offset 8: unexpected '$ b2'")
        assert extended["error"]["message"] == (
            "ParseError: polynomial 1: offset 9: unexpected end of text")

    def test_non_finite_coefficient_is_400(self, tmp_path):
        """Text whose coefficient overflows (``1e999``) is refused on
        create and extend, so no answer can render as ``Infinity``."""
        async def scenario(server):
            port = server.port
            create = await asyncio.to_thread(
                call, port, "POST", "/artifacts",
                artifact_body(polynomials=["1e999*b1*m1 + 2*b2*m1"]))
            _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            extend = await asyncio.to_thread(
                call, port, "POST", f"/artifacts/{created['id']}/extend",
                {"polynomials": ["b1*m1", "1e308*b2*m2 + 1e308*b2*m2"]})
            return create, extend

        (create, created), (extend, extended) = asyncio.run(
            with_server(scenario)(tmp_path))
        assert (create, extend) == (400, 400)
        assert created["error"]["message"] == (
            "ParseError: polynomial 0: offset 0: coefficient is not a "
            "finite number")
        assert extended["error"]["message"] == (
            "ParseError: polynomial 1: offset 14: coefficient is not a "
            "finite number")

    def test_healthz_reports_counters(self, tmp_path):
        async def scenario(server):
            port = server.port
            await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            return await asyncio.to_thread(call, port, "GET", "/healthz")

        status, health = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 200
        assert health["status"] == "ok"
        assert health["store"]["resident"] == 1
        assert health["store"]["spooled"] == 1
        assert "batch_size_histogram" in health["batcher"]


class TestCoalescing:
    def test_concurrent_asks_share_one_evaluator_call(
        self, tmp_path, monkeypatch, hold
    ):
        """K single-scenario requests parked while another admitted
        request is unparked wait, turn after turn, and are answered by
        exactly one ``CompressedProvenance.ask_many`` call once it
        leaves."""
        calls = []
        real_ask_many = CompressedProvenance.ask_many

        def counting_ask_many(self, scenarios, default=1.0):
            scenarios = list(scenarios)
            calls.append(len(scenarios))
            return real_ask_many(self, scenarios, default=default)

        monkeypatch.setattr(
            CompressedProvenance, "ask_many", counting_ask_many)
        concurrency = 6

        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            assert status == 201
            artifact_id = created["id"]
            calls.clear()  # ignore any warming traffic
            held = asyncio.ensure_future(
                asyncio.to_thread(call, port, "GET", "/hold"))
            await until(lambda: server.service._inflight == 1)

            # Explicit threads: asyncio.to_thread's default pool is
            # too small on 1-CPU boxes to host this many blocked calls.
            results = [None] * concurrency

            def one(index):
                results[index] = call(
                    port, "POST", f"/artifacts/{artifact_id}/ask",
                    {"scenario": {"changes": {"b1": 0.25 * (index + 1)}}})

            threads = [
                threading.Thread(target=one, args=(index,))
                for index in range(concurrency)
            ]
            for thread in threads:
                thread.start()
            batcher = server.service.batcher
            await until(lambda: batcher.pending == concurrency)
            await asyncio.sleep(0.05)
            assert (batcher.pending, batcher.batches) == (concurrency, 0)
            hold.set()
            await until(
                lambda: not any(thread.is_alive() for thread in threads))
            assert (await held)[0] == 200
            return results, dict(batcher.batch_sizes)

        results, histogram = asyncio.run(with_server(scenario)(tmp_path))
        assert [status for status, _ in results] == [200] * concurrency
        assert calls == [concurrency]
        assert histogram == {concurrency: 1}
        # Coalesced answers match what a direct (uncoalesced) ask returns.
        values = {
            json.dumps(body["answers"][0]["values"]) for _, body in results
        }
        assert len(values) == concurrency  # distinct scenarios, distinct rows

    @pytest.mark.parametrize("deadline", [None, 30.0])
    def test_asks_admitted_in_one_turn_share_one_call(
        self, tmp_path, deadline
    ):
        """Asks admitted in one loop turn park before the check runs —
        also when a deadline starts each handler a turn later — and are
        answered by one evaluator call."""
        session = ProvenanceSession.from_strings(
            POLYNOMIALS,
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        artifact = session.compress(2, algorithm="greedy")
        service = WhatIfService(ArtifactStore(tmp_path), deadline=deadline)
        artifact_id = service.store.put(artifact)
        path = f"/artifacts/{artifact_id}/ask"

        async def scenario():
            return await asyncio.gather(*(
                service.handle(Request(
                    "POST", path, "HTTP/1.1",
                    body=json.dumps({"scenario": entry}).encode(),
                ))
                for entry in SCENARIOS
            ))

        replies = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert service.batcher.batch_sizes == {len(SCENARIOS): 1}
        assert [status for status, _ in replies] == [200] * len(SCENARIOS)
        assert [
            tuple(payload["answers"][0]["values"]) for _, payload in replies
        ] == [answer.values for answer in direct_answers()]

    def test_sequential_asks_and_max_batch_one_do_not_coalesce(
        self, tmp_path, hold
    ):
        """Under the defaults, asks sent one after another over one
        connection each flush alone; with ``max_batch=1`` even asks
        parked behind an unparked request never coalesce."""

        def sequential(port, path):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for _ in range(3):
                    conn.request(
                        "POST", path,
                        body=json.dumps(
                            {"scenario": {"changes": {"b1": 0.5}}}).encode(),
                        headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
            finally:
                conn.close()

        async def one_connection(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            await asyncio.to_thread(
                sequential, port, f"/artifacts/{created['id']}/ask")
            return dict(server.service.batcher.batch_sizes)

        async def behind_hold(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            held = asyncio.ensure_future(
                asyncio.to_thread(call, port, "GET", "/hold"))
            await until(lambda: server.service._inflight == 1)
            replies = await asyncio.gather(*(
                asyncio.to_thread(
                    call, port, "POST", f"/artifacts/{created['id']}/ask",
                    {"scenario": entry})
                for entry in SCENARIOS
            ))
            hold.set()
            await held
            return replies, dict(server.service.batcher.batch_sizes)

        assert asyncio.run(with_server(one_connection)(tmp_path)) == {1: 3}
        replies, histogram = asyncio.run(with_server(
            behind_hold, max_batch=1)(tmp_path / "max-batch-1"))
        assert [status for status, _ in replies] == [200] * len(SCENARIOS)
        assert histogram == {1: len(SCENARIOS)}


class TestStoreLru:
    def build_artifact(self, seed):
        session = ProvenanceSession.from_strings(
            [f"{seed}*b1*m1 + 3*b2*m1", "b1*m2 + b3*m2"],
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        return session.compress(2, algorithm="greedy")

    def test_eviction_and_remap_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        first = store.put(self.build_artifact(2))
        baseline = store.get(first).artifact.ask({"b1": 0.5}).values
        second = store.put(self.build_artifact(5))
        assert store.stats()["evictions"] == 1
        assert store.stats()["resident"] == 1
        assert store.stats()["spooled"] == 2
        # The evicted artifact re-maps from its spool file on demand...
        warm = store.get(first)
        assert store.stats()["misses"] == 1
        assert warm.artifact.mmap_active is True
        # ...with identical answers, and evicts the other one in turn.
        assert warm.artifact.ask({"b1": 0.5}).values == baseline
        assert store.stats()["evictions"] == 2
        assert second in store  # spooled, not resident

    def test_lru_order_is_by_use(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        first = store.put(self.build_artifact(2))
        second = store.put(self.build_artifact(5))
        store.get(first)  # promote: now `second` is the LRU entry
        store.put(self.build_artifact(7))
        resident = set(store._entries)
        assert first in resident
        assert second not in resident

    def test_put_is_content_addressed(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=4)
        artifact = self.build_artifact(2)
        assert store.put(artifact) == store.put(artifact)
        assert store.stats()["spooled"] == 1

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            ArtifactStore(tmp_path, capacity=0)


class TestErrorPaths:
    def test_unknown_and_invalid_ids_are_404(self, tmp_path):
        async def scenario(server):
            port = server.port
            return (
                await asyncio.to_thread(
                    call, port, "GET", "/artifacts/" + "0" * 64),
                await asyncio.to_thread(
                    call, port, "GET", "/artifacts/not-a-hash"),
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts/" + "0" * 64 + "/ask",
                    {"scenario": {"changes": {"b1": 0.5}}}),
            )

        (s1, b1), (s2, b2), (s3, b3) = asyncio.run(
            with_server(scenario)(tmp_path))
        assert (s1, s2, s3) == (404, 404, 404)
        for body in (b1, b2, b3):
            assert body["error"]["status"] == 404

    def test_malformed_bodies_are_400(self, tmp_path):
        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            artifact_id = created["id"]
            ask = f"/artifacts/{artifact_id}/ask"
            return (
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts", raw=b"{not json"),
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts", {"bound": 2}),
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts",
                    artifact_body(bound="two")),
                await asyncio.to_thread(
                    call, port, "POST", "/artifacts",
                    artifact_body(options={"engine": "dense"})),
                await asyncio.to_thread(call, port, "POST", ask, {"x": 1}),
                await asyncio.to_thread(
                    call, port, "POST", ask,
                    {"scenario": {"changes": {"b1": "lots"}}}),
                await asyncio.to_thread(
                    call, port, "POST", ask,
                    {"scenario": SCENARIOS[0], "scenarios": SCENARIOS}),
            )

        for status, body in asyncio.run(with_server(scenario)(tmp_path)):
            assert status == 400
            assert body["error"]["status"] == 400
            assert body["error"]["message"]

    def test_incompatible_provenance_and_backend_option_are_400(
        self, tmp_path
    ):
        """A create the compression core cannot serve exactly — provenance
        breaking §2.2 compatibility, or the retired ``backend`` option
        inside the refused ``"options"`` field — is a client error."""
        async def scenario(server):
            port = server.port
            return [
                await asyncio.to_thread(call, port, "POST", "/artifacts", body)
                for body in (
                    {**artifact_body(),
                     "polynomials": ["SB*m1 + b1*m1 + b2*m2 + b3*m1"]},
                    {**artifact_body(), "polynomials": ["b1*b2*m1 + b3*m2"],
                     "algorithm": "auto"},
                    artifact_body(options={"backend": "columnar"}),
                )
            ]

        results = asyncio.run(with_server(scenario)(tmp_path))
        for status, body in results:
            assert status == 400
            assert body["error"]["status"] == 400
        messages = [body["error"]["message"] for _, body in results]
        assert "meta-variable 'SB'" in messages[0]
        assert "more than one node" in messages[1]
        assert "'options'" in messages[2]

    def test_client_cannot_set_the_process_count(self, tmp_path, monkeypatch):
        """An ask's ``"options"`` once reached the process pool: with
        ``"workers": N`` and a batch of ``MIN_PARALLEL_SCENARIOS`` the
        server started N processes from its event loop. The field is
        refused, and no served ask reaches the pool."""
        from repro.scenarios import parallel

        reached = []

        def no_pool(shards, *, workers, **kwargs):
            reached.append(workers)
            raise RuntimeError("the service must not start a process pool")

        monkeypatch.setattr(parallel, "_healed_stream", no_pool)
        batch = [
            {"changes": {"b1": 0.5 + index / 1024}}
            for index in range(parallel.MIN_PARALLEL_SCENARIOS)
        ]

        async def scenario(server):
            port = server.port
            _, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            ask = f"/artifacts/{created['id']}/ask"
            return (
                await asyncio.to_thread(
                    call, port, "POST", ask,
                    {"scenarios": batch, "options": {"workers": 2}}),
                await asyncio.to_thread(
                    call, port, "POST", ask, {"scenarios": batch}),
            )

        (refused, body), (answered, answers) = asyncio.run(
            with_server(scenario)(tmp_path))
        assert refused == 400
        assert "'options'" in body["error"]["message"]
        assert answered == 200
        assert len(answers["answers"]) == len(batch)
        assert reached == []

    def test_non_finite_default_is_400(self, tmp_path):
        """``json.loads`` accepts ``NaN`` and ``Infinity``; an ask must
        not, in its ``"default"`` or in a scenario's ``"changes"``: every
        NaN default would add a lift-cache entry, and non-finite answers
        would render as tokens that are not JSON (RFC 8259)."""
        bodies = (
            b'{"default": %s, "scenario": {"changes": {"b1": 2.0}}}',
            b'{"default": %s, "scenarios": [{"changes": {"b1": 2.0}}]}',
            b'{"scenario": {"changes": {"b1": %s}}}',
            b'{"scenarios": [{"changes": {"b1": 2.0}},'
            b' {"changes": {"m1": %s}}]}',
        )

        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            ask = f"/artifacts/{created['id']}/ask"
            replies = []
            for literal in (b"NaN", b"Infinity", b"-Infinity"):
                for body in bodies:
                    replies.append(await asyncio.to_thread(
                        call, port, "POST", ask, raw=body % literal))
            return replies

        for status, body in asyncio.run(with_server(scenario)(tmp_path)):
            assert status == 400
            assert "finite" in body["error"]["message"]

    def test_infeasible_bound_is_422(self, tmp_path):
        async def scenario(server):
            # Two polynomials can never abstract below two monomials —
            # on a single tree, "auto" resolves to the bound-enforcing
            # optimal solver (greedy is best-effort) and must reject
            # bound=1 as infeasible.
            return await asyncio.to_thread(
                call, server.port, "POST", "/artifacts", {
                    "polynomials": ["30*gold", "5*silver"],
                    "forest": [["plans", ["gold", "silver"]]],
                    "bound": 1,
                    "algorithm": "auto",
                })

        status, body = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 422
        assert "InfeasibleBound" in body["error"]["message"]

    def test_wrong_content_hash_is_rejected(self, tmp_path):
        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            artifact_id = created["id"]
            # Evict the resident copy, then tamper with the spool file.
            server.service.store._entries.clear()
            path = server.service.store.path_of(artifact_id)
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            return await asyncio.to_thread(
                call, port, "GET", f"/artifacts/{artifact_id}")

        status, body = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 400
        assert "content hash mismatch" in body["error"]["message"]

    def test_method_not_allowed_is_405(self, tmp_path):
        async def scenario(server):
            return (
                await asyncio.to_thread(
                    call, server.port, "DELETE", "/healthz"),
                await asyncio.to_thread(
                    call, server.port, "GET", "/artifacts"),
            )

        (s1, _), (s2, _) = asyncio.run(with_server(scenario)(tmp_path))
        assert (s1, s2) == (405, 405)

    def test_post_without_length_is_411(self, tmp_path):
        async def scenario(server):
            port = server.port

            def raw():
                import socket

                with socket.create_connection(
                    ("127.0.0.1", port), timeout=10
                ) as sock:
                    sock.sendall(b"POST /artifacts HTTP/1.1\r\n\r\n")
                    return sock.recv(4096)

            return await asyncio.to_thread(raw)

        reply = asyncio.run(with_server(scenario)(tmp_path))
        assert b"411" in reply.split(b"\r\n", 1)[0]


class TestShutdown:
    def test_drain_answers_parked_requests(self, tmp_path, hold):
        """A request parked in an open batch is answered, not dropped,
        when the server shuts down."""

        async def scenario(server):
            port = server.port
            status, created = await asyncio.to_thread(
                call, port, "POST", "/artifacts", artifact_body())
            artifact_id = created["id"]
            # The held request keeps the ask parked: only drain() can
            # flush it.
            held = asyncio.ensure_future(
                asyncio.to_thread(call, port, "GET", "/hold"))
            await until(lambda: server.service._inflight == 1)
            parked = asyncio.ensure_future(asyncio.to_thread(
                call, port, "POST", f"/artifacts/{artifact_id}/ask",
                {"scenario": SCENARIOS[0]}))
            await until(lambda: server.service.batcher.pending == 1)
            closing = asyncio.ensure_future(server.aclose())
            answered = await asyncio.wait_for(parked, 10)
            hold.set()  # drain then waits for the held request to finish
            await closing
            await held
            return answered

        status, body = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 200
        assert tuple(body["answers"][0]["values"]) == direct_answers()[0].values

    def test_closing_server_rejects_new_requests(self, tmp_path):
        async def scenario(server):
            port = server.port
            server.service.closing = True
            return await asyncio.to_thread(call, port, "GET", "/healthz")

        status, body = asyncio.run(with_server(scenario)(tmp_path))
        assert status == 503
        assert body["error"]["status"] == 503


class TestBatcher:
    """Loop-level unit tests for the coalescing primitive."""

    def test_same_turn_submissions_coalesce_and_fan_out(self):
        async def scenario():
            batcher = MicroBatcher(max_batch=64)
            evaluate = lambda items: [item * 10 for item in items]
            results = await asyncio.gather(*(
                batcher.submit("key", value, evaluate) for value in range(5)
            ))
            return results, batcher.batch_sizes, batcher.coalesced

        results, sizes, coalesced = asyncio.run(scenario())
        assert results == [0, 10, 20, 30, 40]
        assert sizes == {5: 1}
        assert coalesced == 5

    def test_max_batch_flushes_early(self):
        async def scenario():
            batcher = MicroBatcher(max_batch=2)
            evaluate = lambda items: list(items)
            return await asyncio.gather(*(
                batcher.submit("key", value, evaluate) for value in range(4)
            )), batcher.batch_sizes

        results, sizes = asyncio.run(scenario())
        assert results == [0, 1, 2, 3]
        assert sizes == {2: 2}

    def test_evaluator_failure_fans_out(self):
        async def scenario():
            batcher = MicroBatcher()

            def explode(items):
                raise RuntimeError("boom")

            waits = [
                batcher.submit("key", value, explode) for value in range(3)
            ]
            return await asyncio.gather(*waits, return_exceptions=True)

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_keys_do_not_share_batches(self):
        async def scenario():
            batcher = MicroBatcher()
            evaluate = lambda items: list(items)
            results = await asyncio.gather(
                batcher.submit("a", 1, evaluate),
                batcher.submit("b", 2, evaluate),
            )
            return results, batcher.batch_sizes

        results, sizes = asyncio.run(scenario())
        assert results == [1, 2]
        assert sizes == {1: 2}

    def test_total_cap_flushes_every_key(self):
        """The cap counts parked asks across keys: reaching it flushes
        every open batch, even while admitted requests are unparked."""
        async def scenario():
            batcher = MicroBatcher(max_batch=3, admitted=lambda: 10)
            evaluate = lambda items: list(items)
            return await asyncio.gather(
                batcher.submit("a", 1, evaluate),
                batcher.submit("b", 2, evaluate),
                batcher.submit("a", 3, evaluate),
            ), batcher.batch_sizes

        results, sizes = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert results == [1, 2, 3]
        assert sizes == {2: 1, 1: 1}

    def test_max_batch_validated(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)


class TestWarmArtifact:
    """A resident artifact answers bit-identically to the facade."""

    def build(self, bound=2):
        session = ProvenanceSession.from_strings(
            POLYNOMIALS,
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        return session.compress(bound, algorithm="greedy")

    def test_answers_match_facade(self):
        # The resident handle builds the cut's lift index on admit; the
        # twin artifact builds its own lazily, on its first ask. The
        # service asks the resident artifact, as here.
        from repro.core.valuation import Valuation

        artifact = self.build()
        warm = WarmArtifact(self.build())
        suite = [
            {"b1": 0.5, "b2": 0.5, "b3": 0.5},   # uniform -> exact
            {"b1": 2.0},                          # non-uniform -> approx
            {"m1": 0.0, "m2": 3.0},               # other cut
            {},                                   # all-default
            {"b1": 0.1, "b2": 0.1, "b3": 0.7, "m1": 2.0},
        ]
        for default in (1.0, 0.0, 0.1, 2.5):
            want = artifact.ask_many(suite, default=default)
            got = warm.artifact.ask_many(suite, default=default)
            assert [(a.name, a.values, a.exact) for a in got] == [
                (a.name, a.values, a.exact) for a in want]
            for changes, answer in zip(suite, want, strict=True):
                lifted, exact = warm.lift_one(Valuation(changes, default))
                want_lifted = artifact.lift(Valuation(changes, default))
                assert exact == answer.exact
                assert lifted.assignment == want_lifted.assignment
                assert lifted.default == want_lifted.default

    def test_named_scenarios_keep_names(self):
        from repro.scenarios.scenario import Scenario

        artifact = self.build()
        warm = WarmArtifact(artifact)
        answers = warm.artifact.ask_many([Scenario("mine", {"b1": 0.5})])
        assert answers[0].name == "mine"
        assert answers[0] == self.build().ask_many(
            [Scenario("mine", {"b1": 0.5})])[0]


class TestStoreErrors:
    def test_invalid_id_raises_artifact_not_found(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactNotFound, match="invalid artifact id"):
            store.get("nope")
        with pytest.raises(ArtifactNotFound, match="no artifact"):
            store.get("0" * 64)

    def test_tampered_file_raises_serialize_error(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        session = ProvenanceSession.from_strings(
            POLYNOMIALS,
            forest=[("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])],
        )
        artifact_id = store.put(session.compress(2, algorithm="greedy"))
        store._entries.clear()
        path = store.path_of(artifact_id)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SerializeError, match="content hash mismatch"):
            store.get(artifact_id)
