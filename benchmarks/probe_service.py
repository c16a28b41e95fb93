"""CI smoke probe for the what-if service: boot, barrage, verify.

Boots the real server through its CLI entry point (``python -m repro
serve``), creates an artifact over HTTP, fires **50 concurrent
single-scenario asks** from a thread fleet, and verifies every answer
bit-identically against a direct in-process ``ask_many`` over the same
scenarios. Then extends the artifact over HTTP
(``POST /artifacts/{id}/extend``) and asks the *new* artifact id the
same scenarios, verifying against an in-process repair-path
``refresh`` — the live-artifact round trip. Then creates and extends a
second artifact from ``str()`` of float provenance whose coefficients
print in exponent notation (``1.5e-05``), the text path, and verifies
every answer the same way. Also checks the error mapping (unknown
artifact → 404) and that ``/healthz`` reports the traffic. Exits
non-zero on any mismatch — the CI job gate.

Usage::

    PYTHONPATH=src python benchmarks/probe_service.py
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import tempfile
import threading
import time

from repro.util.retry import RetryPolicy

PROBE_REQUESTS = 50
PROBE_CLIENTS = 10

#: Post-boot readiness: poll ``/healthz`` under capped exponential
#: backoff instead of trusting the first connect — fast when the server
#: is fast, patient on a loaded CI box.
CONNECT_POLICY = RetryPolicy(attempts=8, base_delay=0.05, max_delay=1.0)

POLYNOMIALS = [
    "2*b1*m1 + 3*b2*m1 + b3*m2",
    "b1*m2 + 4*b2*m2 + 2*b3*m1",
    "5*b2*m1 + b3*m1 + b1*m1",
]
FOREST = [["SB", ["b1", "b2", "b3"]], ["SM", ["m1", "m2"]]]
BOUND = 3

#: Appended over HTTP after the barrage — the extend round-trip probe.
EXTEND_POLYNOMIALS = [
    "3*b1*m2 + 2*b2*m1",
    "b3*m2 + 4*b1*m1",
]

#: Float provenance (coefficient, variables...) whose ``str()`` writes
#: coefficients below 1e-4 or of 1e16 and up in exponent notation.
FLOAT_POLYNOMIALS = [
    [(1.5e-05, "b1", "m1"), (2.5e20, "b2", "m1"), (3.0, "b3", "m2")],
    [(7e-07, "b1", "m2"), (1e16, "b2", "m2"), (0.25, "b3", "m1")],
]
FLOAT_EXTEND_POLYNOMIALS = [[(4.5e-06, "b1", "m2"), (1.25e17, "b2", "m1")]]


def float_texts(rows):
    """``str()`` of each row's polynomial — the text a client sends."""
    from repro.core.polynomial import Monomial, Polynomial

    return [
        str(Polynomial.from_terms(
            (coefficient, Monomial.of(*names))
            for coefficient, *names in row
        ))
        for row in rows
    ]


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    try:
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def wait_ready(port):
    """Block until ``/healthz`` answers ``ok`` (retried with backoff)."""

    def healthz():
        status, body = request(port, "GET", "/healthz")
        if status != 200 or body.get("status") != "ok":
            raise ConnectionError(f"healthz not ready: {status} {body}")
        return body

    return CONNECT_POLICY.call(
        healthz, retry_on=(OSError,), token="service-ready"
    )


def boot_server(spool, extra_args=(), env=None):
    """``python -m repro serve`` on an ephemeral port; returns
    ``(process, port)`` once the readiness line appears *and* the
    socket actually serves ``/healthz``."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--spool-dir", spool, *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise SystemExit(f"server exited early (rc={process.returncode})")
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            wait_ready(port)
            return process, port
    raise SystemExit(f"server never reported its port (last line: {line!r})")


def expected_answers(scenarios, polynomials, added):
    """In-process ground truth: answers before the extend and after an
    identical repair-path ``session.extend``."""
    from repro.api.session import ProvenanceSession
    from repro.core.parser import parse_set

    session = ProvenanceSession.from_strings(
        polynomials,
        forest=[(tree[0], tree[1]) for tree in FOREST],
    )
    artifact = session.compress(BOUND, algorithm="greedy")
    before = [
        answer.values
        for answer in artifact.ask_many([dict(s) for s in scenarios])
    ]
    result = session.extend(parse_set(added), artifact, drift_limit=10.0)
    assert result.path == "repaired", result.path
    after = [
        answer.values
        for answer in result.artifact.ask_many([dict(s) for s in scenarios])
    ]
    return before, after


def check_answers(port, artifact_id, scenarios, expected, what):
    """Ask every scenario of ``artifact_id``; each answer must equal
    ``expected`` bit for bit."""
    for index, scenario in enumerate(scenarios):
        status, body = request(
            port, "POST", f"/artifacts/{artifact_id}/ask",
            {"scenario": {"changes": scenario}},
        )
        assert status == 200, (status, body)
        answer = tuple(body["answers"][0]["values"])
        assert answer == expected[index], (
            f"{what} answer diverged at scenario {index}"
        )


def create_and_extend(port, polynomials, added):
    """Create an artifact from ``polynomials`` and extend it by
    ``added`` over HTTP; returns ``(id, extended id)``."""
    status, created = request(port, "POST", "/artifacts", {
        "polynomials": polynomials,
        "forest": FOREST,
        "bound": BOUND,
        "algorithm": "greedy",
    })
    assert status == 201, (status, created)
    status, extended = request(
        port, "POST", f"/artifacts/{created['id']}/extend",
        {"polynomials": added, "drift_limit": 10.0},
    )
    assert status == 201, (status, extended)
    assert extended["path"] == "repaired", extended
    assert extended["revision"] == 1, extended
    assert extended["id"] != created["id"], "extend must mint a new id"
    return created["id"], extended["id"]


def main():
    scenarios = [
        {"b1": 0.5 + 0.01 * index, "m1": 1.5 - 0.01 * index}
        for index in range(PROBE_REQUESTS)
    ]
    expected, expected_extended = expected_answers(
        scenarios, POLYNOMIALS, EXTEND_POLYNOMIALS
    )
    float_polynomials = float_texts(FLOAT_POLYNOMIALS)
    float_added = float_texts(FLOAT_EXTEND_POLYNOMIALS)
    assert "e-05" in float_polynomials[0] and "e+17" in float_added[0]

    with tempfile.TemporaryDirectory() as spool:
        process, port = boot_server(spool)
        try:
            status, created = request(port, "POST", "/artifacts", {
                "polynomials": POLYNOMIALS,
                "forest": FOREST,
                "bound": BOUND,
                "algorithm": "greedy",
            })
            assert status == 201, (status, created)
            artifact_id = created["id"]
            print(f"artifact {artifact_id[:16]}… "
                  f"({created['stats']['abstracted_size']} monomials)")

            status, body = request(port, "GET", "/artifacts/" + "f" * 64)
            assert status == 404, (status, body)

            results = [None] * PROBE_REQUESTS
            failures = []

            def client(which):
                try:
                    for index in range(which, PROBE_REQUESTS, PROBE_CLIENTS):
                        status, body = request(
                            port, "POST", f"/artifacts/{artifact_id}/ask",
                            {"scenario": {"changes": scenarios[index]}},
                        )
                        assert status == 200, (status, body)
                        results[index] = tuple(body["answers"][0]["values"])
                except BaseException as error:
                    failures.append(error)

            threads = [
                threading.Thread(target=client, args=(which,))
                for which in range(PROBE_CLIENTS)
            ]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - begin
            if failures:
                raise failures[0]

            mismatched = [
                index for index in range(PROBE_REQUESTS)
                if results[index] != expected[index]
            ]
            assert not mismatched, f"answers diverged at {mismatched}"

            status, health = request(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok", health
            served = health["requests"]
            assert served >= PROBE_REQUESTS, health
            print(
                f"{PROBE_REQUESTS} concurrent asks in {seconds:.2f}s "
                f"({PROBE_REQUESTS / seconds:.0f} req/s), all bit-identical; "
                f"batches: {health['batcher']['batch_size_histogram']}"
            )

            # Extend-then-ask round trip: the live-artifact path.
            status, extended = request(
                port, "POST", f"/artifacts/{artifact_id}/extend",
                {"polynomials": EXTEND_POLYNOMIALS, "drift_limit": 10.0},
            )
            assert status == 201, (status, extended)
            assert extended["path"] == "repaired", extended
            assert extended["revision"] == 1, extended
            extended_id = extended["id"]
            assert extended_id != artifact_id, "extend must mint a new id"
            check_answers(
                port, extended_id, scenarios, expected_extended, "extended"
            )
            # The source artifact is immutable server-side: same id,
            # same answers as before the extend.
            status, body = request(
                port, "POST", f"/artifacts/{artifact_id}/ask",
                {"scenario": {"changes": scenarios[0]}},
            )
            assert status == 200, (status, body)
            assert tuple(body["answers"][0]["values"]) == expected[0]
            print(
                f"extend round trip OK: {extended_id[:16]}… at revision "
                f"{extended['revision']}, {len(scenarios)} asks bit-identical"
            )

            # Text path: provenance sent as str() in exponent notation.
            float_id, float_extended_id = create_and_extend(
                port, float_polynomials, float_added
            )
            expected_float, expected_float_extended = expected_answers(
                scenarios, float_polynomials, float_added
            )
            check_answers(port, float_id, scenarios, expected_float, "float")
            check_answers(
                port, float_extended_id, scenarios, expected_float_extended,
                "float extended",
            )
            print(
                f"text path OK: {float_polynomials[0]!r} created and "
                f"extended, {2 * len(scenarios)} asks bit-identical"
            )
        finally:
            process.terminate()
            process.wait(timeout=30)
    print("service probe OK")


if __name__ == "__main__":
    main()
