"""The what-if service: routes, error mapping, lifecycle.

Endpoints (all JSON):

* ``POST /artifacts`` — compress once. The body carries provenance as
  polynomial strings (``"polynomials"``) or as a SQL query over inline
  tables (``"sql"`` + ``"tables"``, executed by :mod:`repro.engine`),
  plus the abstraction ``"forest"`` (nested ``[label, [children...]]``
  specs), the ``"bound"``, and optionally ``"algorithm"``. Returns
  ``201`` with the content-hash ``id``.
* ``POST /artifacts/{id}/ask`` — answer scenarios. A single
  ``"scenario"`` rides the micro-batcher, which holds it only while
  another admitted request is still on its way there (coalescing
  concurrent requests into one evaluator call; a lone ask flushes on
  the next loop turn); a ``"scenarios"`` list is already a batch and
  dispatches directly.
* ``POST /artifacts/{id}/extend`` — append provenance incrementally.
  The body carries the new original polynomials as strings
  (``"polynomials"``), plus an optional ``"drift_limit"``. The
  artifact is maintained under its existing cut
  (columnar/compiled structures repaired) and re-spooled; returns
  ``201`` with the **new** content-hash ``id`` and the unified
  :class:`~repro.api.mutation.MutationResult` stats (``path``,
  ``drift``, ``revision``). Drift past the limit maps to ``422`` — the
  service holds no original provenance to recompress from.
* ``GET /artifacts/{id}`` — the artifact's stats (sizes, losses,
  ``mmap_active``) and residency.
* ``GET /healthz`` — liveness, store counters, coalescing histogram,
  and the resilience state (deadline/queue config, shed and timed-out
  counts, per-artifact circuit-breaker states).

No request sets an evaluation knob: every ask is answered in process
with the default engine, and a POST body carrying ``"options"`` is
refused with 400 (one check, :func:`_require_object`, serves every
route).

Errors map by exception family (:mod:`repro.errors`): unknown artifact
→ 404, undecodable payloads → 400, infeasible bounds → 422, evaluation
failures → 500. The mapping lives in :data:`STATUS_OF`.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import TYPE_CHECKING

from repro.errors import (
    ArtifactNotFound,
    CompressionError,
    EvaluationError,
    ReproError,
    SerializeError,
)
from repro.faults import inject
from repro.service.batcher import MicroBatcher
from repro.service.http import HttpError, Request, serve_connection
from repro.service.resilience import CircuitBreaker
from repro.service.store import ArtifactStore

if TYPE_CHECKING:
    import os

    from repro.api.artifact import Answer
    from repro.service.warm import WarmArtifact

__all__ = ["WhatIfService", "ServiceServer", "STATUS_OF", "start_service"]

#: Exception family → HTTP status, checked in order (first match wins).
STATUS_OF: tuple[tuple[type[BaseException], int], ...] = (
    (ArtifactNotFound, 404),
    (SerializeError, 400),
    (CompressionError, 422),  # InfeasibleBoundError and kin
    (EvaluationError, 500),
    (ReproError, 400),  # parse/compatibility/non-uniform input errors
    (ValueError, 400),
    (TypeError, 400),
    (KeyError, 400),
)


def _status_for(error: BaseException) -> int:
    for family, status in STATUS_OF:
        if isinstance(error, family):
            return status
    return 500


class WhatIfService:
    """The request handler: a store, a batcher, and the route table.

    The in-flight count that ``max_pending`` and :meth:`drain` use is
    also the batcher's admission count: a parked ask flushes once every
    admitted request has parked or left (see
    :mod:`repro.service.batcher`).

    Resilience knobs (all off/neutral by default so embedded uses and
    tests opt in; ``python -m repro serve`` turns them on):

    * ``deadline`` — per-request budget in seconds. The budget is
      enforced at ``await`` points (a request parked in the batcher
      past its deadline answers 504); the CPU-bound evaluator itself
      runs synchronously on the loop and is bounded by ``max_batch``.
    * ``max_pending`` — bounded admission: past this many in-flight
      requests, new ones shed with 503 + ``Retry-After`` instead of
      queueing unboundedly.
    * ``breaker_threshold`` / ``breaker_cooldown`` — the per-artifact
      :class:`~repro.service.resilience.CircuitBreaker` for repeated
      map/eval failures.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        max_batch: int = 64,
        deadline: float | None = None,
        max_pending: int | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ) -> None:
        self.store = store
        self.batcher = MicroBatcher(
            max_batch=max_batch, admitted=lambda: self._inflight
        )
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.deadline = deadline
        self.max_pending = max_pending
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self.started = time.monotonic()
        self.requests = 0
        self.shed = 0
        self.timed_out = 0
        self.closing = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # --------------------------------------------------------------- routing

    async def handle(self, request: Request) -> tuple[int, dict]:
        """Dispatch one request; exceptions map via :data:`STATUS_OF`."""
        if self.closing:
            raise HttpError(503, "server is shutting down")
        inject("service.request")
        if self.max_pending is not None and self._inflight >= self.max_pending:
            self.shed += 1
            raise HttpError(
                503,
                f"admission queue full ({self._inflight} requests in "
                f"flight, max_pending={self.max_pending})",
                headers={"Retry-After": "1"},
            )
        self.requests += 1
        self._inflight += 1
        self._idle.clear()
        try:
            if self.deadline is None:
                return await self._route(request)
            try:
                return await asyncio.wait_for(
                    self._route(request), self.deadline
                )
            except asyncio.TimeoutError:
                self.timed_out += 1
                raise HttpError(
                    504,
                    f"request exceeded its {self.deadline}s deadline",
                ) from None
        except HttpError:
            raise
        except asyncio.CancelledError:
            raise
        except Exception as error:
            raise HttpError(
                _status_for(error),
                f"{type(error).__name__}: {error}",
            ) from error
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            self.batcher.recheck()

    async def _route(self, request: Request) -> tuple[int, dict]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return 200, self._healthz()
        if path == "/artifacts":
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            return self._create_artifact(request)
        if path.startswith("/artifacts/"):
            rest = path[len("/artifacts/"):]
            if "/" not in rest:
                if method != "GET":
                    raise HttpError(405, f"{method} not allowed on {path}")
                return 200, self._describe_artifact(rest)
            artifact_id, _, action = rest.partition("/")
            if action == "ask":
                if method != "POST":
                    raise HttpError(405, f"{method} not allowed on {path}")
                return await self._ask(artifact_id, request)
            if action == "extend":
                if method != "POST":
                    raise HttpError(405, f"{method} not allowed on {path}")
                return self._extend(artifact_id, request)
        raise HttpError(404, f"no route for {method} {request.path}")

    # ---------------------------------------------------------------- routes

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started,
            "requests": self.requests,
            "store": self.store.stats(),
            "batcher": {
                "max_batch": self.batcher.max_batch,
                "batches": self.batcher.batches,
                "coalesced_requests": self.batcher.coalesced,
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(
                        self.batcher.batch_sizes.items()
                    )
                },
            },
            "resilience": {
                "deadline_seconds": self.deadline,
                "max_pending": self.max_pending,
                "inflight": self._inflight,
                "shed": self.shed,
                "timed_out": self.timed_out,
                "breakers": self.breaker.snapshot(),
            },
        }

    def _create_artifact(self, request: Request) -> tuple[int, dict]:
        body = _require_object(request.json(), "artifact request")
        session = _session_from(body)
        bound = body.get("bound")
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise HttpError(400, "'bound' must be an integer")
        algorithm = body.get("algorithm", "auto")
        artifact = session.compress(bound, algorithm=algorithm)
        artifact_id = self.store.put(artifact)
        stored = self.store.get(artifact_id)
        return 201, {"id": artifact_id, "stats": stored.artifact.stats()}

    def _extend(self, artifact_id: str, request: Request) -> tuple[int, dict]:
        from repro.core.parser import parse_set

        body = _require_object(request.json(), "extend request")
        texts = body.get("polynomials")
        if (
            not isinstance(texts, list)
            or not texts
            or not all(isinstance(text, str) for text in texts)
        ):
            raise HttpError(
                400, "'polynomials' must be a non-empty list of strings"
            )
        drift_limit = body.get("drift_limit")
        if drift_limit is not None and (
            not isinstance(drift_limit, (int, float))
            or isinstance(drift_limit, bool)
        ):
            raise HttpError(400, "'drift_limit' must be a number")
        warm = self._fetch(artifact_id)
        added = parse_set(texts)
        result = warm.artifact.refresh(added, drift_limit=drift_limit)
        new_id = self.store.put(result.artifact)
        self.breaker.record_success(artifact_id)
        return 201, result.with_id(new_id).stats()

    def _describe_artifact(self, artifact_id: str) -> dict:
        warm = self._fetch(artifact_id)
        self.breaker.record_success(artifact_id)
        return {"id": artifact_id, "stats": warm.artifact.stats()}

    async def _ask(
        self, artifact_id: str, request: Request
    ) -> tuple[int, dict]:
        body = _require_object(request.json(), "ask request")
        warm = self._fetch(artifact_id)
        default = body.get("default", 1.0)
        if (
            not isinstance(default, (int, float))
            or isinstance(default, bool)
            or not -math.inf < default < math.inf  # NaN, ±Infinity
        ):
            raise HttpError(400, "'default' must be a finite number")
        if "scenario" in body and "scenarios" in body:
            raise HttpError(400, "pass 'scenario' or 'scenarios', not both")
        if "scenario" in body:
            scenario = _scenario_from(body["scenario"], index=0)
            answer = await self.batcher.submit(
                (artifact_id, default),
                scenario,
                lambda items: self._evaluate(
                    warm, items, default, artifact_id=artifact_id
                ),
            )
            return 200, {"answers": [_answer_json(answer)]}
        if "scenarios" in body:
            entries = body["scenarios"]
            if not isinstance(entries, list):
                raise HttpError(400, "'scenarios' must be a list")
            scenarios = [
                _scenario_from(entry, index=index)
                for index, entry in enumerate(entries)
            ]
            answers = self._evaluate(
                warm, scenarios, default, artifact_id=artifact_id
            )
            return 200, {"answers": [_answer_json(a) for a in answers]}
        raise HttpError(400, "missing 'scenario' (one) or 'scenarios' (many)")

    def _fetch(self, artifact_id: str) -> WarmArtifact:
        """Breaker-guarded store fetch.

        Map/decode failures (fault site ``store.map``, tampered files)
        count against the artifact's breaker; a 404 is the client's
        problem, not the artifact's health.
        """
        self.breaker.admit(artifact_id)
        try:
            return self.store.get(artifact_id)
        except ArtifactNotFound:
            raise
        except Exception:
            self.breaker.record_failure(artifact_id)
            raise

    def _evaluate(
        self,
        warm: WarmArtifact,
        scenarios: list,
        default: float,
        *,
        artifact_id: str | None = None,
    ) -> list[Answer]:
        """One batched evaluator call; unexpected failures become
        :class:`~repro.errors.EvaluationError` (one 500, not a dropped
        connection per waiter). Outcomes feed the artifact's breaker."""
        try:
            answers = warm.artifact.ask_many(scenarios, default=default)
        except ReproError:
            if artifact_id is not None:
                self.breaker.record_failure(artifact_id)
            raise
        except Exception as error:
            if artifact_id is not None:
                self.breaker.record_failure(artifact_id)
            raise EvaluationError(
                f"scenario evaluation failed: {type(error).__name__}: {error}"
            ) from error
        if artifact_id is not None:
            self.breaker.record_success(artifact_id)
        return answers

    # -------------------------------------------------------------- lifecycle

    async def drain(self, timeout: float = 10.0) -> None:
        """Flush open batches and wait for in-flight requests to finish."""
        self.batcher.drain()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass


class ServiceServer:
    """A running service bound to a socket; closes gracefully."""

    def __init__(
        self, service: WhatIfService, server: asyncio.base_events.Server
    ) -> None:
        self.service = service
        self.server = server
        self._connections: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        return self.server.sockets[0].getsockname()[1]

    def track(self) -> None:
        """Register the current connection task for shutdown cleanup."""
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain batches, finish
        in-flight requests, then drop idle keep-alive connections."""
        self.service.closing = True
        self.server.close()
        await self.service.drain()
        for task in list(self._connections):
            task.cancel()
        await self.server.wait_closed()

    async def serve_forever(self) -> None:
        await self.server.serve_forever()


async def start_service(
    spool: str | os.PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    capacity: int = 8,
    max_batch: int = 64,
    deadline: float | None = None,
    max_pending: int | None = None,
    breaker_threshold: int = 5,
    breaker_cooldown: float = 30.0,
) -> ServiceServer:
    """Bind the what-if service; returns the running server handle."""
    store = ArtifactStore(spool, capacity=capacity)
    service = WhatIfService(
        store, max_batch=max_batch,
        deadline=deadline, max_pending=max_pending,
        breaker_threshold=breaker_threshold,
        breaker_cooldown=breaker_cooldown,
    )
    handle: ServiceServer

    async def on_connection(reader, writer):
        handle.track()
        await serve_connection(reader, writer, service.handle)

    server = await asyncio.start_server(on_connection, host=host, port=port)
    handle = ServiceServer(service, server)
    return handle


# ---------------------------------------------------------------- body schema


def _require_object(document: object, what: str) -> dict:
    """The body of a POST route: a JSON object with no ``"options"``."""
    if not isinstance(document, dict):
        raise HttpError(400, f"{what} body must be a JSON object")
    if "options" in document:
        raise HttpError(
            400,
            f"{what} body must not carry 'options': evaluation knobs "
            "cannot be set over HTTP",
        )
    return document


def _forest_spec(spec: object) -> object:
    """JSON nested arrays → the tuple specs :func:`as_forest` takes."""
    if isinstance(spec, list):
        if (
            len(spec) == 2
            and isinstance(spec[0], str)
            and isinstance(spec[1], list)
        ):
            return (spec[0], [_forest_spec(child) for child in spec[1]])
        return [_forest_spec(child) for child in spec]
    if isinstance(spec, str):
        return spec
    raise HttpError(
        400,
        "forest specs are nested [label, [children...]] arrays of strings",
    )


def _session_from(body: dict):
    from repro.api.session import ProvenanceSession

    forest = body.get("forest")
    if forest is None:
        raise HttpError(400, "missing 'forest' (the abstraction hierarchy)")
    forest = _forest_spec(forest)
    if "polynomials" in body:
        texts = body["polynomials"]
        if not isinstance(texts, list) or not all(
            isinstance(text, str) for text in texts
        ):
            raise HttpError(400, "'polynomials' must be a list of strings")
        return ProvenanceSession.from_strings(texts, forest=forest)
    if "sql" in body:
        return ProvenanceSession.from_query(
            body["sql"],
            _relations_from(body.get("tables")),
            params=_params_from(body.get("variables")),
            forest=forest,
        )
    raise HttpError(400, "missing provenance: pass 'polynomials' or 'sql'")


def _relations_from(tables: object) -> dict:
    from repro.engine.table import Relation

    if not isinstance(tables, dict) or not tables:
        raise HttpError(400, "'sql' needs 'tables': {name: {columns, rows}}")
    relations = {}
    for name, spec in tables.items():
        if (
            not isinstance(spec, dict)
            or not isinstance(spec.get("columns"), list)
            or not isinstance(spec.get("rows"), list)
        ):
            raise HttpError(
                400, f"table {name!r} needs 'columns' and 'rows' lists"
            )
        relations[name] = Relation.from_rows(
            spec["columns"],
            [tuple(row) for row in spec["rows"]],
            name=name,
        )
    return relations


def _params_from(variables: object):
    """The ``params`` callable for :meth:`ProvenanceSession.from_query`.

    ``variables`` lists qualified column names whose row values become
    scenario variables — the paper's idiom (a row's plan and month
    become the variables hypothetical scenarios scale).
    """
    if variables is None:
        return None
    if not isinstance(variables, list) or not all(
        isinstance(column, str) for column in variables
    ):
        raise HttpError(400, "'variables' must be a list of column names")

    def params(row: dict) -> list[str]:
        return [str(row[column]) for column in variables if column in row]

    return params


def _scenario_from(entry: object, index: int):
    from repro.scenarios.scenario import Scenario

    if not isinstance(entry, dict):
        raise HttpError(
            400,
            "each scenario is an object with 'changes' (variable → "
            "multiplier) and an optional 'name'",
        )
    changes = entry.get("changes", entry if "name" not in entry else None)
    if not isinstance(changes, dict) or not all(
        isinstance(variable, str)
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -math.inf < value < math.inf  # NaN, ±Infinity
        for variable, value in changes.items()
    ):
        raise HttpError(
            400,
            "scenario 'changes' must map variable names to finite numbers",
        )
    name = entry.get("name")
    if name is not None and not isinstance(name, str):
        raise HttpError(400, "scenario 'name' must be a string")
    return Scenario(name if name is not None else f"scenario-{index}", changes)


def _answer_json(answer: Answer) -> dict:
    return {
        "name": answer.name,
        "values": list(answer.values),
        "exact": answer.exact,
    }
