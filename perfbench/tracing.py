"""Per-layer self-time attribution, installed from outside the program.

:func:`install` replaces public functions and methods of the program's
layers with timing wrappers; nothing under ``src/`` is edited. Each
wrapper records, under its key (``layer.part``), the call's *self* time
— its duration minus the time of wrapped calls nested inside it — plus
its total duration and call count. Self times of all keys and the
remainder that no wrapper covered sum to the wall time of whatever ran,
which is how a flow's breakdown is built (:func:`breakdown`).

Coroutines cannot sit on the nesting stack (their duration spans other
tasks' work), so async entry points record totals only.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Self/total nanoseconds and call counts per key, plus counters."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._undo = []

    # ---------------------------------------------------------- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key, fn, after=None):
        """Wrap a synchronous callable; ``after(args, kwargs, result)``
        runs on success to update counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                tracer.self_ns[key] += elapsed - frame[0]
                tracer.total_ns[key] += elapsed
                tracer.calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def span_blocks(self, first_key, rest_key, fn):
        """Wrap a generator function: the first ``next`` is charged to
        ``first_key``, later ones to ``rest_key``; blocks are counted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            key = first_key
            try:
                while True:
                    stack = tracer._stack()
                    frame = [0]
                    stack.append(frame)
                    start = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = time.perf_counter_ns() - start
                        stack.pop()
                        tracer.self_ns[key] += elapsed - frame[0]
                        tracer.total_ns[key] += elapsed
                        tracer.calls[key] += 1
                        if stack:
                            stack[-1][0] += elapsed
                    tracer.counts[first_key.split(".")[0] + ".blocks"] += 1
                    key = rest_key
                    yield item
            finally:
                inner.close()

        return wrapper

    def span_async(self, key, fn):
        """Wrap a coroutine function; records its total duration only."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.total_ns[key] += time.perf_counter_ns() - start
                tracer.calls[key] += 1

        return wrapper

    # ------------------------------------------------------------ patching

    def patch_attr(self, owner, name, wrapper):
        """Replace ``owner.name`` (a class attribute) with ``wrapper``."""
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def patch_function(self, module, name, wrapper):
        """Replace a module function everywhere the program bound it.

        ``from module import name`` copies the reference into the
        importing module, so every loaded ``repro`` module holding the
        identical object gets the wrapper too.
        """
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- snapshots

    def snapshot(self):
        return {
            "at_ns": time.perf_counter_ns(),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def diff(before, after):
    """What happened between two snapshots (``after`` minus ``before``)."""
    out = {"wall_ns": after["at_ns"] - before["at_ns"]}
    for field in ("self_ns", "total_ns", "calls", "counts"):
        old = before[field]
        out[field] = {
            key: value - old.get(key, 0)
            for key, value in after[field].items()
            if value != old.get(key, 0)
        }
    return out


def accumulate(into, part):
    """Add one interval (a :func:`diff`) into a running flow total."""
    into["wall_ns"] = into.get("wall_ns", 0) + part["wall_ns"]
    for field in ("self_ns", "total_ns", "calls", "counts"):
        target = into.setdefault(field, {})
        for key, value in part[field].items():
            target[key] = target.get(key, 0) + value
    return into


def breakdown(flow):
    """``[(key, self_seconds, share)]`` plus the unattributed share.

    Self times of every key and the unattributed remainder sum to the
    flow's wall time by construction.
    """
    wall = flow.get("wall_ns", 0)
    rows = sorted(
        ((key, ns) for key, ns in flow.get("self_ns", {}).items() if ns > 0),
        key=lambda item: -item[1],
    )
    attributed = sum(ns for _, ns in rows)
    share = (lambda ns: ns / wall) if wall else (lambda ns: 0.0)
    return (
        [(key, ns / 1e9, share(ns)) for key, ns in rows],
        share(wall - attributed),
    )


# ------------------------------------------------------------ installation


def install(tracer):
    """Wrap the public functions of each layer the benchmark attributes."""
    import repro.algorithms.registry as registry
    import repro.api.artifact as artifact
    import repro.api.mutation as mutation
    import repro.core.abstraction as abstraction
    import repro.core.batch as batch
    import repro.core.binfmt as binfmt
    import repro.core.parser as parser
    import repro.core.valuation as valuation
    import repro.engine.aggregates as aggregates
    import repro.engine.sql as sql
    import repro.scenarios.analysis  # noqa: F401  (binds approximate_lift)
    import repro.scenarios.parallel as parallel
    import repro.service.app as app
    import repro.service.batcher as batcher
    import repro.service.http as http
    import repro.service.store as store
    import repro.service.warm as warm

    counts = tracer.counts

    # engine: SQL execution; rows aggregated and monomials produced.
    def executed(args, kwargs, result):
        polynomials = getattr(result, "polynomials", None)
        if polynomials is not None:
            counts["engine.monomials"] += polynomials.num_monomials

    def aggregated(args, kwargs, result):
        counts["engine.rows"] += len(args[0])

    tracer.patch_function(sql, "execute", tracer.span("engine.execute", sql.execute, executed))
    tracer.patch_function(
        aggregates, "aggregate_sum",
        tracer.span("engine.execute", aggregates.aggregate_sum, aggregated),
    )

    # algorithms: the solver the registry resolves, and its rounds.
    resolve = registry.resolve

    def solved(args, kwargs, result):
        counts["algorithms.rounds"] += len(getattr(result, "trace", ()) or ())

    def traced_resolve(*args, **kwargs):
        name, solver = resolve(*args, **kwargs)
        return name, tracer.span("algorithms.solve", solver, solved)

    tracer.patch_function(registry, "resolve", functools.wraps(resolve)(traced_resolve))

    tracer.patch_function(
        abstraction, "abstract", tracer.span("abstraction.abstract", abstraction.abstract)
    )

    # batch: compile, evaluate (rows), and which engine answered.
    compiled_cls = batch.CompiledPolynomialSet

    def evaluated(args, kwargs, result):
        counts["batch.rows"] += result.shape[0]

    def delta_called(args, kwargs, result):
        counts["batch.delta_calls"] += 1

    tracer.patch_attr(
        compiled_cls, "__init__", tracer.span("batch.compile", compiled_cls.__init__)
    )
    tracer.patch_attr(
        compiled_cls, "evaluate",
        tracer.span("batch.evaluate", compiled_cls.evaluate, evaluated),
    )
    tracer.patch_attr(
        compiled_cls, "evaluate_delta",
        tracer.span("batch.evaluate", compiled_cls.evaluate_delta, delta_called),
    )

    tracer.patch_function(
        binfmt, "write_artifact", tracer.span("binfmt.write", binfmt.write_artifact)
    )
    tracer.patch_function(
        binfmt, "read_artifact", tracer.span("binfmt.read", binfmt.read_artifact)
    )
    tracer.patch_function(parser, "parse_set", tracer.span("parser.parse", parser.parse_set))

    # api: the per-scenario lift (inside ask_many and the lift transform).
    cp = artifact.CompressedProvenance
    tracer.patch_attr(cp, "lift", tracer.span("api.lift", cp.lift))
    tracer.patch_attr(
        valuation.Valuation, "is_uniform_on",
        tracer.span("api.lift", valuation.Valuation.is_uniform_on),
    )
    tracer.patch_attr(
        valuation.Valuation, "lift", tracer.span("api.lift", valuation.Valuation.lift)
    )
    tracer.patch_function(
        artifact, "approximate_lift", tracer.span("api.lift", artifact.approximate_lift)
    )

    def mutated(args, kwargs, result):
        counts["mutation.extends"] += 1
        counts["mutation.repaired"] += result.path == "repaired"

    tracer.patch_function(
        mutation, "extend_artifact",
        tracer.span("mutation.extend", mutation.extend_artifact, mutated),
    )

    # scenarios: pool start-up and first shard, then waits on workers.
    tracer.patch_function(
        parallel, "iter_value_blocks",
        tracer.span_blocks(
            "scenarios.first_block", "scenarios.wait", parallel.iter_value_blocks
        ),
    )
    tracer.patch_function(
        parallel, "evaluate_scenarios_parallel",
        tracer.span("scenarios.serial", parallel.evaluate_scenarios_parallel),
    )

    # service: store, warm lift index, HTTP framing, batcher, handler.
    artifact_store = store.ArtifactStore
    tracer.patch_attr(artifact_store, "get", tracer.span("store.get", artifact_store.get))
    tracer.patch_attr(artifact_store, "put", tracer.span("store.put", artifact_store.put))
    warm_cls = warm.WarmArtifact
    tracer.patch_attr(warm_cls, "__init__", tracer.span("warm.build", warm_cls.__init__))
    tracer.patch_attr(warm_cls, "lift_one", tracer.span("warm.lift", warm_cls.lift_one))
    tracer.patch_function(
        http, "render_response", tracer.span("http.render", http.render_response)
    )
    tracer.patch_attr(
        app.WhatIfService, "handle",
        tracer.span_async("service.handle", app.WhatIfService.handle),
    )

    submit = batcher.MicroBatcher.submit

    @functools.wraps(submit)
    async def traced_submit(self, key, item, evaluate):
        def timed_evaluate(items):
            start = time.perf_counter_ns()
            try:
                return evaluate(items)
            finally:
                counts["batcher.eval_ns_x_size"] += (
                    (time.perf_counter_ns() - start) * len(items)
                )

        start = time.perf_counter_ns()
        try:
            return await submit(self, key, item, timed_evaluate)
        finally:
            tracer.total_ns["batcher.submit"] += time.perf_counter_ns() - start
            tracer.calls["batcher.submit"] += 1

    tracer.patch_attr(batcher.MicroBatcher, "submit", traced_submit)
