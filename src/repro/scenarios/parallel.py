"""Sharded scenario evaluation across a process pool.

:meth:`~repro.core.polynomial.PolynomialSet.evaluate_batch` already
turns a scenario suite into a handful of NumPy array operations, but it
runs them on one core. For the sweep volumes the paper's workload
implies (grids and Monte-Carlo families of 10⁴–10⁶ scenarios), the
remaining wall-clock is CPU-bound and embarrassingly parallel: every
scenario row of the ``(S, P)`` answer matrix is independent.

:func:`evaluate_scenarios_parallel` (the whole matrix) and
:func:`iter_value_blocks` (the matrix as a stream of row blocks) are two
views of one block stream, which shards the rows across a
:class:`concurrent.futures.ProcessPoolExecutor`:

* the compiled :class:`~repro.core.batch.CompiledPolynomialSet` is the
  pool initializer's argument. Under ``fork`` every worker inherits it
  with the process — nothing is rendered, copied or pickled, however
  large the matrix, and a set loaded from a ``.rpb`` file stays a view
  of the parent's map. Under ``spawn`` or ``forkserver`` (macOS,
  Windows, Linux from Python 3.14) it is pickled by value to each
  worker: O(matrix) bytes per worker per pool, with the column map
  keyed by variable name and re-interned on arrival, so workers answer
  bit-identically whatever their start method;
* the parent then streams *work descriptions*, not data — for a
  :class:`~repro.scenarios.sweep.Sweep` an ``(start, stop)`` index
  range (workers regenerate their shard from the sweep spec), for a
  generic iterable a chunk of coerced valuations;
* results come back as ``(chunk, P)`` arrays in submission order, so
  the parallel answer is **bit-identical** to the serial one (row-wise
  float operations are unchanged; only the outer loop moved).

Every entry point takes ``engine=`` (``"dense"``, ``"delta"``,
``"auto"``; see :mod:`repro.core.batch`). Under the delta engine each
worker computes the baseline monomial values **once** (cached on its
compiled set) and shards carry only sparse deltas: Sweep workers
regenerate bare changes mappings via :meth:`Sweep.iter_changes
<repro.scenarios.sweep.Sweep.iter_changes>` — no scenario names are
ever built — and generic chunks are already plain sparse rows. For
sweeps, ``"auto"`` is resolved once in the parent from
:meth:`Sweep.mean_changes <repro.scenarios.sweep.Sweep.mean_changes>`
(the spec knows its density); for other inputs each chunk resolves
itself. Engines are bit-identical, so the choice never changes
answers — only the schedule.

Small inputs run serially — below :data:`MIN_PARALLEL_SCENARIOS` rows
the pool start-up would dominate — through the same shards, evaluated
in the parent. Serial evaluation is chunked too, so a million-scenario
sweep never materializes a Python list of dicts.

**Self-healing.** Sweeps survive worker failure: a
:class:`~concurrent.futures.process.BrokenProcessPool` or a per-shard
timeout tears the pool down, respawns it with the same initializer,
and resubmits only the shards still outstanding, with capped
exponential backoff from the shared
:class:`~repro.util.retry.RetryPolicy`. Because shards are pure
functions of immutable work descriptions, a retried shard recomputes
exactly the bytes the first attempt would have produced — healed
sweeps stay bit-identical to serial. A shard that keeps failing
(``retry.attempts`` times) is quarantined: it degrades to in-process
serial evaluation in the parent rather than failing the sweep. Fault
sites ``worker.start`` and ``shard.evaluate`` (:mod:`repro.faults`)
let chaos tests schedule those failures deterministically.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

import numpy

from repro.core.valuation import Valuation
from repro.faults import inject
from repro.options import ENGINES
from repro.scenarios.sweep import DEFAULT_CHUNK_SIZE, Sweep
from repro.util.retry import RetryPolicy

__all__ = [
    "MIN_PARALLEL_SCENARIOS",
    "evaluate_scenarios_parallel",
    "iter_value_blocks",
]

#: Below this many scenarios, parallel requests run serially: pool
#: start-up (forking the workers — or, under spawn, pickling the
#: compiled set to each) costs more than evaluating the suite outright.
MIN_PARALLEL_SCENARIOS = 512

#: Keep at most this many chunks in flight per worker — bounds parent
#: memory while keeping every worker busy.
_INFLIGHT_PER_WORKER = 4

#: Healing defaults: three attempts per shard with fast capped backoff.
#: Sweeps are interactive-adjacent — long sleeps would dwarf the retry.
_DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0)

# ---------------------------------------------------------------- workers

#: The compiled set installed in each worker by the pool initializer.
_WORKER_COMPILED = None


def _init_worker(compiled):
    """Pool initializer: adopt the compiled set.

    Under ``fork`` ``compiled`` is the parent's own object, inherited
    with the process; under ``spawn``/``forkserver`` it arrived pickled.
    """
    global _WORKER_COMPILED
    inject("worker.start")
    _WORKER_COMPILED = compiled


def _valuate(compiled, work, default, engine):
    """Valuate one shard's ``work`` on ``compiled``.

    ``work`` is a Sweep's ``(sweep, start, stop)`` index range or a
    list of scenario entries. A range is regenerated as bare changes
    mappings — scenario names do not affect values, and the delta
    engine's baseline is cached on the compiled set, so a worker
    computes it once however many shards arrive.
    """
    if isinstance(work, tuple):
        sweep, start, stop = work
        work = sweep.iter_changes(start, stop)
    return compiled.evaluate(work, default, engine)


def _evaluate_shard(work, default, engine):
    """Worker task: valuate one shard on the pool's compiled set."""
    inject("shard.evaluate")
    return _valuate(_WORKER_COMPILED, work, default, engine)


# ----------------------------------------------------------------- helpers


def _chunked(iterable, size):
    """Yield lists of up to ``size`` items (no full materialization)."""
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _compiled_of(polynomials):
    """The compiled evaluator of a set (or a compiled set, unchanged)."""
    compiled = getattr(polynomials, "compiled", None)
    if callable(compiled):
        return compiled()
    return polynomials


def _resolve_workers(workers):
    """Normalize the ``workers`` argument to an int worker count."""
    if workers is None:
        return 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _resolve_engine(compiled, scenarios, engine):
    """Pin down ``engine`` as far as the input shape allows.

    Sweeps declare their per-scenario density in the spec, so
    ``"auto"`` resolves here — once, in the parent — and every shard
    runs the same engine. Other inputs keep ``"auto"`` and let each
    evaluated chunk decide (bit-identical either way). Unknown names
    raise immediately rather than inside a worker.
    """
    if engine == "auto" and isinstance(scenarios, Sweep):
        return compiled.resolve_engine(
            engine, mean_changes=scenarios.mean_changes()
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def _resolve_retry(retry):
    """Normalize the ``retry`` argument to a ``RetryPolicy``."""
    if retry is None:
        return _DEFAULT_RETRY
    if not isinstance(retry, RetryPolicy):
        raise TypeError(f"retry must be a RetryPolicy, got {type(retry)!r}")
    return retry


# ------------------------------------------------------------ block stream


def _shards(scenarios, chunk_size, default, transform, materialize, pool):
    """Yield ``(start, chunk, work)`` for each shard of the family.

    ``chunk`` is what the caller's block carries — the original
    scenario objects, or ``None`` — and ``work`` what :func:`_valuate`
    evaluates. A Sweep without a transform shards by index range
    whenever the parent need not build its scenarios: always for a
    pool, whose workers regenerate their shards, and serially when the
    caller does not want the chunk (``materialize=False``). Everything
    else streams in chunks of the caller's objects, transformed in the
    parent (transforms may close over unpicklable state) and, for a
    pool, coerced to picklable valuations.
    """
    if isinstance(scenarios, Sweep) and transform is None and (
        pool or not materialize
    ):
        for start, stop in scenarios.chunks(chunk_size):
            chunk = scenarios.materialize(start, stop) if materialize else None
            yield start, chunk, (scenarios, start, stop)
        return
    start = 0
    for chunk in _chunked(scenarios, chunk_size):
        work = chunk if transform is None else [
            transform(entry) for entry in chunk
        ]
        if pool:
            work = [Valuation.coerce(entry, default) for entry in work]
        yield start, chunk, work
        start += len(chunk)


def _blocks(polynomials, scenarios, *, workers, default, chunk_size,
            min_parallel, transform, materialize, engine, retry,
            shard_timeout):
    """Yield ``(start, chunk, values)`` blocks in scenario order.

    The one block stream behind both entry points: arguments resolve
    here, :func:`_shards` cuts the family, and each shard is evaluated
    in the parent (no pool: ``workers`` ≤ 1, or fewer than
    ``min_parallel`` scenarios) or on the healing pool.
    """
    compiled = _compiled_of(polynomials)
    workers = _resolve_workers(workers)
    engine = _resolve_engine(compiled, scenarios, engine)
    retry = _resolve_retry(retry)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    pool = workers > 1 and not (
        hasattr(scenarios, "__len__") and len(scenarios) < min_parallel
    )
    shards = _shards(
        scenarios, chunk_size, default, transform, materialize, pool
    )
    if not pool:
        for start, chunk, work in shards:
            yield start, chunk, _valuate(compiled, work, default, engine)
        return
    yield from _healed_stream(
        shards, workers=workers, compiled=compiled, default=default,
        engine=engine, retry=retry, shard_timeout=shard_timeout,
    )


# --------------------------------------------------------------- the pool


class _Shard:
    """One unit of pool work: its block's ``start``/``chunk``, the
    ``work`` to evaluate, and the per-shard retry ledger."""

    __slots__ = ("start", "chunk", "work", "failures")

    def __init__(self, start, chunk, work):
        self.start = start
        self.chunk = chunk
        self.work = work
        self.failures = 0


#: Slot sentinel: the shard is quarantined — evaluate in-parent when it
#: reaches the head of the queue.
_LOCAL = object()

#: Shard-iterator sentinel (shards themselves are never ``None``-like).
_EXHAUSTED = object()


class _Done:
    """Slot wrapper for a result salvaged from a dying pool."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _terminate(executor):
    """Tear an executor down without waiting on possibly-hung workers."""
    executor.shutdown(wait=False, cancel_futures=True)
    processes = getattr(executor, "_processes", None)
    for process in list(processes.values()) if processes else ():
        process.terminate()


def _healed_stream(shards, *, workers, compiled, default, engine, retry,
                   shard_timeout):
    """Yield ``(start, chunk, values)`` in submission order, healing
    failures.

    The happy path: shards are submitted with bounded in-flight
    backpressure and results are consumed from the head of the queue,
    preserving submission order. Failure handling layers on top:

    * a shard whose future raises is resubmitted (head of the queue —
      order never changes) after ``retry.delay`` backoff; after
      ``retry.attempts`` failures it is quarantined to ``_LOCAL`` and
      evaluated in the parent when it reaches the head;
    * a broken pool or a head-shard timeout kills and respawns the
      executor; every unfinished in-flight shard is charged one failure
      (the culprit cannot be attributed, and charging all of them keeps
      the respawn count finite) and resubmitted; results that completed
      before the breakage are salvaged as ``_Done``;
    * ``shard_timeout`` bounds the wait on the *oldest* outstanding
      shard — the one every worker had first claim on — so a hung
      worker cannot stall the sweep forever.

    Correctness is unaffected by any of this: a shard is a pure
    function of its work description, so whichever path finally
    answers one, the bytes are the ones a serial pass would have
    produced.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    def spawn():
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(compiled,),
        )

    def submit(shard):
        return executor.submit(_evaluate_shard, shard.work, default, engine)

    executor = spawn()
    pending = deque()  # [shard, slot]; slot: Future | _Done | _LOCAL | None
    respawns = 0
    shard_iter = iter(shards)
    max_inflight = workers * _INFLIGHT_PER_WORKER

    def charge(shard):
        """Record one failure; True once the shard should go local."""
        shard.failures += 1
        return shard.failures >= retry.attempts

    def heal():
        """Respawn the pool; salvage, charge, and resubmit in-flight."""
        nonlocal executor, respawns
        respawns += 1
        _terminate(executor)
        time.sleep(retry.delay(min(respawns, retry.attempts), "pool"))
        executor = spawn()
        for entry in pending:
            shard, slot = entry
            if slot is _LOCAL or slot is None or isinstance(slot, _Done):
                continue
            if (
                slot.done()
                and not slot.cancelled()
                and slot.exception() is None
            ):
                entry[1] = _Done(slot.result())
            else:
                entry[1] = _LOCAL if charge(shard) else None
        for entry in pending:
            if entry[1] is None:
                try:
                    entry[1] = submit(entry[0])
                except BrokenProcessPool:
                    # Leave the slot None; the head loop re-heals. Every
                    # round charges the in-flight shards, so this ends.
                    return

    try:
        exhausted = False
        while True:
            while not exhausted and len(pending) < max_inflight:
                spec = next(shard_iter, _EXHAUSTED)
                if spec is _EXHAUSTED:
                    exhausted = True
                    break
                shard = _Shard(*spec)
                try:
                    slot = submit(shard)
                except BrokenProcessPool:
                    slot = None
                pending.append([shard, slot])
                if slot is None:
                    heal()
            if not pending:
                break
            shard, slot = pending[0]
            if slot is _LOCAL:
                pending.popleft()
                values = _valuate(compiled, shard.work, default, engine)
                yield shard.start, shard.chunk, values
                continue
            if isinstance(slot, _Done):
                pending.popleft()
                yield shard.start, shard.chunk, slot.value
                continue
            if slot is None:
                try:
                    pending[0][1] = submit(shard)
                except BrokenProcessPool:
                    heal()
                continue
            try:
                values = slot.result(timeout=shard_timeout)
            except FutureTimeout:
                heal()
                continue
            except BrokenProcessPool:
                heal()
                continue
            except Exception:
                pending.popleft()
                if charge(shard):
                    pending.appendleft([shard, _LOCAL])
                    continue
                time.sleep(retry.delay(shard.failures, f"shard-{shard.start}"))
                try:
                    retried = submit(shard)
                except BrokenProcessPool:
                    retried = None
                pending.appendleft([shard, retried])
                if retried is None:
                    heal()
                continue
            pending.popleft()
            yield shard.start, shard.chunk, values
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


# ------------------------------------------------------------ entry points


def evaluate_scenarios_parallel(polynomials, scenarios, *, workers,
                                default=1.0, chunk_size=None,
                                min_parallel=MIN_PARALLEL_SCENARIOS,
                                engine="auto", retry=None,
                                shard_timeout=None):
    """Valuate a scenario family sharded across worker processes.

    :param polynomials: a :class:`~repro.core.polynomial.PolynomialSet`
        (compiled on demand, cached) or a prebuilt
        :class:`~repro.core.batch.CompiledPolynomialSet`.
    :param scenarios: a :class:`~repro.scenarios.sweep.Sweep` (workers
        regenerate shards from the spec — nothing but index ranges
        cross the pipe) or any iterable of Scenario / Valuation /
        mapping entries (streamed in chunks of coerced valuations).
    :param workers: process count; ``None``/``0``/``1`` evaluates
        serially (still chunked), as does any input smaller than
        ``min_parallel``.
    :param chunk_size: scenarios per shard (default
        :data:`~repro.scenarios.sweep.DEFAULT_CHUNK_SIZE`).
    :param min_parallel: the serial-fallback threshold; pass ``0`` to
        force the pool (the equivalence tests do).
    :param engine: ``"dense"``, ``"delta"`` or ``"auto"`` (the
        default; see the module docstring). Bit-identical answers
        whichever engine runs.
    :param retry: the :class:`~repro.util.retry.RetryPolicy` governing
        shard retries and pool respawns (default: 3 attempts, 50 ms
        base, 1 s cap). Healed results stay bit-identical to serial.
    :param shard_timeout: seconds to wait on the oldest outstanding
        shard before declaring its worker hung and respawning the pool
        (``None`` — the default — waits forever).
    :returns: the ``(S, P)`` answer matrix — bit-identical to
        :meth:`PolynomialSet.evaluate_batch
        <repro.core.polynomial.PolynomialSet.evaluate_batch>` on the
        same scenarios.
    """
    blocks = [
        values
        for _, _, values in _blocks(
            polynomials, scenarios, workers=workers, default=default,
            chunk_size=chunk_size, min_parallel=min_parallel,
            transform=None, materialize=False, engine=engine, retry=retry,
            shard_timeout=shard_timeout,
        )
    ]
    if not blocks:
        return numpy.zeros(
            (0, _compiled_of(polynomials).num_polynomials),
            dtype=numpy.float64,
        )
    if len(blocks) == 1:
        return blocks[0]
    return numpy.concatenate(blocks, axis=0)


def iter_value_blocks(polynomials, scenarios, *, default=1.0, workers=None,
                      chunk_size=None, transform=None, materialize=True,
                      engine="auto", retry=None, shard_timeout=None):
    """Stream ``(start, scenarios_chunk, values_chunk)`` blocks.

    The O(k)-memory backbone of :func:`~repro.scenarios.analysis.top_k`
    and :func:`~repro.scenarios.analysis.sensitivity`: the full
    ``(S, P)`` matrix is never held — each yielded block pairs a chunk
    of the original scenario objects with its ``(chunk, P)`` values.
    With ``workers > 1`` and at least :data:`MIN_PARALLEL_SCENARIOS`
    scenarios (or an unsized iterable), chunk evaluation shards across
    a process pool for every input shape: Sweep shards ship as index
    ranges; generic iterables (and transformed entries — transforms run
    in the parent, they may close over un-picklable state) ship as
    coerced valuations. Pool failures heal exactly as in
    :func:`evaluate_scenarios_parallel` (same ``retry`` /
    ``shard_timeout`` knobs), and blocks still arrive in order.

    :param transform: optional per-scenario callable applied before
        evaluation (e.g. lifting onto an artifact's meta-variables);
        the yielded scenario objects stay untransformed so callers keep
        names and change-sets.
    :param materialize: when ``False`` and the input is a
        :class:`~repro.scenarios.sweep.Sweep` evaluated without a
        transform, blocks carry ``None`` instead of the scenario chunk
        — the caller indexes ``scenarios[i]`` for the few entries it
        keeps instead of the parent regenerating every shard the
        workers already generated.
    :param engine: ``"dense"``, ``"delta"`` or ``"auto"`` (the
        default; see the module docstring).
    """
    return _blocks(
        polynomials, scenarios, workers=workers, default=default,
        chunk_size=chunk_size, min_parallel=MIN_PARALLEL_SCENARIOS,
        transform=transform, materialize=materialize, engine=engine,
        retry=retry, shard_timeout=shard_timeout,
    )
