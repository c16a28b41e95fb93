"""Micro-batching: coalesce concurrent single-scenario asks.

The compiled evaluator's throughput comes from batching — one
``ask_many`` over S scenarios costs one lift pass plus one matrix
product, while S separate ``ask`` calls pay S evaluator invocations.
Interactive clients, though, naturally send one scenario per request.
The :class:`MicroBatcher` bridges the two: a request parks under its
key (artifact, default); every open batch flushes — one evaluator call
per key, the answers fanned back out to the waiting requests — once no
admitted request is still on its way to the batcher, or once
``max_batch`` asks are parked in total.

There is no timer. The check runs one event-loop turn after an ask
parks and again whenever an admitted request leaves, so a lone ask is
answered one loop turn after it parks, while asks admitted together
park before the check runs and share one evaluator call. A request
still arriving over the network is not admitted, so no batch waits on
a slow client.

``max_batch=1`` disables coalescing — every request is its own batch of
one. The service bench's *uncoalesced* arm runs exactly that
configuration, so the gated speedup measures what the batcher (plus the
warm lift index it feeds) buys.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable, Hashable, Sequence

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce awaitable submissions per key until nothing else is
    on its way.

    :param max_batch: flush every open batch once this many asks are
        parked across all keys. It bounds how long one flush holds the
        loop, and how many later asks an ask for a quiet key can wait
        behind.
    :param admitted: the number of requests admitted and not yet
        finished, parked ones included (the service passes its
        in-flight count). Without it every check flushes, so a
        standalone batcher coalesces the asks submitted within one loop
        turn.

    Evaluation runs synchronously on the event loop at flush time —
    the evaluator is CPU-bound NumPy, so handing it to a thread would
    only add handoff latency under the GIL. ``batch_sizes`` histograms
    every flushed batch (size → count) for the bench stage.
    """

    def __init__(
        self,
        max_batch: int = 64,
        admitted: Callable[[], int] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self._admitted = admitted
        #: key -> ([(item, future), ...], evaluate)
        self._pending: dict = {}
        self._check: asyncio.Handle | None = None
        self.batch_sizes: dict[int, int] = {}
        self.batches = 0
        self.coalesced = 0  # requests answered by a batch of size > 1

    async def submit(
        self,
        key: Hashable,
        item: object,
        evaluate: Callable[[list], Sequence],
    ) -> object:
        """Queue ``item`` under ``key``; resolve to its result.

        ``evaluate`` answers the whole batch (``items -> results``,
        index-aligned); the first submission of a batch donates the
        callable — all submissions sharing a key must be answerable by
        the same call, which the key (artifact id, default) guarantees.
        """
        future = asyncio.get_running_loop().create_future()
        bucket = self._pending.get(key)
        if bucket is None:
            bucket = self._pending[key] = ([], evaluate)
        bucket[0].append((item, future))
        if self.pending >= self.max_batch:
            self.drain()
        else:
            self.recheck()
        try:
            return await future
        except asyncio.CancelledError:
            # A waiter past its deadline leaves its batch: it no longer
            # counts as parked, and its item is not evaluated.
            entries = bucket[0]
            entries[:] = [entry for entry in entries if entry[1] is not future]
            if not entries and self._pending.get(key) is bucket:
                del self._pending[key]
            raise

    def recheck(self) -> None:
        """Run the flush check on the next loop turn.

        Called when an ask parks and whenever an admitted request
        leaves; at most one check is pending. The check is deferred
        rather than run in place: the loop turn lets requests that were
        admitted meanwhile (on Python 3.11, ``wait_for`` starts the
        handler a turn later) park in the same batch.
        """
        if self._pending and self._check is None:
            self._check = asyncio.get_running_loop().call_soon(self._settle)

    def _settle(self) -> None:
        self._check = None
        if self._admitted is None or self._admitted() <= self.pending:
            self.drain()

    def _flush(self, key: Hashable) -> None:
        bucket = self._pending.pop(key, None)
        if bucket is None:
            return
        entries, evaluate = bucket
        items = [item for item, _ in entries]
        size = len(items)
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.batches += 1
        if size > 1:
            self.coalesced += size
        try:
            results = evaluate(items)
        except BaseException as error:  # fan the failure out to every waiter
            for _, future in entries:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(entries, results, strict=True):
            if not future.done():
                future.set_result(result)

    def drain(self) -> None:
        """Flush every open batch now (the cap, the settled check and
        graceful shutdown).

        Flushing resolves the parked futures synchronously, so after
        ``drain()`` returns no request is waiting on the batcher; the
        connection handlers still need a loop turn to write their
        responses out.
        """
        for key in list(self._pending):
            self._flush(key)

    @property
    def pending(self) -> int:
        """Requests currently parked in open batches."""
        return sum(len(entries) for entries, _ in self._pending.values())
