"""Timed sections grouped into flows, with per-layer attribution.

A *flow* is one kind of work a user waits on (capture, compress,
extend, a suite ask, a sweep, ...). :class:`Flows` times each section of
a flow with ``perf_counter`` and, when a tracer is installed, records
what the layers did during exactly those sections, so a flow's
breakdown covers the timed work and nothing else.

:class:`Calibration` measures the box's speed between timed sections,
so timings can be reported at a reference speed (see README.md).
"""

from __future__ import annotations

import gc
import os
import random
import struct
import time
from contextlib import contextmanager

import common
import tracing


def _calibration_loop():
    """A fixed, object-heavy pure-Python workload (dicts of tuples,
    string keys, list appends, a sort), independent of the program;
    returns its seconds."""
    start = time.perf_counter()
    rng = random.Random(7)
    table = {}
    for i in range(15_000):
        table.setdefault((i % 97, f"k{i % 1013}"), []).append(rng.random() * i)
    sum(sum(values) for values in sorted(table.values(), key=len))
    return time.perf_counter() - start


def _loop_on_cores(cores):
    """Mean loop time of ``cores`` copies run at once: this process and
    ``cores - 1`` forked children, which the kernel spreads over the
    cores as it does a sweep's workers."""
    if cores <= 1:
        return _calibration_loop()
    read_fd, write_fd = os.pipe()
    children = []
    try:
        for _ in range(cores - 1):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.write(write_fd, struct.pack("d", _calibration_loop()))
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        os.close(write_fd)
        write_fd = None
        times = [_calibration_loop()]
        with os.fdopen(read_fd, "rb") as pipe:
            read_fd = None
            data = pipe.read()  # to EOF: every child has written and exited
        times.extend(struct.unpack(f"{len(data) // 8}d", data))
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.close(fd)
    return sum(times) / len(times)


class Calibration:
    """The box's speed, sampled with a fixed loop between timed sections.

    A speed is ``REFERENCE_S`` over a loop time: 1.0 on a box where the
    loop takes ``REFERENCE_S``, below 1 on a slower one. The reference
    box's speed moves by ±40% within seconds and by a third between
    10-second stretches, and each of its two cores moves on its own. The
    loop therefore runs in this process, on the core and at the moments
    the program runs, with the garbage collector off so that the heap
    the run holds cannot slow it. ``sample`` runs it at most once per
    ``INTERVAL_S`` unless forced. A timed section (:meth:`Flows.section`)
    takes the speed of the samples just before and just after it;
    ``speed(phase)`` is the median over a phase (``prepare``, ``setup``,
    ``window``), for set-up times, which enclose sections; ``spent`` is
    the time the samples took, which those leave out. On the reference
    box, timing a repeated capture + compress against the loop run
    between its repetitions took the run-to-run spread over 10-second
    runs from 0.24 to 0.03.
    """

    REFERENCE_S = 0.012
    INTERVAL_S = 0.25

    def __init__(self):
        self.samples = {}
        self.phase = "prepare"
        self.last = None
        self.history = []
        self.spent = 0.0

    def sample(self, force=False, cores=1):
        now = time.perf_counter()
        if not force and self.last is not None and now - self.last < self.INTERVAL_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            seconds = _loop_on_cores(cores)
        finally:
            if enabled:
                gc.enable()
        self.history.append(seconds)
        self.samples.setdefault(self.phase, []).append(seconds)
        self.last = time.perf_counter()
        self.spent += self.last - now

    def recent(self, count):
        """Mean loop time of the last ``count`` samples."""
        return sum(self.history[-count:]) / len(self.history[-count:])

    def speed(self, phase):
        return self.REFERENCE_S / common.median(self.samples[phase])


#: The calibration of an untraced run; ``None`` when nothing is normalized.
_active = None


def activate(calibration):
    global _active
    _active = calibration


def set_phase(phase):
    """Charge the active calibration's next samples to ``phase``."""
    if _active is not None:
        _active.phase = phase


def spent():
    """Seconds the active calibration's samples have taken so far."""
    return 0.0 if _active is None else _active.spent


def calibrate(force=0, cores=1):
    """Sample the active calibration: ``force`` times now, or once if
    the last sample is older than its interval; on ``cores`` cores.
    Returns the mean loop time of the samples just taken (of the last
    one, if none was due), or ``None`` without an active calibration."""
    if _active is None:
        return None
    if not force:
        _active.sample(cores=cores)
    for _ in range(force):
        _active.sample(force=True, cores=cores)
    return _active.recent(max(force, 1))


class Section:
    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = 0.0


class Flows:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.totals = {}

    @contextmanager
    def section(self, name, samples=0, cores=1):
        """Time the body as one section of flow ``name``.

        Under an active calibration, ``seconds`` is at the reference box
        speed, divided by the speed of the loop samples around the
        section: the last one before it and, when the section outlasted
        the sampling interval, one right after it; or, for a long
        section, ``samples`` taken right before and as many right after
        it. A section whose work runs on ``cores`` cores at once (a
        sharded sweep) samples on as many.
        """
        loop_before = calibrate(samples, cores)
        tracer = self.tracer
        before = tracer.snapshot() if tracer is not None else None
        section = Section()
        start = time.perf_counter()
        yield section
        seconds = time.perf_counter() - start
        if tracer is not None:
            part = tracing.diff(before, tracer.snapshot())
            tracing.accumulate(self.totals.setdefault(name, {}), part)
        if loop_before is None:
            section.seconds = seconds
            return
        loop = (loop_before + calibrate(samples, cores)) / 2
        section.seconds = seconds * Calibration.REFERENCE_S / loop

    def add(self, name, part):
        """Add an interval measured elsewhere (e.g. in the server)."""
        tracing.accumulate(self.totals.setdefault(name, {}), part)
