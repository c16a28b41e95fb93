"""End-to-end benchmark of the provenance-abstraction system.

Runs one seeded workload over the in-repo TPC-H generator through the
real product path, times only the calls a user waits on, checks the
answers outside the timers, and prints every metric by name with its
unit. The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``). Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {build,sweep,serve} --seed 1 \\
        --seconds 8 --trace 0

A failed check exits 1 (the result line says ``"correct": false``);
a checkout without ``src/repro`` exits 2 before printing a result.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys

import common

#: End-to-end metrics: name -> unit (direction and bound in BENCHMARK.json).
E2E = {
    "setup_s": "s",
    "capture_s": "s",
    "compress_s": "s",
    "extend_ms": "ms",
    "granularity_kept": "ratio",
    "artifact_bytes": "bytes",
    "suite_per_s": "1/s",
    "sweep_per_s": "1/s",
    "answer_error": "ratio",
    "exact_share": "ratio",
    "asks_per_s": "1/s",
    "ask_p50_ms": "ms",
    "rss_mb": "MB",
}

#: Timing metrics, compared between the untraced and traced windows.
#: ``True`` where higher is better.
TIMED = {
    "capture_s": False,
    "compress_s": False,
    "extend_ms": False,
    "suite_per_s": True,
    "sweep_per_s": True,
    "asks_per_s": True,
    "ask_p50_ms": False,
}

#: Flows whose wall time the traced run attributes to layers.
FLOWS = ("capture", "compress", "extend", "load", "suite", "sweep", "ask", "serve")

#: Per-layer metrics: name -> unit.
LAYERS = {
    "engine.execute_s": "s",
    "engine.rows": "count",
    "engine.monomials": "count",
    "algorithms.solve_s": "s",
    "algorithms.rounds": "count",
    "abstraction.abstract_s": "s",
    "batch.compile_s": "s",
    "batch.evaluate_s": "s",
    "batch.rows": "count",
    "batch.delta_share": "ratio",
    "binfmt.write_s": "s",
    "binfmt.read_s": "s",
    "parser.parse_s": "s",
    "api.lift_s": "s",
    "mutation.extend_s": "s",
    "mutation.repaired_share": "ratio",
    "scenarios.first_block_s": "s",
    "scenarios.wait_s": "s",
    "scenarios.shards": "count",
    "http.overhead_ms": "ms",
    "batcher.wait_ms": "ms",
    "batcher.mean_batch": "count",
    "store.hit_share": "ratio",
    "store.evictions": "count",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "warm.lift_s": "s",
    "service.shed": "count",
    "service.timed_out": "count",
    **{f"{flow}.unattributed_share": "ratio" for flow in FLOWS},
    "reference.raw_per_s": "1/s",
    "trace.overhead_share": "ratio",
}

#: Per-layer self times reported directly: metric -> tracer key.
SELF_TIMES = {
    "engine.execute_s": "engine.execute",
    "algorithms.solve_s": "algorithms.solve",
    "abstraction.abstract_s": "abstraction.abstract",
    "batch.compile_s": "batch.compile",
    "batch.evaluate_s": "batch.evaluate",
    "binfmt.write_s": "binfmt.write",
    "binfmt.read_s": "binfmt.read",
    "parser.parse_s": "parser.parse",
    "api.lift_s": "api.lift",
    "mutation.extend_s": "mutation.extend",
    "scenarios.first_block_s": "scenarios.first_block",
    "scenarios.wait_s": "scenarios.wait",
    "warm.lift_s": "warm.lift",
}

#: A run must end well inside the 180 s every invocation is allowed.
ALARM_SECONDS = 170

#: Calibration samples taken before and after each set-up, whose
#: timings no timed section brackets.
CALIBRATION_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_workload(name):
    import build
    import serve
    import sweep

    return {"build": build, "sweep": sweep, "serve": serve}[name]


def _setup(module, inputs, work, repeats, ledger, traced=False):
    """Set up ``repeats`` times; ``(median seconds, last state, records)``."""
    import flows

    flows.set_phase("setup")
    times = []
    records = []
    state = None
    for _ in range(repeats):
        if state is not None:
            module.discard(state)
            state = None
        flows.calibrate(force=CALIBRATION_REPEATS)
        directory = os.path.join(work, f"setup-{len(os.listdir(work))}")
        os.makedirs(directory)
        calibrating = flows.spent()
        seconds, state = common.timed(module.setup, inputs, directory, traced)
        # Less the calibration samples of the sections inside set-up.
        seconds -= flows.spent() - calibrating
        flows.calibrate(force=CALIBRATION_REPEATS)
        # The inputs and set-up state the harness holds for the whole run
        # (the TPC-H tables, the captures) would otherwise be rescanned by
        # every full garbage collection inside the timed work.
        gc.freeze()
        times.append(seconds)
        records.append(getattr(state, "record", {}))
        if hasattr(state, "ledger"):
            ledger.merge(state.ledger)
    return common.median(times), state, records


def _window(module, state, seconds, flows, ledger, verify):
    window = module.measure(state, seconds, flows, ledger)
    if verify:
        module.verify(state, window)
    metrics, notes = module.metrics(state, window)
    return window, metrics, notes


def run(args):
    import flows as flows_module
    import tracing

    module = load_workload(args.workload)
    ledger = common.Ledger()
    lines = []
    with common.work_dir(args.workload) as work:
        if not args.trace:
            calibration = flows_module.Calibration()
            flows_module.activate(calibration)
            try:
                inputs, prepared = module.prepare(args.seed)
                rounds = getattr(module, "ROUNDS", 1)
                setups = []
                records = []
                windows = []
                for _ in range(rounds):
                    setup_s, state, records_now = _setup(
                        module, inputs, work, module.SETUP_REPEATS, ledger
                    )
                    setups.append(setup_s)
                    records.extend(records_now)
                    flows_module.set_phase("window")
                    try:
                        window, measured, notes = _window(
                            module, state, args.seconds / rounds,
                            flows_module.Flows(), ledger, True,
                        )
                    finally:
                        module.discard(state)
                    windows.append(measured)
            finally:
                flows_module.activate(None)
            # Every timing but set-up's comes from a timed section, at the
            # reference box speed already (flows.Calibration); set-up
            # takes the median speed of the samples around set-ups.
            setup_s = common.median(setups)
            metrics = {
                **common.combine([prepared]), **common.combine(records),
                **common.combine(windows), "setup_s": setup_s * calibration.speed("setup"),
            }
            missing = set(E2E) - {k for k, v in metrics.items() if v is not None}
            if missing:
                raise RuntimeError(f"workload reported no {sorted(missing)}")
            for name, unit in E2E.items():
                lines.append(f"{name}: {metrics[name]:.6g} {unit}")
            lines.append(f"note setup_s measured: {setup_s:.6g} s")
            lines.extend(
                f"note box_speed {phase}: {calibration.speed(phase):.4f} ({len(samples)} samples)"
                for phase, samples in calibration.samples.items()
            )
            lines.append(f"error_rate: {ledger.error_rate:.6g} ratio "
                         f"({ledger.total_failed}/{ledger.total_attempted})")
            lines.extend(f"note {key}: {value}" for key, value in sorted(notes.items()))
            result = {name: {"value": metrics[name], "unit": E2E[name]} for name in E2E}
        else:
            inputs, _ = module.prepare(args.seed)
            _, state, _ = _setup(module, inputs, work, 1, ledger)
            try:
                if not module.SERVER:
                    # One unmeasured pass first, so that the untraced and
                    # the traced window both start from a warm process.
                    module.measure(state, 1e-3, flows_module.Flows(), common.Ledger())
                window, plain, _ = _window(
                    module, state, args.seconds, flows_module.Flows(), ledger, True
                )
                if module.SERVER:
                    module.discard(state)
                    state = None
                    _, state, _ = _setup(module, inputs, work, 1, ledger, traced=True)
                    tracer = None
                else:
                    tracer = tracing.Tracer()
                    tracing.install(tracer)
                flows = flows_module.Flows(tracer)
                try:
                    traced_window, traced, _ = _window(
                        module, state, args.seconds, flows, ledger, False
                    )
                finally:
                    if tracer is not None:
                        tracer.uninstall()
            finally:
                if state is not None:
                    module.discard(state)
            layers, report = layer_metrics(module, window, traced_window, flows, plain, traced)
            lines.extend(report)
            result = {name: {"value": layers[name], "unit": LAYERS[name]} for name in LAYERS}
    return ledger, lines, result


def layer_metrics(module, window, traced_window, flows, plain, traced):
    """Per-layer metrics of the traced window, plus the printed breakdown."""
    import tracing

    totals = {}
    for part in flows.totals.values():
        tracing.accumulate(totals, part)
    self_ns = totals.get("self_ns", {})
    total_ns = totals.get("total_ns", {})
    calls = totals.get("calls", {})
    counts = totals.get("counts", {})

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    layers = {name: self_ns.get(key, 0) / 1e9 for name, key in SELF_TIMES.items()}
    evaluate_calls = calls.get("batch.evaluate", 0) - counts.get("batch.delta_calls", 0)
    layers.update({
        "engine.rows": counts.get("engine.rows", 0),
        "engine.monomials": counts.get("engine.monomials", 0),
        "algorithms.rounds": counts.get("algorithms.rounds", 0),
        "batch.rows": counts.get("batch.rows", 0),
        "batch.delta_share": ratio(counts.get("batch.delta_calls", 0), evaluate_calls),
        "mutation.repaired_share": ratio(
            counts.get("mutation.repaired", 0), counts.get("mutation.extends", 0)
        ),
        "scenarios.shards": counts.get("scenarios.blocks", 0),
        "batcher.wait_ms": ratio(
            total_ns.get("batcher.submit", 0) - counts.get("batcher.eval_ns_x_size", 0),
            calls.get("batcher.submit", 0),
        ) / 1e6,
        "store.get_ms": ratio(total_ns.get("store.get", 0), calls.get("store.get", 0)) / 1e6,
        "store.put_ms": ratio(total_ns.get("store.put", 0), calls.get("store.put", 0)) / 1e6,
        "reference.raw_per_s": window["raw_per_s"],
    })
    service = getattr(module, "service_metrics", None)
    for name in ("http.overhead_ms", "batcher.mean_batch", "store.hit_share",
                 "store.evictions", "service.shed", "service.timed_out"):
        layers[name] = 0
    if service is not None:
        layers.update(service(traced_window, totals))

    report = []
    for flow in FLOWS:
        part = flows.totals.get(flow)
        if not part:
            layers[f"{flow}.unattributed_share"] = 0.0
            continue
        rows, unattributed = tracing.breakdown(part)
        layers[f"{flow}.unattributed_share"] = unattributed
        report.append(f"flow {flow}: wall {part['wall_ns'] / 1e9:.4f} s")
        for key, seconds, share in rows:
            report.append(f"  {key:<24} {seconds:10.4f} s {share:7.1%}")
        report.append(f"  {'unattributed':<24} {'':10} {unattributed:7.1%}")

    slowdowns = []
    report.append("tracing overhead (traced vs untraced window):")
    for name, higher in TIMED.items():
        if name not in plain:
            continue  # measured during set-up, which is not traced
        before, after = plain[name], traced[name]
        slowdown = (before / after if higher else after / before) - 1
        slowdowns.append(slowdown)
        report.append(f"  {name:<16} {before:12.6g} -> {after:12.6g} {E2E[name]:<5} "
                      f"{slowdown:+.1%}")
    layers["trace.overhead_share"] = common.median(slowdowns)
    for name, unit in LAYERS.items():
        report.append(f"{name}: {layers[name]:.6g} {unit}")
    return layers, report


def _alarm(signum, frame):
    raise TimeoutError(f"run exceeded {ALARM_SECONDS} s")


def stop_children():
    """Wait for every process the run started to end.

    Sweep pools are joined by the program itself, but the first shared
    memory segment a sharded sweep publishes starts multiprocessing's
    resource tracker, which would otherwise end only after this process
    has exited, as an orphan.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None):
    args = parse_args(argv)
    common.require_source()
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_SECONDS)
    try:
        ledger, lines, result = run(args)
    except common.VerificationError as error:
        print(f"perfbench: verification failed: {error}", file=sys.stderr)
        common.emit({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
        return 1
    finally:
        signal.alarm(0)
        stop_children()
    for line in lines:
        print(line)
    common.emit({
        "correct": True,
        "attempted": max(1, ledger.total_attempted),
        "failed": ledger.total_failed,
        "metrics": result,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
