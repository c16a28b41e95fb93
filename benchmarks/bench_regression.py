"""Perf regression benchmark: the hot paths, before vs after, as JSON.

Times the hot layers of the system on standard synthetic workloads and
writes ``BENCH_core.json`` at the repository root so every PR leaves a
perf trajectory behind:

* **greedy** — Algorithm 2, the incremental lazy-priority-queue
  :func:`greedy_vvs` (trajectory only: absolute seconds, rounds and
  workload size; its equality with the paper's literal rescan is
  asserted by the oracle suite in ``tests/``);
* **optimal** — Algorithm 1 end to end (trajectory only);
* **abstraction** — ``P↓S`` materialization and the counting-only
  ``abstract_counts`` (trajectory only);
* **batch valuation** — a 256-scenario suite through
  ``PolynomialSet.evaluate_batch`` against the per-scenario interpreter
  loop (same values, asserted);
* **sweep** — a seeded Monte-Carlo ``Sweep`` evaluated serially vs.
  sharded across a process pool (bit-identical matrices, asserted),
  plus streaming ``top_k`` over the sweep;
* **sweep_delta** — a one-at-a-time sweep over the full alphabet
  evaluated with ``engine="dense"`` vs. ``engine="delta"`` (baseline +
  sparse per-scenario patches; bit-identical matrices, asserted) — the
  small-delta workload the paper's repeated-modification premise
  implies, with a contract floor of 5x;
* **compress_scale** — end-to-end ``ProvenanceSession.compress`` on a
  dedicated 10x-scale provenance (~100k monomials in ``full`` mode)
  through the columnar compression core (trajectory only: absolute
  seconds, the selected cut's losses and workload size);
* **incremental** — live-artifact maintenance at the compress_scale
  workload: appending a ~10% batch of polynomials via the repair-path
  ``CompressedProvenance.refresh`` (delta abstraction + in-place
  columnar/compiled repair, see ``repro.api.mutation``) against a
  from-scratch ``ProvenanceSession.compress`` over the extended
  provenance — the repaired artifact's polynomials and ``ask_many``
  answers asserted bit-identical to a from-scratch recompress at the
  same cut, with a contract floor of 5x;
* **artifact_io** — loading a saved artifact at the compress_scale
  workload: the JSON envelope (full parse + object rebuild) against
  the binary ``.rpb`` container (``mmap`` + O(1) header read, NumPy
  views over the map; see ``repro.core.binfmt``) — answers asserted
  bit-identical across the original and both reloads, with a
  contract floor of 10x;
* **session** — the end-to-end facade: ``ProvenanceSession`` →
  ``compress`` (auto policy) → ``ask_many`` over the suite, plus the
  artifact's JSON round-trip (reloaded artifact answers asserted
  identical);
* **service** — the what-if HTTP server (``repro.service``) under a
  16-client closed-loop single-scenario barrage: naive per-request
  dispatch (``max_batch=1``, each scenario lifted by the definitional
  walk over every group of the cut) against the production serving
  stack at its defaults (micro-batch coalescing + the cut's lift
  index), answers asserted bit-identical to direct ``ask_many``, with
  a contract floor of 3x; also records p50/p99 latency and the
  coalesced batch-size histogram.

The JSON document (schema ``repro-bench-core/8``) keys one run entry
per mode under ``runs`` and merges into an existing file, so the
checked-in baseline can carry the ``full`` trajectory *and* the
``smoke`` entry CI gates on. ``--check BASELINE`` compares the current
run's speedup/error fields against the same-mode entry of a committed
baseline and exits non-zero on regression (see
:data:`CHECK_FIELDS`) — the CI perf gate. ``--stage NAME``
(repeatable) runs a subset of stages — partial runs merge their
results into the output's existing same-mode entry and the gate only
checks the stages that ran.

Self-contained on purpose: imports only ``repro`` and the standard
library, so ``python -m repro bench`` can run it from a checkout
without the rest of the experiment harness. Modes:

* default (``full``) — the scales quoted in BENCHMARKS.md;
* ``--smoke`` — finishes in well under 30 s, same code paths;
* ``--tiny`` — seconds; used by the test suite to exercise the bench.

Usage::

    python benchmarks/bench_regression.py [--smoke | --tiny]
        [--repeat N] [--output PATH] [--quiet]
        [--check BASELINE [--tolerance 0.35]]
    python -m repro bench [same flags]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import sys
import tempfile
from unittest import mock

from repro.algorithms.greedy import greedy_vvs
from repro.algorithms.optimal import optimal_vvs
from repro.api.session import ProvenanceSession
from repro.core import serialize
from repro.core.abstraction import abstract, abstract_counts
from repro.core.forest import AbstractionForest
from repro.core.valuation import NonUniformError, Valuation
from repro.scenarios.analysis import top_k
from repro.scenarios.parallel import evaluate_scenarios_parallel
from repro.scenarios.sweep import Sweep
from repro.util.rng import derive_rng
from repro.util.timing import time_call
from repro.workloads.random_polys import random_polynomials
from repro.workloads.trees import layered_tree

SCHEMA = "repro-bench-core/8"

#: Stage names accepted by ``--stage`` (run order is fixed).
STAGES = (
    "greedy",
    "optimal",
    "abstraction",
    "batch_valuation",
    "sweep",
    "sweep_delta",
    "compress_scale",
    "incremental",
    "artifact_io",
    "session",
    "service",
)

#: Workload scales per mode: (pool leaves, tree fanouts, #polynomials,
#: monomials per polynomial, free variables, #scenarios, sweep size).
#: ``delta_polynomials``/``delta_monomials`` size the dedicated
#: sweep_delta provenance — full-scale even under ``--smoke`` (the
#: stage costs well under a second either way), so the CI smoke gate
#: enforces the delta engine's 5x contract at the scale where it is
#: stated rather than a toy ratio.
MODES = {
    "full": dict(
        leaves=512, fanouts=(4, 4, 4, 4), polynomials=80,
        monomials=120, free_variables=40, scenarios=256,
        sweep_scenarios=49152, sweep_changes=20,
        delta_polynomials=80, delta_monomials=120,
        # 10x the main workload: ~100k monomials, the scale the
        # columnar compression core's 5x contract is stated for.
        compress_polynomials=800, compress_monomials=120,
        service_clients=16, service_requests=512,
        service_polynomials=16, service_monomials=2400,
        service_leaves=2048, service_fanouts=(4, 4, 4, 4, 4),
    ),
    "smoke": dict(
        leaves=256, fanouts=(4, 4, 4), polynomials=30,
        monomials=60, free_variables=20, scenarios=256,
        sweep_scenarios=24576, sweep_changes=20,
        delta_polynomials=80, delta_monomials=120,
        # Reduced but still far above the columnar auto threshold
        # (~38k monomials), so the gated ratio is not sub-ms jitter.
        compress_polynomials=320, compress_monomials=120,
        # The full 16-client fleet and artifact scale even in smoke —
        # the 3x coalescing contract is stated at that concurrency on
        # a serving-sized artifact (wide alphabet, deep hierarchy:
        # that is what makes the naive arm's per-request lift walk
        # expensive); fewer requests only shortens the run.
        service_clients=16, service_requests=192,
        service_polynomials=16, service_monomials=2400,
        service_leaves=2048, service_fanouts=(4, 4, 4, 4, 4),
    ),
    "tiny": dict(
        leaves=32, fanouts=(4, 4), polynomials=6,
        monomials=15, free_variables=5, scenarios=16,
        sweep_scenarios=96, sweep_changes=5,
        # Larger than the rest of tiny on purpose: the stage's gated
        # quantity is a ratio of two timings, and sub-ms arms would
        # make the tiny self-check tests jitter-flaky.
        delta_polynomials=30, delta_monomials=120,
        compress_polynomials=12, compress_monomials=30,
        service_clients=4, service_requests=16,
        service_polynomials=4, service_monomials=120,
        service_leaves=64, service_fanouts=(4, 4),
    ),
}

#: The (stage, field, direction, floor_cap, min_cpus) tuples
#: ``--check`` gates on. Only dimensionless ratios and error bounds are
#: compared — raw seconds are machine-dependent, speedups of two
#: timings on the *same* machine mostly are not. ``sweep.speedup`` is
#: the exception: it scales with core count, so its required floor is
#: capped at the 2× multi-core contract — a baseline regenerated on a
#: many-core box must not demand many-core ratios from a 4-core CI
#: runner — and gated only when the checked run has ``min_cpus`` cores
#: (a 1-core box honestly records the pool overhead as a sub-1x ratio;
#: the number stays in the entry, the gate just doesn't fail on it).
#: ``sweep_delta.speedup`` is capped at its 5× contract the same way:
#: the delta engine must beat dense by at least 5× on the
#: one-at-a-time stage, but a baseline from a machine where it beats
#: it by far more must not demand that margin everywhere.
CHECK_FIELDS = (
    ("batch_valuation", "speedup", "higher", None, None),
    ("batch_valuation", "max_abs_error", "lower", None, None),
    ("sweep", "speedup", "higher", 2.0, 2),
    ("sweep", "max_abs_error", "lower", None, None),
    ("sweep_delta", "speedup", "higher", 5.0, None),
    ("sweep_delta", "max_abs_error", "lower", None, None),
    # Repair-path extend (delta abstraction + in-place index repair)
    # must beat a from-scratch recompress of the extended provenance by
    # at least 5x at compress_scale workload size — the incremental
    # maintenance contract of ``repro.api.mutation``.
    ("incremental", "speedup", "higher", 5.0, None),
    # mmap loads must beat JSON parsing by 10x at compress_scale
    # workload size — the zero-copy container's contract.
    ("artifact_io", "speedup", "higher", 10.0, None),
    # The serving stack (micro-batch coalescing + the cut's lift
    # index) must answer a 16-client single-scenario barrage at
    # least 3x faster than naive per-request facade dispatch, with
    # bit-identical answers (asserted in the stage).
    ("service", "speedup", "higher", 3.0, None),
)

#: Default allowed relative regression for ``--check``.
DEFAULT_TOLERANCE = 0.35

#: The second (months-style) hierarchy of the greedy forest workload.
SIDE_TREE_LEAVES = 12


def build_workload(mode, seed=3):
    """(provenance, forest, single tree) for the given mode.

    Shape follows the paper's experiments: one deep hierarchy over a
    large alphabet (the TPC-H supplier tree of Figure 4) plus one small
    flat hierarchy (the months of Figure 3), with free variables
    playing the non-abstracted indeterminates.
    """
    spec = MODES[mode]
    pool = [f"s{i}" for i in range(spec["leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    provenance = random_polynomials(
        spec["polynomials"],
        spec["monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )
    main_tree = layered_tree(pool, spec["fanouts"], prefix="sup")
    side_tree = layered_tree(side_pool, (4,), prefix="q")
    forest = AbstractionForest([main_tree, side_tree]).clean(provenance)
    single = main_tree.clean(provenance.variables)
    return provenance, forest, single


def build_scenarios(provenance, count, changes=20, seed=11):
    """Random multiplicative scenarios over the provenance alphabet."""
    rng = derive_rng(seed, "bench_regression")
    variables = sorted(provenance.variables)
    return [
        Valuation({
            variables[rng.randrange(len(variables))]: rng.uniform(0.5, 1.5)
            for _ in range(changes)
        })
        for _ in range(count)
    ]


def bench_greedy(provenance, forest, repeat):
    bound = max(1, provenance.num_monomials // 3)
    seconds, result = time_call(
        greedy_vvs, provenance, forest, bound, clean=False, repeat=repeat
    )
    return {
        "bound": bound,
        "monomials": provenance.num_monomials,
        "variables": provenance.num_variables,
        "rounds": len(result.trace),
        "seconds": seconds,
    }


def bench_optimal(provenance, tree, repeat):
    forest = AbstractionForest([tree])
    root_size, _ = abstract_counts(provenance, forest.root_vvs().mapping())
    total = provenance.num_monomials
    bound = max(1, total - (total - root_size) // 2)
    seconds, result = time_call(
        optimal_vvs, provenance, tree, bound, clean=False, repeat=repeat
    )
    return {
        "bound": bound,
        "monomials": total,
        "seconds": seconds,
        "variable_loss": result.variable_loss,
    }


def bench_abstraction(provenance, forest, repeat):
    mapping = forest.root_vvs().mapping()
    sub_seconds, abstracted = time_call(
        abstract, provenance, forest.root_vvs(), repeat=repeat
    )
    count_seconds, counts = time_call(
        abstract_counts, provenance, mapping, repeat=repeat
    )
    if (abstracted.num_monomials, abstracted.num_variables) != counts:
        raise AssertionError("abstract_counts disagrees with materialization")
    return {
        "monomials": provenance.num_monomials,
        "abstracted_monomials": counts[0],
        "seconds_substitute": sub_seconds,
        "seconds_counts": count_seconds,
    }


def bench_batch_valuation(provenance, scenarios, repeat):
    """The dense compiled batch vs. the per-scenario interpreter loop.

    Pinned to ``engine="dense"`` — this stage measures what batching
    itself buys; the delta engine has its own stage (sweep_delta).
    """
    def loop(polys, valuations):
        return [valuation.evaluate(polys) for valuation in valuations]

    def batch(polys, valuations):
        return polys.evaluate_batch(valuations, engine="dense")

    batch(provenance, scenarios[:1])  # compile outside the timer
    loop_seconds, loop_values = time_call(
        loop, provenance, scenarios, repeat=repeat
    )
    batch_seconds, batch_values = time_call(
        batch, provenance, scenarios, repeat=repeat
    )
    max_error = max(
        abs(batch_values[i, j] - row[j])
        for i, row in enumerate(loop_values)
        for j in range(len(row))
    )
    if max_error > 1e-6:
        raise AssertionError(f"batch valuation diverged: max error {max_error}")
    return {
        "scenarios": len(scenarios),
        "polynomials": len(provenance),
        "monomials": provenance.num_monomials,
        "seconds_loop": loop_seconds,
        "seconds_batch": batch_seconds,
        "speedup": loop_seconds / batch_seconds if batch_seconds else float("inf"),
        "max_abs_error": max_error,
    }


def sweep_workers():
    """Worker count for the sweep stage: the cores available, capped.

    Capped at 4 so the committed numbers stay comparable between
    typical CI runners and developer machines; floored at 2 so the
    process-pool path is exercised even on single-core boxes (where the
    recorded speedup honestly reports the overhead).
    """
    return max(2, min(4, os.cpu_count() or 1))


def bench_sweep(provenance, repeat, spec):
    """Serial vs. sharded evaluation of a Monte-Carlo sweep.

    The sweep is evaluated once per timing arm — serially (chunked, one
    process) and across a process pool whose workers regenerate their
    shards from the sweep spec. The two ``(S, P)`` matrices are
    asserted *bit-identical*; ``top_k`` over the same sweep is timed to
    track the streaming-analytics overhead. Both arms are pinned to
    ``engine="dense"`` so the stage keeps measuring what sharding
    itself buys (and stays comparable across baselines); the delta
    engine has its own stage.
    """
    sweep = Sweep.random(
        sorted(provenance.variables),
        spec["sweep_scenarios"],
        changes=spec["sweep_changes"],
        seed=17,
    )
    workers = sweep_workers()
    provenance.evaluate_batch([{}], engine="dense")  # compile outside timers
    serial_seconds, serial = time_call(
        evaluate_scenarios_parallel, provenance, sweep, workers=0,
        engine="dense", repeat=repeat,
    )
    parallel_seconds, parallel = time_call(
        evaluate_scenarios_parallel, provenance, sweep, workers=workers,
        min_parallel=0, engine="dense", repeat=repeat,
    )
    difference = abs(parallel - serial)
    max_error = float(difference.max()) if difference.size else 0.0
    if max_error != 0.0:
        raise AssertionError(
            f"parallel sweep diverged from serial: max error {max_error}"
        )
    top_seconds, ranked = time_call(
        top_k, provenance, sweep, 10, repeat=repeat
    )
    return {
        "scenarios": len(sweep),
        "changes_per_scenario": spec["sweep_changes"],
        "polynomials": len(provenance),
        "monomials": provenance.num_monomials,
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "seconds_serial": serial_seconds,
        "seconds_parallel": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds
        if parallel_seconds else float("inf"),
        "max_abs_error": max_error,
        "seconds_top_k": top_seconds,
        "top_scenario": ranked[0].name if ranked else None,
    }


def bench_sweep_delta(spec, repeat, seed=23):
    """Dense vs. delta-aware sparse evaluation on a one-at-a-time sweep.

    The paper's workload shape: each scenario perturbs one variable
    around a shared baseline. ``engine="dense"`` rebuilds the full
    assignment matrix and recomputes every monomial per scenario;
    ``engine="delta"`` valuates the baseline once and per scenario
    recomputes only the monomials touching the changed variable,
    re-summing only their polynomial segments. Both compiled caches
    (the dense layers, the delta index + baseline) are warmed outside
    the timers, the two matrices are asserted **bit-identical**, and
    the measured speedup is gated by ``--check`` with a 5x contract
    floor.

    The stage builds its own provenance (``delta_polynomials`` ×
    ``delta_monomials`` over the mode's variable pools): sparse-delta
    speedup is a function of monomial volume, so it is measured at the
    scale the 5x contract is stated for even in ``--smoke`` runs.
    """
    pool = [f"s{i}" for i in range(spec["leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    provenance = random_polynomials(
        spec["delta_polynomials"],
        spec["delta_monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )
    sweep = Sweep.one_at_a_time(sorted(provenance.variables), (0.8, 1.2))
    compiled = provenance.compiled()
    warm = [{}]
    compiled.evaluate(warm, engine="dense")
    compiled.evaluate(warm, engine="delta")
    dense_seconds, dense = time_call(
        evaluate_scenarios_parallel, provenance, sweep, workers=0,
        engine="dense", repeat=repeat,
    )
    delta_seconds, delta = time_call(
        evaluate_scenarios_parallel, provenance, sweep, workers=0,
        engine="delta", repeat=repeat,
    )
    difference = abs(delta - dense)
    max_error = float(difference.max()) if difference.size else 0.0
    if max_error != 0.0:
        raise AssertionError(
            f"delta sweep diverged from dense: max error {max_error}"
        )
    return {
        "scenarios": len(sweep),
        "mean_changes": sweep.mean_changes(),
        "variables": provenance.num_variables,
        "polynomials": len(provenance),
        "monomials": provenance.num_monomials,
        "auto_engine": compiled.resolve_engine(
            "auto", mean_changes=sweep.mean_changes()
        ),
        "seconds_dense": dense_seconds,
        "seconds_delta": delta_seconds,
        "speedup": dense_seconds / delta_seconds
        if delta_seconds else float("inf"),
        "max_abs_error": max_error,
    }


def bench_compress_scale(spec, repeat, seed=31):
    """End-to-end compress on a 10x-scale workload (trajectory only).

    Times ``ProvenanceSession.compress`` — solver plus ``P↓S``
    materialization plus artifact packaging — on a dedicated provenance
    of ``compress_polynomials × compress_monomials`` (~100k monomials
    in ``full`` mode). The columnar factor arrays are cached on the
    polynomial set (like the compiled evaluator), so with
    ``repeat > 1`` the reported minimum reflects the warm-cache cost,
    matching the compile-outside-the-timer treatment of the valuation
    stages.
    """
    pool = [f"s{i}" for i in range(spec["leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    provenance = random_polynomials(
        spec["compress_polynomials"],
        spec["compress_monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )
    forest = AbstractionForest([
        layered_tree(pool, spec["fanouts"], prefix="sup"),
        layered_tree(side_pool, (4,), prefix="q"),
    ]).clean(provenance)
    session = ProvenanceSession.from_polynomials(provenance, forest)
    bound = max(1, provenance.num_monomials // 3)
    seconds, artifact = time_call(session.compress, bound, repeat=repeat)
    return {
        "bound": bound,
        "polynomials": len(provenance),
        "monomials": provenance.num_monomials,
        "variables": provenance.num_variables,
        "algorithm": artifact.algorithm,
        "monomial_loss": artifact.monomial_loss,
        "variable_loss": artifact.variable_loss,
        "abstracted_monomials": artifact.abstracted_size,
        "seconds": seconds,
    }


def bench_incremental(spec, repeat, seed=31):
    """Repair-path extend vs. from-scratch recompress after an append.

    Reuses the compress_scale workload shape (same pools, same forest,
    same bound recipe) plus one anchor polynomial touching every leaf,
    so the cleaned forest keeps its full alphabet whatever the random
    draw. A ~10% batch of new polynomials then arrives and the two ways
    of getting a current artifact race:

    * **scratch** — ``ProvenanceSession.compress`` over the extended
      provenance: full greedy solve + full ``P↓S`` materialization;
    * **repair** — ``CompressedProvenance.refresh`` (the
      ``repro.api.mutation`` pipeline): abstract only the delta under
      the existing cut, extend the columnar arrays and the compiled
      batch matrix in place, account losses arithmetically.

    ``refresh`` consumes its artifact (the mutation happens in place),
    so one fresh clone per repeat is rebuilt outside the timer via the
    JSON round-trip and warmed with an ``ask_many`` (the compiled
    evaluator the repair path must patch rather than rebuild). The
    repaired artifact's polynomials *and* its ``ask_many`` answers are
    asserted bit-identical to a from-scratch recompress at the same
    cut — ``abstract(extended, vvs)`` — which is what makes the 5x
    contract a claim about a shortcut, not a different answer.
    """
    from repro.api.artifact import CompressedProvenance
    from repro.core.polynomial import Monomial, Polynomial, PolynomialSet

    pool = [f"s{i}" for i in range(spec["leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    anchor = Polynomial({Monomial.of(leaf): 1 for leaf in pool + side_pool})
    base = PolynomialSet(list(random_polynomials(
        spec["compress_polynomials"],
        spec["compress_monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )) + [anchor])
    added = random_polynomials(
        max(1, spec["compress_polynomials"] // 10),
        spec["compress_monomials"],
        [pool, side_pool],
        seed=seed + 1,
        extra_variables=spec["free_variables"],
    )
    extended = PolynomialSet(list(base) + list(added))
    forest = AbstractionForest([
        layered_tree(pool, spec["fanouts"], prefix="sup"),
        layered_tree(side_pool, (4,), prefix="q"),
    ]).clean(base)
    bound = max(1, base.num_monomials // 3)
    template = ProvenanceSession.from_polynomials(base, forest).compress(
        bound
    )
    scenarios = build_scenarios(base, 32, seed=17)

    # One pre-warmed clone per repeat: refresh mutates its artifact, so
    # a timed repeat must never see an already-extended one.
    payload = serialize.artifact_to_dict(template)
    clones = []
    for _ in range(repeat):
        clone = serialize.artifact_from_dict(payload)
        clone.ask_many(scenarios)
        clones.append(clone)
    mutations = []

    def repair():
        mutation = clones.pop().refresh(added, drift_limit=float("inf"))
        mutations.append(mutation)
        return mutation

    repair_seconds, mutation = time_call(repair, repeat=repeat)
    scratch_session = ProvenanceSession.from_polynomials(extended, forest)
    scratch_seconds, scratch = time_call(
        scratch_session.compress, bound, repeat=repeat
    )

    if mutation.path != "repaired":
        raise AssertionError(f"extend fell back to {mutation.path}")
    repaired = mutation.artifact
    reference = CompressedProvenance(
        abstract(extended, repaired.vvs),
        repaired.forest,
        repaired.vvs,
        algorithm=repaired.algorithm,
        bound=repaired.bound,
        original_size=extended.num_monomials,
        original_granularity=extended.num_variables,
        monomial_loss=repaired.monomial_loss,
        variable_loss=repaired.variable_loss,
    )
    if repaired.polynomials != reference.polynomials:
        raise AssertionError("repaired artifact diverged from same-cut rebuild")
    if (repaired.original_size, repaired.original_granularity) != (
        reference.original_size, reference.original_granularity
    ):
        raise AssertionError("repaired artifact misaccounted the originals")
    repaired_answers = [a.values for a in repaired.ask_many(scenarios)]
    rebuilt_answers = [a.values for a in reference.ask_many(scenarios)]
    if repaired_answers != rebuilt_answers:
        raise AssertionError("repaired answers diverged from recompress")
    return {
        "bound": bound,
        "polynomials": len(extended),
        "monomials": extended.num_monomials,
        "added_polynomials": mutation.added_polynomials,
        "added_monomials": mutation.added_monomials,
        "drift": mutation.drift,
        "path": mutation.path,
        "revision": mutation.revision,
        "scratch_algorithm": scratch.algorithm,
        "scenarios": len(scenarios),
        "seconds_scratch": scratch_seconds,
        "seconds_repair": repair_seconds,
        "speedup": scratch_seconds / repair_seconds
        if repair_seconds else float("inf"),
    }


def bench_artifact_io(spec, repeat, seed=31):
    """JSON parse vs. zero-copy mmap load of a saved artifact.

    Reuses the compress_scale workload (same seed, same shape) but
    compresses with ``bound = num_monomials`` — trivially satisfied, so
    the artifact retains the full provenance and both load arms move
    the quoted monomial volume (~95k in ``full`` mode). The JSON arm
    re-parses the tagged envelope and rebuilds every Python object; the
    binary arm ``mmap``\\ s the ``.rpb`` container and builds NumPy
    views over the map (``repro.core.binfmt``), deferring object
    materialization. Answers from the original and both reloads are
    asserted identical on a scenario probe — the formats must be
    indistinguishable to the analyst.
    """
    from repro.api.artifact import CompressedProvenance

    pool = [f"s{i}" for i in range(spec["leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    provenance = random_polynomials(
        spec["compress_polynomials"],
        spec["compress_monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )
    forest = AbstractionForest([
        layered_tree(pool, spec["fanouts"], prefix="sup"),
        layered_tree(side_pool, (4,), prefix="q"),
    ]).clean(provenance)
    session = ProvenanceSession.from_polynomials(provenance, forest)
    artifact = session.compress(provenance.num_monomials)
    probe = build_scenarios(provenance, 4, changes=8, seed=41)
    expected = artifact.ask_many(probe)
    with tempfile.TemporaryDirectory() as tmp:
        json_path = artifact.save(os.path.join(tmp, "artifact.json"))
        bin_path = artifact.save(os.path.join(tmp, "artifact.rpb"))
        json_bytes = os.path.getsize(json_path)
        bin_bytes = os.path.getsize(bin_path)
        # Start the loads from a collected heap: a full collection owed
        # by earlier stages must not land inside one arm's timing (in
        # --tiny a JSON load lasts ~3 ms, and such a pause is ~25 ms).
        gc.collect()
        json_seconds, from_json = time_call(
            CompressedProvenance.load, json_path, repeat=repeat
        )
        bin_seconds, from_bin = time_call(
            CompressedProvenance.load, bin_path, repeat=repeat
        )
        if from_json.ask_many(probe) != expected:
            raise AssertionError("JSON-reloaded artifact diverged")
        if from_bin.ask_many(probe) != expected:
            raise AssertionError("binary-reloaded artifact diverged")
    return {
        "polynomials": len(provenance),
        "monomials": artifact.abstracted_size,
        "json_bytes": json_bytes,
        "bin_bytes": bin_bytes,
        "seconds_json": json_seconds,
        "seconds_bin": bin_seconds,
        "speedup": json_seconds / bin_seconds
        if bin_seconds else float("inf"),
    }


def bench_session(provenance, forest, scenarios, repeat):
    """End-to-end facade: compress to an artifact, ask the whole suite.

    Also round-trips the artifact through its JSON envelope and asserts
    the reloaded artifact returns *identical* answers — the serving
    guarantee the api layer makes.
    """
    session = ProvenanceSession.from_polynomials(provenance, forest)
    bound = max(1, provenance.num_monomials // 3)
    compress_seconds, artifact = time_call(
        session.compress, bound, repeat=repeat
    )
    ask_seconds, answers = time_call(
        artifact.ask_many, scenarios, repeat=repeat
    )
    reloaded = serialize.loads(serialize.dumps(artifact))
    if reloaded.ask_many(scenarios) != answers:
        raise AssertionError("reloaded artifact diverged from the original")
    exact = sum(1 for answer in answers if answer.exact)
    return {
        "algorithm": artifact.algorithm,
        "bound": bound,
        "monomials": artifact.original_size,
        "abstracted_monomials": artifact.abstracted_size,
        "scenarios": len(scenarios),
        "exact_answers": exact,
        "artifact_bytes": serialize.serialized_size(artifact),
        "seconds_compress": compress_seconds,
        "seconds_ask": ask_seconds,
    }


#: Per-request deadline for the service stage (seconds). The bench
#: measures the server as deployed — deadlines armed — while staying
#: far above any sane request latency, so the gate never trips on it.
#: No ``max_pending``: admission shedding would starve the closed-loop
#: client fleet and measure the shed path instead of the serve path.
SERVICE_DEADLINE = 30.0


def _walk_is_uniform_on(valuation, vvs):
    """:meth:`Valuation.is_uniform_on` by its definition: every group."""
    for label in vvs.labels:
        group = vvs.group(label)
        if len(group) <= 1:
            continue
        values = {valuation[leaf] for leaf in group}
        if len(values) > 1:
            return False
    return True


def _walk_lift(valuation, vvs):
    """:meth:`Valuation.lift` by its definition: every group."""
    lifted = dict(valuation.assignment)
    for label in vvs.labels:
        group = vvs.group(label)
        values = {valuation[leaf] for leaf in group}
        if len(values) > 1:
            raise NonUniformError(
                f"leaves of {label!r} receive distinct values {sorted(values)}"
            )
        for leaf in group:
            lifted.pop(leaf, None)
        (value,) = values
        if value != valuation.default:
            lifted[label] = value
    return Valuation(lifted, default=valuation.default)


def _walk_approximate_lift(scenario, vvs, default=1.0):
    """:func:`approximate_lift` by its definition: every group."""
    valuation = Valuation.coerce(scenario, default)
    default = valuation.default
    lifted = dict(valuation.assignment)
    for label in vvs.labels:
        group = vvs.group(label)
        values = [valuation[leaf] for leaf in group]
        for leaf in group:
            lifted.pop(leaf, None)
        mean = sum(values) / len(values)
        if mean != default:
            lifted[label] = mean
    return Valuation(lifted, default=default)


@contextlib.contextmanager
def _walking_lift():
    """While active, the three lift operations walk every group of the
    cut per scenario instead of using its lift index — what a server
    without the index pays per request (the service stage's naive arm).
    Answers are unchanged: the stage asserts them bit-identical."""
    import repro.api.artifact as artifact

    with (
        mock.patch.object(Valuation, "is_uniform_on", _walk_is_uniform_on),
        mock.patch.object(Valuation, "lift", _walk_lift),
        mock.patch.object(artifact, "approximate_lift", _walk_approximate_lift),
    ):
        yield


def _host_service(spool, **service_kwargs):
    """Boot the what-if service on a background event-loop thread.

    ``service_kwargs`` override :func:`start_service`'s defaults.
    Returns ``(loop, thread, server)``; stop with :func:`_stop_service`.
    """
    import asyncio
    import threading

    from repro.service.app import start_service

    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box = {}

    def host():
        asyncio.set_event_loop(loop)

        async def boot():
            box["server"] = await start_service(
                spool, deadline=SERVICE_DEADLINE, **service_kwargs
            )

        loop.run_until_complete(boot())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    ready.wait()
    return loop, thread, box["server"]


def _stop_service(loop, thread, server):
    import asyncio

    asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=60)
    loop.close()


def _drive_service(port, artifact_id, changes_list, clients):
    """A closed-loop client fleet: ``clients`` threads, one keep-alive
    connection each, single-scenario asks split round-robin.

    Returns ``(wall_seconds, latencies, values)`` — latencies and
    answer-value tuples indexed like ``changes_list``.
    """
    import http.client
    import threading
    import time

    total = len(changes_list)
    latencies = [0.0] * total
    values = [None] * total
    errors = []
    barrier = threading.Barrier(clients + 1)

    def client(which):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            barrier.wait()
            for index in range(which, total, clients):
                body = json.dumps(
                    {"scenario": {"changes": changes_list[index]}}
                ).encode()
                begin = time.perf_counter()
                conn.request(
                    "POST", f"/artifacts/{artifact_id}/ask", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                latencies[index] = time.perf_counter() - begin
                if response.status != 200:
                    raise AssertionError(f"ask failed: {payload}")
                values[index] = tuple(payload["answers"][0]["values"])
        except BaseException as error:
            errors.append(error)
            barrier.abort()
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(which,))
        for which in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - begin
    if errors:
        raise errors[0]
    return seconds, latencies, values


def bench_service(spec, repeat, seed=47):
    """The serving stack against naive per-request dispatch.

    Boots the real asyncio HTTP server twice on a dedicated
    serving-shaped provenance — few polynomials, many monomials, a
    wide abstracted alphabet (``service_leaves`` under deep
    ``service_fanouts``), the "compress once, ask forever" artifact
    the paper's interactive setting implies — and drives each with the
    same closed-loop fleet of ``service_clients`` keep-alive
    connections issuing single-scenario asks:

    * **uncoalesced** — ``max_batch=1`` (every request is its own
      batch) and the definitional lift (:func:`_walking_lift`: each
      request walks every group of the cut): what a naive
      one-ask-per-request server does;
    * **coalesced** — the server's defaults: asks parked while other
      admitted requests are still on their way merge into one
      evaluator call, lifted through the cut's lift index.

    Reported: wall-clock requests/sec for both arms, p50/p99 request
    latency, the coalesced arm's batch-size histogram, and the gated
    ``speedup`` (uncoalesced seconds / coalesced seconds, best of
    ``repeat`` closed-loop rounds per arm). Every answer from both
    arms is asserted **bit-identical** to a direct
    ``CompressedProvenance.ask_many`` over the same scenarios.
    """
    import statistics

    pool = [f"s{i}" for i in range(spec["service_leaves"])]
    side_pool = [f"m{i}" for i in range(SIDE_TREE_LEAVES)]
    provenance = random_polynomials(
        spec["service_polynomials"],
        spec["service_monomials"],
        [pool, side_pool],
        seed=seed,
        extra_variables=spec["free_variables"],
    )
    forest = AbstractionForest([
        layered_tree(pool, spec["service_fanouts"], prefix="sup"),
        layered_tree(side_pool, (4,), prefix="q"),
    ]).clean(provenance)
    session = ProvenanceSession.from_polynomials(provenance, forest)
    bound = max(1, provenance.num_monomials // 3)
    artifact = session.compress(bound)

    rng = derive_rng(seed, "bench_service")
    variables = sorted(provenance.variables)
    changes_list = [
        {variables[rng.randrange(len(variables))]: rng.uniform(0.5, 1.5)}
        for _ in range(spec["service_requests"])
    ]
    expected = [
        answer.values
        for answer in artifact.ask_many([dict(c) for c in changes_list])
    ]
    clients = spec["service_clients"]

    arms = {}
    histogram = {}
    for arm, service_kwargs, lifting in (
        ("uncoalesced", {"max_batch": 1}, _walking_lift),
        ("coalesced", {}, contextlib.nullcontext),
    ):
        with tempfile.TemporaryDirectory() as spool, lifting():
            loop, thread, server = _host_service(spool, **service_kwargs)
            try:
                artifact_id = server.service.store.put(artifact)
                best = None
                for _ in range(repeat):
                    seconds, latencies, values = _drive_service(
                        server.port, artifact_id, changes_list, clients
                    )
                    if values != expected:
                        raise AssertionError(
                            f"{arm} service answers diverged from direct "
                            "ask_many"
                        )
                    if best is None or seconds < best[0]:
                        best = (seconds, latencies)
                if arm == "coalesced":
                    histogram = dict(server.service.batcher.batch_sizes)
            finally:
                _stop_service(loop, thread, server)
        seconds, latencies = best
        hundredths = statistics.quantiles(latencies, n=100)
        arms[arm] = {
            "seconds": seconds,
            "rps": len(changes_list) / seconds,
            "p50_ms": hundredths[49] * 1e3,
            "p99_ms": hundredths[98] * 1e3,
        }

    batched = sum(size * count for size, count in histogram.items())
    return {
        "clients": clients,
        "requests": len(changes_list),
        "polynomials": len(provenance),
        "monomials": provenance.num_monomials,
        "bound": bound,
        "seconds_uncoalesced": arms["uncoalesced"]["seconds"],
        "seconds_coalesced": arms["coalesced"]["seconds"],
        "rps_uncoalesced": arms["uncoalesced"]["rps"],
        "rps_coalesced": arms["coalesced"]["rps"],
        "p50_ms_uncoalesced": arms["uncoalesced"]["p50_ms"],
        "p99_ms_uncoalesced": arms["uncoalesced"]["p99_ms"],
        "p50_ms_coalesced": arms["coalesced"]["p50_ms"],
        "p99_ms_coalesced": arms["coalesced"]["p99_ms"],
        # All coalesced-arm rounds, not just the best-timed one.
        "batch_size_histogram": {
            str(size): count for size, count in sorted(histogram.items())
        },
        "mean_batch_size": (
            batched / sum(histogram.values()) if histogram else 0.0
        ),
        "speedup": arms["uncoalesced"]["seconds"]
        / arms["coalesced"]["seconds"]
        if arms["coalesced"]["seconds"] else float("inf"),
    }


def default_output():
    """``BENCH_core.json`` at the repository root (this file's parent's
    parent); falls back to the working directory outside a checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, "BENCH_core.json")


def _merge_runs(path, entry, partial=False):
    """The schema document for ``path`` with ``entry`` merged in.

    An existing same-schema file keeps its *other* modes' runs — the
    committed baseline carries the ``full`` trajectory and the
    ``smoke`` entry CI gates on in one file. Any other content (older
    schemas, corrupt files) is replaced wholesale. A ``partial`` entry
    (a ``--stage``-filtered run) merges *into* the existing same-mode
    entry instead: the stages it did not run keep their results, and
    the entry's machine metadata (``python``, ``cpu_count``,
    ``workload``, ``repeat``) stays the full run's — it describes the
    bulk of the retained numbers, and the sweep floors are explained
    by the recorded ``cpu_count`` (a partial refresh must not
    relabel old multi-core ratios with a new box's core count).
    """
    runs = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
            stored = existing.get("runs")
            if isinstance(stored, dict):
                runs.update(stored)
    if partial:
        previous = runs.get(entry["mode"])
        if isinstance(previous, dict) and isinstance(
            previous.get("results"), dict
        ):
            merged = dict(previous)
            merged["results"] = {**previous["results"], **entry["results"]}
            entry = merged
    runs[entry["mode"]] = entry
    return {"schema": SCHEMA, "runs": runs}


def check_regression(entry, baseline, tolerance=DEFAULT_TOLERANCE,
                     stages=None):
    """Compare a run entry against a committed baseline document.

    Gates only the :data:`CHECK_FIELDS` — measured speedup ratios may
    not drop below ``baseline · (1 − tolerance)`` and error bounds may
    not rise above ``baseline · (1 + tolerance) + 1e-9``. Comparison is
    strictly same-mode: smoke runs check against the baseline's smoke
    entry, never against full-scale numbers. When ``stages`` names a
    ``--stage`` subset, only the gated fields of those stages are
    checked.

    :returns: a list of human-readable failure strings (empty = pass).
    """
    if not isinstance(baseline, dict) or baseline.get("schema") != SCHEMA:
        return [
            f"baseline schema is {baseline.get('schema')!r}, expected "
            f"{SCHEMA!r} — regenerate the baseline with this bench"
        ]
    base_entry = baseline.get("runs", {}).get(entry["mode"])
    if base_entry is None:
        return [
            f"baseline has no {entry['mode']!r} run — regenerate it with "
            f"`python -m repro bench --{entry['mode']}`"
        ]
    failures = []
    for stage, field, direction, floor_cap, min_cpus in CHECK_FIELDS:
        if stages is not None and stage not in stages:
            continue
        if min_cpus is not None:
            cpus = entry["results"].get(stage, {}).get(
                "cpu_count", entry.get("cpu_count")
            )
            if cpus is not None and cpus < min_cpus:
                # Parallel-ratio contracts need the cores to exist;
                # the measured number stays recorded, just ungated.
                continue
        base_value = base_entry.get("results", {}).get(stage, {}).get(field)
        if base_value is None:
            failures.append(f"baseline is missing {stage}.{field}")
            continue
        current = entry["results"][stage][field]
        if direction == "higher":
            floor = base_value * (1.0 - tolerance)
            if floor_cap is not None:
                floor = min(floor, floor_cap)
            if current < floor:
                failures.append(
                    f"{stage}.{field} regressed: {current:.3f} < "
                    f"{floor:.3f} (baseline {base_value:.3f}, "
                    f"tolerance {tolerance})"
                )
        else:
            ceiling = base_value * (1.0 + tolerance) + 1e-9
            if current > ceiling:
                failures.append(
                    f"{stage}.{field} regressed: {current:.3g} > "
                    f"{ceiling:.3g} (baseline {base_value:.3g}, "
                    f"tolerance {tolerance})"
                )
    return failures


def run(mode="full", repeat=3, output=None, quiet=False, write=True,
        stages=None):
    """Run the benches; merge into the JSON document and return it.

    ``write=False`` skips touching the output file (check-only runs).
    ``stages`` (a collection of :data:`STAGES` names) restricts the run
    to those stages; a partial run merges into — instead of replacing —
    the output's existing same-mode results.
    """
    def say(message):
        if not quiet:
            print(message, flush=True)

    if stages is not None:
        unknown = sorted(set(stages) - set(STAGES))
        if unknown:
            raise ValueError(
                f"unknown stage(s) {unknown}; expected names from {STAGES}"
            )

    def wanted(stage):
        return stages is None or stage in stages

    say(f"[bench_regression] mode={mode} repeat={repeat}"
        + (f" stages={','.join(s for s in STAGES if wanted(s))}"
           if stages is not None else ""))

    # The main workload is shared by most stages; build it (and the
    # scenario suite) only when a requested stage needs it.
    shared = {}

    def workload():
        if "built" not in shared:
            provenance, forest, single_tree = build_workload(mode)
            shared["built"] = (provenance, forest, single_tree)
            say(
                f"workload: {len(provenance)} polynomials, "
                f"{provenance.num_monomials} monomials, "
                f"{provenance.num_variables} variables"
            )
        return shared["built"]

    def scenarios():
        if "scenarios" not in shared:
            shared["scenarios"] = build_scenarios(
                workload()[0], MODES[mode]["scenarios"]
            )
        return shared["scenarios"]

    results = {}
    if wanted("greedy"):
        provenance, forest, _ = workload()
        results["greedy"] = bench_greedy(provenance, forest, repeat)
        say(
            "greedy: {seconds:.3f}s ({rounds} rounds over {monomials} "
            "monomials)".format(**results["greedy"])
        )
    if wanted("optimal"):
        provenance, _, single_tree = workload()
        results["optimal"] = bench_optimal(provenance, single_tree, repeat)
        say("optimal: {seconds:.3f}s (bound {bound})".format(**results["optimal"]))
    if wanted("abstraction"):
        provenance, forest, _ = workload()
        results["abstraction"] = bench_abstraction(provenance, forest, repeat)
        say(
            "abstraction: substitute {seconds_substitute:.3f}s, "
            "counts {seconds_counts:.3f}s".format(**results["abstraction"])
        )
    if wanted("batch_valuation"):
        results["batch_valuation"] = bench_batch_valuation(
            workload()[0], scenarios(), repeat
        )
        say(
            "batch valuation: loop {seconds_loop:.3f}s -> batch "
            "{seconds_batch:.3f}s ({speedup:.1f}x over {scenarios} "
            "scenarios)".format(**results["batch_valuation"])
        )
    if wanted("sweep"):
        results["sweep"] = bench_sweep(workload()[0], repeat, MODES[mode])
        say(
            "sweep: serial {seconds_serial:.3f}s -> parallel "
            "{seconds_parallel:.3f}s ({speedup:.1f}x, {workers} workers on "
            "{cpu_count} cores, {scenarios} scenarios; top-k "
            "{seconds_top_k:.3f}s)".format(**results["sweep"])
        )
    if wanted("sweep_delta"):
        results["sweep_delta"] = bench_sweep_delta(MODES[mode], repeat)
        say(
            "sweep delta: dense {seconds_dense:.3f}s -> delta "
            "{seconds_delta:.3f}s ({speedup:.1f}x over {scenarios} "
            "one-at-a-time scenarios, auto={auto_engine})".format(
                **results["sweep_delta"]
            )
        )
    if wanted("compress_scale"):
        results["compress_scale"] = bench_compress_scale(MODES[mode], repeat)
        say(
            "compress scale: {seconds:.3f}s end-to-end over {monomials} "
            "monomials ({algorithm})".format(**results["compress_scale"])
        )
    if wanted("incremental"):
        results["incremental"] = bench_incremental(MODES[mode], repeat)
        say(
            "incremental: scratch {seconds_scratch:.3f}s -> repair "
            "{seconds_repair:.3f}s ({speedup:.1f}x, +{added_monomials} "
            "monomials appended, drift {drift:.2f}, {path})".format(
                **results["incremental"]
            )
        )
    if wanted("artifact_io"):
        results["artifact_io"] = bench_artifact_io(MODES[mode], repeat)
        say(
            "artifact io: json {seconds_json:.3f}s ({json_bytes} B) -> "
            "mmap {seconds_bin:.3f}s ({bin_bytes} B) ({speedup:.1f}x over "
            "{monomials} monomials)".format(**results["artifact_io"])
        )
    if wanted("session"):
        provenance, forest, _ = workload()
        results["session"] = bench_session(provenance, forest, scenarios(), repeat)
        say(
            "session: compress {seconds_compress:.3f}s ({algorithm}), "
            "ask {seconds_ask:.3f}s over {scenarios} scenarios "
            "({artifact_bytes} artifact bytes)".format(**results["session"])
        )

    if wanted("service"):
        results["service"] = bench_service(MODES[mode], repeat)
        say(
            "service: uncoalesced {rps_uncoalesced:.0f} req/s -> coalesced "
            "{rps_coalesced:.0f} req/s ({speedup:.1f}x, {clients} clients, "
            "{requests} asks, mean batch {mean_batch_size:.1f}, p99 "
            "{p99_ms_coalesced:.1f}ms)".format(**results["service"])
        )

    entry = {
        "mode": mode,
        "repeat": repeat,
        "workload": MODES[mode],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    path = output or default_output()
    document = _merge_runs(path, entry, partial=stages is not None)
    if write:
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        say(f"wrote {path}")
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench_regression",
        description="Time the hot paths; write BENCH_core.json",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="reduced scale, finishes in well under 30 s")
    mode.add_argument("--tiny", action="store_true",
                      help="smallest scale (used by the test suite)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats; the minimum is reported")
    parser.add_argument("--output", help="where to write the JSON "
                        "(default: BENCH_core.json at the repo root)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare the run's speedup/error fields "
                             "against this baseline JSON; exit 1 on "
                             "regression")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative regression for --check "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--stage", action="append", choices=STAGES,
                        metavar="NAME",
                        help="run only this stage (repeatable); partial "
                             "runs merge into the output's existing "
                             "results and --check gates only the stages "
                             "that ran")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    mode_name = "tiny" if args.tiny else "smoke" if args.smoke else "full"

    baseline = None
    if args.check:
        # Load the baseline *before* running: with the default output
        # path the run would otherwise overwrite the very numbers it is
        # checked against. A --check run without an explicit --output
        # is check-only and leaves the baseline file untouched.
        try:
            with open(args.check) as handle:
                baseline = json.load(handle)
        except OSError as error:
            raise SystemExit(f"--check: cannot read baseline: {error}")
        except ValueError as error:
            raise SystemExit(f"--check: baseline is not JSON: {error}")

    document = run(
        mode=mode_name, repeat=args.repeat, output=args.output,
        quiet=args.quiet, write=args.check is None or bool(args.output),
        stages=args.stage,
    )
    if baseline is None:
        return 0
    failures = check_regression(
        document["runs"][mode_name], baseline, args.tolerance,
        stages=args.stage,
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    checked = ", ".join(
        f"{s}.{f}" for s, f, _, _, _ in CHECK_FIELDS
        if args.stage is None or s in args.stage
    )
    if not args.quiet:
        print(f"check passed vs {args.check} (mode={mode_name}; {checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
