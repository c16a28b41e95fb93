"""Raw-vs-abstracted what-if analysis: speedup and accuracy.

Two quantities matter once provenance is abstracted:

* **assignment speedup** (Figure 10): how much faster scenarios valuate
  on the compressed polynomials — compression is useful precisely
  because each analyst applies many valuations;
* **accuracy**: scenarios uniform on the chosen groups are answered
  *exactly* (the lifting homomorphism); non-uniform scenarios are
  answered approximately by valuating each meta-variable at a
  representative of its group's values — the "reasonable loss of
  accuracy" the abstract trades for size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.valuation import Valuation
from repro.options import EvalOptions
from repro.util.timing import time_call

__all__ = [
    "SpeedupReport",
    "TopKEntry",
    "VariableSensitivity",
    "assignment_speedup",
    "approximate_lift",
    "evaluate_scenarios",
    "scenario_error",
    "sensitivity",
    "top_k",
]


def evaluate_scenarios(polynomials, scenarios, default=1.0, *, options=None):
    """Valuate a whole scenario family in one vectorized pass.

    :param scenarios: a :class:`~repro.scenarios.sweep.Sweep`, a
        :class:`~repro.scenarios.scenario.ScenarioSuite`, or any
        iterable of :class:`Scenario`,
        :class:`~repro.core.valuation.Valuation` or plain dicts.
    :param options: an :class:`~repro.options.EvalOptions` bundling
        the evaluation knobs — ``engine`` (dense vs. delta batch
        evaluation; ``"auto"`` picks delta for sparse families, see
        :func:`repro.core.batch.choose_engine`) and ``workers`` (shard
        across processes via :func:`repro.scenarios.parallel.\
evaluate_scenarios_parallel`; ``None`` stays in process). Answers are
        bit-identical whatever the knobs.
    :returns: a ``(num_scenarios, num_polynomials)`` NumPy array — row
        ``i`` is ``scenarios[i].evaluate(polynomials)``.

    The polynomial set is compiled to coefficient/exponent arrays once
    (cached on the set), so a suite of hundreds of scenarios costs a few
    matrix operations instead of hundreds of per-monomial Python loops;
    sweeps are consumed lazily in chunks, so a million-scenario grid
    never materializes a scenario list.
    """
    from repro.scenarios.parallel import evaluate_scenarios_parallel

    opts = EvalOptions.coerce(options)
    return evaluate_scenarios_parallel(
        polynomials, scenarios, workers=opts.workers, default=default,
        engine=opts.engine,
    )


@dataclass(frozen=True)
class TopKEntry:
    """One ranked scenario from :func:`top_k`.

    * ``rank`` — 1-based position in the ranking;
    * ``index`` — the scenario's position in the input family;
    * ``name`` — the scenario's name (generated for anonymous inputs);
    * ``score`` — the objective value the ranking ordered by;
    * ``values`` — the scenario's per-polynomial valuations.
    """

    rank: int
    index: int
    name: str
    score: float
    values: tuple


def top_k(polynomials, scenarios, k=10, *, objective=None, largest=True,
          default=1.0, options=None, transform=None):
    """The ``k`` scenarios with the most extreme objective values.

    Answers the analyst question sweeps exist for — "*which* what-if
    moves the result most?" — without holding the full answer matrix:
    evaluation streams in chunks (optionally sharded across worker
    processes) and only a ``k``-entry heap persists, so
    million-scenario sweeps rank in O(k) memory.

    :param objective: ``row -> float`` over a scenario's per-polynomial
        values (a NumPy vector); the default sums them (total output).
    :param largest: rank by highest objective (default) or lowest.
    :param transform: optional per-scenario callable applied before
        evaluation (e.g. lifting onto an artifact's cut); names and
        indexes still refer to the original scenarios.
    :param options: an :class:`~repro.options.EvalOptions` bundling
        ``engine``/``workers``; rankings are identical whatever the
        knobs.
    :returns: a list of :class:`TopKEntry`, best first; ties break
        toward the earlier scenario index, so rankings are
        deterministic.
    """
    from repro.scenarios.parallel import iter_value_blocks

    opts = EvalOptions.coerce(options)
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sign = 1.0 if largest else -1.0
    heap = []  # (keyed score, -index, name, values) — heap[0] is worst kept
    # materialize=False lets Sweep shards skip a second parent-side
    # generation pass: only the k kept entries get their names resolved
    # (by index) after the stream is drained.
    for start, chunk, values in iter_value_blocks(
        polynomials, scenarios, default=default, workers=opts.workers,
        transform=transform, materialize=False, engine=opts.engine,
    ):
        for offset in range(values.shape[0]):
            row = values[offset]
            score = float(objective(row) if objective else row.sum())
            index = start + offset
            if chunk is None:
                name = None  # resolved from the Sweep at the end
            else:
                name = getattr(chunk[offset], "name", None)
                name = str(name) if name is not None else f"scenario-{index}"
            item = (
                sign * score,
                -index,
                name,
                tuple(float(v) for v in row),
            )
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    ranked = sorted(heap, reverse=True)
    return [
        TopKEntry(
            rank=position + 1,
            index=-negated_index,
            name=(name if name is not None
                  else scenarios[-negated_index].name),
            score=sign * keyed_score,
            values=values,
        )
        for position, (keyed_score, negated_index, name, values)
        in enumerate(ranked)
    ]


@dataclass(frozen=True)
class VariableSensitivity:
    """One variable's aggregate effect across a scenario family.

    * ``variable`` — the scenario variable;
    * ``mean_delta`` — mean L1 output delta (vs. the all-default
      baseline) over the scenarios that change the variable;
    * ``max_delta`` — the largest such delta;
    * ``scenarios`` — how many scenarios changed the variable.
    """

    variable: str
    mean_delta: float
    max_delta: float
    scenarios: int


def sensitivity(polynomials, scenarios, *, default=1.0, options=None,
                transform=None):
    """Rank variables by the output delta their scenarios induce.

    For each scenario the L1 distance between its per-polynomial values
    and the all-``default`` baseline's is attributed to every variable
    the scenario changes; variables are then ranked by mean attributed
    delta. Over a :meth:`Sweep.one_at_a_time
    <repro.scenarios.sweep.Sweep.one_at_a_time>` family each scenario
    touches one variable, so the ranking is a clean per-variable
    tornado; over grids/Monte-Carlo it is a screening estimate (deltas
    of co-changed variables are attributed to each).

    Evaluation streams in chunks (optionally across worker processes);
    memory stays O(variables), not O(scenarios). ``options`` bundles
    the ``engine``/``workers`` knobs; the report is identical whatever
    the knobs — the engines are bit-identical.

    :returns: a list of :class:`VariableSensitivity`, largest
        ``mean_delta`` first (ties break by variable name).
    """
    import numpy

    from repro.scenarios.parallel import iter_value_blocks

    opts = EvalOptions.coerce(options)
    compiled = (
        polynomials.compiled() if hasattr(polynomials, "compiled")
        else polynomials
    )
    baseline_entry = (
        Valuation({}, default=default) if transform is None
        else transform(Valuation({}, default=default))
    )
    # A single all-default row: the dense path is the cheap one here
    # (no point building the delta index for one baseline scenario).
    baseline = compiled.evaluate([baseline_entry], engine="dense")[0]

    totals = {}
    maxima = {}
    counts = {}
    for _, chunk, values in iter_value_blocks(
        compiled, scenarios, default=default, workers=opts.workers,
        transform=transform, engine=opts.engine,
    ):
        deltas = numpy.abs(values - baseline).sum(axis=1)
        for offset, entry in enumerate(chunk):
            delta = float(deltas[offset])
            changed = Valuation.coerce(entry, default).assignment
            for variable in changed:
                totals[variable] = totals.get(variable, 0.0) + delta
                counts[variable] = counts.get(variable, 0) + 1
                if delta > maxima.get(variable, -1.0):
                    maxima[variable] = delta
    report = [
        VariableSensitivity(
            variable=variable,
            mean_delta=totals[variable] / counts[variable],
            max_delta=maxima[variable],
            scenarios=counts[variable],
        )
        for variable in totals
    ]
    report.sort(key=lambda entry: (-entry.mean_delta, entry.variable))
    return report


@dataclass
class SpeedupReport:
    """Timing comparison of scenario application, raw vs abstracted."""

    raw_seconds: float
    abstracted_seconds: float
    raw_size: int
    abstracted_size: int

    @property
    def speedup_percent(self):
        """``100 · (1 − t_abstracted / t_raw)`` (Figure 10's y-axis)."""
        if self.raw_seconds == 0:
            return 0.0
        return 100.0 * (1.0 - self.abstracted_seconds / self.raw_seconds)

    @property
    def compression_ratio(self):
        """``|P↓S|_M / |P|_M``."""
        if self.raw_size == 0:
            return 1.0
        return self.abstracted_size / self.raw_size


def assignment_speedup(polynomials, abstracted, scenarios, vvs=None, repeat=3,
                       *, options=None):
    """Time a scenario suite on raw vs abstracted provenance.

    Scenarios are lifted onto meta-variables when a ``vvs`` is given
    (exactly, when uniform; via :func:`approximate_lift` otherwise) so
    both sides do equivalent work. Each side valuates through the
    compiled :meth:`~repro.core.polynomial.PolynomialSet.evaluate_batch`
    — the whole suite per matrix product. ``options`` (an
    :class:`~repro.options.EvalOptions`) pins the batch evaluator
    (``dense``/``delta``/``auto``) so timed runs can fix the engine
    like every other evaluation surface.
    """
    opts = EvalOptions.coerce(options)
    raw_valuations = [s.valuation() for s in scenarios]
    if vvs is None:
        abstracted_valuations = raw_valuations
    else:
        abstracted_valuations = [
            s.lift(vvs) if s.is_supported_by(vvs) else approximate_lift(s, vvs)
            for s in scenarios
        ]

    def run(polys, valuations):
        return polys.evaluate_batch(valuations, engine=opts.engine)

    raw_seconds, _ = time_call(run, polynomials, raw_valuations, repeat=repeat)
    abstracted_seconds, _ = time_call(
        run, abstracted, abstracted_valuations, repeat=repeat
    )
    return SpeedupReport(
        raw_seconds=raw_seconds,
        abstracted_seconds=abstracted_seconds,
        raw_size=polynomials.num_monomials,
        abstracted_size=abstracted.num_monomials,
    )


def approximate_lift(scenario, vvs, default=1.0):
    """Best-effort valuation on meta-variables for a non-uniform scenario.

    Each group's meta-variable takes the *mean* of its leaves' values —
    the least-squares representative. Exact when the scenario is
    uniform on the group. ``scenario`` may be a :class:`Scenario`, a
    :class:`~repro.core.valuation.Valuation` or a plain mapping.

    Only the groups the scenario touches are averaged, on the cut's
    :meth:`~repro.core.forest.ValidVariableSet.lift_index`.
    """
    valuation = Valuation.coerce(scenario, default)
    lifted = vvs.lift_index().approximate(valuation.assignment, valuation.default)
    return Valuation(lifted, default=valuation.default)


def scenario_error(polynomials, abstracted, vvs, scenario):
    """Per-polynomial relative error of the abstracted answer.

    Returns a list of ``|approx − exact| / max(1, |exact|)`` values —
    all zeros when the scenario is uniform on the VVS (the lossless
    case, asserted by property tests).
    """
    exact = scenario.valuation().evaluate(polynomials)
    if scenario.is_supported_by(vvs):
        lifted = scenario.lift(vvs)
    else:
        lifted = approximate_lift(scenario, vvs)
    approx = lifted.evaluate(abstracted)
    return [
        abs(a - e) / max(1.0, abs(e)) for a, e in zip(approx, exact, strict=True)
    ]
