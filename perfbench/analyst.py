"""The analyst's read paths through the facade, timed per call.

Three ways an analyst asks an artifact in process: one scenario at a
time (``artifact.ask``), a suite in one call (``artifact.ask_many``),
and a ranked sweep (``top_k`` with ``transform=artifact.lift``, sharded
over worker processes — the ``repro sweep --workers`` path). Plus the
checks and quality sums over their answers.
"""

from __future__ import annotations

import os

import common


def workers():
    """One sweep worker per core this process may run on."""
    return len(os.sched_getaffinity(0))


def ask_singles(picks, flows, ledger):
    """``[(artifact, scenario)]`` asked one by one; ``(latencies_ms, answers)``."""
    latencies = []
    answers = []
    for artifact, scenario in picks:
        with common.attempt(ledger, "ask"), flows.section("ask") as section:
            answer = artifact.ask(scenario)
        latencies.append(section.seconds * 1e3)
        answers.append(answer)
    return latencies, answers


def ask_suite(artifacts, suite, flows, ledger):
    """The suite asked of every artifact; ``({key: seconds}, {key: answers})``."""
    seconds = {}
    answers = {}
    for key, artifact in artifacts.items():
        with common.attempt(ledger, "ask"), flows.section("suite") as section:
            answers[key] = artifact.ask_many(suite)
        seconds[key] = section.seconds
    return seconds, answers


def warm(artifacts, scenario):
    """One untimed ask of each artifact: its lazily built evaluator
    state (delta index, baselines) is ready before anything is timed."""
    for artifact in artifacts:
        artifact.ask(scenario)


def run_sweep(artifact, sweep, workers, flows, ledger):
    """``top_k`` over ``sweep`` on ``artifact``; ``(seconds, ranking)``."""
    from repro.options import EvalOptions
    from repro.scenarios.analysis import top_k

    with common.attempt(ledger, "sweep"), flows.section(
        "sweep", samples=common.LONG_SECTION_SAMPLES, cores=workers
    ) as section:
        ranking = top_k(
            artifact.polynomials, sweep, k=10, transform=artifact.lift,
            options=EvalOptions(workers=workers),
        )
    return section.seconds, ranking


def check_sweep(artifact, sweep, ranking, what):
    """The sharded ranking must be bit-identical to the serial one."""
    from repro.scenarios.analysis import top_k

    serial = top_k(artifact.polynomials, sweep, k=10, transform=artifact.lift)
    if [(e.index, e.score, e.values) for e in ranking] != [
        (e.index, e.score, e.values) for e in serial
    ]:
        raise common.VerificationError(
            f"{what}: the sharded sweep ranking differs from the serial one"
        )


class Quality:
    """Answer error and exact share over checked answers.

    ``answer_error`` is the mean, over answers, of each answer's
    relative L1 error against the raw provenance (Σ|approx − raw| /
    Σ|raw| over its polynomials), so every scenario weighs the same
    whatever the magnitude of its query's results.
    """

    def __init__(self):
        self.error = 0.0
        self.exact = 0
        self.answers = 0

    def add(self, answers, raw_rows, what):
        """Check exact answers against raw ones and add them to the sums."""
        common.check_exact(answers, raw_rows, what)
        for answer, raw in zip(answers, raw_rows, strict=True):
            diff, total = common.error_sums([answer.values], [raw])
            self.error += diff / total if total else 0.0
            self.exact += answer.exact
            self.answers += 1

    @property
    def answer_error(self):
        return self.error / self.answers if self.answers else 0.0

    @property
    def exact_share(self):
        return self.exact / self.answers if self.answers else 0.0
