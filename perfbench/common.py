"""Shared pieces of the end-to-end benchmark: inputs, statistics, checks.

Everything a workload feeds the program is generated here from the
run's ``--seed``: the TPC-H database and its delta, the SQL text of the
captured queries, the abstraction forest and the node-level scenarios.
The program itself (``repro``, imported from the checkout's ``src/``)
only ever sees those generated inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for spools and saved artifacts; removed after a run.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: TPC-H scale of the captured database and of the streaming delta.
SCALE_FACTOR = 0.01
DELTA_SCALE_FACTOR = 0.001
#: The delta's generator seed is offset so it never equals the base's.
DELTA_SEED_OFFSET = 100_003

#: Calibration samples right before and after each long timed section
#: (a capture or a sharded sweep, a second or more of work; see
#: flows.Flows.section).
LONG_SECTION_SAMPLES = 3

#: |P| / divisor bounds each captured query is compressed at.
BOUND_DIVISORS = (2, 4, 8)
#: The paper's discount parameterization: s{suppkey % 128}, p{partkey % 128}.
BUCKETS = 128

#: The captured query set (§4.2: Q1 few large polynomials, Q10 hundreds
#: of small ones). Q5's nation predicates are written against the
#: last-joined table: the SQL planner drops right-side join keys, so the
#: textbook ``c_nationkey = s_nationkey AND s_nationkey = n_nationkey``
#: order fails to plan (see FINDINGS.md).
QUERIES = {
    "q1": (
        "SELECT L_RETURNFLAG, L_LINESTATUS, "
        "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem WHERE L_SHIPDATE <= 19980901 "
        "GROUP BY L_RETURNFLAG, L_LINESTATUS"
    ),
    "q5": (
        "SELECT N_NAME, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem, orders, customer, supplier, nation "
        "WHERE lineitem.L_ORDERKEY = orders.O_ORDERKEY "
        "AND orders.O_CUSTKEY = customer.C_CUSTKEY "
        "AND lineitem.L_SUPPKEY = supplier.S_SUPPKEY "
        "AND customer.C_NATIONKEY = nation.N_NATIONKEY "
        "AND supplier.S_NATIONKEY = nation.N_NATIONKEY "
        "GROUP BY N_NAME"
    ),
    "q10": (
        "SELECT C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME, "
        "SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) "
        "FROM lineitem, orders, customer, nation "
        "WHERE lineitem.L_ORDERKEY = orders.O_ORDERKEY "
        "AND orders.O_CUSTKEY = customer.C_CUSTKEY "
        "AND customer.C_NATIONKEY = nation.N_NATIONKEY "
        "AND orders.O_ORDERDATE >= 19931001 "
        "AND orders.O_ORDERDATE < 19940101 "
        "AND lineitem.L_RETURNFLAG = 'R' "
        "GROUP BY C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME"
    ),
}


class VerificationError(Exception):
    """An answer or count the benchmark checked came out wrong."""


# ---------------------------------------------------------------- program


def require_source():
    """Put the checkout's ``src/`` first on the path, or exit 2.

    The benchmark measures the program of *this* checkout; without its
    sources there is nothing to measure, so the run stops before
    printing any result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def program_env():
    """Environment for child processes running the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@contextmanager
def work_dir(name):
    """A fresh directory under :data:`WORK_ROOT`, removed afterwards."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


# ----------------------------------------------------------------- inputs


def generate_databases(seed):
    """The base TPC-H database and the separately seeded delta."""
    from repro.workloads.tpch import generate

    base = generate(scale_factor=SCALE_FACTOR, seed=seed)
    delta = generate(scale_factor=DELTA_SCALE_FACTOR, seed=seed + DELTA_SEED_OFFSET)
    return base, delta


def discount_params(row):
    """Scenario variables of one lineitem row (over qualified columns)."""
    return [
        f"s{row['lineitem.L_SUPPKEY'] % BUCKETS}",
        f"p{row['lineitem.L_PARTKEY'] % BUCKETS}",
    ]


def trees():
    """Figure 4's supplier and part trees over ``s0..s127``/``p0..p127``."""
    from repro.workloads.tpch import part_tree, supplier_tree

    return [supplier_tree(buckets=BUCKETS), part_tree(buckets=BUCKETS)]


def capture(db, query):
    """SQL capture of one query as a :class:`ProvenanceSession`."""
    from repro.api.session import ProvenanceSession

    return ProvenanceSession.from_query(
        QUERIES[query], db.tables, params=discount_params, forest=trees()
    )


def timed_captures(db):
    """``({query: seconds}, {query: session})``: every query captured
    once, each in a timed section (at the reference box speed when the
    run normalizes, see flows.Calibration)."""
    import flows

    timer = flows.Flows()
    seconds = {}
    sessions = {}
    for query in QUERIES:
        with timer.section("capture", samples=LONG_SECTION_SAMPLES) as section:
            sessions[query] = capture(db, query)
        seconds[query] = section.seconds
    return seconds, sessions


def bound_for(polynomials, divisor):
    return max(1, polynomials.num_monomials // divisor)


class NodeScenarios:
    """Node-level scenarios: scale every leaf under 1–2 tree nodes.

    Nodes come from all depths (root, inner groups, leaves) of the
    supplier and part trees; when two nodes are scaled they come from
    different trees, so no leaf gets two factors. Scenarios that only
    scale nodes at or above the artifact's cut are answered exactly,
    the rest approximately, so a suite mixes both. The shape of the
    ``i``-th scenario (how many nodes, which trees, which depths) cycles
    through every combination in a fixed order; the seed draws only the
    node at each depth and its factor, which keeps the exact/approximate
    mix the same for every seed.
    """

    def __init__(self, seed, forest_trees=None):
        self.rng = random.Random(seed)
        self.levels = []  # per tree: [[leaves under each node] per depth]
        for tree in forest_trees or trees():
            by_depth = {}
            for label in sorted(tree.nodes):
                depth = len(tree.ancestors(label))
                by_depth.setdefault(depth, []).append(
                    tuple(tree.leaves_under(label))
                )
            self.levels.append([by_depth[d] for d in sorted(by_depth)])
        depths = [range(len(levels)) for levels in self.levels]
        self.shapes = [((tree, depth),) for tree in range(len(self.levels))
                       for depth in depths[tree]]
        self.shapes += [
            tuple(enumerate(combination))
            for combination in itertools.product(*depths)
        ]
        self.count = 0

    def changes(self):
        rng = self.rng
        shape = self.shapes[self.count % len(self.shapes)]
        self.count += 1
        changes = {}
        for tree, depth in shape:
            leaves = rng.choice(self.levels[tree][depth])
            factor = round(rng.uniform(0.5, 1.5), 3)
            for leaf in leaves:
                changes[leaf] = factor
        return changes

    def draw(self):
        from repro.scenarios.scenario import Scenario

        changes = self.changes()
        return Scenario(f"node-{self.count}", changes)

    def suite(self, size):
        return [self.draw() for _ in range(size)]


def pick_sequence(keys, count, weights=None, stream=0):
    """Which artifact each ask goes to: one fixed sequence for every seed.

    The mix of artifacts asked — and with it the store's hits and
    misses — is then the same in every run; the seed draws the data and
    the scenarios.
    """
    return random.Random(f"picks/{stream}").choices(keys, weights=weights, k=count)


def leaf_variables(forest_trees=None):
    return sorted(
        leaf for tree in forest_trees or trees() for leaf in tree.leaf_labels
    )


# ------------------------------------------------------------- statistics


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def steady_rate(latencies_ms, trim=0.01):
    """Asks per second of a closed loop, leaving out the slowest ``trim``.

    The slowest 1% are the box's scheduling stalls (their size is the
    printed p99); with them, one stall in a pass moved the rate by a
    quarter between runs of the same seed.
    """
    kept = sorted(latencies_ms)[: max(1, len(latencies_ms) - int(len(latencies_ms) * trim))]
    return 1e3 * len(kept) / sum(kept)


def combine(records):
    """One figure per metric from several passes or set-ups.

    Scalars take the median over the records. Per-item timings (dicts:
    one entry per query or artifact) take each item's median first, so
    one slow pass cannot move the figure; then ``*_s`` items are summed
    and ``*_ms`` items averaged.
    """
    out = {}
    for name, first in records[0].items():
        values = [record[name] for record in records]
        if not isinstance(first, dict):
            out[name] = median(values)
            continue
        items = [median([value[item] for value in values]) for item in first]
        out[name] = sum(items) if name.endswith("_s") else sum(items) / len(items)
    return out


class Ledger:
    """Attempted and failed operations, by kind (ask, extend, ...)."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}

    def record(self, kind, ok):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def merge(self, other):
        for kind, count in other.attempted.items():
            self.attempted[kind] = self.attempted.get(kind, 0) + count
        for kind, count in other.failed.items():
            self.failed[kind] = self.failed.get(kind, 0) + count

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())

    @property
    def error_rate(self):
        attempted = self.total_attempted
        return self.total_failed / attempted if attempted else 0.0


@contextmanager
def attempt(ledger, kind):
    """Count one operation; an exception marks it failed and propagates."""
    try:
        yield
    except BaseException:
        ledger.record(kind, False)
        raise
    ledger.record(kind, True)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def peak_rss_mb(pid="self"):
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ------------------------------------------------------------ answer checks


def rows_of(answers):
    return [tuple(answer.values) for answer in answers]


def error_sums(approx_rows, raw_rows):
    """``(Σ|approx − raw|, Σ|raw|)`` over matching answer rows."""
    diff = 0.0
    total = 0.0
    for approx, raw in zip(approx_rows, raw_rows, strict=True):
        for a, r in zip(approx, raw, strict=True):
            diff += abs(a - r)
            total += abs(r)
    return diff, total


def check_exact(answers, raw_rows, what, rel=1e-9):
    """Every answer flagged exact must equal its raw answer within ``rel``."""
    for answer, raw in zip(answers, raw_rows, strict=True):
        if not answer.exact:
            continue
        for a, r in zip(answer.values, raw, strict=True):
            if abs(a - r) > rel * max(1.0, abs(r)):
                raise VerificationError(
                    f"{what}: exact answer {answer.name} is {a!r}, "
                    f"raw provenance gives {r!r}"
                )


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_same_cut(artifact, originals, scenarios, what, rel=1e-9):
    """An extended artifact must answer like a same-cut recompress.

    Monomials must match exactly; coefficients and answers within
    ``rel``. They are not always bit-identical: ``abstract`` picks its
    backend by input size, so the small delta and the full provenance
    can sum merged float coefficients in different orders (FINDINGS.md).
    Returns how many polynomials differ in their last bits.
    """
    from repro.api.artifact import CompressedProvenance
    from repro.core.abstraction import abstract

    rebuilt = CompressedProvenance(
        abstract(originals, artifact.vvs),
        artifact.forest,
        artifact.vvs,
        algorithm=artifact.algorithm,
        bound=artifact.bound,
        original_size=originals.num_monomials,
        original_granularity=originals.num_variables,
        monomial_loss=artifact.monomial_loss,
        variable_loss=artifact.variable_loss,
    )
    inexact = 0
    for mine, theirs in zip(artifact.polynomials, rebuilt.polynomials, strict=True):
        if mine == theirs:
            continue
        inexact += 1
        if mine.terms.keys() != theirs.terms.keys() or not all(
            _close(coeff, theirs.terms[monomial], rel)
            for monomial, coeff in mine.terms.items()
        ):
            raise VerificationError(f"{what}: polynomials differ from a same-cut recompress")
    for mine, theirs in zip(
        rows_of(artifact.ask_many(scenarios)), rows_of(rebuilt.ask_many(scenarios)), strict=True
    ):
        if not all(_close(a, b, rel) for a, b in zip(mine, theirs, strict=True)):
            raise VerificationError(f"{what}: answers differ from a same-cut recompress")
    return inexact


def emit(result):
    """Print the result object as the last line of standard output."""
    print(json.dumps(result, sort_keys=True), flush=True)
