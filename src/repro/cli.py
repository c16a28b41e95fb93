"""Command-line interface: compress, inspect, and valuate provenance files.

The paper's deployment story (§1, "Offline vs. Online Compression") is
file-shaped: provenance is computed once, compressed, then shipped to
analysts. This CLI is that pipeline::

    python -m repro inspect  provenance.json
    python -m repro compress provenance.json forest.json \
        --bound 500 --algorithm greedy --output compressed.json \
        --vvs-output cut.json --artifact artifact.json
    python -m repro ask      artifact.json --set m1=0.8
    python -m repro extend   artifact.json --added delta.json \
        --provenance provenance.json --output artifact2.rpb
    python -m repro sweep    artifact.json --oaat all \
        --multipliers 0.8,1.2 --workers 4 --top-k 5 --sensitivity
    python -m repro valuate  compressed.json --set q1=0.8 --set Business=1.1
    python -m repro decide   provenance.json forest.json --size 4 --granularity 5
    python -m repro bench    --smoke --check BENCH_core.json
    python -m repro lint     src tests

Files are the JSON produced by :mod:`repro.core.serialize` (tagged
``polynomial_set`` / ``forest`` / ``compressed_provenance`` payloads).
Algorithms come from :mod:`repro.algorithms.registry` — ``--algorithm
auto`` picks the optimal DP for single-tree forests and the greedy
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.algorithms import registry
from repro.algorithms.result import InfeasibleBoundError
from repro.algorithms.decision import exists_precise
from repro.api.artifact import CompressedProvenance
from repro.api.session import ProvenanceSession
from repro.core import serialize
from repro.core.forest import AbstractionForest, CompatibilityError
from repro.core.polynomial import PolynomialSet
from repro.core.valuation import Valuation
from repro.lint import cli as lint_cli
from repro.options import ENGINES, EvalOptions
from repro.scenarios.scenario import Scenario, ScenarioSuite

__all__ = ["main"]


def _load(path, expected):
    try:
        payload = serialize.load_path(path)
    except serialize.SerializeError as error:
        raise SystemExit(f"{path}: {error}") from None
    if not isinstance(payload, expected):
        raise SystemExit(
            f"{path}: expected a {expected.__name__}, "
            f"got {type(payload).__name__}"
        )
    return payload


def _cmd_inspect(args):
    from repro.core.statistics import profile

    provenance = _load(args.provenance, PolynomialSet)
    report = profile(provenance)
    print(f"polynomials:        {report.num_polynomials}")
    print(f"monomials (|P|_M):  {report.num_monomials}")
    print(f"variables (|P|_V):  {report.num_variables}")
    if report.num_polynomials:
        print(f"largest polynomial: {report.max_polynomial_size} monomials")
        print(f"smallest polynomial:{report.min_polynomial_size:>5} monomials")
        print(f"average size:       {report.mean_polynomial_size:.2f} monomials")
        print(f"max degree:         {report.max_monomial_degree}")
        print(f"workload shape:     {report.shape}")
        top = ", ".join(
            f"{name} ({count})" for name, count in report.top_variables(5)
        )
        print(f"top variables:      {top}")
    print(f"serialized bytes:   {serialize.serialized_size(provenance)}")
    return 0


def _cmd_compress(args):
    provenance = _load(args.provenance, PolynomialSet)
    forest = _load(args.forest, AbstractionForest)
    session = ProvenanceSession(provenance, forest)
    try:
        artifact = session.compress(args.bound, algorithm=args.algorithm)
    except InfeasibleBoundError as error:
        raise SystemExit(f"infeasible: {error}") from None
    except ValueError as error:
        # e.g. optimal requested on a multi-tree forest (NP-hard).
        raise SystemExit(str(error)) from None
    print(f"algorithm:     {artifact.algorithm}")
    print(f"selected VVS:  {sorted(artifact.vvs.labels)}")
    print(f"size:          {artifact.original_size} -> {artifact.abstracted_size}")
    print(f"granularity:   {artifact.original_granularity} -> "
          f"{artifact.abstracted_granularity}")
    if artifact.abstracted_size > args.bound:
        print(f"WARNING: bound {args.bound} not reached "
              "(no adequate VVS exists; returned the best cut found)")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(serialize.dumps(artifact.polynomials))
        print(f"wrote compressed provenance to {args.output}")
    if args.vvs_output:
        with open(args.vvs_output, "w") as handle:
            json.dump(serialize.vvs_to_dict(artifact.vvs), handle, sort_keys=True)
        print(f"wrote VVS to {args.vvs_output}")
    if args.artifact:
        artifact.save(args.artifact, format=args.format)
        print(f"wrote compression artifact to {args.artifact}")
    return 0


def _cmd_extend(args):
    """Append provenance to an artifact incrementally (`repro extend`)."""
    from repro.errors import CompressionError

    artifact = CompressedProvenance.load(args.artifact)
    added = _load(args.added, PolynomialSet)
    try:
        if args.provenance:
            # With the originals on hand the drift fallback can run an
            # exact recompression; the artifact file carries the forest.
            provenance = _load(args.provenance, PolynomialSet)
            session = ProvenanceSession(provenance, artifact.forest)
            result = session.extend(
                added, artifact, drift_limit=args.drift_limit,
            )
        else:
            result = artifact.refresh(added, drift_limit=args.drift_limit)
    except (CompressionError, CompatibilityError) as error:
        raise SystemExit(str(error)) from None
    extended = result.artifact
    print(f"path:          {result.path}")
    print(f"drift:         {result.drift:.4f} (limit {result.drift_limit})")
    print(f"appended:      {result.added_polynomials} polynomials, "
          f"{result.added_monomials} monomials")
    print(f"revision:      {result.revision}")
    print(f"size:          {extended.original_size} -> "
          f"{extended.abstracted_size}")
    print(f"granularity:   {extended.original_granularity} -> "
          f"{extended.abstracted_granularity}")
    if args.output:
        extended.save(args.output, format=args.format)
        print(f"wrote extended artifact to {args.output}")
    return 0


def _parse_assignment(settings):
    assignment = {}
    for setting in settings:
        if "=" not in setting:
            raise SystemExit(f"--set expects name=value, got {setting!r}")
        name, _, value = setting.partition("=")
        try:
            assignment[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"value of {name!r} is not a number: {value!r}"
            ) from None
    return assignment


def _cmd_valuate(args):
    provenance = _load(args.provenance, PolynomialSet)
    valuation = Valuation.coerce(_parse_assignment(args.set))
    for index, value in enumerate(valuation.evaluate(provenance)):
        print(f"polynomial[{index}] = {value}")
    return 0


def _load_suite(path):
    """Read a scenario suite: ``{"scenarios": [entry, ...]}`` or a bare
    JSON list of entries, each read by :meth:`Scenario.from_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    entries = payload.get("scenarios") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise SystemExit(
            f"{path}: expected a list of scenarios or "
            '{"scenarios": [...]}'
        )
    try:
        return ScenarioSuite([
            Scenario.from_json(entry, index)
            for index, entry in enumerate(entries)
        ])
    except ValueError as error:
        raise SystemExit(f"{path}: {error}") from None


def _cmd_ask(args):
    artifact = _load(args.artifact, CompressedProvenance)
    suite = _load_suite(args.suite) if args.suite else ScenarioSuite()
    if args.set:
        suite.add(Scenario(args.name, _parse_assignment(args.set)))
    if not len(suite):
        raise SystemExit("nothing to ask: pass --set VAR=VALUE and/or --suite")
    for answer in artifact.ask_many(suite):
        mode = "exact" if answer.exact else "approximate"
        print(f"{answer.name} ({mode}):")
        for index, value in enumerate(answer.values):
            print(f"  polynomial[{index}] = {value}")
    return 0


def _split_csv(text, flag):
    values = [item.strip() for item in text.split(",")]
    values = [item for item in values if item]
    if not values:
        raise SystemExit(f"{flag} expects a comma-separated list, got {text!r}")
    return values


def _parse_multipliers(args, flag="--multipliers"):
    if not args.multipliers:
        raise SystemExit(f"{args.mode_flag} requires {flag} M1,M2,...")
    out = []
    for item in _split_csv(args.multipliers, flag):
        try:
            out.append(float(item))
        except ValueError:
            raise SystemExit(f"{flag}: not a number: {item!r}") from None
    return out


def _build_sweep(args, variables):
    """Construct the Sweep described by --grid/--oaat/--random flags."""
    from repro.scenarios.sweep import Sweep

    if args.grid:
        args.mode_flag = "--grid"
        groups = {}
        for spec in args.grid:
            name, eq, members = spec.partition("=")
            if not eq or not name:
                raise SystemExit(
                    f"--grid expects GROUP=var1,var2,..., got {spec!r}"
                )
            groups[name] = _split_csv(members, "--grid")
        return Sweep.grid(groups, _parse_multipliers(args))
    if args.oaat is not None:
        args.mode_flag = "--oaat"
        swept = (
            sorted(variables) if args.oaat == "all"
            else _split_csv(args.oaat, "--oaat")
        )
        return Sweep.one_at_a_time(swept, _parse_multipliers(args))
    args.mode_flag = "--random"
    pool = (
        _split_csv(args.variables, "--variables") if args.variables
        else sorted(variables)
    )
    return Sweep.random(
        pool, args.random, low=args.low, high=args.high,
        changes=args.changes, seed=args.seed,
    )


def _cmd_sweep(args):
    """Evaluate a scenario sweep; print top-k and (optionally) sensitivity."""
    import time

    from repro.scenarios.analysis import sensitivity, top_k

    try:
        payload = serialize.load_path(args.target)
    except serialize.SerializeError as error:
        raise SystemExit(f"{args.target}: {error}") from None
    if isinstance(payload, CompressedProvenance):
        polynomials, transform = payload.polynomials, payload.lift
    elif isinstance(payload, PolynomialSet):
        polynomials, transform = payload, None
    else:
        raise SystemExit(
            f"{args.target}: expected a PolynomialSet or CompressedProvenance, "
            f"got {type(payload).__name__}"
        )
    # Every flag value is checked before the report's first line.
    if args.top_k < 1:
        raise SystemExit(f"--top-k must be >= 1, got {args.top_k}")
    if args.workers is not None and args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    try:
        sweep = _build_sweep(args, polynomials.variables)
    except ValueError as error:
        raise SystemExit(f"{args.mode_flag}: {error}") from None
    options = EvalOptions(engine=args.engine, workers=args.workers or None)
    print(f"sweep:       {sweep.kind}, {len(sweep)} scenarios")
    if sweep.kind == "random":
        # Reproducibility from the report alone: echo the seed even
        # when it was defaulted rather than passed explicitly.
        print(f"seed:        {args.seed}")
    print(f"target:      {len(polynomials)} polynomials"
          + (" (compressed artifact)" if transform else ""))
    resolved = polynomials.compiled().resolve_engine(
        args.engine, mean_changes=sweep.mean_changes()
    )
    print(f"engine:      {resolved}"
          + (" (auto)" if args.engine == "auto" else ""))
    if args.workers:
        print(f"workers:     {args.workers}")

    started = time.perf_counter()
    ranked = top_k(
        polynomials, sweep, k=args.top_k, transform=transform,
        options=options,
    )
    elapsed = time.perf_counter() - started
    print(f"evaluated:   {len(sweep)} scenarios in {elapsed:.3f}s")
    print(f"top {len(ranked)} by total value:")
    for entry in ranked:
        mode = ""
        if transform is not None:
            exact = payload.supports(sweep[entry.index])
            mode = "  (exact)" if exact else "  (approximate)"
        print(f"  {entry.rank:>2}. {entry.name}  score={entry.score:g}{mode}")
    if args.sensitivity:
        report = sensitivity(
            polynomials, sweep, transform=transform, options=options,
        )
        print("sensitivity (mean |Δ| per changed variable):")
        for item in report[:args.top_k]:
            print(f"  {item.variable:<12} {item.mean_delta:g} "
                  f"(max {item.max_delta:g}, {item.scenarios} scenarios)")
    return 0


def _cmd_bench(args):
    """Run the perf regression benchmark (benchmarks/bench_regression.py).

    The bench lives with the experiment harness at the repository root
    rather than inside the installed package; it is loaded by path so
    ``python -m repro bench`` works from any checkout.
    """
    import importlib.util
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    script = os.path.join(root, "benchmarks", "bench_regression.py")
    if not os.path.exists(script):
        raise SystemExit(
            "benchmarks/bench_regression.py not found — `repro bench` "
            "needs a source checkout (the benchmark harness is not "
            "part of the installed package)"
        )
    spec = importlib.util.spec_from_file_location("bench_regression", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = []
    if args.smoke:
        argv.append("--smoke")
    if args.tiny:
        argv.append("--tiny")
    if args.repeat is not None:
        argv.extend(["--repeat", str(args.repeat)])
    if args.output:
        argv.extend(["--output", args.output])
    if args.quiet:
        argv.append("--quiet")
    if args.check:
        argv.extend(["--check", args.check])
    if args.tolerance is not None:
        argv.extend(["--tolerance", str(args.tolerance)])
    for stage in args.stage or ():
        argv.extend(["--stage", stage])
    return module.main(argv)


def _cmd_serve(args):
    """Run the what-if HTTP service until interrupted."""
    import asyncio

    from repro.service.app import start_service

    if args.deadline < 0:
        raise SystemExit("--deadline must be >= 0 (0 disables)")
    if args.max_pending < 0:
        raise SystemExit("--max-pending must be >= 0 (0 disables)")

    async def run():
        server = await start_service(
            args.spool_dir,
            host=args.host,
            port=args.port,
            capacity=args.cache_size,
            max_batch=args.max_batch,
            deadline=args.deadline if args.deadline > 0 else None,
            max_pending=args.max_pending if args.max_pending > 0 else None,
        )
        print(f"serving on http://{args.host}:{server.port} "
              f"(spool: {args.spool_dir}, cache: {args.cache_size}, "
              f"deadline: {args.deadline:g}s, "
              f"max-pending: {args.max_pending})")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_decide(args):
    provenance = _load(args.provenance, PolynomialSet)
    forest = _load(args.forest, AbstractionForest)
    answer = exists_precise(
        provenance, forest, args.size, args.granularity
    )
    print("precise abstraction exists" if answer
          else "no precise abstraction")
    return 0 if answer else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Provenance abstraction toolkit (SIGMOD'19 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    inspect = commands.add_parser("inspect", help="report provenance measures")
    inspect.add_argument("provenance")
    inspect.set_defaults(run=_cmd_inspect)

    compress = commands.add_parser("compress", help="select and apply a VVS")
    compress.add_argument("provenance")
    compress.add_argument("forest")
    compress.add_argument("--bound", type=int, required=True,
                          help="maximum number of monomials B")
    compress.add_argument("--algorithm", choices=registry.available(),
                          default="greedy",
                          help="a registered solver, or 'auto' to pick "
                               "one from the input (default: greedy)")
    compress.add_argument("--output", help="write P↓S here (JSON)")
    compress.add_argument("--vvs-output", help="write the chosen cut here")
    compress.add_argument("--artifact",
                          help="write the full compression artifact here "
                               "(answerable with `repro ask`)")
    compress.add_argument("--format", choices=["json", "bin", "auto"],
                          default="auto",
                          help="artifact encoding: json (portable tagged "
                               "envelope), bin (mmap-loaded binary container), "
                               "auto picks bin for .rpb/.bin paths "
                               "(default: auto; `ask`/`sweep` detect "
                               "either by magic bytes)")
    compress.set_defaults(run=_cmd_compress)

    extend = commands.add_parser(
        "extend",
        help="append provenance to an artifact incrementally",
    )
    extend.add_argument("artifact",
                        help="a compression artifact, JSON envelope or "
                             "binary .rpb container")
    extend.add_argument("--added", required=True,
                        help="polynomial_set JSON with the appended "
                             "(original, unabstracted) provenance")
    extend.add_argument("--provenance",
                        help="the full original provenance the artifact "
                             "was compressed from; enables the exact "
                             "recompress fallback when drift exceeds "
                             "the limit (without it, overflow fails)")
    extend.add_argument("--drift-limit", type=float, default=None,
                        dest="drift_limit",
                        help="bound-overshoot fraction tolerated before "
                             "falling back to recompression "
                             "(default 0.25)")
    extend.add_argument("--output",
                        help="write the extended artifact here")
    extend.add_argument("--format", choices=["json", "bin", "auto"],
                        default="auto",
                        help="artifact encoding for --output "
                             "(default: auto by suffix)")
    extend.set_defaults(run=_cmd_extend)

    ask = commands.add_parser(
        "ask", help="answer scenarios against a compression artifact"
    )
    ask.add_argument("artifact",
                     help="a compression artifact, JSON envelope or "
                          "binary .rpb container "
                          "(from `repro compress --artifact`)")
    ask.add_argument("--set", action="append", default=[],
                     metavar="VAR=VALUE",
                     help="ad-hoc scenario assignment (repeatable)")
    ask.add_argument("--name", default="adhoc",
                     help="name for the --set scenario (default: adhoc)")
    ask.add_argument("--suite",
                     help="JSON file with a scenario suite "
                          '({"scenarios": [{"name", "changes"}, ...]})')
    ask.set_defaults(run=_cmd_ask)

    sweep = commands.add_parser(
        "sweep",
        help="evaluate a scenario sweep (grid/oaat/random) with analytics",
    )
    sweep.add_argument("target",
                       help="a polynomial_set or compressed_provenance "
                            "JSON envelope")
    mode = sweep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--grid", action="append", metavar="GROUP=V1,V2,...",
                      help="a grid group (repeatable); scenarios take the "
                           "cartesian product of --multipliers over groups")
    mode.add_argument("--oaat", metavar="V1,V2,...|all",
                      help="one-at-a-time sweep over these variables "
                           "('all' = every variable of the target)")
    mode.add_argument("--random", type=int, metavar="N",
                      help="N seeded Monte-Carlo scenarios")
    sweep.add_argument("--multipliers", metavar="M1,M2,...",
                       help="candidate multipliers for --grid/--oaat")
    sweep.add_argument("--variables", metavar="V1,V2,...",
                       help="alphabet for --random (default: all variables)")
    sweep.add_argument("--low", type=float, default=0.5,
                       help="--random multiplier range lower bound")
    sweep.add_argument("--high", type=float, default=1.5,
                       help="--random multiplier range upper bound")
    sweep.add_argument("--changes", type=int, default=None,
                       help="variables perturbed per --random scenario "
                            "(default: all)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="--random seed (sweeps are reproducible)")
    sweep.add_argument("--engine", choices=ENGINES,
                       default="auto",
                       help="batch evaluation engine: dense recomputes "
                            "every monomial per scenario, delta patches "
                            "only changed ones around a baseline, auto "
                            "picks by scenario density (bit-identical "
                            "answers; default: auto)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="shard evaluation across N worker processes")
    sweep.add_argument("--top-k", type=int, default=10, dest="top_k",
                       help="how many top scenarios to report (default 10)")
    sweep.add_argument("--sensitivity", action="store_true",
                       help="also rank variables by induced output delta")
    sweep.set_defaults(run=_cmd_sweep)

    valuate = commands.add_parser("valuate", help="apply a what-if scenario")
    valuate.add_argument("provenance")
    valuate.add_argument("--set", action="append", default=[],
                         metavar="VAR=VALUE",
                         help="assign a value (repeatable; default 1.0)")
    valuate.set_defaults(run=_cmd_valuate)

    decide = commands.add_parser(
        "decide", help="Definition 10: does a precise VVS exist?"
    )
    decide.add_argument("provenance")
    decide.add_argument("forest")
    decide.add_argument("--size", type=int, required=True)
    decide.add_argument("--granularity", type=int, required=True)
    decide.set_defaults(run=_cmd_decide)

    serve = commands.add_parser(
        "serve", help="run the what-if HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8317,
                       help="bind port; 0 picks a free one (default 8317)")
    serve.add_argument("--spool-dir", default="artifacts",
                       dest="spool_dir",
                       help="directory for the .rpb artifact spool "
                            "(default: ./artifacts)")
    serve.add_argument("--cache-size", type=int, default=8,
                       dest="cache_size",
                       help="resident (mmap-backed) artifacts kept warm; "
                            "older ones re-map on demand (default 8)")
    serve.add_argument("--max-batch", type=int, default=64,
                       dest="max_batch",
                       help="flush coalesced asks once this many are "
                            "parked; 1 disables coalescing (default 64)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline budget in seconds; "
                            "expired requests answer 504; 0 disables "
                            "(default 30)")
    serve.add_argument("--max-pending", type=int, default=256,
                       dest="max_pending",
                       help="bounded admission: past this many in-flight "
                            "requests new ones shed with 503 + "
                            "Retry-After; 0 disables (default 256)")
    serve.set_defaults(run=_cmd_serve)

    bench = commands.add_parser(
        "bench", help="time the hot paths; write BENCH_core.json"
    )
    scale = bench.add_mutually_exclusive_group()
    scale.add_argument("--smoke", action="store_true",
                       help="reduced scale, finishes in well under 30 s")
    scale.add_argument("--tiny", action="store_true",
                       help="smallest scale (used by the test suite)")
    bench.add_argument("--repeat", type=int, default=None,
                       help="timing repeats (default 3)")
    bench.add_argument("--output",
                       help="where to write the JSON "
                            "(default: BENCH_core.json at the repo root)")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    bench.add_argument("--check", metavar="BASELINE",
                       help="compare speedup/error fields against this "
                            "baseline JSON and fail on regression")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="allowed relative regression for --check "
                            "(default 0.35)")
    bench.add_argument("--stage", action="append", metavar="NAME",
                       help="run only this stage (repeatable; e.g. "
                            "--stage greedy --stage compress_scale). "
                            "Partial runs merge into the output's "
                            "existing results and --check gates only "
                            "the stages that ran")
    bench.set_defaults(run=_cmd_bench)

    lint = commands.add_parser(
        "lint", help="AST-based invariant checks (see INVARIANTS.md)"
    )
    lint_cli.configure_parser(lint)

    return parser


def main(argv=None):
    """Entry point: parse ``argv`` and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
