"""The `repro lint` invariant checkers: framework, rules, CLI.

Each RPL rule gets a fire-on-bad / silent-on-good fixture pair written
into a tmp tree whose layout mirrors the path suffixes the rule scopes
to (``<tmp>/core/batch.py`` matches ``core/batch.py``). The tier-1
guard is `test_whole_tree_is_clean`: the real ``src``/``tests`` trees
must produce zero findings, so any future edit that breaks a contract
fails this suite even if CI's dedicated lint step is skipped.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import Finding, run_lint, suppressed_lines
from repro.lint.base import match_path
from repro.lint.runner import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, files, **kwargs):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    kwargs.setdefault("data_checks", False)
    return run_lint([str(tmp_path)], **kwargs)


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------- framework


class TestFramework:
    def test_match_path_segment_boundaries(self):
        assert match_path("src/repro/core/batch.py", "core/batch.py")
        assert match_path("core/batch.py", "core/batch.py")
        assert not match_path("src/repro/core/megabatch.py", "batch.py")
        assert not match_path("src/repro/encore/batch.py", "core/batch.py")

    def test_match_path_directory_suffix(self):
        assert match_path("src/repro/workloads/tpch/gen.py", "workloads/")
        assert not match_path("src/repro/scenarios/sweep.py", "workloads/")

    def test_finding_str_is_path_line_code(self):
        finding = Finding("src/x.py", 12, "RPL001", "no pow")
        assert str(finding) == "src/x.py:12: RPL001 no pow"

    def test_suppressed_lines_ignores_strings(self):
        text = (
            'x = "# repro-lint: ignore[RPL001]"\n'
            "y = 1  # repro-lint: ignore[RPL002, RPL003]\n"
        )
        assert suppressed_lines(text) == {2: frozenset({"RPL002", "RPL003"})}

    def test_all_rules_have_unique_wellformed_codes(self):
        rules = all_rules()
        seen = {rule.code for rule in rules}
        assert len(seen) == len(rules)
        assert all(code.startswith("RPL") for code in seen)

    def test_syntax_error_reports_rpl000(self, tmp_path):
        findings = lint_tree(tmp_path, {"core/batch.py": "def broken(:\n"})
        assert codes(findings) == ["RPL000"]

    def test_findings_are_sorted(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/batch.py": """\
                import numpy as np
                def f(a, b):
                    x = a ** b
                    return np.power(a, 3)
                """,
        })
        assert [f.line for f in findings] == sorted(f.line for f in findings)


# -------------------------------------------------------------- RPL001-008


class TestPowGrouping:
    def test_fires_on_pow_operator(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/batch.py": "def f(base):\n    return base ** 3\n",
        })
        assert codes(findings) == ["RPL001"]
        assert findings[0].line == 2

    def test_fires_on_numpy_power_via_alias(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/columnar.py": """\
                import numpy as np
                def f(a):
                    return np.power(a, 2)
                """,
        })
        assert codes(findings) == ["RPL001"]

    def test_silent_on_constant_pow_and_other_files(self, tmp_path):
        assert lint_tree(tmp_path, {
            "core/batch.py": "LIMIT = 2 ** 63\nNEG = (-2) ** 7\n",
            "core/polynomial.py": "def f(a):\n    return a ** 2\n",
        }) == []


class TestReadOnlyViews:
    def test_fires_when_view_never_frozen(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/binfmt.py": """\
                import numpy
                def views(buf):
                    array = numpy.frombuffer(buf, dtype="u1")
                    return array
                """,
        })
        assert codes(findings) == ["RPL002"]

    def test_fires_when_view_escapes_unbound(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/binfmt.py": """\
                import numpy
                def views(buf):
                    return numpy.frombuffer(buf, dtype="u1")
                """,
        })
        assert codes(findings) == ["RPL002"]

    def test_silent_on_frozen_view(self, tmp_path):
        assert lint_tree(tmp_path, {
            "core/binfmt.py": """\
                import numpy
                def views(buf):
                    array = numpy.frombuffer(buf, dtype="u1")
                    if array.flags.writeable:
                        array.flags.writeable = False
                    return array
                """,
        }) == []


class TestSharedMemoryLifecycle:
    def test_fires_on_create_without_unlink(self, tmp_path):
        # try/finally keeps RPL011 quiet: this fixture isolates the
        # missing-unlink contract, not the leak-on-exception one.
        findings = lint_tree(tmp_path, {
            "scenarios/pool.py": """\
                from multiprocessing.shared_memory import SharedMemory
                def setup(size):
                    segment = SharedMemory(create=True, size=size)
                    try:
                        return segment
                    finally:
                        segment.close()
                """,
        })
        assert codes(findings) == ["RPL003"]

    def test_fires_on_worker_side_unlink(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "scenarios/worker.py": """\
                from multiprocessing.shared_memory import SharedMemory
                def attach(name):
                    segment = SharedMemory(name=name)
                    segment.unlink()
                    return segment
                """,
        })
        assert codes(findings) == ["RPL003"]

    def test_silent_on_paired_lifecycle(self, tmp_path):
        assert lint_tree(tmp_path, {
            "scenarios/pool.py": """\
                from multiprocessing.shared_memory import SharedMemory
                def setup(size):
                    segment = SharedMemory(create=True, size=size)
                    try:
                        yield segment
                    finally:
                        segment.close()
                        segment.unlink()
                def attach(name):
                    return SharedMemory(name=name)
                """,
        }) == []


class TestGlobalRng:
    def test_fires_on_global_random_and_legacy_numpy(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "scenarios/sampling.py": """\
                import random
                import numpy as np
                def draw():
                    return random.random() + np.random.rand()
                """,
        })
        assert codes(findings) == ["RPL004", "RPL004"]

    def test_silent_on_seeded_generators_and_excluded_paths(self, tmp_path):
        assert lint_tree(tmp_path, {
            "scenarios/sampling.py": """\
                import random
                import numpy as np
                def draw(seed):
                    rng = random.Random(seed)
                    gen = np.random.default_rng(seed)
                    return rng.random() + gen.random()
                """,
            "util/rng.py": "import random\nVALUE = random.random()\n",
            "workloads/tpch/gen.py": "import random\nV = random.random()\n",
        }) == []


class TestPickledCaches:
    def test_fires_on_cache_attribute_in_getstate(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/compiled.py": """\
                class Compiled:
                    def __getstate__(self):
                        return {"delta": self._delta, "src": self._source}
                """,
        })
        assert codes(findings) == ["RPL005"]

    def test_fires_on_wholesale_dict(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/compiled.py": """\
                class Compiled:
                    def __getstate__(self):
                        return dict(self.__dict__)
                """,
        })
        assert codes(findings) == ["RPL005"]

    def test_silent_on_explicit_state(self, tmp_path):
        assert lint_tree(tmp_path, {
            "core/compiled.py": """\
                class Compiled:
                    def __getstate__(self):
                        return {"source": self._source}
                """,
        }) == []


class TestKeywordContract:
    """RPL009's threading condition: a public callable of the facade or
    the analysis layer that reaches an evaluation sink takes options=
    and passes it on (as options=, or as the knobs it resolved to)."""

    def test_fires_when_engine_not_accepted(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "scenarios/analysis.py": """\
                def run_all(polys, scenarios):
                    return polys.evaluate_batch(scenarios)
                """,
        }, select={"RPL009"})
        assert codes(findings) == ["RPL009"]
        assert "options=" in findings[0].message

    def test_fires_when_engine_not_forwarded(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "scenarios/analysis.py": """\
                def run_all(polys, scenarios, *, options=None):
                    return polys.evaluate_batch(scenarios)

                def run_blocks(polys, scenarios, *, options=None):
                    # workers resolved, engine silently re-defaulted
                    return iter_value_blocks(
                        polys, scenarios, workers=options.workers)
                """,
        }, select={"RPL009"})
        assert codes(findings) == ["RPL009", "RPL009"]
        assert all("pass its options on" in f.message for f in findings)

    def test_silent_when_threaded_or_private(self, tmp_path):
        assert lint_tree(tmp_path, {
            "scenarios/analysis.py": """\
                def run_all(polys, scenarios, *, options=None):
                    opts = EvalOptions.coerce(options)
                    return polys.evaluate_batch(scenarios, engine=opts.engine)

                def run_blocks(polys, scenarios, *, options=None):
                    opts = EvalOptions.coerce(options)
                    return iter_value_blocks(
                        polys, scenarios, workers=opts.workers,
                        engine=opts.engine)

                def run_kwargs(polys, scenarios, **options):
                    return polys.evaluate_batch(scenarios, **options)

                def _internal(polys, scenarios):
                    return polys.evaluate_batch(scenarios)
                """,
        }) == []

    def test_options_carrier_satisfies_contract(self, tmp_path):
        # Forwarding the bundled options= knob threads every knob end
        # to end.
        assert lint_tree(tmp_path, {
            "scenarios/analysis.py": """\
                def run_all(polys, scenarios, *, options=None):
                    return evaluate_scenarios(polys, scenarios, options=options)
                """,
        }, select={"RPL009"}) == []

    def test_backend_contract_on_solver_sinks(self, tmp_path):
        # Abstraction and solver sinks take no knob (one compression
        # core), so their callers need no options=.
        assert lint_tree(tmp_path, {
            "api/session.py": """\
                from repro.algorithms.greedy import greedy_vvs
                from repro.core.abstraction import abstract
                def compress(polys, forest, bound):
                    result = greedy_vvs(polys, forest, bound)
                    return abstract(polys, result.vvs)
                """,
        }, select={"RPL009"}) == []


class TestOptionsContract:
    def test_fires_when_entry_point_lacks_options(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "api/artifact.py": """\
                def answer_all(artifact, scenarios):
                    return artifact.ask_many(scenarios)
                """,
        }, select={"RPL009"})
        assert codes(findings) == ["RPL009"]
        assert "options=" in findings[0].message

    def test_silent_with_options_param_or_kwargs_or_private(self, tmp_path):
        assert lint_tree(tmp_path, {
            "api/artifact.py": """\
                def answer_all(artifact, scenarios, *, options=None):
                    return artifact.ask_many(scenarios, options=options)

                def answer_kwargs(artifact, scenarios, **kwargs):
                    return artifact.ask_many(scenarios, **kwargs)

                def _internal(artifact, scenarios):
                    return artifact.ask_many(scenarios)
                """,
        }, select={"RPL009"}) == []

    def test_silent_outside_entry_point_paths(self, tmp_path):
        # The mechanism layer (scenarios/parallel.py) keeps its plain
        # keyword signatures, and the service reaches no sink in a
        # public callable — RPL009 only threads the facade/analysis.
        assert lint_tree(tmp_path, {
            "scenarios/parallel.py": """\
                def evaluate_scenarios_parallel(polys, scenarios, *,
                                                workers, engine="auto"):
                    return polys.evaluate_batch(scenarios)
                """,
            "service/app.py": """\
                class WhatIfService:
                    def handle(self, artifact, scenarios):
                        return artifact.ask_many(scenarios)
                """,
        }, select={"RPL009"}) == []


class TestMutationContract:
    """RPL009's bare-knob condition: no public callable of the facade,
    the analysis layer or the service routes takes a bare engine/
    workers/chunk_size/backend keyword — mutation surfaces included."""

    def test_fires_on_bare_knob_even_with_options(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "api/session.py": """\
                def grow(session, polynomials, *, backend="auto", options=None):
                    return session.extend(polynomials)
                """,
        }, select={"RPL009"})
        assert codes(findings) == ["RPL009"]
        assert "backend=" in findings[0].message

    def test_fires_on_bare_knob_in_service_and_constructors(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/app.py": """\
                class WhatIfService:
                    def __init__(self, store, *, workers=None):
                        self.store = store

                async def start_service(spool, *, engine="auto"):
                    return WhatIfService(spool)
                """,
            "scenarios/analysis.py": """\
                def top_k(polys, scenarios, k=10, *, options=None,
                          chunk_size=None):
                    return evaluate_scenarios(polys, scenarios, options=options)
                """,
        }, select={"RPL009"})
        assert codes(findings) == ["RPL009"] * 3
        knobs = ("chunk_size=", "workers=", "engine=")
        for knob, finding in zip(knobs, findings, strict=True):
            assert knob in finding.message

    def test_silent_with_options_or_private_or_no_sink(self, tmp_path):
        # A mutation reads no knob: it needs no options= (nor refuses it).
        assert lint_tree(tmp_path, {
            "api/artifact.py": """\
                def grow(artifact, polynomials):
                    return artifact.refresh(polynomials)

                def grow_with(artifact, polynomials, *, options=None):
                    return artifact.refresh(polynomials)

                def _internal(artifact, polynomials, engine="dense"):
                    return artifact.refresh(polynomials)

                def describe(artifact):
                    return artifact.stats()
                """,
        }, select={"RPL009"}) == []

    def test_silent_outside_mutation_paths(self, tmp_path):
        # The core keeps plain keywords; RPL009 does not bind it.
        assert lint_tree(tmp_path, {
            "core/polynomial.py": """\
                def merge(target, polynomials, engine="dense"):
                    return target.extend(polynomials)
                """,
        }, select={"RPL009"}) == []


class TestResourceLifecycle:
    def test_fires_on_unprotected_mkstemp(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "service/store.py": """\
                import tempfile
                def spool(root):
                    handle, name = tempfile.mkstemp(dir=root)
                    return handle, name
                """,
        }, select={"RPL011"})
        assert codes(findings) == ["RPL011"]
        assert "mkstemp" in findings[0].message

    def test_fires_on_bare_create_and_install(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "tests/test_chaos.py": """\
                from multiprocessing.shared_memory import SharedMemory
                from repro import faults
                def run(plan, size):
                    faults.install(plan)
                    segment = SharedMemory(create=True, size=size)
                    return segment
                """,
        }, select={"RPL011"})
        assert codes(findings) == ["RPL011", "RPL011"]
        assert "install" in findings[0].message
        assert "SharedMemory" in findings[1].message

    def test_silent_on_protected_acquisitions(self, tmp_path):
        assert lint_tree(tmp_path, {
            "service/store.py": """\
                import os
                import tempfile
                def spool(root, blob):
                    handle, name = tempfile.mkstemp(dir=root)
                    try:
                        os.write(handle, blob)
                    finally:
                        os.close(handle)
                        os.unlink(name)
                    return name
                """,
            "tests/test_chaos.py": """\
                from repro import faults
                def run_ctx(plan):
                    with faults.installed(plan):
                        return 1
                def run_manual(plan):
                    faults.install(plan)
                    try:
                        return 1
                    finally:
                        faults.uninstall()
                """,
        }, select={"RPL011"}) == []


class TestExactCoefficients:
    def test_fires_on_float_coercion_and_literal(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/serialize.py": """\
                def encode(value):
                    return float(value) + 0.5
                """,
        })
        assert codes(findings) == ["RPL007", "RPL007"]

    def test_silent_inside_designated_f64_branch(self, tmp_path):
        assert lint_tree(tmp_path, {
            "core/binfmt.py": """\
                def _encode_coeffs(values):
                    return [float(v) * 1.0 for v in values]
                """,
            "core/polynomial.py": "def f(v):\n    return float(v)\n",
        }) == []


class TestTypedFacade:
    def test_fires_on_unannotated_public_callable(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "api/__init__.py": """\
                def build(spec):
                    return spec
                """,
        })
        assert codes(findings) == ["RPL008", "RPL008"]  # param + return

    def test_silent_on_annotated_and_private(self, tmp_path):
        assert lint_tree(tmp_path, {
            "api/__init__.py": """\
                def build(spec: str) -> str:
                    return spec

                def _helper(spec):
                    return spec
                """,
            "core/anything.py": "def build(spec):\n    return spec\n",
        }) == []


# ------------------------------------------------------------------ RPL100


def write_bench_repo(tmp_path, *, rows, stages, results):
    """A minimal repo with a bench harness + baseline for RPL100."""
    bench = tmp_path / "benchmarks" / "bench_regression.py"
    bench.parent.mkdir(parents=True)
    row_lines = "\n".join(f"    {row!r}," for row in rows)
    bench.write_text(
        f"STAGES = {tuple(stages)!r}\n"
        f"CHECK_FIELDS = [\n{row_lines}\n]\n"
    )
    (tmp_path / "BENCH_core.json").write_text(json.dumps({
        "schema": "repro-bench-core/7",
        "runs": {"full": {"results": results}},
    }))
    source = tmp_path / "src"
    source.mkdir()
    (source / "module.py").write_text("VALUE = 1\n")
    return source


class TestBenchGateConsistency:
    ROWS = [("greedy", "speedup", "higher", 2.0, None),
            ("sweep", "speedup", "higher", 2.0, 2)]
    RESULTS = {"greedy": {"speedup": 3.0}, "sweep": {"speedup": 4.0}}

    def test_silent_when_consistent(self, tmp_path):
        source = write_bench_repo(
            tmp_path, rows=self.ROWS, stages=["greedy", "sweep"],
            results=self.RESULTS,
        )
        assert run_lint([str(source)]) == []

    def test_fires_on_silently_ungated_field(self, tmp_path):
        source = write_bench_repo(
            tmp_path, rows=self.ROWS[:1], stages=["greedy", "sweep"],
            results=self.RESULTS,
        )
        findings = run_lint([str(source)])
        assert codes(findings) == ["RPL100"]
        assert "un-gated" in findings[0].message

    def test_fires_on_stale_gate_row(self, tmp_path):
        source = write_bench_repo(
            tmp_path, rows=self.ROWS, stages=["greedy", "sweep"],
            results={"greedy": {"speedup": 3.0}, "sweep": {}},
        )
        findings = run_lint([str(source)])
        assert codes(findings) == ["RPL100"]
        assert "gates nothing" in findings[0].message

    def test_fires_on_unknown_stage(self, tmp_path):
        source = write_bench_repo(
            tmp_path,
            rows=self.ROWS + [("gone", "speedup", "higher", 1.0, None)],
            stages=["greedy", "sweep"], results=self.RESULTS,
        )
        findings = run_lint([str(source)])
        assert codes(findings) == ["RPL100"]
        assert "dead" in findings[0].message

    def test_skips_quietly_without_repo_files(self, tmp_path):
        (tmp_path / "module.py").write_text("VALUE = 1\n")
        assert run_lint([str(tmp_path)]) == []

    def test_removing_real_check_fields_row_fails(self, tmp_path):
        """Acceptance: deleting a CHECK_FIELDS row from the *real* bench
        harness makes the gate fail with a path:line:code diagnostic."""
        bench_text = (
            REPO_ROOT / "benchmarks" / "bench_regression.py"
        ).read_text()
        target = '("artifact_io", "speedup"'
        assert target in bench_text
        kept = [line for line in bench_text.splitlines()
                if target not in line]
        bench = tmp_path / "benchmarks" / "bench_regression.py"
        bench.parent.mkdir(parents=True)
        bench.write_text("\n".join(kept) + "\n")
        baseline = (REPO_ROOT / "BENCH_core.json").read_text()
        (tmp_path / "BENCH_core.json").write_text(baseline)
        source = tmp_path / "src"
        source.mkdir()
        (source / "module.py").write_text("VALUE = 1\n")

        findings = run_lint([str(source)])
        assert codes(findings) == ["RPL100"]
        assert "artifact_io" in findings[0].message
        rendered = str(findings[0])
        path, line, rest = rendered.split(":", 2)
        assert path.endswith("bench_regression.py")
        assert int(line) > 0
        assert rest.lstrip().startswith("RPL100")


# ----------------------------------------------------------------- pragmas


class TestPragmas:
    def test_pragma_suppresses_named_code(self, tmp_path):
        assert lint_tree(tmp_path, {
            "core/batch.py": (
                "def f(a):\n"
                "    return a ** 3  # repro-lint: ignore[RPL001]\n"
            ),
        }) == []

    def test_pragma_for_other_code_does_not_suppress(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "core/batch.py": (
                "def f(a):\n"
                "    return a ** 3  # repro-lint: ignore[RPL007]\n"
            ),
        })
        assert codes(findings) == ["RPL001"]


# ------------------------------------------------------------------ filters


class TestSelectIgnore:
    FILES = {
        "core/batch.py": "def f(a):\n    return a ** 3\n",
        "scenarios/sampling.py": (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        ),
    }

    def test_select_runs_only_named_codes(self, tmp_path):
        findings = lint_tree(tmp_path, self.FILES, select={"RPL001"})
        assert codes(findings) == ["RPL001"]

    def test_ignore_drops_named_codes(self, tmp_path):
        findings = lint_tree(tmp_path, self.FILES, ignore={"RPL001"})
        assert codes(findings) == ["RPL004"]


# ------------------------------------------------------------- whole tree


class TestWholeTree:
    def test_whole_tree_is_clean(self):
        """Tier-1: `python -m repro lint src tests` must exit 0."""
        findings = run_lint(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        assert findings == [], "\n".join(str(f) for f in findings)


# ------------------------------------------------------------------- CLI


class TestCli:
    BAD = {"core/batch.py": "def f(a):\n    return a ** 3\n"}

    def write(self, tmp_path, files=None):
        for relpath, source in (files or self.BAD).items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)

    def test_exit_one_and_diagnostic_on_findings(self, tmp_path, capsys):
        self.write(tmp_path)
        status = repro_main(["lint", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 1
        assert "RPL001" in captured.out
        assert "core/batch.py:2:" in captured.out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self.write(tmp_path, {"core/other.py": "VALUE = 1\n"})
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_select_and_ignore(self, tmp_path, capsys):
        self.write(tmp_path)
        assert repro_main(
            ["lint", str(tmp_path), "--select", "RPL004"]
        ) == 0
        assert repro_main(
            ["lint", str(tmp_path), "--ignore", "RPL001"]
        ) == 0
        assert repro_main(
            ["lint", str(tmp_path), "--select", "rpl001"]
        ) == 1  # codes are case-insensitive on the CLI

    def test_json_format(self, tmp_path, capsys):
        self.write(tmp_path)
        status = repro_main(["lint", str(tmp_path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert status == 1
        assert document["tool"] == "repro-lint"
        assert document["count"] == 1
        (finding,) = document["findings"]
        assert finding["code"] == "RPL001"
        assert finding["line"] == 2

    def test_output_writes_json_artifact(self, tmp_path, capsys):
        self.write(tmp_path)
        report = tmp_path / "findings.json"
        status = repro_main(
            ["lint", str(tmp_path / "core"), "--output", str(report)]
        )
        capsys.readouterr()
        assert status == 1
        document = json.loads(report.read_text())
        assert document["count"] == 1

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL008", "RPL009", "RPL100"):
            assert code in out
        for code in ("RPL006", "RPL010"):  # folded into RPL009
            assert code not in out

    def test_standalone_module_entry(self, tmp_path, capsys):
        from repro.lint.cli import main as lint_main

        self.write(tmp_path)
        assert lint_main([str(tmp_path)]) == 1
        assert "RPL001" in capsys.readouterr().out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
