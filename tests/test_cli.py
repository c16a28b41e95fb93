"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import serialize
from repro.core.forest import AbstractionForest
from repro.core.parser import parse_set
from repro.core.tree import AbstractionTree
from repro.workloads.telephony import example13_polynomials, plans_tree

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def files(tmp_path):
    provenance_path = tmp_path / "provenance.json"
    provenance_path.write_text(serialize.dumps(example13_polynomials()))
    forest_path = tmp_path / "forest.json"
    forest_path.write_text(
        serialize.dumps(AbstractionForest([plans_tree()]))
    )
    return tmp_path, str(provenance_path), str(forest_path)


class TestInspect:
    def test_reports_measures(self, files, capsys):
        _, provenance, _ = files
        assert main(["inspect", provenance]) == 0
        out = capsys.readouterr().out
        assert "monomials (|P|_M):  14" in out
        assert "variables (|P|_V):  9" in out

    def test_wrong_payload_kind(self, files):
        _, _, forest = files
        with pytest.raises(SystemExit):
            main(["inspect", forest])


class TestCompress:
    def test_optimal_compress_roundtrip(self, files, capsys):
        tmp_path, provenance, forest = files
        output = str(tmp_path / "compressed.json")
        vvs_output = str(tmp_path / "cut.json")
        code = main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--output", output,
            "--vvs-output", vvs_output,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "14 -> 8" in out
        with open(output) as handle:
            compressed = serialize.loads(handle.read())
        assert compressed.num_monomials == 8
        with open(vvs_output) as handle:
            cut = json.load(handle)
        assert set(cut["labels"]) == {"SB", "Special", "e", "p1"}

    def test_greedy_compress(self, files, capsys):
        _, provenance, forest = files
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "greedy",
        ]) == 0
        assert "size:" in capsys.readouterr().out

    def test_infeasible_bound_exits(self, files):
        _, provenance, forest = files
        with pytest.raises(SystemExit, match="infeasible"):
            main([
                "compress", provenance, forest, "--bound", "1",
                "--algorithm", "optimal",
            ])

    def test_optimal_rejects_multiple_trees(self, files, tmp_path):
        _, provenance, _ = files
        two_trees = tmp_path / "two.json"
        two_trees.write_text(serialize.dumps(AbstractionForest([
            AbstractionTree.from_nested(("A", ["p1", "p2"])),
            AbstractionTree.from_nested(("B", ["m1", "m3"])),
        ])))
        with pytest.raises(SystemExit, match="NP-hard"):
            main([
                "compress", provenance, str(two_trees), "--bound", "9",
                "--algorithm", "optimal",
            ])

    def test_auto_reports_resolved_algorithm(self, files, capsys):
        _, provenance, forest = files
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "auto",
        ]) == 0
        # A single-tree forest resolves to the optimal DP.
        assert "algorithm:     optimal" in capsys.readouterr().out


class TestBinaryFormat:
    def test_rpb_extension_writes_binary(self, files, capsys, tmp_path):
        """--artifact *.rpb defaults to the binary container; ask
        auto-detects it by magic bytes."""
        from repro.core import binfmt

        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.rpb")
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ]) == 0
        assert binfmt.is_binary(artifact)
        capsys.readouterr()
        assert main([
            "ask", artifact, "--set", "b1=0.8", "--set", "b2=0.8",
        ]) == 0
        assert "polynomial[0]" in capsys.readouterr().out

    def test_format_flag_overrides_extension(self, files, capsys, tmp_path):
        from repro.core import binfmt

        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
            "--format", "bin",
        ]) == 0
        assert binfmt.is_binary(artifact)

    def test_both_formats_answer_identically(self, files, capsys, tmp_path):
        _, provenance, forest = files
        outputs = {}
        for fmt in ("json", "bin"):
            artifact = str(tmp_path / f"artifact-{fmt}")
            assert main([
                "compress", provenance, forest, "--bound", "9",
                "--algorithm", "optimal", "--artifact", artifact,
                "--format", fmt,
            ]) == 0
            capsys.readouterr()
            assert main(["ask", artifact, "--set", "p1=0.5"]) == 0
            outputs[fmt] = capsys.readouterr().out
        assert outputs["json"] == outputs["bin"]

    def test_sweep_accepts_binary_artifact(self, files, capsys, tmp_path):
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.rpb")
        main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ])
        capsys.readouterr()
        assert main([
            "sweep", artifact, "--oaat", "all",
            "--multipliers", "0.5,1.5", "--top-k", "3",
        ]) == 0
        assert "compressed artifact" in capsys.readouterr().out

    def test_corrupt_binary_exits_cleanly(self, tmp_path):
        bad = tmp_path / "bad.rpb"
        bad.write_bytes(b"RPROVBIN" + b"\x00" * 4)
        with pytest.raises(SystemExit):
            main(["ask", str(bad), "--set", "p1=0.5"])

    def test_extend_of_binary_artifact_is_silent(self, files, tmp_path):
        """Extending a ``.rpb`` writes nothing to stderr. In a fresh
        interpreter, so no earlier extend in this process can have used
        up a once-per-process warning."""
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.rpb")
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ]) == 0
        delta = tmp_path / "delta.json"
        delta.write_text(serialize.dumps(
            parse_set(["2*b1*m1 + 3.5*p1*m3", "7*e*m2"])
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "extend", artifact,
             "--added", str(delta), "--drift-limit", "1e9",
             "--output", str(tmp_path / "extended.rpb")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^path: +repaired$", proc.stdout, re.MULTILINE)
        assert proc.stderr == ""


class TestAsk:
    def test_compress_ask_pipeline(self, files, capsys, tmp_path):
        """compress --artifact then ask: the file-shaped session flow."""
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ]) == 0
        capsys.readouterr()
        # Uniform on every group of the cut -> exact.
        assert main([
            "ask", artifact, "--set", "b1=0.8", "--set", "b2=0.8",
            "--name", "business-discount",
        ]) == 0
        out = capsys.readouterr().out
        assert "business-discount (exact):" in out
        assert "polynomial[0]" in out and "polynomial[1]" in out

    def test_ask_suite_file(self, files, capsys, tmp_path):
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ])
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": [
            {"name": "all-business", "changes": {"b1": 1.2, "b2": 1.2, "e": 1.2}},
            {"name": "b1-only", "changes": {"b1": 1.2}},
        ]}))
        capsys.readouterr()
        assert main(["ask", artifact, "--suite", str(suite)]) == 0
        out = capsys.readouterr().out
        assert "all-business (exact):" in out
        assert "b1-only (approximate):" in out

    def test_ask_rejects_non_mapping_changes(self, files, capsys, tmp_path):
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ])
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(
            {"scenarios": [{"name": "bad", "changes": "m1=0.8"}]}
        ))
        with pytest.raises(SystemExit, match='"changes" mapping'):
            main(["ask", artifact, "--suite", str(suite)])

    @pytest.mark.parametrize(
        "value", ['"abc"', "null", "true", "NaN", "Infinity", "1e999"]
    )
    def test_ask_rejects_bad_change_values(self, files, tmp_path, value):
        """A change value that is not a finite number exits with one
        line naming the entry, as the service answers it with 400."""
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ])
        suite = tmp_path / "suite.json"
        suite.write_text(
            '{"scenarios": [{"changes": {"b1": 0.5}}, '
            '{"changes": {"b1": %s}}]}' % value
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["ask", artifact, "--suite", str(suite)])
        assert str(exit_info.value) == (
            f'{suite}: scenario #1: "changes" must map variable names to '
            "finite numbers"
        )

    def test_ask_requires_scenarios(self, files, tmp_path):
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        main([
            "compress", provenance, forest, "--bound", "9",
            "--algorithm", "optimal", "--artifact", artifact,
        ])
        with pytest.raises(SystemExit, match="nothing to ask"):
            main(["ask", artifact])

    def test_ask_rejects_non_artifact(self, files):
        _, provenance, _ = files
        with pytest.raises(SystemExit, match="expected a CompressedProvenance"):
            main(["ask", provenance, "--set", "m1=0.5"])


class TestValuate:
    def test_identity_valuation(self, files, capsys):
        _, provenance, _ = files
        assert main(["valuate", provenance]) == 0
        out = capsys.readouterr().out
        assert "polynomial[0] = 917.25" in out

    def test_scenario_valuation(self, files, capsys):
        _, provenance, _ = files
        assert main(["valuate", provenance, "--set", "m1=0"]) == 0
        out = capsys.readouterr().out
        # Killing January leaves only the March monomials of P1.
        assert "polynomial[0] = 451.15" in out

    def test_bad_assignment_syntax(self, files):
        _, provenance, _ = files
        with pytest.raises(SystemExit, match="name=value"):
            main(["valuate", provenance, "--set", "m1:0.5"])

    def test_non_numeric_value(self, files):
        _, provenance, _ = files
        with pytest.raises(SystemExit, match="not a number"):
            main(["valuate", provenance, "--set", "m1=abc"])


class TestDecide:
    def test_positive(self, files):
        _, provenance, forest = files
        assert main([
            "decide", provenance, forest,
            "--size", "8", "--granularity", "6",
        ]) == 0

    def test_negative(self, files):
        _, provenance, forest = files
        assert main([
            "decide", provenance, forest,
            "--size", "2", "--granularity", "9",
        ]) == 1


class TestBench:
    def test_tiny_bench_writes_json(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output),
        ]) == 0
        document = json.loads(output.read_text())
        assert document["schema"] == "repro-bench-core/8"
        entry = document["runs"]["tiny"]
        assert entry["mode"] == "tiny"
        results = entry["results"]
        assert set(results) == {
            "greedy", "optimal", "abstraction", "batch_valuation",
            "sweep", "sweep_delta", "compress_scale", "incremental",
            "artifact_io", "session", "service",
        }
        # Trajectory-only stages: absolute seconds, no ratio.
        for stage in ("greedy", "compress_scale"):
            assert results[stage]["seconds"] > 0
            assert "speedup" not in results[stage]
        assert results["compress_scale"]["algorithm"] == "greedy"
        assert results["incremental"]["speedup"] > 0
        assert results["incremental"]["path"] == "repaired"
        assert results["incremental"]["revision"] == 1
        assert results["incremental"]["added_monomials"] > 0
        assert results["artifact_io"]["speedup"] > 0
        assert results["artifact_io"]["json_bytes"] > 0
        assert results["artifact_io"]["bin_bytes"] > 0
        assert results["batch_valuation"]["max_abs_error"] < 1e-6
        assert results["sweep"]["max_abs_error"] == 0.0
        assert results["sweep"]["workers"] >= 2
        assert results["sweep_delta"]["max_abs_error"] == 0.0
        assert results["sweep_delta"]["speedup"] > 0
        assert results["sweep_delta"]["auto_engine"] == "delta"
        assert results["session"]["algorithm"] == "greedy"
        assert results["session"]["artifact_bytes"] > 0
        assert results["session"]["exact_answers"] >= 0

    def test_check_passes_against_own_run(self, tmp_path):
        """A run checked against a baseline built from its own JSON
        passes: the whole ``--check`` path runs (baseline read, row
        match, floors) without gating timings.

        Tiny-mode speedups come from millisecond timings, so the
        baseline scales every recorded speedup by 1e-6; the error rows
        stay as recorded. Perf is gated by CI's smoke-bench step.
        """
        output = tmp_path / "bench.json"
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output),
        ]) == 0
        document = json.loads(output.read_text())
        for result in document["runs"]["tiny"]["results"].values():
            if "speedup" in result:
                result["speedup"] *= 1e-6
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--check", str(baseline),
        ]) == 0

    def test_check_fails_on_regressed_baseline(self, tmp_path, capsys):
        """A baseline demanding impossible speedups trips the gate."""
        output = tmp_path / "bench.json"
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output),
        ]) == 0
        document = json.loads(output.read_text())
        document["runs"]["tiny"]["results"]["batch_valuation"]["speedup"] = 1e9
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        code = main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--check", str(baseline),
        ])
        assert code == 1
        assert "batch_valuation.speedup regressed" in capsys.readouterr().err

    def test_stage_filter_runs_and_merges_partially(self, tmp_path):
        """--stage runs a subset; later filtered runs merge, not replace."""
        output = tmp_path / "bench.json"
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output), "--stage", "greedy",
        ]) == 0
        document = json.loads(output.read_text())
        assert set(document["runs"]["tiny"]["results"]) == {"greedy"}
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output), "--stage", "compress_scale",
        ]) == 0
        document = json.loads(output.read_text())
        assert set(document["runs"]["tiny"]["results"]) == {
            "greedy", "compress_scale",
        }
        # The gate only checks the stages that ran (tiny timings are
        # jittery — the wide tolerance keeps this a machinery test).
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--stage", "greedy", "--check", str(output),
            "--tolerance", "0.75",
        ]) == 0

    def test_check_rejects_missing_mode(self, tmp_path, capsys):
        """The gate is strictly same-mode: no smoke baseline, no pass."""
        output = tmp_path / "bench.json"
        assert main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--output", str(output),
        ]) == 0
        document = json.loads(output.read_text())
        del document["runs"]["tiny"]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        code = main([
            "bench", "--tiny", "--quiet", "--repeat", "1",
            "--check", str(baseline),
        ])
        assert code == 1


class TestSweep:
    def test_oaat_sweep_reports_top_k(self, files, capsys):
        _, provenance, _ = files
        assert main([
            "sweep", provenance, "--oaat", "all",
            "--multipliers", "0.8,1.2", "--top-k", "3", "--sensitivity",
        ]) == 0
        out = capsys.readouterr().out
        assert "top 3 by total value:" in out
        assert "sensitivity" in out

    def test_grid_sweep_counts_cartesian_product(self, files, capsys):
        _, provenance, _ = files
        assert main([
            "sweep", provenance,
            "--grid", "plans=b1,b2", "--grid", "months=m1,m3",
            "--multipliers", "0.5,1.0,2.0", "--top-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "grid, 9 scenarios" in out

    def test_random_sweep_against_artifact(self, files, tmp_path, capsys):
        _, provenance, forest = files
        artifact = str(tmp_path / "artifact.json")
        assert main([
            "compress", provenance, forest, "--bound", "9",
            "--artifact", artifact,
        ]) == 0
        capsys.readouterr()
        assert main([
            "sweep", artifact, "--random", "20", "--seed", "3",
            "--top-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "(compressed artifact)" in out
        assert "random, 20 scenarios" in out
        assert "seed:        3" in out

    def test_random_sweep_echoes_default_seed(self, files, capsys):
        """Reproducible from the report alone: the seed is printed even
        when the user never passed --seed."""
        _, provenance, _ = files
        assert main(["sweep", provenance, "--random", "5"]) == 0
        assert "seed:        0" in capsys.readouterr().out

    def test_non_random_sweep_prints_no_seed(self, files, capsys):
        _, provenance, _ = files
        assert main([
            "sweep", provenance, "--oaat", "all", "--multipliers", "0.8",
        ]) == 0
        assert "seed:" not in capsys.readouterr().out

    def test_engine_flag_reports_and_agrees(self, files, capsys):
        _, provenance, _ = files
        reports = {}
        for engine in ("dense", "delta", "auto"):
            assert main([
                "sweep", provenance, "--oaat", "all",
                "--multipliers", "0.8,1.2", "--top-k", "3",
                "--engine", engine, "--sensitivity",
            ]) == 0
            out = capsys.readouterr().out
            if engine == "auto":
                # The resolved engine is reported; for the 14-monomial
                # telephony input the affected-monomial heuristic picks
                # dense (delta needs volume to amortize its per-scenario
                # bookkeeping — test_delta_engine pins the policy).
                assert "engine:      dense (auto)" in out
            else:
                assert f"engine:      {engine}" in out
            # Drop the timing line: everything else must not depend on
            # the engine (the engines are bit-identical).
            reports[engine] = [
                line for line in out.splitlines()
                if not line.startswith("evaluated:")
                and not line.startswith("engine:")
            ]
        assert reports["dense"] == reports["delta"] == reports["auto"]

    def test_grid_requires_multipliers(self, files):
        _, provenance, _ = files
        with pytest.raises(SystemExit):
            main(["sweep", provenance, "--grid", "g=b1,b2"])

    def test_bad_grid_spec(self, files):
        _, provenance, _ = files
        with pytest.raises(SystemExit):
            main(["sweep", provenance, "--grid", "nogroup",
                  "--multipliers", "0.5"])

    @pytest.mark.parametrize("flags, message", [
        (["--random", "5", "--workers", "-1"],
         "--workers must be >= 0, got -1"),
        (["--random", "5", "--top-k", "0"], "--top-k must be >= 1, got 0"),
        (["--random", "-5"], "--random: count must be >= 0, got -5"),
        (["--random", "5", "--variables", "b1,b2", "--changes", "0"],
         "--random: changes must be in [1, 2], got 0"),
    ], ids=["workers", "top-k", "random", "changes"])
    def test_bad_flag_value_exits_in_one_line(self, files, capsys, flags,
                                              message):
        """A bad flag value ends the run with a one-line message before
        the report's first line. main catches nothing, so an unhandled
        ValueError (a traceback) would escape pytest.raises(SystemExit)."""
        _, provenance, _ = files
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
            main(["sweep", provenance, *flags])
        assert capsys.readouterr().out == ""


class TestServe:
    def test_negative_deadline_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--deadline must be >= 0"):
            main(["serve", "--spool-dir", str(tmp_path), "--deadline", "-1"])

    def test_negative_max_pending_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--max-pending must be >= 0"):
            main(["serve", "--spool-dir", str(tmp_path),
                  "--max-pending", "-5"])

    def test_window_flag_is_gone(self, tmp_path, capsys):
        """Batches flush by rule, not on a timer: ``--window`` is an
        argparse error (exit 2) before any server starts."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--spool-dir", str(tmp_path),
                  "--window", "0.002", "--deadline", "-1"])
        assert exit_info.value.code == 2
        assert "--window" in capsys.readouterr().err
