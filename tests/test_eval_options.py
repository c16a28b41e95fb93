"""Tests for `repro.options` (EvalOptions, the one spelling of every
evaluation knob), the `repro.errors` hierarchy, and the JSON/mmap
load-mode reporting."""

import warnings

import pytest

import repro
import repro.errors
from repro.api.session import ProvenanceSession
from repro.options import EvalOptions
from repro.scenarios.analysis import (
    assignment_speedup,
    evaluate_scenarios,
    sensitivity,
    top_k,
)
from repro.scenarios.scenario import Scenario

POLYNOMIALS = [
    "2*b1*m1 + 3*b2*m1 + b3*m2",
    "b1*m2 + 4*b2*m2 + 2*b3*m1",
]
FOREST = [("SB", ["b1", "b2", "b3"]), ("SM", ["m1", "m2"])]
SUITE = [
    {"b1": 0.5, "b2": 0.5, "b3": 0.5},
    {"m1": 0.0},
    {"b1": 2.0, "m2": 0.25},
]


def make_artifact(bound=2):
    session = ProvenanceSession.from_strings(POLYNOMIALS, forest=FOREST)
    return session.compress(bound, algorithm="greedy")


class TestEvalOptions:
    def test_defaults(self):
        from dataclasses import fields

        options = EvalOptions()
        assert options.engine == "auto"
        assert options.workers is None
        assert [f.name for f in fields(EvalOptions)] == ["engine", "workers"]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EvalOptions(engine="turbo")
        with pytest.raises(TypeError, match="backend"):
            EvalOptions(backend="columnar")  # compression has no knob
        with pytest.raises(ValueError, match="workers"):
            EvalOptions(workers=-1)
        with pytest.raises(TypeError, match="chunk_size"):
            EvalOptions(chunk_size=8)  # shard size is not a user knob

    def test_frozen_and_hashable(self):
        options = EvalOptions(engine="delta")
        with pytest.raises(Exception):  # FrozenInstanceError
            options.engine = "dense"
        assert options == EvalOptions(engine="delta")
        assert hash(options) == hash(EvalOptions(engine="delta"))

    def test_coerce(self):
        assert EvalOptions.coerce(None) == EvalOptions()
        assert EvalOptions.coerce(None) is EvalOptions.coerce(None)  # shared
        options = EvalOptions(workers=2)
        assert EvalOptions.coerce(options) is options
        for other in ("delta", {"engine": "dense"}):
            with pytest.raises(TypeError, match="options must be"):
                EvalOptions.coerce(other)

    def test_exported_at_top_level(self):
        assert repro.EvalOptions is EvalOptions


def entry_points():
    """Every entry point that reads a knob, as ``call(**keywords)``
    over a small artifact."""
    artifact = make_artifact()
    session = ProvenanceSession.from_strings(POLYNOMIALS, forest=FOREST)
    polynomials = artifact.polynomials
    lifted = [{"SB": 0.5}, {"SM": 0.0}]
    suite = [Scenario("s", {"b1": 0.5})]
    return [
        lambda **kw: artifact.ask(SUITE[0], **kw),
        lambda **kw: artifact.ask_many(SUITE, **kw),
        lambda **kw: session.ask(SUITE[0], **kw),
        lambda **kw: session.ask_many(SUITE, **kw),
        lambda **kw: evaluate_scenarios(polynomials, lifted, **kw),
        lambda **kw: top_k(polynomials, lifted, k=1, **kw),
        lambda **kw: sensitivity(polynomials, lifted, **kw),
        lambda **kw: assignment_speedup(
            session.polynomials, polynomials, suite, vvs=artifact.vvs,
            repeat=1, **kw),
    ]


class TestResolveOptions:
    """How entry points take their knobs: ``options=EvalOptions(...)``
    is the one spelling; the keywords that predate it, and the mapping
    form, raise a plain :class:`TypeError`."""

    def test_plain_options_pass_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in entry_points():
                call(options=EvalOptions(engine="dense"))
                call(options=None)

    def test_mixing_is_a_type_error(self):
        for call in entry_points():
            with pytest.raises(TypeError):
                call(options=EvalOptions(), engine="dense")
            with pytest.raises(TypeError):
                call(options={"engine": "dense"})  # no mapping form

    def test_unknown_legacy_keys_rejected(self):
        for call in entry_points():
            for keyword in ("engine", "workers", "chunk_size", "batch"):
                with pytest.raises(TypeError, match=keyword):
                    call(**{keyword: None})


class TestEntryPoints:
    """options= is accepted everywhere a knob is read."""

    def test_ask_many_engines_bit_identical(self):
        artifact = make_artifact()
        baseline = artifact.ask_many(SUITE)
        for engine in ("dense", "delta"):
            with_options = artifact.ask_many(
                SUITE, options=EvalOptions(engine=engine))
            assert with_options == baseline

    def test_session_ask_accepts_options(self):
        session = ProvenanceSession.from_strings(POLYNOMIALS, forest=FOREST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answer = session.ask(SUITE[0], options=EvalOptions(engine="dense"))
        assert answer.values == session.ask(SUITE[0]).values

    def test_evaluate_scenarios_options_vs_legacy(self):
        artifact = make_artifact()
        polynomials = artifact.polynomials
        suite = [{"SB": 0.5}, {"SM": 0.0}]
        baseline = evaluate_scenarios(polynomials, suite)
        routed = evaluate_scenarios(
            polynomials, suite, options=EvalOptions(engine="dense"))
        assert [list(row) for row in routed] == [list(row) for row in baseline]
        with pytest.raises(TypeError, match="engine"):
            evaluate_scenarios(polynomials, suite, engine="dense")

    def test_top_k_and_sensitivity_accept_options(self):
        artifact = make_artifact()
        polynomials = artifact.polynomials
        sweep = [{"SB": 0.5}, {"SB": 2.0}, {"SM": 0.25}]
        options = EvalOptions(engine="dense")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranked = top_k(polynomials, sweep, k=2, options=options)
            report = sensitivity(polynomials, sweep, options=options)
        assert ranked == top_k(polynomials, sweep, k=2)
        assert report == sensitivity(polynomials, sweep)

    def test_mixing_rejected_at_entry_points(self):
        artifact = make_artifact()
        with pytest.raises(TypeError, match="engine"):
            artifact.ask_many(
                SUITE, engine="dense", options=EvalOptions())
        # The positional slots the deprecated keywords held are gone too.
        with pytest.raises(TypeError):
            artifact.ask_many(SUITE, 1.0, 2)

    def test_surfaces_that_read_no_knob_take_no_options(self):
        """Compression and every mutation read no knob, so none of
        them accepts ``options=``."""
        from repro.api.mutation import extend_artifact

        session = ProvenanceSession.from_strings(POLYNOMIALS, forest=FOREST)
        artifact = session.compress(2, algorithm="greedy")
        added = ["b1*m1"]
        calls = [
            lambda: session.compress(2, algorithm="greedy",
                                     options=EvalOptions()),
            lambda: session.extend(added, artifact, options=EvalOptions()),
            lambda: artifact.refresh(added, options=EvalOptions()),
            lambda: extend_artifact(artifact, added, options=EvalOptions()),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="options"):
                call()


class TestErrorsHierarchy:
    def test_base_and_branches(self):
        from repro.errors import (
            ArtifactNotFound,
            CompressionError,
            EvaluationError,
            ReproError,
            SerializeError,
        )

        for error in (SerializeError, CompressionError, EvaluationError,
                      ArtifactNotFound):
            assert issubclass(error, ReproError)
        # Compatibility: historical ad-hoc bases still hold.
        assert issubclass(SerializeError, ValueError)
        assert issubclass(ArtifactNotFound, KeyError)

    def test_artifact_not_found_str_is_clean(self):
        from repro.errors import ArtifactNotFound

        # KeyError.__str__ would repr() the message; ours must not.
        assert str(ArtifactNotFound("no artifact 'x'")) == "no artifact 'x'"

    def test_adhoc_exceptions_joined_the_family(self):
        from repro.algorithms.result import InfeasibleBoundError
        from repro.core.forest import CompatibilityError
        from repro.core.parser import ParseError
        from repro.core.valuation import NonUniformError
        from repro.errors import CompressionError, ReproError

        assert issubclass(InfeasibleBoundError, CompressionError)
        for error in (CompatibilityError, ParseError, NonUniformError):
            assert issubclass(error, ReproError)

    def test_lazy_aliases_resolve(self):
        from repro.core.parser import ParseError

        assert repro.errors.ParseError is ParseError
        assert "InfeasibleBoundError" in dir(repro.errors)
        with pytest.raises(AttributeError):
            repro.errors.NoSuchError

    def test_serialize_module_reexports(self):
        from repro.core import serialize
        from repro.errors import SerializeError

        assert serialize.SerializeError is SerializeError


class TestMmapReporting:
    def test_binary_artifact_is_mmap_backed(self, tmp_path):
        from repro.api.artifact import CompressedProvenance

        path = tmp_path / "artifact.rpb"
        make_artifact().save(path)
        loaded = CompressedProvenance.load(path, mmap=True)
        assert loaded.mmap_active is True
        assert loaded.stats()["mmap_active"] is True

    def test_json_artifact_reports_eager_load_and_warns_once(self, tmp_path):
        import repro.api.artifact as artifact_module
        from repro.api.artifact import CompressedProvenance

        path = tmp_path / "artifact.json"
        make_artifact().save(path, format="json")
        artifact_module._WARNED_JSON_MMAP = False
        try:
            with pytest.warns(UserWarning, match="no effect on JSON"):
                loaded = CompressedProvenance.load(path, mmap=True)
            assert loaded.mmap_active is False
            assert loaded.stats()["mmap_active"] is False
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second load: no warning
                again = CompressedProvenance.load(path, mmap=True)
            assert again.mmap_active is False
        finally:
            artifact_module._WARNED_JSON_MMAP = False

    def test_json_load_without_mmap_does_not_warn(self, tmp_path):
        import repro.api.artifact as artifact_module
        from repro.api.artifact import CompressedProvenance

        path = tmp_path / "artifact.json"
        make_artifact().save(path, format="json")
        artifact_module._WARNED_JSON_MMAP = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = CompressedProvenance.load(path, mmap=False)
        assert loaded.mmap_active is False
