"""Incremental artifact maintenance: extend/refresh and MutationResult.

The contract under test (see :mod:`repro.api.mutation`): extending an
artifact repairs every derived structure in place — columnar CSR
arrays, the compiled batch matrix, the delta-engine index — and the
result is *bit-for-bit identical* to abstracting the full extended
provenance under the same cut from scratch. The Hypothesis suite pins
that across float, Fraction and big-int coefficient families (the
float family on a base of more than 512 monomials, so a large base
and a small delta are abstracted side by side); the
deterministic tests cover the drift-triggered recompress fallback, an
input artifact left unchanged by every extend whatever its origin,
revision plumbing through both serialization formats, and the unified
MutationResult shape (named fields only).
"""

import warnings

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.artifact import CompressedProvenance
from repro.api.mutation import MutationResult, extend_artifact
from repro.api.session import ProvenanceSession
from repro.core import serialize
from repro.core.abstraction import abstract
from repro.core.forest import AbstractionForest, CompatibilityError
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree
from repro.errors import CompressionError
from repro.options import EvalOptions

# ---------------------------------------------------------------------------
# Fixtures and strategies
# ---------------------------------------------------------------------------

B_LEAVES = [f"b{i}" for i in range(1, 5)]
M_LEAVES = [f"m{i}" for i in range(1, 4)]
FREE = [f"f{i}" for i in range(3)]
NEW = [f"n{i}" for i in range(3)]


def make_forest():
    return AbstractionForest([
        AbstractionTree.from_nested(
            ("SB", [("SB1", B_LEAVES[:2]), ("SB2", B_LEAVES[2:])])
        ),
        AbstractionTree.from_nested(("SM", M_LEAVES)),
    ])


def anchor_polynomial():
    """One polynomial mentioning every leaf, so the forest stays clean-
    compatible whatever Hypothesis draws for the rest."""
    terms = {Monomial([(b, 1), (m, 1)]): 1
             for b, m in zip(B_LEAVES, M_LEAVES * 2)}
    return Polynomial(terms)


float_coeffs = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6,
).filter(lambda value: value != 0)
fraction_coeffs = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997,
).filter(lambda value: value != 0)
bigint_coeffs = st.integers(
    min_value=-(10 ** 30), max_value=10 ** 30,
).filter(lambda value: value != 0)

COEFF_FAMILIES = {
    "float": float_coeffs,
    "fraction": fraction_coeffs,
    "bigint": bigint_coeffs,
}


@st.composite
def compatible_monomials(draw, extra_pool):
    """At most one leaf per tree (the VVS compatibility constraint),
    plus free/new variables."""
    pairs = []
    b = draw(st.sampled_from(B_LEAVES + [None]))
    if b is not None:
        pairs.append((b, draw(st.integers(1, 3))))
    m = draw(st.sampled_from(M_LEAVES + [None]))
    if m is not None:
        pairs.append((m, draw(st.integers(1, 3))))
    for name, exp in draw(
        st.dictionaries(st.sampled_from(extra_pool), st.integers(1, 2),
                        max_size=2)
    ).items():
        pairs.append((name, exp))
    return Monomial(pairs)


@st.composite
def polynomial_sets(draw, coeffs, extra_pool, min_polys=0, max_polys=3):
    polys = draw(st.lists(
        st.dictionaries(compatible_monomials(extra_pool), coeffs,
                        min_size=1, max_size=5),
        min_size=min_polys, max_size=max_polys,
    ))
    return PolynomialSet(Polynomial(terms) for terms in polys)


def compress_base(base):
    session = ProvenanceSession(base, make_forest())
    bound = max(1, base.num_monomials // 2)
    artifact = session.compress(bound, algorithm="greedy")
    return session, artifact


def large_float_base():
    """516 float monomials in 43 polynomials, every leaf pairing once
    per polynomial: a base well above 512 monomials whose merges sum
    three or more floats (order-sensitive in the last bits)."""
    return [
        Polynomial({
            Monomial([(b, 1), (m, 1), (f"p{index}", 1)]):
                0.1 * (index + 1) + 1e-3 * position
            for position, (b, m) in enumerate(
                (b, m) for m in M_LEAVES for b in reversed(B_LEAVES)
            )
        })
        for index in range(43)
    ]


def order_sensitive_float_delta():
    """A small float delta whose merged sums depend on summation order
    ((0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1), inserted against the
    canonical monomial order."""
    pairs = [(b, m) for m in M_LEAVES for b in B_LEAVES]
    return [Polynomial({
        Monomial([(b, 1), (m, 1), ("n0", 1)]): (0.1, 0.2, 0.3)[index % 3]
        for index, (b, m) in reversed(list(enumerate(pairs)))
    })]


#: Extra base and delta polynomials per coefficient family.
BASE_PADDING = {"float": large_float_base(), "fraction": [], "bigint": []}
DELTA_PADDING = {
    "float": order_sensitive_float_delta(), "fraction": [], "bigint": [],
}


SCENARIOS = [
    {"m1": 0.5},
    {"b1": 0.0, "m2": 2.0},
    {"b1": 0.5, "b2": 0.5, "b3": 0.5, "b4": 0.5},  # uniform on SB groups
    {"f0": 3.0, "n0": 0.25},
]


def answers_of(artifact):
    return [answer.values for answer in artifact.ask_many(SCENARIOS)]


def rebuilt_same_cut(artifact, originals):
    """A from-scratch artifact over ``originals`` with the *same* cut —
    the reference the repaired artifact must match bit-for-bit."""
    return CompressedProvenance(
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


# ---------------------------------------------------------------------------
# The bit-identity property, per coefficient family
# ---------------------------------------------------------------------------


class TestExtendMatchesFromScratch:
    @pytest.mark.parametrize("family", sorted(COEFF_FAMILIES))
    def test_extend_equals_rebuild(self, family):
        coeffs = COEFF_FAMILIES[family]

        @settings(max_examples=25, deadline=None)
        @given(
            base=polynomial_sets(coeffs, FREE, min_polys=0, max_polys=3),
            delta=polynomial_sets(coeffs, FREE + NEW, min_polys=0,
                                  max_polys=3),
        )
        def run(base, delta):
            base = PolynomialSet([
                anchor_polynomial(), *BASE_PADDING[family], *base.polynomials,
            ])
            delta = PolynomialSet([*DELTA_PADDING[family], *delta.polynomials])
            session, artifact = compress_base(base)
            baseline = answers_of(artifact)  # warms compiled + delta index
            assert baseline == answers_of(rebuilt_same_cut(artifact, base))

            result = session.extend(
                delta, artifact, drift_limit=float("inf"),
            )
            assert result.path == "repaired"
            assert result.revision == 1
            extended = result.artifact

            reference = rebuilt_same_cut(extended, session.polynomials)
            # Exact structural identity: same monomials, same coefficient
            # objects (Fraction stays Fraction, floats bit-equal).
            assert extended.polynomials == reference.polynomials
            # And identical answers through the repaired compiled matrix.
            assert answers_of(extended) == answers_of(reference)
            # The loss accounting stays exact without re-deriving it.
            assert extended.original_size == session.polynomials.num_monomials
            assert (extended.original_granularity
                    == session.polynomials.num_variables)
            assert (extended.monomial_loss
                    == extended.original_size - extended.abstracted_size)
            assert (extended.variable_loss
                    == extended.original_granularity
                    - extended.abstracted_granularity)

        run()

    @settings(max_examples=15, deadline=None)
    @given(
        base=polynomial_sets(float_coeffs, FREE, min_polys=1, max_polys=3),
        delta=polynomial_sets(float_coeffs, FREE + NEW, min_polys=1,
                              max_polys=3),
    )
    def test_refresh_accounting_matches_session(self, base, delta):
        """Bare refresh (no originals) reconstructs the same granularity
        accounting the session computes by direct count."""
        base = PolynomialSet([anchor_polynomial(), *base.polynomials])
        session, artifact = compress_base(base)
        twin = rebuilt_same_cut(artifact, base)

        via_session = session.extend(
            delta, artifact, drift_limit=float("inf"),
        ).artifact
        via_refresh = twin.refresh(
            delta, drift_limit=float("inf"),
        ).artifact
        assert via_refresh == via_session
        assert (via_refresh.original_granularity
                == via_session.original_granularity)
        assert via_refresh.original_size == via_session.original_size

    def test_extended_delta_and_dense_engines_agree(self):
        base = PolynomialSet([
            anchor_polynomial(),
            Polynomial({Monomial([("b1", 1), ("f0", 2)]): 3.5,
                        Monomial([("m2", 1)]): -2.0}),
        ])
        session, artifact = compress_base(base)
        answers_of(artifact)  # warm compiled, delta index and baselines
        result = session.extend(
            PolynomialSet([Polynomial({
                Monomial([("b3", 2), ("n0", 1)]): 4.0,
                Monomial([("f1", 1)]): 1.5,
            })]),
            artifact, drift_limit=float("inf"),
        )
        extended = result.artifact
        dense = [a.values for a in extended.ask_many(
            SCENARIOS, options=EvalOptions(engine="dense"))]
        delta = [a.values for a in extended.ask_many(
            SCENARIOS, options=EvalOptions(engine="delta"))]
        assert dense == delta
        assert dense == answers_of(rebuilt_same_cut(
            extended, session.polynomials))


class TestColumnarExtend:
    @settings(max_examples=20, deadline=None)
    @given(
        base=polynomial_sets(float_coeffs, FREE, min_polys=1, max_polys=3),
        delta=polynomial_sets(float_coeffs, FREE + NEW, min_polys=0,
                              max_polys=3),
    )
    def test_extend_is_array_identical_to_fresh_build(self, base, delta):
        extended = base.columnar()
        extended.extend(delta.columnar())
        fresh = PolynomialSet(
            base.polynomials + delta.polynomials
        ).columnar()
        assert extended.num_polynomials == fresh.num_polynomials
        assert extended.num_monomials == fresh.num_monomials
        numpy.testing.assert_array_equal(extended.vids, fresh.vids)
        numpy.testing.assert_array_equal(extended.exps, fresh.exps)
        numpy.testing.assert_array_equal(extended.row_starts,
                                         fresh.row_starts)
        numpy.testing.assert_array_equal(extended.row_poly, fresh.row_poly)
        numpy.testing.assert_array_equal(extended.poly_starts,
                                         fresh.poly_starts)
        assert extended.coeffs == fresh.coeffs


class TestLossAccounting:
    def test_losses_agree_with_sizes_when_coefficients_cancel(self):
        """``2*a*x - 2*b*x`` merges to a zero coefficient under ``ab``, so
        ``P↓S`` drops it along with ``x``; the losses count the set the
        artifact holds, before and after a refresh."""
        from repro.core.parser import parse_set

        session = ProvenanceSession.from_strings(
            ["2*a*x - 2*b*x + 3*y", "a*z + c*z"],
            forest=[("T", [("ab", ["a", "b"]), "c"])],
        )
        artifact = session.compress(4, algorithm="optimal")
        assert [str(p) for p in artifact.polynomials] == [
            "3*y", "ab*z + c*z",
        ]
        refreshed = artifact.refresh(
            parse_set(["b*z + 5*y"]), drift_limit=float("inf")
        ).artifact
        for current in (artifact, refreshed):
            stats = current.stats()
            assert stats["monomial_loss"] == (
                stats["original_size"] - stats["abstracted_size"]
            )
            assert stats["variable_loss"] == (
                stats["original_granularity"]
                - stats["abstracted_granularity"]
            )
        assert artifact.stats()["original_size"] == 5
        assert artifact.stats()["abstracted_size"] == 3
        assert artifact.stats()["monomial_loss"] == 2
        assert artifact.stats()["original_granularity"] == 6
        assert artifact.stats()["abstracted_granularity"] == 4
        assert artifact.stats()["variable_loss"] == 2
        assert refreshed.stats()["original_size"] == 7
        assert refreshed.stats()["abstracted_size"] == 5
        assert refreshed.stats()["monomial_loss"] == 2


# ---------------------------------------------------------------------------
# Drift fallback
# ---------------------------------------------------------------------------


class TestDriftFallback:
    def setup_artifact(self):
        base = PolynomialSet([anchor_polynomial()])
        return compress_base(base)

    def test_boundary_repairs_at_limit_recompresses_past_it(self):
        session, artifact = self.setup_artifact()
        delta = serialize_free_delta()
        size = (artifact.abstracted_size
                + abstract(delta, artifact.vvs).num_monomials)
        drift = (size - artifact.bound) / artifact.bound
        assert drift > 0
        at_limit = session.extend(delta, artifact, drift_limit=drift)
        assert at_limit.path == "repaired"
        assert at_limit.drift == pytest.approx(drift)

        session2, artifact2 = self.setup_artifact()
        below = session2.extend(
            delta, artifact2, drift_limit=drift * 0.999,
        )
        assert below.path == "recompressed"
        # The fallback is a true from-scratch compression of the full
        # extended provenance (modulo the lineage counter).
        fresh = ProvenanceSession(
            session2.polynomials, make_forest()
        ).compress(artifact2.bound, algorithm="greedy")
        assert below.artifact == fresh
        assert below.artifact.revision == 1
        assert below.revision == 1

    def test_refresh_raises_without_originals(self):
        _, artifact = self.setup_artifact()
        with pytest.raises(CompressionError, match="ProvenanceSession"):
            artifact.refresh(serialize_free_delta(), drift_limit=0.0)

    def test_negative_drift_limit_rejected(self):
        session, artifact = self.setup_artifact()
        with pytest.raises(ValueError, match="drift_limit"):
            session.extend(PolynomialSet([]), artifact, drift_limit=-0.5)

    @pytest.mark.parametrize("limit", [-1, "x", float("nan")])
    def test_refused_limit_leaves_the_session_as_it_was(self, limit):
        """A drift limit that is not a number ``>= 0`` is refused before
        the session grows; NaN, which would switch the drift guard
        off, is refused too."""
        session, artifact = self.setup_artifact()
        sizes = len(session.polynomials), session.polynomials.num_monomials
        for _ in range(2):
            with pytest.raises(ValueError):
                session.extend(
                    serialize_free_delta(), artifact, drift_limit=limit
                )
            assert (
                len(session.polynomials), session.polynomials.num_monomials
            ) == sizes
        with pytest.raises(ValueError):
            artifact.refresh(serialize_free_delta(), drift_limit=limit)
        assert session.compress(artifact.bound, algorithm="greedy") == artifact

    def test_internal_forest_labels_rejected(self):
        session, artifact = self.setup_artifact()
        meta = PolynomialSet([Polynomial({Monomial([("SB1", 1)]): 1})])
        with pytest.raises(CompatibilityError, match="SB1"):
            session.extend(meta, artifact)

    @pytest.mark.parametrize("factors, where", [
        ([("SB1", 1), ("x", 1)], "meta-variable 'SB1'"),
        ([("b1", 1), ("b3", 2)], "more than one node"),
    ])
    def test_incompatible_delta_rejected_before_mutating(
        self, factors, where
    ):
        """A delta breaking §2.2 condition 2 or 3 fails the solvers'
        own check, and the artifact and the session are left as they
        were: a later compress of the session still works."""
        session, artifact = self.setup_artifact()
        before = list(artifact.polynomials)
        sizes = len(session.polynomials), session.polynomials.num_monomials
        delta = PolynomialSet([Polynomial({Monomial(factors): 1})])
        with pytest.raises(CompatibilityError, match=where):
            artifact.refresh(delta)
        with pytest.raises(CompatibilityError, match=where):
            session.extend(delta, artifact)
        assert list(artifact.polynomials) == before
        assert artifact.revision == 0
        assert (
            len(session.polynomials), session.polynomials.num_monomials
        ) == sizes
        assert session.compress(artifact.bound, algorithm="greedy") == artifact


def serialize_free_delta():
    """Free-variable-only polynomials: nothing abstracts away, so every
    appended monomial drifts the abstracted size."""
    return PolynomialSet([
        Polynomial({Monomial([(f"z{i}", 1)]): 1 for i in range(4)}),
        Polynomial({Monomial([(f"w{i}", 1)]): 2 for i in range(4)}),
    ])


# ---------------------------------------------------------------------------
# Extend never mutates its input
# ---------------------------------------------------------------------------


NON_MUTATION_DELTA = PolynomialSet([
    Polynomial({
        Monomial([("b1", 1), ("f0", 1)]): 2.0,
        Monomial([("b3", 1), ("m2", 1), ("n0", 1)]): 0.5,
    }),
    Polynomial({Monomial([("m1", 2)]): 3.0}),
])


class TestExtendNeverMutates:
    """``session.extend`` and ``refresh`` leave the input artifact as it
    was, however it was made: compressed in this process, loaded from
    JSON, or loaded from ``.rpb`` with or without ``mmap``."""

    def make_input(self, source, tmp_path):
        base = PolynomialSet([
            anchor_polynomial(),
            Polynomial({Monomial([("b2", 1), ("f1", 1)]): 1.5,
                        Monomial([("m3", 1)]): -2.0}),
        ])
        session, artifact = compress_base(base)
        if source == "fresh":
            return session, artifact
        name = "artifact.json" if source == "json" else "artifact.rpb"
        artifact.save(tmp_path / name)
        loaded = CompressedProvenance.load(
            tmp_path / name, mmap=source != "rpb-read"
        )
        assert loaded.mmap_active is (source == "rpb-mmap")
        return session, loaded

    def observe(self, artifact, tmp_path):
        saved = artifact.save(tmp_path / "observed.rpb")
        with open(saved, "rb") as handle:
            content = handle.read()
        answers = [
            [answer.values for answer in artifact.ask_many(
                SCENARIOS, options=EvalOptions(engine=engine))]
            for engine in ("dense", "delta")
        ]
        return artifact.stats(), len(artifact), content, answers

    @pytest.mark.parametrize("route", ["session", "refresh"])
    @pytest.mark.parametrize(
        "source", ["fresh", "json", "rpb-mmap", "rpb-read"]
    )
    def test_input_unchanged(self, tmp_path, source, route):
        session, artifact = self.make_input(source, tmp_path)
        before = self.observe(artifact, tmp_path)
        files = {path: path.read_bytes() for path in tmp_path.glob("artifact.*")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if route == "session":
                result = session.extend(
                    NON_MUTATION_DELTA, artifact, drift_limit=float("inf")
                )
            else:
                result = artifact.refresh(
                    NON_MUTATION_DELTA, drift_limit=float("inf")
                )
        assert result.path == "repaired"
        assert result.artifact.polynomials is not artifact.polynomials
        assert not result.artifact.mmap_active
        assert self.observe(artifact, tmp_path) == before
        assert {path: path.read_bytes() for path in files} == files
        combined = PolynomialSet(
            list(artifact.polynomials) + list(NON_MUTATION_DELTA)
        )
        assert result.artifact.polynomials == abstract(
            combined, artifact.vvs
        )
        assert answers_of(result.artifact) == answers_of(
            rebuilt_same_cut(result.artifact, combined)
        )


# ---------------------------------------------------------------------------
# Arrays from the cut to the .rpb: no object round trip
# ---------------------------------------------------------------------------


def example13_session():
    from repro.workloads.telephony import (
        example13_polynomials, months_tree, plans_tree,
    )

    return ProvenanceSession(
        example13_polynomials(), [plans_tree(), months_tree()]
    )


EXAMPLE13_DELTA = ["2*b1*m1 + 3.5*p1*m3", "7*e*m2"]


class TestObjectFree:
    def test_fresh_artifact_never_builds_polynomials(self, tmp_path,
                                                     monkeypatch):
        """Compress, save, stats, asks under both engines, a repaired
        extend and a second save run on arrays alone; only iterating the
        polynomials builds objects, through ``to_polynomial_set``."""
        from repro.core.columnar import ColumnarMultiset
        from repro.core.parser import parse_set

        calls = []

        def refuse(self):
            calls.append(self.num_polynomials)
            raise AssertionError("materialized a Polynomial set")

        real = ColumnarMultiset.to_polynomial_set
        monkeypatch.setattr(ColumnarMultiset, "to_polynomial_set", refuse)
        session = example13_session()
        artifact = session.compress(bound=4)
        artifact.save(str(tmp_path / "fresh.rpb"))
        stats = artifact.stats()
        assert stats["abstracted_size"] == 3
        scenarios = [{"m1": 0.8}, {"b1": 0.5, "e": 2.0}, {}]
        for engine in ("dense", "delta"):
            artifact.ask_many(scenarios, options=EvalOptions(engine=engine))
        result = session.extend(parse_set(EXAMPLE13_DELTA), artifact,
                                drift_limit=float("inf"))
        assert result.path == "repaired"
        extended = result.artifact
        extended.save(str(tmp_path / "extended.rpb"))
        assert extended.stats()["polynomials"] == 4
        assert calls == []
        with pytest.raises(AssertionError, match="materialized"):
            list(extended.polynomials)
        assert calls == [4]
        monkeypatch.setattr(ColumnarMultiset, "to_polynomial_set", real)
        assert extended.polynomials == abstract(
            session.polynomials, extended.vvs
        )

    def test_one_extraction_per_repaired_extend(self, monkeypatch):
        """A repaired ``session.extend`` extracts its raw delta once:
        that cached view feeds the §2.2 check, the session's columnar
        and compiled repairs and the abstraction, whose output feeds the
        artifact's repairs."""
        from repro.core.columnar import ColumnarMultiset
        from repro.core.parser import parse_set

        session = example13_session()
        artifact = session.compress(bound=4)
        for polynomials in (session.polynomials, artifact.polynomials):
            polynomials.columnar()
            polynomials.compiled()
        delta = parse_set(EXAMPLE13_DELTA)
        assert delta.num_monomials == 3
        extracted = []
        real = ColumnarMultiset.__init__

        def counting(self, polynomial_set):
            real(self, polynomial_set)
            extracted.append(self.num_monomials)

        monkeypatch.setattr(ColumnarMultiset, "__init__", counting)
        result = session.extend(delta, artifact, drift_limit=float("inf"))
        assert result.path == "repaired"
        assert extracted == [3]
        assert session.polynomials._compiled is not None
        assert result.artifact.polynomials._compiled is not None


# ---------------------------------------------------------------------------
# MutationResult: the unified shape
# ---------------------------------------------------------------------------


class TestMutationResult:
    def make_result(self):
        base = PolynomialSet([anchor_polynomial()])
        session, artifact = compress_base(base)
        return session.extend(
            PolynomialSet([Polynomial({Monomial([("f0", 1)]): 1})]),
            artifact, drift_limit=float("inf"),
        )

    def test_named_fields_and_stats(self):
        result = self.make_result()
        assert result.path == "repaired"
        assert result.added_polynomials == 1
        assert result.added_monomials == 1
        assert result.revision == result.artifact.revision == 1
        assert result.artifact_id is None
        stats = result.stats()
        assert stats["path"] == "repaired"
        assert stats["revision"] == 1
        assert stats["artifact"] == result.artifact.stats()
        assert "id" not in stats
        tagged = result.with_id("a" * 64)
        assert tagged.artifact_id == "a" * 64
        assert tagged.stats()["id"] == "a" * 64
        assert result.artifact_id is None  # with_id copies

    def test_tuple_access_removed(self):
        """The named fields are the one way to read a result."""
        result = self.make_result()
        with pytest.raises(TypeError):
            artifact, path, drift = result
        with pytest.raises(TypeError):
            _ = result[1]


# ---------------------------------------------------------------------------
# Revision plumbing through both formats
# ---------------------------------------------------------------------------


class TestRevisionRoundTrip:
    def make_extended(self):
        base = PolynomialSet([anchor_polynomial()])
        session, artifact = compress_base(base)
        result = session.extend(
            PolynomialSet([Polynomial({Monomial([("f0", 1)]): 1})]),
            artifact, drift_limit=float("inf"),
        )
        return session.extend(
            PolynomialSet([Polynomial({Monomial([("f1", 1)]): 2})]),
            result.artifact, drift_limit=float("inf"),
        ).artifact

    @pytest.mark.parametrize("format", ["json", "bin"])
    def test_revision_survives_save_load(self, tmp_path, format):
        extended = self.make_extended()
        assert extended.revision == 2
        path = tmp_path / f"artifact.{format}"
        extended.save(path, format=format)
        loaded = CompressedProvenance.load(path, mmap=False)
        assert loaded.revision == 2
        assert loaded == extended

    def test_legacy_payload_defaults_to_revision_zero(self):
        extended = self.make_extended()
        payload = serialize.artifact_to_dict(extended)
        assert payload["stats"]["revision"] == 2
        del payload["stats"]["revision"]
        assert serialize.artifact_from_dict(payload).revision == 0

    def test_revision_changes_content_hash(self, tmp_path):
        """Equal-content artifacts at different revisions serialize to
        different container bytes — the store assigns a fresh id."""
        from repro.service.store import ArtifactStore

        extended = self.make_extended()
        twin = serialize.loads(extended.dumps())
        twin.revision = extended.revision + 1
        store = ArtifactStore(tmp_path / "spool")
        assert store.put(extended) != store.put(twin)

    def test_revision_not_part_of_equality(self):
        extended = self.make_extended()
        twin = serialize.loads(extended.dumps())
        twin.revision = 99
        assert twin == extended


# ---------------------------------------------------------------------------
# CLI: python -m repro extend
# ---------------------------------------------------------------------------


class TestCliExtend:
    def test_extend_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        base = PolynomialSet([anchor_polynomial()])
        session, artifact = compress_base(base)
        artifact_path = tmp_path / "artifact.json"
        artifact.save(artifact_path, format="json")
        provenance_path = tmp_path / "provenance.json"
        provenance_path.write_text(serialize.dumps(base))
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(serialize.dumps(PolynomialSet([
            Polynomial({Monomial([("b2", 1), ("f0", 1)]): 3}),
        ])))
        out_path = tmp_path / "extended.json"

        code = main([
            "extend", str(artifact_path),
            "--added", str(delta_path),
            "--provenance", str(provenance_path),
            "--drift-limit", "1e9",
            "--output", str(out_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "path:          repaired" in printed
        assert "revision:      1" in printed
        loaded = CompressedProvenance.load(out_path, mmap=False)
        assert loaded.revision == 1
        assert loaded.original_size == base.num_monomials + 1

    def test_overflow_without_provenance_exits(self, tmp_path):
        from repro.cli import main

        base = PolynomialSet([anchor_polynomial()])
        _, artifact = compress_base(base)
        artifact_path = tmp_path / "artifact.json"
        artifact.save(artifact_path, format="json")
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(serialize.dumps(serialize_free_delta()))
        with pytest.raises(SystemExit, match="drift|bound"):
            main([
                "extend", str(artifact_path),
                "--added", str(delta_path),
                "--drift-limit", "0.0",
            ])

    def test_incompatible_delta_exits_with_one_line(self, tmp_path):
        from repro.cli import main

        _, artifact = compress_base(PolynomialSet([anchor_polynomial()]))
        artifact_path = tmp_path / "artifact.json"
        artifact.save(artifact_path, format="json")
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(serialize.dumps(PolynomialSet([
            Polynomial({Monomial([("b1", 1), ("b2", 1)]): 1}),
        ])))
        with pytest.raises(SystemExit, match="more than one node"):
            main(["extend", str(artifact_path), "--added", str(delta_path)])


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


class TestPublicSurface:
    def test_mutation_result_exported(self):
        import repro

        assert repro.MutationResult is MutationResult
        assert "MutationResult" in repro.__all__

    def test_extend_artifact_importable_from_api(self):
        from repro.api import MutationResult as exported, extend_artifact

        assert exported is MutationResult
        assert callable(extend_artifact)
