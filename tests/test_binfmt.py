"""Tests for the zero-copy binary artifact container (core.binfmt).

The contract under test: a saved artifact answers **bit-identically**
whichever envelope it traveled through — the JSON text or the binary
``.rpb`` container, mmap'd or fully read — including exact-coefficient
sidecars (Fractions, big ints), and anything malformed raises a clear
:class:`SerializeError` instead of a deep NumPy/KeyError.
"""

import os
import pickle
import subprocess
import sys
import uuid
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.artifact import CompressedProvenance
from repro.api.session import ProvenanceSession
from repro.api.mutation import _writable_polynomials
from repro.core import binfmt, serialize
from repro.core.columnar import ColumnarMultiset
from repro.core.forest import AbstractionForest, ValidVariableSet
from repro.core.interning import VARIABLES
from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.serialize import SerializeError
from repro.core.tree import AbstractionTree
from test_columnar import assert_same_arrays

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_artifact(polynomials):
    """Wrap any PolynomialSet in a minimal artifact (trivial forest)."""
    leaves = sorted(polynomials.variables) or ["x"]
    forest = AbstractionForest([AbstractionTree.from_nested(("R", leaves))])
    return CompressedProvenance(
        polynomials,
        forest,
        forest.root_vvs(),
        algorithm="greedy",
        bound=max(1, polynomials.num_monomials),
        original_size=polynomials.num_monomials,
        original_granularity=polynomials.num_variables,
        monomial_loss=0,
        variable_loss=0,
    )


@pytest.fixture(scope="module")
def artifact():
    from repro.workloads.telephony import (
        example13_polynomials, months_tree, plans_tree,
    )

    forest = AbstractionForest([plans_tree(), months_tree()])
    return ProvenanceSession(example13_polynomials(), forest).compress(bound=9)


def probe_scenarios(artifact, count=6):
    names = sorted(artifact.polynomials.variables)
    return [
        {name: float((i + j) % 4) / 2 for j, name in enumerate(names)}
        for i in range(count)
    ]


def answers(artifact, scenarios):
    return [
        (a.name, a.values, a.exact) for a in artifact.ask_many(scenarios)
    ]


class TestRoundTrip:
    def test_binary_round_trip_equal(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        assert artifact.save(path) == path
        assert binfmt.is_binary(path)
        loaded = CompressedProvenance.load(path)
        assert loaded == artifact
        assert serialize.forest_to_dict(loaded.forest) == \
            serialize.forest_to_dict(artifact.forest)
        assert loaded.vvs.labels == artifact.vvs.labels

    def test_json_dumps_identical_after_binary_trip(self, artifact, tmp_path):
        """Re-serializing the binary-loaded artifact reproduces the JSON
        envelope byte for byte — nothing was lost or retyped."""
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        assert serialize.dumps(CompressedProvenance.load(path)) == \
            serialize.dumps(artifact)

    def test_answers_bit_identical_across_formats(self, artifact, tmp_path):
        json_path = str(tmp_path / "a.json")
        bin_path = str(tmp_path / "a.rpb")
        artifact.save(json_path, format="json")
        artifact.save(bin_path, format="bin")
        scenarios = probe_scenarios(artifact)
        expected = answers(artifact, scenarios)
        assert answers(CompressedProvenance.load(json_path), scenarios) == \
            expected
        assert answers(CompressedProvenance.load(bin_path), scenarios) == \
            expected
        assert answers(
            CompressedProvenance.load(bin_path, mmap=False), scenarios
        ) == expected

    def test_load_path_auto_detects(self, artifact, tmp_path):
        json_path = str(tmp_path / "a.json")
        bin_path = str(tmp_path / "a.rpb")
        artifact.save(json_path)
        artifact.save(bin_path)
        assert serialize.load_path(json_path) == artifact
        assert serialize.load_path(bin_path) == artifact
        assert not binfmt.is_binary(json_path)

    def test_session_load_artifact(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        assert ProvenanceSession.load_artifact(path) == artifact

    def test_save_format_validation(self, artifact, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact format"):
            artifact.save(str(tmp_path / "a.json"), format="msgpack")

    def test_auto_format_by_extension(self, artifact, tmp_path):
        for name, binary in [
            ("a.rpb", True), ("a.BIN", True), ("a.json", False),
            ("a.txt", False),
        ]:
            path = str(tmp_path / name)
            artifact.save(path)
            assert binfmt.is_binary(path) is binary

    def test_binary_smaller_or_reloadable_resave(self, artifact, tmp_path):
        """A binary-loaded artifact can itself be re-saved (both formats)
        and still answers identically — the lazy set materializes."""
        first = str(tmp_path / "a.rpb")
        artifact.save(first)
        loaded = CompressedProvenance.load(first)
        second = str(tmp_path / "b.json")
        loaded.save(second)
        assert CompressedProvenance.load(second) == artifact


class TestExactCoefficients:
    def test_fraction_and_bigint_round_trip(self, tmp_path):
        big = 2**80 + 7
        polys = PolynomialSet([
            Polynomial([
                (Monomial([("x", 2), ("y", 1)]), Fraction(22, 7)),
                (Monomial([("x", 1)]), big),
                (Monomial([("y", 3)]), -(2**70)),
            ]),
            Polynomial([
                (Monomial([("z", 1)]), 0.1),
                (Monomial([]), 3),
            ]),
        ])
        original = make_artifact(polys)
        path = str(tmp_path / "exact.rpb")
        original.save(path)
        loaded = CompressedProvenance.load(path)
        assert loaded.polynomials == polys
        assert serialize.dumps(loaded) == serialize.dumps(original)
        terms = {
            coeff for poly in loaded.polynomials for coeff, _ in poly
        }
        assert Fraction(22, 7) in terms
        assert big in terms

    def test_int64_boundary_values(self, tmp_path):
        polys = PolynomialSet([
            Polynomial([
                (Monomial([("x", 1)]), 2**63 - 1),
                (Monomial([("y", 1)]), -(2**63)),
                (Monomial([("z", 1)]), 2**63),  # first non-i64 int
            ]),
        ])
        original = make_artifact(polys)
        path = str(tmp_path / "bounds.rpb")
        original.save(path)
        assert CompressedProvenance.load(path).polynomials == polys

    def test_empty_set_round_trip(self, tmp_path):
        original = make_artifact(PolynomialSet([]))
        path = str(tmp_path / "empty.rpb")
        original.save(path)
        loaded = CompressedProvenance.load(path)
        assert loaded == original
        assert len(loaded.polynomials) == 0
        assert loaded.polynomials.num_monomials == 0
        assert serialize.dumps(loaded) == serialize.dumps(original)


COEFF = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).filter(lambda v: v != 0),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0),
    st.fractions(min_value=-100, max_value=100).filter(lambda v: v != 0),
)

MONOMIAL = st.dictionaries(
    st.sampled_from(["x", "y", "z", "w"]),
    st.integers(min_value=1, max_value=4),
    max_size=3,
)

POLYNOMIAL = st.lists(st.tuples(MONOMIAL, COEFF), max_size=5)

POLYNOMIAL_SET = st.lists(POLYNOMIAL, max_size=4)


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=POLYNOMIAL_SET)
    def test_binary_and_json_agree(self, tmp_path_factory, spec):
        """For arbitrary mixed-coefficient sets, the binary container
        round-trips to the same object and the same JSON bytes as the
        JSON envelope does."""
        polys = PolynomialSet([
            Polynomial(
                (Monomial(sorted(powers.items())), coeff)
                for powers, coeff in terms
            )
            for terms in spec
        ])
        original = make_artifact(polys)
        tmp = tmp_path_factory.mktemp("binfmt")
        bin_path = str(tmp / "a.rpb")
        original.save(bin_path)
        from_bin = CompressedProvenance.load(bin_path)
        from_json = serialize.loads(serialize.dumps(original))
        assert from_bin.polynomials == polys
        assert from_bin == from_json
        assert serialize.dumps(from_bin) == serialize.dumps(from_json)
        scenarios = probe_scenarios(original, count=3)
        assert answers(from_bin, scenarios) == answers(original, scenarios)


class TestCorruption:
    def save(self, artifact, tmp_path):
        path = str(tmp_path / "good.rpb")
        artifact.save(path)
        return path, open(path, "rb").read()

    def reload(self, tmp_path, data):
        path = str(tmp_path / "bad.rpb")
        with open(path, "wb") as handle:
            handle.write(data)
        return binfmt.read_artifact(path)

    def test_truncations_raise_serialize_error(self, artifact, tmp_path):
        _, data = self.save(artifact, tmp_path)
        for cut in (0, 4, 11, 40, len(data) // 2, len(data) - 1):
            with pytest.raises(SerializeError):
                self.reload(tmp_path, data[:cut])

    def test_bad_magic(self, artifact, tmp_path):
        _, data = self.save(artifact, tmp_path)
        with pytest.raises(SerializeError, match="magic"):
            self.reload(tmp_path, b"NOTMAGIC" + data[8:])

    def test_corrupt_header_json(self, artifact, tmp_path):
        _, data = self.save(artifact, tmp_path)
        length = int.from_bytes(data[8:12], "little")
        mangled = data[:12] + b"\xff" * length + data[12 + length:]
        with pytest.raises(SerializeError, match="header"):
            self.reload(tmp_path, mangled)

    def test_unknown_schema(self, artifact, tmp_path):
        _, data = self.save(artifact, tmp_path)
        length = int.from_bytes(data[8:12], "little")
        header = data[12:12 + length].replace(
            b'"schema":1', b'"schema":9'
        )
        assert len(header) == length
        with pytest.raises(SerializeError, match="schema"):
            self.reload(tmp_path, data[:12] + header + data[12 + length:])

    def test_wrong_kind_for_artifact(self, artifact, tmp_path):
        path = str(tmp_path / "c.bin")
        blob = binfmt.dumps_compiled(artifact.polynomials.compiled())
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(SerializeError, match="kind"):
            binfmt.read_artifact(path)
        # ...but read_compiled accepts either kind.
        assert binfmt.read_compiled(path).num_polynomials == len(
            artifact.polynomials
        )

    def test_json_loader_rejects_binary_text_mode(self, artifact, tmp_path):
        """Feeding container bytes to the JSON loader fails as an
        unknown envelope, not a random decode crash."""
        path, data = self.save(artifact, tmp_path)
        with pytest.raises(ValueError):
            serialize.loads(data.decode("latin-1"))

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.rpb")
        open(path, "wb").close()
        with pytest.raises(SerializeError, match="magic"):
            binfmt.read_artifact(path)


class TestLazyMaterialization:
    def test_ask_does_not_materialize(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        loaded = CompressedProvenance.load(path)
        polys = loaded.polynomials
        assert isinstance(polys, binfmt.BufferBackedPolynomialSet)
        loaded.ask_many(probe_scenarios(artifact, count=2))
        assert len(polys) == len(artifact.polynomials)
        assert polys.num_monomials == artifact.polynomials.num_monomials
        assert polys.variables == artifact.polynomials.variables
        assert polys._polynomials is None  # still lazy after all that
        assert polys.polynomials  # force it
        assert polys._polynomials is not None
        assert polys == artifact.polynomials

    def test_append_raises(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        loaded = CompressedProvenance.load(path)
        with pytest.raises(TypeError, match="read-only"):
            loaded.polynomials.append(Polynomial([]))

    def test_extend_raises_and_changes_nothing(self, artifact, tmp_path):
        """Extending a loaded set fails before anything changes —
        directly or through a session built over it — so its counts and
        answers stay those of the file."""
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        loaded = CompressedProvenance.load(path)
        polys = loaded.polynomials
        scenarios = [{}, *probe_scenarios(artifact, count=3)]
        before = [answer.values for answer in loaded.ask_many(scenarios)]
        counts = (len(polys), polys.num_monomials)
        with pytest.raises(TypeError, match="read-only"):
            polys.extend(parse_set(["3*zz + 2"]))
        with pytest.raises(TypeError, match="read-only"):
            ProvenanceSession(polys, loaded.forest).extend(
                parse_set(["3*zz + 2"]), loaded
            )
        assert (len(polys), polys.num_monomials) == counts
        assert [answer.values for answer in loaded.ask_many(scenarios)] == before
        assert len(loaded.ask({}).values) == counts[0]

    def test_views_are_read_only(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        compiled = CompressedProvenance.load(path).polynomials.compiled()
        with pytest.raises(ValueError):
            compiled._coeffs[0] = 1.0


#: Compresses an artifact in a fresh process that interns the variables
#: in reverse name order and saves it as ``.rpb`` and as JSON, whose
#: loader builds every monomial from names (argv: ``.rpb`` path, tag).
_FOREIGN_WRITER = """
import sys
from fractions import Fraction
from repro.api.session import ProvenanceSession
from repro.core.interning import VARIABLES
from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial

path, tag = sys.argv[1:]
b1, b2, b3, m1, m2, x = (f"{n}_{tag}" for n in ("b1", "b2", "b3", "m1", "m2", "x"))
for name in sorted((b1, b2, b3, m1, m2, x), reverse=True):
    VARIABLES.intern(name)
polys = parse_set([
    f"2*{b1}*{m1}*{x} + 3.5*{b2}*{m1}*{x} + 1.25*{b3}*{m2} + 7",
    f"123456789012345678901234567890*{b1}*{x}^2 + {b2}*{x}^2 + 4*{m2}",
    f"0.5*{b3}*{m1} + {x}",
])
polys.append(Polynomial.from_terms([
    (Fraction(1, 3), Monomial.of(b1, m2)), (Fraction(2, 3), Monomial.of(b2, m2)),
]))
forest = [(f"SB_{tag}", [b1, b2, b3]), (f"M_{tag}", [m1, m2])]
artifact = ProvenanceSession(polys, forest).compress(3, algorithm="greedy")
artifact.save(path)
artifact.save(path[:-len(".rpb")] + ".json")
"""


def load_json_twin(path):
    return CompressedProvenance.load(path[:-len(".rpb")] + ".json", mmap=False)


class TestForeignCopyOnExtend:
    """Copy-on-extend of a ``.rpb`` written by a process that interned
    its variables in another order: the copied arrays are those of the
    materialized objects, and the extended artifact saves to the bytes
    of the object path."""

    @pytest.fixture
    def foreign(self, tmp_path):
        tag = uuid.uuid4().hex[:8]
        path = str(tmp_path / "foreign.rpb")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", _FOREIGN_WRITER, path, tag],
            env=env, check=True,
        )
        names = [
            f"{n}_{tag}" for n in ("M", "SB", "b1", "b2", "b3", "m1", "m2", "x")
        ]
        for name in names:  # this process interns them in name order
            VARIABLES.intern(name)
        return path, tag

    def test_copied_arrays_equal_extraction(self, foreign):
        path, _ = foreign
        loaded = CompressedProvenance.load(path)
        file_ids = [
            VARIABLES.lookup(name)
            for name in loaded.polynomials._file_variables
        ]
        assert file_ids != sorted(file_ids)  # rows must be re-sorted
        copied = _writable_polynomials(loaded).columnar()
        assert loaded.polynomials._polynomials is None
        materialized = list(CompressedProvenance.load(path).polynomials)
        from_names = list(load_json_twin(path).polynomials)
        assert materialized == from_names
        for polynomials in (materialized, from_names):
            extracted = ColumnarMultiset(PolynomialSet(polynomials))
            assert_same_arrays(copied, extracted)
            assert_same_arrays(loaded.polynomials.columnar(), extracted)

    def test_extended_bytes_equal_the_object_path(self, foreign, tmp_path):
        path, tag = foreign
        delta = parse_set([
            f"4*b1_{tag}*m2_{tag} + 2*y_{tag}",
            f"b3_{tag}*x_{tag}^2 + 0.25*b2_{tag}*x_{tag}^2",
        ])
        loaded = CompressedProvenance.load(path)

        def with_objects(polynomials):
            return CompressedProvenance(
                PolynomialSet(list(polynomials)),
                loaded.forest, loaded.vvs, algorithm=loaded.algorithm,
                bound=loaded.bound, original_size=loaded.original_size,
                original_granularity=loaded.original_granularity,
                monomial_loss=loaded.monomial_loss,
                variable_loss=loaded.variable_loss,
            )

        via_arrays = loaded.refresh(delta, drift_limit=float("inf"))
        # The loaded artifact is left as it was: extending it again (as
        # the service does from one stored id) gives the same.
        again = loaded.refresh(delta, drift_limit=float("inf"))
        results = {
            "arrays": via_arrays,
            "again": again,
            "objects": with_objects(
                CompressedProvenance.load(path).polynomials
            ).refresh(delta, drift_limit=float("inf")),
            "names": with_objects(
                load_json_twin(path).polynomials
            ).refresh(delta, drift_limit=float("inf")),
        }
        assert loaded.polynomials._polynomials is None
        contents = set()
        for name, result in results.items():
            assert result.path == "repaired"
            saved = result.artifact.save(str(tmp_path / f"{name}.rpb"))
            with open(saved, "rb") as handle:
                contents.add(handle.read())
        assert len(contents) == 1
        assert via_arrays.artifact == results["names"].artifact


class TestCompiledTransport:
    def test_mmap_source_recorded(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        compiled = CompressedProvenance.load(path).polynomials.compiled()
        assert compiled.source == os.path.abspath(path)
        eager = CompressedProvenance.load(path, mmap=False)
        assert eager.polynomials.compiled().source is None

    def test_pickle_shrinks_to_path(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        compiled = CompressedProvenance.load(path).polynomials.compiled()
        payload = pickle.dumps(compiled)
        # O(path), not O(matrix): far below the file's own size.
        assert len(payload) < os.path.getsize(path)
        clone = pickle.loads(payload)
        assert clone.source == compiled.source
        scenarios = probe_scenarios(artifact, count=3)
        assert numpy.array_equal(
            clone.evaluate(scenarios), compiled.evaluate(scenarios)
        )

    def test_plain_compiled_pickle_still_works(self, artifact):
        compiled = artifact.polynomials.compiled()
        assert compiled.source is None
        clone = pickle.loads(pickle.dumps(compiled))
        scenarios = probe_scenarios(artifact, count=3)
        assert numpy.array_equal(
            clone.evaluate(scenarios), compiled.evaluate(scenarios)
        )

    def test_dumps_compiled_buffer_round_trip(self, artifact):
        compiled = artifact.polynomials.compiled()
        blob = binfmt.dumps_compiled(compiled)
        assert blob[:8] == binfmt.MAGIC
        clone = binfmt.compiled_from_buffer(blob)
        scenarios = probe_scenarios(artifact, count=4)
        assert numpy.array_equal(
            clone.evaluate(scenarios), compiled.evaluate(scenarios)
        )

    def test_compiled_from_memoryview(self, artifact):
        """The shared-memory shape: a writable memoryview over the
        container bytes still yields read-only compiled views."""
        compiled = artifact.polynomials.compiled()
        backing = bytearray(binfmt.dumps_compiled(compiled))
        clone = binfmt.compiled_from_buffer(memoryview(backing))
        assert not clone._coeffs.flags.writeable
        scenarios = probe_scenarios(artifact, count=2)
        assert numpy.array_equal(
            clone.evaluate(scenarios), compiled.evaluate(scenarios)
        )
