"""Tests for the zero-copy binary artifact container (core.binfmt).

The contract under test: a saved artifact answers **bit-identically**
whichever envelope it traveled through — the JSON text or the binary
``.rpb`` container, mmap'd or fully read — including exact-coefficient
sidecars (Fractions, big ints), and anything malformed raises a clear
:class:`SerializeError` instead of a deep NumPy/KeyError.
"""

import json
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
from repro.core import binfmt, serialize
from repro.core.columnar import ColumnarMultiset
from repro.core.forest import AbstractionForest
from repro.core.interning import VARIABLES
from repro.core.parser import parse_set
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.serialize import SerializeError
from repro.core.tree import AbstractionTree
from repro.options import EvalOptions
from test_columnar import assert_same_arrays

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


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

    def test_stores_the_provenance_once(self, tmp_path):
        """The file holds the CSR arrays and no compiled evaluator, and
        saving compiles nothing."""
        from repro.workloads.telephony import (
            example13_polynomials, months_tree, plans_tree,
        )

        forest = AbstractionForest([plans_tree(), months_tree()])
        artifact = ProvenanceSession(
            example13_polynomials(), forest
        ).compress(bound=9)
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        assert artifact.polynomials._compiled is None
        header = file_header(path)
        assert header["schema"] == binfmt.SCHEMA_VERSION == 2
        assert "compiled" not in header
        assert sorted(header["buffers"]) == [
            "cm.coeff_f64", "cm.coeff_i64", "cm.coeff_kind", "cm.exps",
            "cm.poly_starts", "cm.row_starts", "cm.vids",
        ]

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


def buffer_view(data, name):
    """A writable view of buffer ``name`` in ``data``, the bytes of a
    container as a ``bytearray``."""
    length = int.from_bytes(data[8:12], "little")
    spec = json.loads(data[12:12 + length])["buffers"][name]
    return numpy.frombuffer(
        data, dtype=spec["dtype"], count=spec["count"],
        offset=binfmt._aligned(12 + length) + spec["offset"],
    )


class TestCorruption:
    def save(self, artifact, tmp_path):
        path = str(tmp_path / "good.rpb")
        artifact.save(path)
        with open(path, "rb") as handle:
            return path, handle.read()

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
            b'"schema":%d' % binfmt.SCHEMA_VERSION, b'"schema":9'
        )
        assert len(header) == length
        with pytest.raises(SerializeError, match="schema"):
            self.reload(tmp_path, data[:12] + header + data[12 + length:])

    def test_wrong_kind_for_artifact(self, artifact, tmp_path):
        _, data = self.save(artifact, tmp_path)
        length = int.from_bytes(data[8:12], "little")
        header = data[12:12 + length].replace(
            b'"kind":"compressed_provenance"',
            b'"kind":"' + b"x" * len(b"compressed_provenance") + b'"',
        )
        assert header != data[12:12 + length]
        assert len(header) == length
        with pytest.raises(SerializeError, match="kind"):
            self.reload(tmp_path, data[:12] + header + data[12 + length:])

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

    @pytest.mark.parametrize("name, index, value, match", [
        ("cm.row_starts", 2, 1, "cm.row_starts must rise"),  # decreases
        ("cm.row_starts", 0, 1, "cm.row_starts must rise"),  # not from 0
        ("cm.poly_starts", 1, 99, "cm.poly_starts must rise"),  # past the end
        ("cm.vids", 1, 0, "strictly increase"),  # row 0's columns
        ("cm.exps", 1, -3, "exponent"),
        ("cm.exps", 0, 0, "exponent"),
    ])
    def test_bad_csr_arrays(self, artifact, tmp_path, name, index, value,
                            match):
        """The CSR arrays are the only source of the evaluator, so a file
        that breaks an assumption of the decode fails at load. Without
        the checks, a decreasing ``row_starts`` entry or an exponent of
        -3 loaded another polynomial, and a ``poly_starts`` entry past
        the end raised NumPy's bare ``ValueError``."""
        _, data = self.save(artifact, tmp_path)
        data = bytearray(data)
        buffer_view(data, name)[index] = value
        with pytest.raises(SerializeError, match=match):
            self.reload(tmp_path, bytes(data))


class TestLazyMaterialization:
    def test_ask_does_not_materialize(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        loaded = CompressedProvenance.load(path)
        polys = loaded.polynomials
        assert type(polys) is PolynomialSet
        loaded.ask_many(probe_scenarios(artifact, count=2))
        assert len(polys) == len(artifact.polynomials)
        assert polys.num_monomials == artifact.polynomials.num_monomials
        assert polys.variables == artifact.polynomials.variables
        assert polys._polynomials is None  # still lazy after all that
        assert polys.polynomials  # force it
        assert polys._polynomials is not None
        assert polys == artifact.polynomials

    @pytest.mark.parametrize("use_mmap", [True, False])
    @pytest.mark.parametrize("mutate", ["append", "extend"])
    def test_mutated_loaded_set_stays_consistent(
        self, artifact, tmp_path, mutate, use_mmap
    ):
        """A loaded set takes ``append`` and ``extend`` like any other:
        its ``len`` and ``num_monomials`` agree with its polynomials and
        its answers widen with it, while the file and a fresh load of it
        stay as they were."""
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        with open(path, "rb") as handle:
            saved = handle.read()
        loaded = CompressedProvenance.load(path, mmap=use_mmap)
        polys = loaded.polynomials
        scenarios = [{}, *probe_scenarios(artifact, count=3)]
        loaded.ask_many(scenarios)  # builds the compiled set and its index
        added = parse_set(["3*zz + 2", "0.5*b1*m1*zz"])
        if mutate == "append":
            for polynomial in added:
                polys.append(polynomial)
        else:
            polys.extend(added)
        total = len(artifact.polynomials) + len(added)
        assert len(polys) == len(list(polys)) == total
        assert polys.num_monomials == sum(p.num_monomials for p in polys)
        assert polys.num_monomials == (
            artifact.polynomials.num_monomials + added.num_monomials
        )
        assert polys.variables == (
            artifact.polynomials.variables | added.variables
        )
        assert all(
            len(answer.values) == total
            for answer in loaded.ask_many(scenarios)
        )
        assert numpy.array_equal(
            polys.evaluate_batch(scenarios),
            PolynomialSet([*artifact.polynomials, *added]).evaluate_batch(
                scenarios
            ),
        )
        with open(path, "rb") as handle:
            assert handle.read() == saved
        fresh = CompressedProvenance.load(path)
        assert fresh == artifact
        assert [answer.values for answer in fresh.ask_many(scenarios)] == [
            answer.values for answer in artifact.ask_many(scenarios)
        ]

    def test_views_are_read_only(self, artifact, tmp_path):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        columnar = CompressedProvenance.load(path).polynomials.columnar()
        for array in (columnar.exps, columnar.row_starts, columnar.poly_starts):
            with pytest.raises(ValueError):
                array[0] = 1


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


def file_header(path):
    """The JSON header of the container at ``path``."""
    with open(path, "rb") as handle:
        data = handle.read()
    length = int.from_bytes(data[8:12], "little")
    return json.loads(data[12:12 + length])


def file_variables(path):
    """The variable names a container's header lists, in file order."""
    return file_header(path)["variables"]


def run_python(source, *args):
    """Run ``source`` in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", source, *args], env=env, check=True)


class TestForeignCopyOnExtend:
    """Extending a ``.rpb`` written by a process that interned its
    variables in another order: the copied arrays are those of the
    materialized objects, and the extended artifact saves to the bytes
    of the object path."""

    @pytest.fixture
    def foreign(self, tmp_path):
        tag = uuid.uuid4().hex[:8]
        path = str(tmp_path / "foreign.rpb")
        run_python(_FOREIGN_WRITER, path, tag)
        names = [
            f"{n}_{tag}" for n in ("M", "SB", "b1", "b2", "b3", "m1", "m2", "x")
        ]
        for name in names:  # this process interns them in name order
            VARIABLES.intern(name)
        return path, tag

    def test_copied_arrays_equal_extraction(self, foreign):
        path, _ = foreign
        loaded = CompressedProvenance.load(path)
        file_ids = [VARIABLES.lookup(name) for name in file_variables(path)]
        assert file_ids != sorted(file_ids)  # rows must be re-sorted
        copied = loaded.polynomials.copy().columnar()
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


#: Writes an artifact of 3-factor monomials, uncompressed (the bound
#: holds the whole set), from a process that interns its 16 names in
#: reverse name order (argv: ``.rpb`` path, tag).
_REVERSED_WRITER = """
import sys
from repro.api.session import ProvenanceSession
from repro.core.interning import VARIABLES
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet

path, tag = sys.argv[1:]
bs = [f"b{i}_{tag}" for i in range(6)]
ms = [f"m{i}_{tag}" for i in range(6)]
xs = [f"x{i}_{tag}" for i in range(4)]
for name in sorted(bs + ms + xs, reverse=True):
    VARIABLES.intern(name)
polys = PolynomialSet([
    Polynomial({
        Monomial.of(b, m, x): 1.0 + 0.1 * i + 0.01 * j
        for i, b in enumerate(bs) for j, m in enumerate(ms)
    })
    for x in xs
])
forest = [
    (f"SB_{tag}", [(f"SB1_{tag}", bs[:3]), (f"SB2_{tag}", bs[3:])]),
    (f"SM_{tag}", [(f"SM1_{tag}", ms[:3]), (f"SM2_{tag}", ms[3:])]),
]
artifact = ProvenanceSession(polys, forest).compress(
    polys.num_monomials, algorithm="greedy"
)
artifact.save(path)
artifact.save(path[:-len(".rpb")] + ".json")
"""


class TestForeignOrder:
    """A ``.rpb`` answers like its JSON twin, bit for bit, in a process
    whose ids order the variables otherwise than the writer's did: the
    file's evaluator multiplies factors in the writer's order, so the
    load compiles its own."""

    def test_rpb_answers_equal_json_answers(self, tmp_path):
        import random

        tag = uuid.uuid4().hex[:8]
        path = str(tmp_path / "reversed.rpb")
        run_python(_REVERSED_WRITER, path, tag)
        leaves = [f"{kind}{i}_{tag}" for kind in "bm" for i in range(6)]
        names = leaves + [f"x{i}_{tag}" for i in range(4)]
        for name in sorted(names):  # this process interns in name order
            VARIABLES.intern(name)
        loaded = CompressedProvenance.load(path)
        twin = load_json_twin(path)
        assert loaded.polynomials.num_monomials == 144
        rng = random.Random(7)
        scenarios = [
            {name: rng.uniform(0.5, 1.5) for name in names}
            for _ in range(400)
        ]

        def values(artifact):
            return [answer.values for answer in artifact.ask_many(scenarios)]

        assert values(loaded) == values(twin)
        delta = [
            f"{0.5 + i}*b{i}_{tag}*m{5 - i}_{tag}*x{i % 4}_{tag}"
            for i in range(6)
        ]
        extended = loaded.refresh(parse_set(delta), drift_limit=float("inf"))
        twin_extended = twin.refresh(
            parse_set(delta), drift_limit=float("inf")
        )
        assert values(extended.artifact) == values(twin_extended.artifact)


class TestSchema1:
    """A schema-1 file, which also stores its writer's compiled
    evaluator as ``c.*`` buffers, loads from its CSR arrays alone and
    answers bit for bit like its JSON twin, even where the stored
    evaluator disagrees with the arrays.

    ``data/schema1.rpb`` and ``data/schema1.json`` were written at
    commit 897693a, the last schema-1 writer, from the repository
    root::

        PYTHONPATH=src python - tests/data <<'EOF'
        import sys
        from fractions import Fraction
        from repro.api.session import ProvenanceSession
        from repro.core.parser import parse_set
        from repro.core.polynomial import Monomial, Polynomial

        polys = parse_set([
            "2*v1b1*v1m1 + 3*v1b2*v1m1 + 4*v1b3*v1m2 + 5",
            "1.5*v1b1*v1m2^3 + 0.25*v1b2*v1x + 7*v1x^2",
        ])
        polys.append(Polynomial.from_terms(
            [(Fraction(1, 3), Monomial.of("v1b3", "v1x"))]
        ))
        forest = [("v1SB", ["v1b1", "v1b2", "v1b3"]), ("v1M", ["v1m1", "v1m2"])]
        artifact = ProvenanceSession(polys, forest).compress(5, algorithm="greedy")
        artifact.save(f"{sys.argv[1]}/schema1.rpb")
        artifact.save(f"{sys.argv[1]}/schema1.json")
        EOF

    Each stale copy is ``schema1.rpb`` with one entry of the stored
    evaluator set through :func:`buffer_view`: ``c.coeffs[1] = 1003``
    (the 9 of ``9*v1M*v1SB``) in ``schema1-stale-coeffs.rpb``, and
    ``c.L0.cols[0] = 7``, past the file's three columns, in
    ``schema1-stale-cols.rpb``. A reader that answers from the stored
    evaluator gives 1008 for the first polynomial's 14 on the first and
    raises ``IndexError`` on the second.
    """

    SCENARIOS = [
        {},
        {"v1b1": 2.0, "v1m1": 0.5},
        {"v1SB": 0.5, "v1x": 3.0},
        {"v1b2": 1.5, "v1b3": 1.5, "v1m2": 0.25, "v1x": -2.0},
    ]

    @pytest.mark.parametrize("use_mmap", [True, False])
    @pytest.mark.parametrize("name", [
        "schema1.rpb", "schema1-stale-coeffs.rpb", "schema1-stale-cols.rpb",
    ])
    def test_answers_like_the_json_twin(self, name, use_mmap):
        path = os.path.join(DATA, name)
        header = file_header(path)
        assert header["schema"] == 1
        assert "c.coeffs" in header["buffers"]
        loaded = CompressedProvenance.load(path, mmap=use_mmap)
        twin = CompressedProvenance.load(os.path.join(DATA, "schema1.json"))
        assert loaded == twin
        assert serialize.dumps(loaded) == serialize.dumps(twin)
        for engine in ("dense", "delta"):
            options = EvalOptions(engine=engine)
            assert [
                answer.values
                for answer in loaded.ask_many(self.SCENARIOS, options=options)
            ] == [
                answer.values
                for answer in twin.ask_many(self.SCENARIOS, options=options)
            ]
        assert loaded.ask_many([{}])[0].values[0] == 14


#: Coefficients per family for :data:`_DECODE_SCRIPT`: one buffer kind
#: each, a mix of the two raw buffers, and the exact sidecar.
_DECODE_SCRIPT = """
import sys
from fractions import Fraction
from repro.api.artifact import CompressedProvenance
from repro.core.columnar import ColumnarMultiset
from repro.core.forest import AbstractionForest
from repro.core.interning import VARIABLES
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree

FAMILIES = {
    "float": (1.5, -0.25, 3.0, 1e-05),
    "int": (2, -3, 1, 7),
    "mixed": (2, -0.5, 3, 1.25),
    "exact": (10**30, Fraction(1, 3), -7, Fraction(-5, 2)),
}


def same(actual, expected):
    return (
        (actual.num_polynomials, actual.num_monomials)
        == (expected.num_polynomials, expected.num_monomials)
        and all(
            getattr(actual, name).tolist() == getattr(expected, name).tolist()
            and getattr(actual, name).dtype == getattr(expected, name).dtype
            for name in ("vids", "exps", "row_starts", "row_poly", "poly_starts")
        )
        and [(type(c), c) for c in actual.coeffs]
        == [(type(c), c) for c in expected.coeffs]
    )


def load(path, family):
    loaded = CompressedProvenance.load(f"{path}.{family}.rpb")
    twin = CompressedProvenance.load(f"{path}.{family}.json")
    return loaded.polynomials.columnar(), twin


mode, path, tag = sys.argv[1:]
a, b, c, x, y = (f"{name}_{tag}" for name in "abcxy")
if mode == "write":
    for name in sorted((a, b, c, x, y), reverse=True):
        VARIABLES.intern(name)
    forest = AbstractionForest([AbstractionTree.from_nested(("R", [a, b, c]))])
    for family, k in FAMILIES.items():
        polys = PolynomialSet([
            Polynomial.from_terms([
                (k[0], Monomial.of(a, x)), (k[1], Monomial.of(c, (y, 2))),
                (k[2], Monomial.ONE), (k[3], Monomial.of(b, x, y)),
            ]),
            Polynomial(),
            Polynomial.from_terms([(k[1], Monomial.of(a, y)), (k[0], Monomial.of(x))]),
        ])
        artifact = CompressedProvenance(
            polys, forest, forest.root_vvs(), algorithm="greedy",
            bound=polys.num_monomials, original_size=polys.num_monomials,
            original_granularity=polys.num_variables, monomial_loss=0,
            variable_loss=0,
        )
        artifact.save(f"{path}.{family}.rpb")
        artifact.save(f"{path}.{family}.json")
        decoded, _ = load(path, family)
        assert same(decoded, ColumnarMultiset(polys)), family
else:  # a fresh process: the load interns the names in file order
    for family in FAMILIES:
        decoded, twin = load(path, family)
        extracted = ColumnarMultiset(PolynomialSet(list(twin.polynomials)))
        assert same(decoded, extracted), family
"""


class TestEagerDecode:
    """The decoded columnar view equals an extraction of the
    materialized polynomials, array for array and coefficient type for
    type: in the writer's process, in a fresh one, and under a foreign
    interning order."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        tag = uuid.uuid4().hex[:8]
        path = str(tmp_path_factory.mktemp("decode") / "family")
        run_python(_DECODE_SCRIPT, "write", path, tag)  # checks the writer
        run_python(_DECODE_SCRIPT, "check", path, tag)  # a fresh process
        return path, tag

    @pytest.mark.parametrize("family", ["float", "int", "mixed", "exact"])
    def test_foreign_order(self, written, family):
        path, tag = written
        for name in "abcxy":  # this process interns in name order
            VARIABLES.intern(f"{name}_{tag}")
        loaded = CompressedProvenance.load(f"{path}.{family}.rpb")
        file_ids = [
            VARIABLES.lookup(name)
            for name in file_variables(f"{path}.{family}.rpb")
        ]
        assert file_ids != sorted(file_ids)
        twin = CompressedProvenance.load(f"{path}.{family}.json")
        assert_same_arrays(
            loaded.polynomials.columnar(),
            ColumnarMultiset(PolynomialSet(list(twin.polynomials))),
        )
        assert list(loaded.polynomials) == list(twin.polynomials)


class TestCompiledTransport:
    """A compiled set pickles by value — what a spawned pool worker
    receives (forked workers inherit the parent's set)."""

    def test_plain_compiled_pickle_still_works(self, artifact):
        compiled = artifact.polynomials.compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        scenarios = probe_scenarios(artifact, count=3)
        assert numpy.array_equal(
            clone.evaluate(scenarios), compiled.evaluate(scenarios)
        )

    def test_loaded_set_pickles_by_value(self, artifact, tmp_path):
        """A clone of a ``.rpb``-loaded set carries its arrays, not the
        file's path: replacing the file changes none of its answers."""
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        compiled = CompressedProvenance.load(path).polynomials.compiled()
        payload = pickle.dumps(compiled)
        scenarios = probe_scenarios(artifact, count=3)
        expected = compiled.evaluate(scenarios)
        make_artifact(parse_set(["x*y + 2*z"])).save(path)
        clone = pickle.loads(payload)
        assert clone.num_monomials == compiled.num_monomials
        assert numpy.array_equal(clone.evaluate(scenarios), expected)


class TestSaveOverLoaded:
    """``save`` renames a finished temporary file onto the target."""

    def smaller(self):
        return make_artifact(parse_set(["x*y + 2*z"]))

    @pytest.mark.parametrize("name", ["a.rpb", "a.json"])
    def test_live_artifact_survives_save_over_its_file(
        self, artifact, tmp_path, name
    ):
        path = str(tmp_path / name)
        artifact.save(path)
        loaded = CompressedProvenance.load(path)
        scenarios = probe_scenarios(artifact)
        before = answers(loaded, scenarios)
        self.smaller().save(path)
        assert answers(loaded, scenarios) == before
        assert CompressedProvenance.load(path) == self.smaller()
        assert os.listdir(tmp_path) == [name]

    def test_failed_write_keeps_the_old_file(
        self, artifact, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "a.rpb")
        artifact.save(path)
        with open(path, "rb") as handle:
            original = handle.read()

        def fail_midway(artifact, target):
            with open(target, "wb") as handle:
                handle.write(binfmt.MAGIC)
            raise OSError("disk full")

        monkeypatch.setattr(binfmt, "write_artifact", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            self.smaller().save(path)
        with open(path, "rb") as handle:
            assert handle.read() == original
        assert os.listdir(tmp_path) == ["a.rpb"]

    def test_permission_bits_match_a_direct_write(self, artifact, tmp_path):
        fresh = str(tmp_path / "fresh.rpb")
        artifact.save(fresh)
        direct = str(tmp_path / "direct.rpb")
        open(direct, "wb").close()
        assert os.stat(fresh).st_mode == os.stat(direct).st_mode
        os.chmod(fresh, 0o640)
        self.smaller().save(fresh)
        assert os.stat(fresh).st_mode & 0o777 == 0o640

    def test_save_through_a_symlink_replaces_its_target(
        self, artifact, tmp_path
    ):
        target = tmp_path / "real.rpb"
        artifact.save(str(target))
        link = tmp_path / "link.rpb"
        link.symlink_to(target)
        self.smaller().save(str(link))
        assert link.is_symlink()
        assert CompressedProvenance.load(str(target)) == self.smaller()
