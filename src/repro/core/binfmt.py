"""Zero-copy binary container for compression artifacts (``.rpb``).

The JSON envelope (:mod:`repro.core.serialize`) is the portable wire
format, but it re-parses the whole artifact on every load — at the
paper's "compress once, ask many" scale that parse dominates artifact
start-up. This module defines a single-file binary container that loads
in O(1): the columnar CSR factor arrays and the compiled evaluator's
layer/coefficient arrays are stored as raw little-endian buffers at
64-byte-aligned offsets, so :func:`read_artifact` can ``mmap`` the file
and hand NumPy views *directly over the map* — no copies, no parse, and
the OS pages data in on demand.

Layout::

    offset 0      MAGIC                  8 bytes  (b"RPROVBIN")
    offset 8      header length          uint32, little-endian
    offset 12     JSON header            UTF-8 (schema version, kind,
                                         forest/VVS/stats, variable
                                         names, exact-coefficient
                                         sidecar, buffer directory)
    origin        raw buffers            each 64-byte aligned relative
                                         to origin; origin itself is
                                         the header end rounded up to
                                         64. dtypes/counts/offsets come
                                         from the header's directory.

Two kinds share the format: ``compressed_provenance`` (a full artifact
— what :meth:`CompressedProvenance.save(format="bin")
<repro.api.artifact.CompressedProvenance.save>` writes) and
``compiled`` (just a :class:`~repro.core.batch.CompiledPolynomialSet`
— the payload :mod:`repro.scenarios.parallel` publishes into
``multiprocessing.shared_memory``, built by :func:`dumps_compiled` and
reopened by :func:`compiled_from_buffer`).

Fidelity: float coefficients are stored bit-exact in a float64 buffer,
ints that fit in an int64 buffer, and everything else (big ints,
``fractions.Fraction``) in the header's exact-coefficient sidecar — a
loaded artifact re-serializes and evaluates identically to the JSON
round trip. Variable names travel in the header (interned ids are
process-local); the CSR ``vids`` are stored as file-local column
indexes and re-interned on load.

Portability caveats: buffers are written in the native byte order
(little-endian everywhere this project runs; the dtype strings in the
directory record it), and mmap-backed artifacts alias the file — keep
it in place while the artifact is alive, or load with ``mmap=False``.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
from fractions import Fraction

import numpy

from repro.core.polynomial import PolynomialSet
from repro.core.serialize import SerializeError

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "BufferBackedPolynomialSet",
    "write_artifact",
    "read_artifact",
    "read_compiled",
    "dumps_compiled",
    "compiled_from_buffer",
    "is_binary",
]

#: The 8 magic bytes every container starts with (how :func:`is_binary`
#: and :func:`repro.core.serialize.load_path` tell the formats apart).
MAGIC = b"RPROVBIN"

#: Container schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

_ALIGN = 64
_LEN_BYTES = 4

# Codes of the per-row ``cm.coeff_kind`` buffer: where row i's exact
# coefficient lives.
_COEFF_FLOAT = 0  # the float64 buffer (bit-exact)
_COEFF_INT64 = 1  # the int64 buffer
_COEFF_EXACT = 2  # the header's exact_coeffs sidecar (big int/Fraction)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _aligned(offset):
    """``offset`` rounded up to the buffer alignment."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ------------------------------------------------------------------ writing


class _Layout:
    """Accumulates named arrays at 64-byte-aligned offsets."""

    def __init__(self):
        self.directory = {}
        self.chunks = []
        self.size = 0

    def add(self, name, array):
        array = numpy.ascontiguousarray(array)
        offset = _aligned(self.size)
        self.directory[name] = {
            "dtype": array.dtype.str,
            "count": int(array.size),
            "offset": offset,
        }
        self.chunks.append((offset, array))
        self.size = offset + array.nbytes


def _container_bytes(header, layout):
    """Render a complete container: magic, JSON header, aligned buffers."""
    header = dict(header)
    header["buffers"] = layout.directory
    header["data_size"] = layout.size
    blob = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    prefix = len(MAGIC) + _LEN_BYTES
    origin = _aligned(prefix + len(blob))
    out = bytearray(origin + layout.size)
    out[: len(MAGIC)] = MAGIC
    out[len(MAGIC):prefix] = len(blob).to_bytes(_LEN_BYTES, "little")
    out[prefix:prefix + len(blob)] = blob
    for offset, array in layout.chunks:
        start = origin + offset
        out[start:start + array.nbytes] = array.tobytes()
    return bytes(out)


def _encode_coeffs(coeffs):
    """``(kinds, f64, i64, sidecar)`` buffers for a coefficient list.

    Floats and int64-range ints go in the raw buffers; big ints and
    Fractions go in the JSON sidecar as ``[row, tag, text]`` entries.
    """
    count = len(coeffs)
    kinds = numpy.zeros(count, dtype=numpy.uint8)
    f64 = numpy.zeros(count, dtype=numpy.float64)
    i64 = numpy.zeros(count, dtype=numpy.int64)
    sidecar = []
    for row, coeff in enumerate(coeffs):
        if isinstance(coeff, int):  # bool included (stored as 0/1)
            if _INT64_MIN <= coeff <= _INT64_MAX:
                kinds[row] = _COEFF_INT64
                i64[row] = coeff
            else:
                kinds[row] = _COEFF_EXACT
                sidecar.append([row, "int", str(coeff)])
        elif isinstance(coeff, float):
            kinds[row] = _COEFF_FLOAT
            f64[row] = coeff
        elif isinstance(coeff, Fraction):
            kinds[row] = _COEFF_EXACT
            sidecar.append(
                [row, "fraction", f"{coeff.numerator}/{coeff.denominator}"]
            )
        else:
            raise SerializeError(
                f"cannot serialize coefficient of type {type(coeff).__name__}"
            )
    return kinds, f64, i64, sidecar


def _pack_compiled(layout, compiled):
    """Add a compiled set's arrays to ``layout``; return its header meta."""
    state = compiled._state()
    by_name = state["columns_by_name"]
    columns = [None] * len(by_name)
    for name, col in by_name.items():
        columns[col] = name
    if any(name is None for name in columns):
        raise SerializeError("compiled column map is not dense")
    layout.add("c.coeffs", state["coeffs"])
    layout.add("c.poly_starts", state["poly_starts"])
    for j, (selector, cols, nonunit, exps) in enumerate(state["layers"]):
        if j > 0:
            layout.add(f"c.L{j}.sel", selector)
        layout.add(f"c.L{j}.cols", cols)
        layout.add(f"c.L{j}.nonunit", nonunit)
        layout.add(f"c.L{j}.exps", exps)
    return {
        "columns": columns,
        "num_polynomials": state["num_polynomials"],
        "num_monomials": state["num_monomials"],
        "num_variables": state["num_variables"],
        "layers": len(state["layers"]),
    }


def write_artifact(artifact, path):
    """Write a :class:`~repro.api.artifact.CompressedProvenance` as a
    binary container; returns ``path``.

    The artifact's compiled evaluator and columnar CSR arrays are laid
    out for zero-copy reload (:func:`read_artifact`); the forest, the
    cut, the stats and the variable names ride in the JSON header.
    """
    from repro.core import serialize
    from repro.core.interning import VARIABLES

    polynomials = artifact.polynomials
    compiled = polynomials.compiled()
    cm = polynomials.columnar()
    vids = sorted(polynomials.variable_ids())
    variables = [VARIABLES.name(vid) for vid in vids]

    layout = _Layout()
    compiled_meta = _pack_compiled(layout, compiled)

    # The CSR vids are stored as file-local column indexes (rank in the
    # sorted id list) — interned ids are process-local and meaningless
    # on disk. The header's variables list names each column.
    col_of = numpy.zeros(max(cm.max_vid(), 0) + 1, dtype=numpy.int64)
    if vids:
        col_of[numpy.asarray(vids, dtype=numpy.intp)] = numpy.arange(
            len(vids), dtype=numpy.int64
        )
    layout.add("cm.vids", col_of[cm.vids])
    layout.add("cm.exps", cm.exps)
    layout.add("cm.row_starts", cm.row_starts)
    layout.add("cm.poly_starts", cm.poly_starts)
    kinds, f64, i64, sidecar = _encode_coeffs(cm.coeffs)
    layout.add("cm.coeff_kind", kinds)
    layout.add("cm.coeff_f64", f64)
    layout.add("cm.coeff_i64", i64)

    header = {
        "schema": SCHEMA_VERSION,
        "kind": "compressed_provenance",
        "algorithm": artifact.algorithm,
        "bound": artifact.bound,
        "stats": {
            "original_size": artifact.original_size,
            "original_granularity": artifact.original_granularity,
            "monomial_loss": artifact.monomial_loss,
            "variable_loss": artifact.variable_loss,
            "revision": artifact.revision,
        },
        "forest": serialize.forest_to_dict(artifact.forest),
        "vvs": sorted(artifact.vvs.labels),
        "variables": variables,
        "counts": {
            "polynomials": len(polynomials),
            "monomials": cm.num_monomials,
        },
        "exact_coeffs": sidecar,
        "compiled": compiled_meta,
    }
    payload = _container_bytes(header, layout)
    with open(path, "wb") as handle:
        handle.write(payload)
    return path


def dumps_compiled(compiled):
    """A compiled set as ``kind: compiled`` container bytes.

    This is the payload the parallel sweep publisher writes into shared
    memory — workers reopen it with :func:`compiled_from_buffer`.
    """
    layout = _Layout()
    meta = _pack_compiled(layout, compiled)
    header = {"schema": SCHEMA_VERSION, "kind": "compiled", "compiled": meta}
    return _container_bytes(header, layout)


# ------------------------------------------------------------------ reading


def _parse_container(buf, what="container"):
    """``(header, origin)`` of a container buffer; :class:`SerializeError`
    on anything malformed (bad magic, truncation, corrupt header)."""
    size = len(buf)
    prefix = len(MAGIC) + _LEN_BYTES
    if size < prefix or bytes(buf[: len(MAGIC)]) != MAGIC:
        raise SerializeError(f"not a repro binary {what} (bad magic)")
    header_len = int.from_bytes(bytes(buf[len(MAGIC):prefix]), "little")
    if prefix + header_len > size:
        raise SerializeError(
            f"truncated {what}: header claims {header_len} bytes, only "
            f"{size - prefix} present"
        )
    try:
        header = json.loads(
            bytes(buf[prefix:prefix + header_len]).decode("utf-8")
        )
    except (UnicodeDecodeError, ValueError) as error:
        raise SerializeError(f"corrupt {what} header: {error}") from error
    if not isinstance(header, dict):
        raise SerializeError(f"corrupt {what} header: not an object")
    if header.get("schema") != SCHEMA_VERSION:
        raise SerializeError(
            f"unsupported container schema {header.get('schema')!r} "
            f"(this reader handles {SCHEMA_VERSION})"
        )
    origin = _aligned(prefix + header_len)
    data_size = header.get("data_size", 0)
    if not isinstance(data_size, int) or origin + data_size > size:
        raise SerializeError(
            f"truncated {what}: expected {origin + data_size} data bytes "
            f"past the header, have {size - origin}"
        )
    return header, origin


def _views(header, buf, origin):
    """Read-only NumPy views over the container's buffers (zero copies)."""
    buffers = header.get("buffers")
    if not isinstance(buffers, dict):
        raise SerializeError("corrupt container header: no buffer directory")
    arrays = {}
    for name, spec in buffers.items():
        try:
            dtype = numpy.dtype(spec["dtype"])
            count = int(spec["count"])
            offset = origin + int(spec["offset"])
        except (KeyError, TypeError, ValueError) as error:
            raise SerializeError(f"bad buffer entry {name!r}: {error}") from error
        if count == 0:
            arrays[name] = numpy.zeros(0, dtype=dtype)
            continue
        if count < 0 or offset < origin or (
            offset + count * dtype.itemsize > len(buf)
        ):
            raise SerializeError(
                f"buffer {name!r} overruns the container "
                f"({count} x {dtype.str} at offset {offset - origin})"
            )
        array = numpy.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        if array.flags.writeable:
            array.flags.writeable = False
        arrays[name] = array
    return arrays


def _get(arrays, name):
    try:
        return arrays[name]
    except KeyError:
        raise SerializeError(
            f"container is missing buffer {name!r}"
        ) from None


def _compiled_from(meta, arrays, source=None):
    """A :class:`CompiledPolynomialSet` over container buffer views."""
    from repro.core.batch import CompiledPolynomialSet

    layers = []
    for j in range(meta["layers"]):
        selector = None if j == 0 else _get(arrays, f"c.L{j}.sel")
        layers.append((
            selector,
            _get(arrays, f"c.L{j}.cols"),
            _get(arrays, f"c.L{j}.nonunit"),
            _get(arrays, f"c.L{j}.exps"),
        ))
    poly_starts = _get(arrays, "c.poly_starts")
    if len(poly_starts) != meta["num_polynomials"] + 1:
        raise SerializeError("inconsistent compiled poly_starts buffer")
    compiled = CompiledPolynomialSet.from_state({
        "columns_by_name": {
            name: col for col, name in enumerate(meta["columns"])
        },
        "num_polynomials": meta["num_polynomials"],
        "num_monomials": meta["num_monomials"],
        "num_variables": meta["num_variables"],
        "coeffs": _get(arrays, "c.coeffs"),
        "poly_starts": poly_starts,
        "layers": layers,
    })
    compiled._source = source
    return compiled


def _decode_exact(entries):
    """The ``{row: value}`` table of the exact-coefficient sidecar."""
    table = {}
    try:
        for row, tag, text in entries:
            if tag == "int":
                table[int(row)] = int(text)
            elif tag == "fraction":
                table[int(row)] = Fraction(text)
            else:
                raise SerializeError(
                    f"unknown exact-coefficient tag {tag!r}"
                )
    except (TypeError, ValueError) as error:
        if isinstance(error, SerializeError):
            raise
        raise SerializeError(f"bad exact-coefficient sidecar: {error}") from error
    return table


def _decode_coeffs(kinds, f64, i64, exact):
    """The exact Python coefficient list from the kind-tagged buffers."""
    float_list = f64.tolist()
    int_list = i64.tolist()
    coeffs = []
    for row, kind in enumerate(kinds.tolist()):
        if kind == _COEFF_FLOAT:
            coeffs.append(float_list[row])
        elif kind == _COEFF_INT64:
            coeffs.append(int_list[row])
        elif kind == _COEFF_EXACT:
            try:
                coeffs.append(exact[row])
            except KeyError:
                raise SerializeError(
                    f"missing exact coefficient for row {row}"
                ) from None
        else:
            raise SerializeError(f"unknown coefficient kind {kind}")
    return coeffs


def _check_columnar(arrays, counts):
    """Cheap structural consistency of the CSR buffers (fail early with
    a clear error instead of a deep IndexError on first use)."""
    monomials = counts["monomials"]
    polys = counts["polynomials"]
    row_starts = _get(arrays, "cm.row_starts")
    poly_starts = _get(arrays, "cm.poly_starts")
    vids = _get(arrays, "cm.vids")
    tail = int(row_starts[-1]) if len(row_starts) else -1
    if (
        len(row_starts) != monomials + 1
        or len(poly_starts) != polys + 1
        or len(vids) != len(_get(arrays, "cm.exps"))
        or tail != len(vids)
        or len(_get(arrays, "cm.coeff_kind")) != monomials
        or len(_get(arrays, "cm.coeff_f64")) != monomials
        or len(_get(arrays, "cm.coeff_i64")) != monomials
    ):
        raise SerializeError("inconsistent columnar buffers")


_READ_ONLY = (
    "a loaded artifact's polynomial set is read-only; copy it with "
    "PolynomialSet(list(...)) to modify"
)


class BufferBackedPolynomialSet(PolynomialSet):
    """A :class:`PolynomialSet` view over a loaded binary container.

    The compiled evaluator is built zero-copy over the container's
    buffers at load time, so answering scenarios never touches Python
    monomial objects; counts and variables come from the header. The
    columnar view (:meth:`columnar`) is read from the buffers on first
    use, and the ``Polynomial`` objects — needed only for exact scalar
    evaluation, equality, or JSON — are materialized from it on first
    access to :attr:`polynomials`. Read-only: :meth:`append` and
    :meth:`extend` raise (extending the artifact copies the columnar
    view into a writable set — see :func:`repro.api.mutation.extend_artifact`).
    """

    def __init__(
        self, variables, counts, arrays, exact, compiled, mmap_active=False
    ):
        # Parent slots, set directly: nothing is extracted or built yet.
        self._polynomials = None
        self._vids = None
        self._compiled = compiled
        self._columnar = None
        self._file_variables = tuple(variables)
        self._count_polynomials = int(counts["polynomials"])
        self._count_monomials = int(counts["monomials"])
        self._arrays = arrays
        self._exact = exact
        #: ``True`` when the buffers view an ``mmap`` of the container
        #: file (zero-copy; the file must outlive the set), ``False``
        #: when they view an eagerly-read bytes object.
        self.mmap_active = bool(mmap_active)

    def columnar(self):
        """The container's CSR arrays in this process (read once, cached).

        Columns are re-interned, the factors of each row sorted by the
        new ids (the interning order can differ from the writer's) and
        the coefficients decoded through :func:`_decode_coeffs`: the
        arrays an extraction of the materialized polynomials would
        give, with no ``Polynomial`` built. Rows keep the file's order,
        which is canonical: it sorts by variable name, not by id.
        """
        cm = self._columnar
        if cm is not None:
            return cm
        from repro.core.columnar import ColumnarMultiset
        from repro.core.interning import VARIABLES

        arrays = self._arrays
        cols = _get(arrays, "cm.vids")
        exps = _get(arrays, "cm.exps")
        row_starts = _get(arrays, "cm.row_starts")
        remap = numpy.asarray(
            [VARIABLES.intern(name) for name in self._file_variables] or [0],
            dtype=numpy.intp,
        )
        try:
            vids = (
                remap[cols] if cols.size else numpy.zeros(0, dtype=numpy.intp)
            )
        except IndexError:
            raise SerializeError(
                "column index out of range for the container's variables"
            ) from None
        rows = numpy.repeat(
            numpy.arange(len(row_starts) - 1, dtype=numpy.intp),
            numpy.diff(row_starts),
        )
        by_id = numpy.lexsort((vids, rows))
        cm = ColumnarMultiset.from_arrays(
            vids[by_id],
            exps[by_id],
            row_starts,
            _get(arrays, "cm.poly_starts"),
            _decode_coeffs(
                _get(arrays, "cm.coeff_kind"),
                _get(arrays, "cm.coeff_f64"),
                _get(arrays, "cm.coeff_i64"),
                self._exact,
            ),
        )
        self._columnar = cm
        return cm

    def append(self, polynomial):
        raise TypeError(_READ_ONLY)

    def extend(self, polynomials):
        raise TypeError(_READ_ONLY)

    def __len__(self):
        return self._count_polynomials

    @property
    def num_monomials(self):
        return self._count_monomials

    def variable_ids(self):
        vids = self._vids
        if vids is None:
            from repro.core.interning import VARIABLES

            vids = frozenset(
                VARIABLES.intern(name) for name in self._file_variables
            )
            self._vids = vids
        return vids


def _load_buffer(path, use_mmap):
    """The container bytes of ``path`` — an mmap when possible."""
    with open(path, "rb") as handle:
        if use_mmap:
            try:
                return _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            except (ValueError, OSError):
                # Zero-length files cannot be mapped; fall through to a
                # plain read so they fail with the magic-bytes error.
                pass
        return handle.read()


def read_artifact(path, mmap=True):
    """Load a binary artifact container written by :func:`write_artifact`.

    ``mmap=True`` (the default) maps the file and builds the compiled
    evaluator over views of the map — O(1) load however large the
    artifact, with the OS paging data in on demand. The compiled set
    remembers the file path, so pickling it (shipping to pool workers)
    costs O(path): workers re-map the file themselves. Keep the file in
    place while the artifact is alive, or pass ``mmap=False`` to read
    everything up front.
    """
    from repro.api.artifact import CompressedProvenance
    from repro.core import serialize

    buf = _load_buffer(path, mmap)
    header, origin = _parse_container(buf, what="artifact")
    if header.get("kind") != "compressed_provenance":
        raise SerializeError(
            f"{path}: expected a compressed_provenance container, got "
            f"kind {header.get('kind')!r}"
        )
    arrays = _views(header, buf, origin)
    try:
        source = os.path.abspath(path) if mmap else None
        compiled = _compiled_from(header["compiled"], arrays, source=source)
        counts = header["counts"]
        _check_columnar(arrays, counts)
        polynomials = BufferBackedPolynomialSet(
            header["variables"],
            counts,
            arrays,
            _decode_exact(header.get("exact_coeffs", ())),
            compiled,
            mmap_active=isinstance(buf, _mmap.mmap),
        )
        forest = serialize.forest_from_dict(header["forest"])
        vvs = serialize.vvs_from_dict({"labels": header["vvs"]}, forest)
        stats = header["stats"]
        return CompressedProvenance(
            polynomials,
            forest,
            vvs,
            algorithm=header["algorithm"],
            bound=header["bound"],
            original_size=stats["original_size"],
            original_granularity=stats["original_granularity"],
            monomial_loss=stats["monomial_loss"],
            variable_loss=stats["variable_loss"],
            revision=stats.get("revision", 0),
        )
    except (KeyError, TypeError, IndexError) as error:
        raise SerializeError(f"{path}: corrupt artifact container: {error}") from error


def read_compiled(path, mmap=True):
    """The compiled evaluator of a container file (either kind):
    :func:`compiled_from_buffer` over the file's map, with the path in
    its errors — the worker side of the file-backed parallel path (see
    :meth:`CompiledPolynomialSet.__setstate__
    <repro.core.batch.CompiledPolynomialSet>`)."""
    buf = _load_buffer(path, mmap)
    try:
        return compiled_from_buffer(
            buf, source=os.path.abspath(path) if mmap else None
        )
    except SerializeError as error:
        raise SerializeError(f"{path}: {error}") from error


def compiled_from_buffer(buf, source=None):
    """Rebuild a compiled set over views of container bytes (zero-copy).

    ``buf`` may be bytes, a memoryview (``SharedMemory.buf``) or an
    mmap; the compiled arrays alias it, so it must stay alive and
    unmodified for the lifetime of the returned set.
    """
    header, origin = _parse_container(buf, what="compiled payload")
    if header.get("kind") not in ("compiled", "compressed_provenance"):
        raise SerializeError(
            f"expected a compiled container, got kind {header.get('kind')!r}"
        )
    arrays = _views(header, buf, origin)
    try:
        return _compiled_from(header["compiled"], arrays, source=source)
    except (KeyError, TypeError, IndexError) as error:
        raise SerializeError(f"corrupt compiled container: {error}") from error


def is_binary(path):
    """``True`` iff ``path`` starts with the container magic bytes."""
    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC
