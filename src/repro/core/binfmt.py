"""Binary container for compression artifacts (``.rpb``).

The JSON envelope (:mod:`repro.core.serialize`) is the portable wire
format, but it re-parses the whole artifact on every load — at the
paper's "compress once, ask many" scale that parse dominates artifact
start-up. This module defines a single-file binary container that
loads without a parse: the columnar CSR factor arrays are stored as raw
little-endian buffers at 64-byte-aligned offsets, so
:func:`read_artifact` can ``mmap`` the file, view the buffers in place
and decode them into a plain array-backed set with a handful of array
operations — no ``Polynomial`` object is built, and the OS pages data
in on demand. The file stores the provenance once: the batch evaluator
is derived data, compiled from the decoded arrays on the first ask,
exactly as after a JSON load.

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

The container holds one kind, ``compressed_provenance``: a full
artifact, as :meth:`CompressedProvenance.save(format="bin")
<repro.api.artifact.CompressedProvenance.save>` writes it. Its buffers
are the CSR arrays ``cm.vids``, ``cm.exps``, ``cm.row_starts`` and
``cm.poly_starts`` and the coefficient buffers ``cm.coeff_kind``,
``cm.coeff_f64`` and ``cm.coeff_i64``. Schema 1 files also carry the
writer's compiled evaluator as ``c.*`` buffers; the reader ignores
them.

Fidelity: float coefficients are stored bit-exact in a float64 buffer,
ints that fit in an int64 buffer, and everything else (big ints,
``fractions.Fraction``) in the header's exact-coefficient sidecar — a
loaded artifact re-serializes and evaluates identically to the JSON
round trip. Variable names travel in the header (interned ids are
process-local); the CSR ``vids`` are stored as file-local column
indexes and re-interned on load. The arrays are the only source of the
evaluator, so :func:`read_artifact` checks every assumption its decode
makes and raises :class:`SerializeError` on a file that breaks one.

Portability caveats: buffers are written in the native byte order
(little-endian everywhere this project runs; the dtype strings in the
directory record it), and mmap-backed artifacts alias the file's
bytes. :meth:`CompressedProvenance.save
<repro.api.artifact.CompressedProvenance.save>` writes a sibling
temporary file and renames it onto the target, so saving over a loaded
file is safe: the loaded artifact keeps the old bytes. Rewriting the
file in place by other means corrupts a live mapping — load with
``mmap=False`` to be independent of the file.
"""

from __future__ import annotations

import json
import mmap as _mmap
from fractions import Fraction

import numpy

from repro.core.polynomial import PolynomialSet
from repro.core.serialize import SerializeError

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "write_artifact",
    "read_artifact",
    "is_binary",
]

#: The 8 magic bytes every container starts with (how :func:`is_binary`
#: and :func:`repro.core.serialize.load_path` tell the formats apart).
MAGIC = b"RPROVBIN"

#: Container schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 2

#: The schemas :func:`read_artifact` decodes. Schema 1 differs only by
#: its ``c.*`` buffers and ``compiled`` header entry, which are ignored.
_READABLE_SCHEMAS = (1, SCHEMA_VERSION)

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


def write_artifact(artifact, path):
    """Write a :class:`~repro.api.artifact.CompressedProvenance` as a
    binary container; returns ``path``.

    The artifact's columnar CSR arrays are laid out as raw buffers for
    :func:`read_artifact`; the forest, the cut, the stats and the
    variable names ride in the JSON header. Nothing is compiled: the
    evaluator is derived from the arrays where the artifact is asked.
    """
    from repro.core import serialize
    from repro.core.interning import VARIABLES

    polynomials = artifact.polynomials
    cm = polynomials.columnar()
    vids = sorted(polynomials.variable_ids())
    variables = [VARIABLES.name(vid) for vid in vids]

    layout = _Layout()
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
    }
    payload = _container_bytes(header, layout)
    with open(path, "wb") as handle:
        handle.write(payload)
    return path


# ------------------------------------------------------------------ reading


def _parse_container(buf):
    """``(header, origin)`` of a container buffer; :class:`SerializeError`
    on anything malformed (bad magic, truncation, corrupt header)."""
    size = len(buf)
    prefix = len(MAGIC) + _LEN_BYTES
    if size < prefix or bytes(buf[: len(MAGIC)]) != MAGIC:
        raise SerializeError("not a repro binary artifact (bad magic)")
    header_len = int.from_bytes(bytes(buf[len(MAGIC):prefix]), "little")
    if prefix + header_len > size:
        raise SerializeError(
            f"truncated artifact: header claims {header_len} bytes, only "
            f"{size - prefix} present"
        )
    try:
        header = json.loads(
            bytes(buf[prefix:prefix + header_len]).decode("utf-8")
        )
    except (UnicodeDecodeError, ValueError) as error:
        raise SerializeError(f"corrupt artifact header: {error}") from error
    if not isinstance(header, dict):
        raise SerializeError("corrupt artifact header: not an object")
    if header.get("schema") not in _READABLE_SCHEMAS:
        raise SerializeError(
            f"unsupported container schema {header.get('schema')!r} "
            f"(this reader handles {', '.join(map(str, _READABLE_SCHEMAS))})"
        )
    origin = _aligned(prefix + header_len)
    data_size = header.get("data_size", 0)
    if not isinstance(data_size, int) or origin + data_size > size:
        raise SerializeError(
            f"truncated artifact: expected {origin + data_size} data bytes "
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


def _decode_coeffs(arrays, exact):
    """The exact Python coefficient list from the kind-tagged buffers:
    one ``tolist()`` when every row has the same raw buffer's kind."""
    kinds = _get(arrays, "cm.coeff_kind")
    f64 = _get(arrays, "cm.coeff_f64")
    i64 = _get(arrays, "cm.coeff_i64")
    if (kinds == _COEFF_FLOAT).all():
        return f64.tolist()
    if (kinds == _COEFF_INT64).all():
        return i64.tolist()
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


def _check_columnar(arrays, counts, num_variables):
    """Check every assumption the decode, and the evaluator compiled
    from its arrays, make of the CSR buffers, so that a corrupt file
    fails at load with a :class:`SerializeError` instead of loading
    another polynomial or raising a bare NumPy error on first use:

    * the buffer lengths agree with the header's counts;
    * ``cm.row_starts`` and ``cm.poly_starts`` start at 0, never
      decrease, and end at the factor and the monomial count;
    * every column names one of the header's ``num_variables``
      variables, and each row's columns strictly increase (the writer's
      id order, so no variable repeats in a monomial);
    * every exponent is at least 1.
    """
    monomials = counts["monomials"]
    row_starts = _get(arrays, "cm.row_starts")
    poly_starts = _get(arrays, "cm.poly_starts")
    cols = _get(arrays, "cm.vids")
    exps = _get(arrays, "cm.exps")
    if (
        len(row_starts) != monomials + 1
        or len(poly_starts) != counts["polynomials"] + 1
        or len(cols) != len(exps)
        or len(_get(arrays, "cm.coeff_kind")) != monomials
        or len(_get(arrays, "cm.coeff_f64")) != monomials
        or len(_get(arrays, "cm.coeff_i64")) != monomials
    ):
        raise SerializeError("inconsistent columnar buffers")
    for name, starts, end in (
        ("cm.row_starts", row_starts, len(cols)),
        ("cm.poly_starts", poly_starts, monomials),
    ):
        if starts[0] != 0 or starts[-1] != end or (numpy.diff(starts) < 0).any():
            raise SerializeError(
                f"{name} must rise from 0 to {end} without decreasing"
            )
    if cols.size and (cols.min() < 0 or cols.max() >= num_variables):
        raise SerializeError(
            "column index out of range for the container's variables"
        )
    row_head = numpy.zeros(len(cols) + 1, dtype=bool)
    row_head[row_starts] = True
    if (cols[1:] <= cols[:-1])[~row_head[1:-1]].any():
        raise SerializeError("a monomial's columns do not strictly increase")
    if exps.size and exps.min() < 1:
        raise SerializeError("an exponent is below 1")


def _decode_columnar(arrays, variables, exact):
    """The container's CSR arrays with their columns re-interned, as an
    extraction of the materialized polynomials would give them. Each
    row's factors are re-sorted only when this process's ids do not
    increase in file order, never in the writer's own process."""
    from repro.core.columnar import ColumnarMultiset
    from repro.core.interning import VARIABLES

    cols = _get(arrays, "cm.vids")
    exps = _get(arrays, "cm.exps")
    row_starts = _get(arrays, "cm.row_starts")
    ids = numpy.asarray(
        [VARIABLES.intern(name) for name in variables], dtype=numpy.intp
    )
    vids = ids[cols]
    if not (ids[1:] > ids[:-1]).all():
        rows = numpy.repeat(
            numpy.arange(len(row_starts) - 1, dtype=numpy.intp),
            numpy.diff(row_starts),
        )
        by_id = numpy.lexsort((vids, rows))
        vids = vids[by_id]
        exps = exps[by_id]
    return ColumnarMultiset.from_arrays(
        vids, exps, row_starts, _get(arrays, "cm.poly_starts"),
        _decode_coeffs(arrays, exact),
    )


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

    The container's CSR arrays are checked (:func:`_check_columnar`)
    and decode into a plain array-backed
    :class:`~repro.core.polynomial.PolynomialSet`, with no parse and no
    ``Polynomial`` object (:func:`_decode_columnar`). The set compiles
    its evaluator on the first ask, exactly as after a JSON load, so
    answers never depend on the writer's interning order. Schema 1
    files load the same way; their stored evaluator is never read.

    ``mmap=True`` (the default) maps the file, and the arrays that need
    no decoding view the map. The map keeps the loaded bytes alive even
    if the file is renamed over or unlinked; only an in-place rewrite
    of the file reaches it. Pass ``mmap=False`` to read it up front.
    """
    from repro.api.artifact import CompressedProvenance
    from repro.core import serialize

    buf = _load_buffer(path, mmap)
    header, origin = _parse_container(buf)
    if header.get("kind") != "compressed_provenance":
        raise SerializeError(
            f"{path}: expected a compressed_provenance container, got "
            f"kind {header.get('kind')!r}"
        )
    arrays = _views(header, buf, origin)
    try:
        variables = header["variables"]
        _check_columnar(arrays, header["counts"], len(variables))
        columnar = _decode_columnar(
            arrays, variables, _decode_exact(header.get("exact_coeffs", ()))
        )
        forest = serialize.forest_from_dict(header["forest"])
        vvs = serialize.vvs_from_dict({"labels": header["vvs"]}, forest)
        stats = header["stats"]
        return CompressedProvenance(
            PolynomialSet.from_columnar(columnar),
            forest,
            vvs,
            algorithm=header["algorithm"],
            bound=header["bound"],
            original_size=stats["original_size"],
            original_granularity=stats["original_granularity"],
            monomial_loss=stats["monomial_loss"],
            variable_loss=stats["variable_loss"],
            revision=stats.get("revision", 0),
            mmap_active=isinstance(buf, _mmap.mmap),
        )
    except (KeyError, TypeError, IndexError) as error:
        raise SerializeError(f"{path}: corrupt artifact container: {error}") from error


def is_binary(path):
    """``True`` iff ``path`` starts with the container magic bytes."""
    with open(path, "rb") as handle:
        return handle.read(len(MAGIC)) == MAGIC
