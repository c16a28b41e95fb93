"""JSON serialization for provenance artifacts.

The paper's use case ships pre-computed provenance from a capture site
to analysts (§1, "Offline vs. Online Compression"); serialized size is
the communication/storage cost that abstraction reduces. This module
provides a stable JSON round-trip for polynomials, trees, forests and
VVSs, plus byte-size accounting used by the experiment harness.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from repro.core.forest import AbstractionForest, ValidVariableSet
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree

# SerializeError now lives in repro.errors (the unified hierarchy); this
# re-export keeps the historical import site working.
from repro.errors import SerializeError

__all__ = [
    "SerializeError",
    "polynomial_to_dict",
    "polynomial_from_dict",
    "polynomial_set_to_dict",
    "polynomial_set_from_dict",
    "tree_to_dict",
    "tree_from_dict",
    "forest_to_dict",
    "forest_from_dict",
    "vvs_to_dict",
    "vvs_from_dict",
    "vvs_envelope_to_dict",
    "vvs_envelope_from_dict",
    "artifact_to_dict",
    "artifact_from_dict",
    "dumps",
    "loads",
    "load_path",
    "serialized_size",
]


def _coeff_to_json(coeff):
    """A coefficient as a JSON value (Fractions become tagged objects).

    int and float pass through unchanged (json round-trips both exactly
    — float via shortest-repr); ``Fraction`` has no JSON form, so it
    travels as ``{"fraction": "n/d"}``.
    """
    if isinstance(coeff, Fraction):
        return {"fraction": f"{coeff.numerator}/{coeff.denominator}"}
    return coeff


def _coeff_from_json(value):
    """Inverse of :func:`_coeff_to_json`."""
    if isinstance(value, dict):
        try:
            return Fraction(value["fraction"])
        except (KeyError, ValueError, ZeroDivisionError) as error:
            raise SerializeError(f"bad coefficient {value!r}: {error}") from error
    return value


def polynomial_to_dict(polynomial):
    """``{"terms": [[coeff, [[var, exp], ...]], ...]}`` (sorted, stable)."""
    return {
        "terms": [
            [_coeff_to_json(coeff), [[var, exp] for var, exp in monomial.powers]]
            for coeff, monomial in polynomial
        ]
    }


def polynomial_from_dict(data):
    """Inverse of :func:`polynomial_to_dict`."""

    return Polynomial(
        (Monomial(powers), _coeff_from_json(coeff))
        for coeff, powers in data["terms"]
    )


def polynomial_set_to_dict(polynomials):
    """``{"polynomials": [...]}`` — one entry per polynomial."""

    return {"polynomials": [polynomial_to_dict(p) for p in polynomials]}


def polynomial_set_from_dict(data):
    """Inverse of :func:`polynomial_set_to_dict`."""

    return PolynomialSet(polynomial_from_dict(d) for d in data["polynomials"])


def tree_to_dict(tree):
    """Nested ``{"label": ..., "children": [...]}`` (leaves omit children)."""

    def build(node):
        if node.is_leaf:
            return {"label": node.label}
        return {"label": node.label, "children": [build(c) for c in node.children]}

    return build(tree.root)


def tree_from_dict(data):
    """Inverse of :func:`tree_to_dict`."""

    def build(spec):
        if "children" not in spec:
            return spec["label"]
        return (spec["label"], [build(c) for c in spec["children"]])

    return AbstractionTree.from_nested(build(data))


def forest_to_dict(forest):
    """``{"trees": [...]}`` — one nested dict per tree."""

    return {"trees": [tree_to_dict(t) for t in forest]}


def forest_from_dict(data):
    """Inverse of :func:`forest_to_dict`."""

    return AbstractionForest([tree_from_dict(t) for t in data["trees"]])


def vvs_to_dict(vvs):
    """``{"labels": [...]}`` — the cut's chosen labels, sorted."""

    return {"labels": sorted(vvs.labels)}


def vvs_from_dict(data, forest):
    """Rebuild (and re-validate) a VVS against ``forest``."""

    return ValidVariableSet(forest, frozenset(data["labels"]))


def vvs_envelope_to_dict(vvs):
    """Self-contained VVS payload: the labels *and* their forest.

    Unlike :func:`vvs_to_dict` (labels only, for callers that already
    hold the forest), this form round-trips through :func:`dumps` /
    :func:`loads` on its own.
    """
    return {
        "labels": sorted(vvs.labels),
        "forest": forest_to_dict(vvs.forest),
    }


def vvs_envelope_from_dict(data):
    """Inverse of :func:`vvs_envelope_to_dict`."""
    return vvs_from_dict(data, forest_from_dict(data["forest"]))


def artifact_to_dict(artifact):
    """A :class:`~repro.api.artifact.CompressedProvenance` as one payload.

    Everything the analyst side needs: the abstracted polynomials, the
    forest, the chosen cut, the loss accounting and the build
    parameters (algorithm name + bound).
    """
    return {
        "algorithm": artifact.algorithm,
        "bound": artifact.bound,
        "forest": forest_to_dict(artifact.forest),
        "vvs": sorted(artifact.vvs.labels),
        "polynomials": polynomial_set_to_dict(artifact.polynomials),
        "stats": {
            "original_size": artifact.original_size,
            "original_granularity": artifact.original_granularity,
            "monomial_loss": artifact.monomial_loss,
            "variable_loss": artifact.variable_loss,
            "revision": artifact.revision,
        },
    }


def artifact_from_dict(data):
    """Inverse of :func:`artifact_to_dict`."""
    from repro.api.artifact import CompressedProvenance

    forest = forest_from_dict(data["forest"])
    stats = data["stats"]
    return CompressedProvenance(
        polynomial_set_from_dict(data["polynomials"]),
        forest,
        vvs_from_dict({"labels": data["vvs"]}, forest),
        algorithm=data["algorithm"],
        bound=data["bound"],
        original_size=stats["original_size"],
        original_granularity=stats["original_granularity"],
        monomial_loss=stats["monomial_loss"],
        variable_loss=stats["variable_loss"],
        revision=stats.get("revision", 0),
    )


_TO_DICT = {
    Polynomial: ("polynomial", polynomial_to_dict),
    PolynomialSet: ("polynomial_set", polynomial_set_to_dict),
    AbstractionTree: ("tree", tree_to_dict),
    AbstractionForest: ("forest", forest_to_dict),
    ValidVariableSet: ("vvs", vvs_envelope_to_dict),
}

_FROM_DICT = {
    "polynomial": polynomial_from_dict,
    "polynomial_set": polynomial_set_from_dict,
    "tree": tree_from_dict,
    "forest": forest_from_dict,
    "vvs": vvs_envelope_from_dict,
    "compressed_provenance": artifact_from_dict,
}


def _artifact_class():
    """The CompressedProvenance class, if its module is loaded.

    :mod:`repro.api.artifact` imports this module, so the import cannot
    be top-level; and if the module was never imported, no instance can
    exist for :func:`dumps` to see — ``sys.modules`` is sufficient.
    """
    module = sys.modules.get("repro.api.artifact")
    return getattr(module, "CompressedProvenance", None)


def dumps(obj):
    """Serialize a provenance artifact to a tagged JSON string.

    >>> loads(dumps(Polynomial.variable("x"))) == Polynomial.variable("x")
    True
    """
    for cls, (tag, encode) in _TO_DICT.items():
        if isinstance(obj, cls):
            return json.dumps({"kind": tag, "data": encode(obj)}, sort_keys=True)
    artifact_cls = _artifact_class()
    if artifact_cls is not None and isinstance(obj, artifact_cls):
        return json.dumps(
            {"kind": "compressed_provenance", "data": artifact_to_dict(obj)},
            sort_keys=True,
        )
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text):
    """Inverse of :func:`dumps`."""
    try:
        envelope = json.loads(text)
    except ValueError as error:
        raise SerializeError(f"not a serialized payload: {error}") from error
    kind = envelope.get("kind") if isinstance(envelope, dict) else None
    if kind not in _FROM_DICT:
        raise SerializeError(f"unknown payload kind {kind!r}")
    return _FROM_DICT[kind](envelope["data"])


def load_path(path, mmap=True):
    """Load a serialized payload from a file, auto-detecting the envelope.

    Files starting with the :data:`repro.core.binfmt.MAGIC` bytes are
    binary artifact containers (decoded without a parse, via ``mmap``
    unless disabled); anything else is parsed as a tagged JSON envelope. This
    is what the CLI's ``ask``/``sweep``/``inspect`` loaders call, so
    both formats are accepted everywhere a path is.
    """
    from repro.core import binfmt

    with open(path, "rb") as handle:
        head = handle.read(len(binfmt.MAGIC))
    if head == binfmt.MAGIC:
        return binfmt.read_artifact(path, mmap=mmap)
    try:
        with open(path, encoding="utf-8") as handle:
            return loads(handle.read())
    except UnicodeDecodeError as error:
        # A torn/corrupted binary container whose magic no longer
        # matches must fail as a serialization error, not a codec one.
        raise SerializeError(
            f"neither a binary container nor a JSON payload: {error}"
        ) from error


def serialized_size(obj):
    """Size in bytes of the JSON form — the paper's storage/shipping cost."""
    return len(dumps(obj).encode("utf-8"))
