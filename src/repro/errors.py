"""One exception hierarchy for the whole public surface.

Before this module, each layer raised its own ad-hoc ``ValueError``
subclass — :class:`~repro.core.serialize.SerializeError` for payload
problems, :class:`~repro.algorithms.result.InfeasibleBoundError` for
impossible bounds, and so on — with no common ancestor. The what-if
service (:mod:`repro.service`) needs one family it can catch at the
boundary and map to HTTP status codes, and callers of the facade
deserve ``except ReproError`` instead of a laundry list.

Hierarchy::

    ReproError
    ├── SerializeError          (also ValueError — the historical base)
    ├── CompressionError
    │   └── InfeasibleBoundError   (defined in repro.algorithms.result)
    ├── EvaluationError
    └── ArtifactNotFound        (also KeyError)

Every pre-existing exception keeps its historical base (``ValueError``
etc.), so code catching the old types keeps working; it additionally
gains :class:`ReproError` as an ancestor. The historical definition
sites re-export from here (``repro.core.serialize.SerializeError`` is
this module's class), and this module re-exports the layer-specific
types (:class:`InfeasibleBoundError`, :class:`CompatibilityError`,
:class:`NonUniformError`, :class:`ParseError`) lazily so importing
``repro.errors`` stays dependency-free and cycle-free.

The service maps the family to HTTP statuses (see
:data:`repro.service.app.STATUS_OF`): malformed payloads → 400,
unknown artifacts → 404, infeasible bounds → 422, evaluation
failures → 500.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SerializeError",
    "CompressionError",
    "EvaluationError",
    "ArtifactNotFound",
    # Lazily re-exported aliases (defined at their historical sites):
    "InfeasibleBoundError",
    "CompatibilityError",
    "NonUniformError",
    "ParseError",
]


class ReproError(Exception):
    """Base class of every error this package raises on purpose."""


class SerializeError(ReproError, ValueError):
    """A payload could not be decoded (unknown kind, corrupt or truncated
    envelope, malformed binary container). Subclasses :class:`ValueError`
    so callers catching the historical error type keep working. Defined
    here; :mod:`repro.core.serialize` re-exports it from its historical
    site."""


class CompressionError(ReproError):
    """Compression failed: no adequate cut, or solver misuse.
    :class:`InfeasibleBoundError` is the concrete bound-infeasibility
    subclass (defined with the solvers)."""


class EvaluationError(ReproError):
    """Scenario evaluation failed. The service raises this around the
    batch evaluator so a poisoned scenario maps to a clean HTTP 500
    instead of tearing down the connection handler."""


class ArtifactNotFound(ReproError, KeyError):
    """No artifact with the requested id (in-memory cache *and* spool
    directory both miss). Subclasses :class:`KeyError` because store
    lookups are mapping-shaped."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; keep it readable.
        return self.args[0] if self.args else KeyError.__str__(self)


#: Lazily-resolved aliases: attribute → (module, member). These classes
#: live where they historically lived (and where their context is);
#: re-exporting them here gives service/facade code one import site
#: without creating import cycles.
_LAZY_ALIASES = {
    "InfeasibleBoundError": ("repro.algorithms.result", "InfeasibleBoundError"),
    "CompatibilityError": ("repro.core.forest", "CompatibilityError"),
    "NonUniformError": ("repro.core.valuation", "NonUniformError"),
    "ParseError": ("repro.core.parser", "ParseError"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, member = _LAZY_ALIASES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), member)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_ALIASES))
