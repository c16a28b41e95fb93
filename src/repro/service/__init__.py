"""The what-if service: compress once, serve many scenarios.

A stdlib-only asyncio HTTP server around the compression artifacts —
``POST /artifacts`` compresses provenance into a content-addressed
``.rpb`` artifact, ``POST /artifacts/{id}/ask`` answers scenarios from
a resident, mmap-backed copy — its evaluator and its cut's lift index
built on admission, its answers those of
:meth:`~repro.api.artifact.CompressedProvenance.ask_many` in process —
with concurrent single-scenario requests micro-batched into one
evaluator call. Start it with
``python -m repro serve`` or :func:`repro.service.app.start_service`.

Lazy exports, same pattern as :mod:`repro` itself — importing the
package costs nothing until a symbol is touched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service.app import ServiceServer, WhatIfService, start_service
    from repro.service.batcher import MicroBatcher
    from repro.service.store import ArtifactStore
    from repro.service.warm import WarmArtifact

__all__ = [
    "ArtifactStore",
    "MicroBatcher",
    "ServiceServer",
    "WarmArtifact",
    "WhatIfService",
    "start_service",
]

_LAZY_EXPORTS = {
    "ArtifactStore": "repro.service.store",
    "MicroBatcher": "repro.service.batcher",
    "ServiceServer": "repro.service.app",
    "WarmArtifact": "repro.service.warm",
    "WhatIfService": "repro.service.app",
    "start_service": "repro.service.app",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
