"""Per-artifact resident state: an artifact warmed for serving.

A request against a resident artifact should pay only for its own
scenarios. The two lazily built structures an ask needs — the compiled
batch evaluator on the polynomials and the lift index on the cut
(:meth:`~repro.core.forest.ValidVariableSet.lift_index`) — are built
when the store admits the artifact, not on its first request.

Answering and lifting are the facade's own: the service calls
:meth:`CompressedProvenance.ask_many
<repro.api.artifact.CompressedProvenance.ask_many>` on
:attr:`WarmArtifact.artifact`, which lifts each scenario through the
cut's index in O(changed variables), the same path every in-process
caller takes, so served answers are the direct answers.
:meth:`WarmArtifact.lift_one` only delegates to the facade; it stays,
with this class, because the end-to-end benchmark's tracer
(``perfbench/tracing.py``) wraps ``WarmArtifact.__init__`` and
``lift_one`` by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.artifact import CompressedProvenance
    from repro.core.valuation import Valuation

__all__ = ["WarmArtifact"]


class WarmArtifact:
    """A :class:`~repro.api.artifact.CompressedProvenance` the store
    keeps resident, with its evaluator and lift index built."""

    __slots__ = ("artifact",)

    def __init__(self, artifact: CompressedProvenance) -> None:
        self.artifact = artifact
        artifact.polynomials.compiled()
        artifact.vvs.lift_index()

    def lift_one(self, valuation: Valuation) -> tuple[Valuation, bool]:
        """``(lifted, exact)`` for one valuation: the artifact's
        :meth:`~repro.api.artifact.CompressedProvenance.lift` and
        :meth:`~repro.api.artifact.CompressedProvenance.supports`."""
        return self.artifact.lift(valuation), self.artifact.supports(valuation)
