"""Per-artifact resident state: an artifact warmed for serving.

A request against a resident artifact should pay only for its own
scenarios. The two lazily built structures an ask needs — the compiled
batch evaluator on the polynomials and the lift index on the cut
(:meth:`~repro.core.forest.ValidVariableSet.lift_index`) — are built
when the store admits the artifact, not on its first request.

Answering and lifting are the facade's own:
:meth:`CompressedProvenance.ask_many
<repro.api.artifact.CompressedProvenance.ask_many>` lifts each scenario
through the cut's index in O(changed variables), the same path every
in-process caller takes, so served answers are the direct answers.
:meth:`WarmArtifact.lift_one` and :meth:`WarmArtifact.ask_many` only
delegate to it; they stay because the end-to-end benchmark's tracer
(``perfbench/tracing.py``) wraps ``WarmArtifact.__init__`` and
``lift_one`` by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.api.artifact import Answer, CompressedProvenance, ScenarioLike
    from repro.core.valuation import Valuation
    from repro.options import OptionsLike

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

    def ask_many(
        self,
        scenarios: Iterable[ScenarioLike],
        default: float = 1.0,
        *,
        options: OptionsLike = None,
    ) -> list[Answer]:
        """The artifact's :meth:`~repro.api.artifact.CompressedProvenance.ask_many`."""
        return self.artifact.ask_many(scenarios, default=default, options=options)

    def ask(
        self,
        scenario: ScenarioLike,
        default: float = 1.0,
        *,
        options: OptionsLike = None,
    ) -> Answer:
        """The artifact's :meth:`~repro.api.artifact.CompressedProvenance.ask`."""
        return self.artifact.ask(scenario, default=default, options=options)
