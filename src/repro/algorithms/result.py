"""Shared result types for the abstraction-selection algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.forest import ValidVariableSet
from repro.errors import CompressionError

__all__ = ["AbstractionResult", "InfeasibleBoundError"]


class InfeasibleBoundError(CompressionError, ValueError):
    """No valid variable set is adequate for the requested bound.

    The paper notes (after Definition 7 / Example 8) that adequacy is
    not guaranteed: even the coarsest abstraction (all roots) may leave
    more than ``B`` monomials. ``min_achievable_size`` reports how far
    the forest can compress at best.
    """

    def __init__(self, bound, min_achievable_size):
        self.bound = bound
        self.min_achievable_size = min_achievable_size
        super().__init__(
            f"no VVS is adequate for bound {bound}: the best achievable "
            f"size is {min_achievable_size} monomials"
        )


@dataclass
class AbstractionResult:
    """Outcome of an abstraction-selection algorithm.

    Attributes mirror the paper's measures:

    * ``vvs`` — the selected valid variable set;
    * ``monomial_loss`` / ``variable_loss`` — ``ML``/``VL`` w.r.t. the
      input polynomials;
    * ``abstracted_size`` — ``|P↓S|_M`` (must be ≤ the bound);
    * ``abstracted_granularity`` — ``|P↓S|_V`` (the surviving degrees of
      freedom for hypothetical reasoning);
    * ``trace`` — algorithm-specific step log (greedy fills this).

    The counts are structural (:func:`~repro.core.abstraction.abstract_counts`):
    the sizes are upper bounds on those of the materialized ``P↓S``, and
    the losses lower bounds, equal unless merged coefficients cancel.
    :meth:`CompressedProvenance.from_result
    <repro.api.artifact.CompressedProvenance.from_result>` counts the
    artifact's losses on the materialized set.
    """

    vvs: ValidVariableSet
    monomial_loss: int
    variable_loss: int
    abstracted_size: int
    abstracted_granularity: int
    trace: list = field(default_factory=list)

    def apply(self, polynomials):
        """Convenience: ``P↓S`` for the selected VVS."""
        return self.vvs.apply(polynomials)
