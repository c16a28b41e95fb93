"""Brute-force baseline: enumerate every valid variable set.

The paper uses this as the reference point in Figures 5 and 11 — it
"was able to complete the computation only when the number of VVS was
less than 80,000". The number of cuts grows doubly exponentially with
tree height (Table 2 reaches 1.9·10¹⁹), so the enumerator guards itself
with ``max_cuts``.
"""

from __future__ import annotations

from repro.core.abstraction import abstract_counts, ensure_set
from repro.core.forest import AbstractionForest
from repro.core.tree import AbstractionTree
from repro.algorithms.result import AbstractionResult, InfeasibleBoundError

__all__ = ["brute_force_vvs", "TooManyCutsError"]


class TooManyCutsError(RuntimeError):
    """The forest has more cuts than the enumerator is willing to visit."""

    def __init__(self, num_cuts, max_cuts):
        self.num_cuts = num_cuts
        self.max_cuts = max_cuts
        super().__init__(
            f"forest has {num_cuts} cuts, exceeding the brute-force limit "
            f"of {max_cuts}; use optimal_vvs (single tree) or greedy_vvs"
        )


def brute_force_vvs(polynomials, forest, bound, *, max_cuts=1_000_000,
                    clean=True):
    """Exhaustively find an optimal VVS for ``bound``.

    Visits every cut of the forest, keeps the adequate cut
    (``|P↓S|_M ≤ bound``) with minimal variable loss; ties are broken by
    larger monomial loss, then by sorted labels, so the result is
    deterministic. On one tree its variable loss equals the DP's, though
    the DP may pick another cut of that loss (see
    :func:`~repro.algorithms.optimal.optimal_vvs`). Every cut is
    counted by :func:`repro.core.abstraction.abstract_counts`, so the
    losses hold on any input, compatible or not.

    :raises TooManyCutsError: when ``count_cuts() > max_cuts``.
    :raises InfeasibleBoundError: when no cut is adequate.
    """
    polynomials = ensure_set(polynomials)
    if isinstance(forest, AbstractionTree):
        forest = AbstractionForest([forest])
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if clean:
        forest = forest.clean(polynomials)
    if max_cuts is not None:
        num_cuts = forest.count_cuts()
        if num_cuts > max_cuts:
            raise TooManyCutsError(num_cuts, max_cuts)

    total_monomials = polynomials.num_monomials
    total_variables = polynomials.num_variables

    best = None
    best_rank = None
    min_size = None
    for vvs in forest.iter_cuts():
        size, granularity = abstract_counts(polynomials, vvs.mapping())
        if min_size is None or size < min_size:
            min_size = size
        if size > bound:
            continue
        variable_loss = total_variables - granularity
        rank = (variable_loss, size, tuple(sorted(vvs.labels)))
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = AbstractionResult(
                vvs=vvs,
                monomial_loss=total_monomials - size,
                variable_loss=variable_loss,
                abstracted_size=size,
                abstracted_granularity=granularity,
            )
    if best is None:
        raise InfeasibleBoundError(bound, min_size if min_size is not None else 0)
    return best
