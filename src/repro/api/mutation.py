"""The unified artifact mutation surface (streaming provenance).

The paper's deployment story assumes static provenance: capture once,
compress once, ask many times. Live data breaks that the moment a tuple
insert arrives — recompressing from scratch forfeits the amortization
the whole artifact model exists for. This module is the incremental
alternative: appended polynomials are abstracted *under the artifact's
existing cut* and appended to the artifact in place, with every derived
structure repaired rather than rebuilt (columnar CSR arrays, compiled
batch matrix, delta-engine index — see
:meth:`PolynomialSet.extend <repro.core.polynomial.PolynomialSet.extend>`).

Repair is exact, not approximate: monomials never merge across
polynomials (each polynomial's abstraction is independent), so the
repaired artifact is *identical* to abstracting the full extended
provenance under the same VVS from scratch — the invariant the
property suite pins bit-for-bit. What repair does **not** do is
re-solve for a better cut; the growing abstracted size is tracked as
*drift* against the artifact's bound, and when it exceeds a
configurable limit the mutation falls back to an exact from-scratch
recompression (which needs the original provenance — a
:class:`~repro.api.session.ProvenanceSession` has it, a bare artifact
does not).

Every mutation entry point — :meth:`ProvenanceSession.extend
<repro.api.session.ProvenanceSession.extend>`,
:meth:`CompressedProvenance.refresh
<repro.api.artifact.CompressedProvenance.refresh>`, ``python -m repro
extend`` and ``POST /artifacts/{id}/extend`` — returns one
:class:`MutationResult`, read by its named fields. No evaluation knob
steers a mutation, so none of them takes ``options=``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.abstraction import abstract, ensure_set
from repro.core.interning import VARIABLES
from repro.core.polynomial import Polynomial, PolynomialSet
from repro.errors import CompressionError

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.api.artifact import CompressedProvenance
    from repro.api.session import PolynomialsLike

__all__ = ["DEFAULT_DRIFT_LIMIT", "MutationResult", "extend_artifact"]

#: Default bound-drift tolerance: a repaired artifact may exceed its
#: bound by this fraction before a mutation falls back to an exact
#: recompression. ``drift = max(0, |P↓S|_M − B) / B``.
DEFAULT_DRIFT_LIMIT = 0.25


@dataclass(frozen=True, slots=True)
class MutationResult:
    """What one artifact mutation did — the unified return shape.

    * ``artifact`` — the resulting :class:`CompressedProvenance` (a new
      object; the input artifact is consumed — its polynomial set may
      have been extended in place);
    * ``path`` — ``"repaired"`` (the cut was kept and every derived
      structure extended in place) or ``"recompressed"`` (drift
      exceeded the limit and an exact from-scratch compression ran);
    * ``drift`` / ``drift_limit`` — the observed bound overshoot
      fraction that steered the path, and the limit it was held to;
    * ``added_polynomials`` / ``added_monomials`` — the appended
      original provenance, by count;
    * ``revision`` — the result's lineage counter (input revision + 1);
    * ``artifact_id`` — the content-hash id when the mutation went
      through an :class:`~repro.service.store.ArtifactStore` (the
      service fills it; plain API mutations leave it ``None``).
    """

    artifact: CompressedProvenance
    path: str
    drift: float
    drift_limit: float
    added_polynomials: int
    added_monomials: int
    revision: int
    artifact_id: str | None = None

    def stats(self) -> dict[str, object]:
        """One JSON-ready dict — what the service and CLI emit."""
        payload: dict[str, object] = {
            "path": self.path,
            "drift": self.drift,
            "drift_limit": self.drift_limit,
            "added_polynomials": self.added_polynomials,
            "added_monomials": self.added_monomials,
            "revision": self.revision,
            "artifact": self.artifact.stats(),
        }
        if self.artifact_id is not None:
            payload["id"] = self.artifact_id
        return payload

    def with_id(self, artifact_id: str) -> MutationResult:
        """A copy carrying the store's content-hash id."""
        return replace(self, artifact_id=artifact_id)


def _writable_polynomials(artifact: CompressedProvenance) -> PolynomialSet:
    """The artifact's polynomials, copied when they refuse mutation.

    Binary-loaded artifacts view read-only ``mmap`` buffers through a
    :class:`~repro.core.binfmt.BufferBackedPolynomialSet`, whose
    ``extend`` raises. Extending such an artifact routes through
    copy-on-extend: the file's columnar arrays
    (:meth:`BufferBackedPolynomialSet.columnar
    <repro.core.binfmt.BufferBackedPolynomialSet.columnar>`) are copied
    into a plain, writable set, and no ``Polynomial`` object is built.
    The loaded set keeps answering from its own compiled evaluator; the
    copy compiles its own from the arrays when first asked or saved,
    and a later extend of the result appends to it in place.
    """
    from repro.core.binfmt import BufferBackedPolynomialSet

    polynomials = artifact.polynomials
    if not isinstance(polynomials, BufferBackedPolynomialSet):
        return polynomials
    return PolynomialSet.from_columnar(polynomials.columnar().copy())


def _ensure_added(polynomials: PolynomialsLike) -> PolynomialSet:
    """Normalize the appended provenance to a :class:`PolynomialSet`."""
    if isinstance(polynomials, (Polynomial, PolynomialSet)):
        return ensure_set(polynomials)
    return PolynomialSet(polynomials)


def extend_artifact(
    artifact: CompressedProvenance,
    added: PolynomialsLike,
    *,
    originals: PolynomialSet | None = None,
    recompress: Callable[[], CompressedProvenance] | None = None,
    drift_limit: float | None = None,
    where: str = "extend_artifact",
) -> MutationResult:
    """Append original provenance to a compressed artifact — the core.

    ``added`` holds *original* (unabstracted) polynomials; they are
    abstracted under ``artifact.vvs`` and appended in place, repairing
    the columnar/compiled caches (:meth:`PolynomialSet.extend
    <repro.core.polynomial.PolynomialSet.extend>`). When the extended
    abstracted size drifts past ``drift_limit`` of the bound, the
    ``recompress`` callback (an exact from-scratch compression over the
    full original provenance) runs instead; without one, drift overflow
    raises :class:`~repro.errors.CompressionError` — a bare artifact
    cannot re-solve for a new cut (use
    :meth:`ProvenanceSession.extend
    <repro.api.session.ProvenanceSession.extend>`).

    ``originals`` — the full original provenance *including* ``added``
    — makes the variable-loss accounting exact by direct count; without
    it the accounting counts genuinely new variables against the
    artifact's own alphabet plus the forest labels (exact too, because
    every original variable is either free — and so survives
    abstraction — or a leaf of the compatibility-checked forest).
    """
    limit = DEFAULT_DRIFT_LIMIT if drift_limit is None else float(drift_limit)
    if limit < 0:
        raise ValueError(f"{where}: drift_limit must be >= 0, got {limit!r}")
    added = _ensure_added(added)
    forest = artifact.forest
    # §2.2 conditions 2 and 3 on the delta (the check the solvers run):
    # the loss accounting below relies on a compatible input.
    added.columnar().tree_columns(forest)
    added_polynomials = len(added)
    added_monomials = added.num_monomials
    bound = max(1, artifact.bound)
    revision = artifact.revision + 1

    # Abstract only the delta under the existing cut. Monomials never
    # merge across polynomials, so |extended↓S|_M is exactly the sum —
    # the drift check needs no materialized extension.
    delta = abstract(added, artifact.vvs)
    size = artifact.polynomials.num_monomials + delta.num_monomials
    drift = max(0, size - bound) / bound
    if drift > limit:
        if recompress is None:
            raise CompressionError(
                f"{where}: extending would leave {size} monomials, "
                f"{drift:.3f} past the bound {artifact.bound} (limit "
                f"{limit}); recompressing needs the original provenance "
                "— mutate through ProvenanceSession.extend"
            )
        fresh = recompress()
        fresh.revision = revision
        return MutationResult(
            artifact=fresh,
            path="recompressed",
            drift=drift,
            drift_limit=limit,
            added_polynomials=added_polynomials,
            added_monomials=added_monomials,
            revision=revision,
        )

    # Loss accounting before mutating: monomial loss is additive per
    # polynomial; variable counts need the pre-extension alphabet.
    monomial_loss = artifact.monomial_loss + (
        added_monomials - delta.num_monomials
    )
    original_size = artifact.original_size + added_monomials
    if originals is not None:
        original_granularity = originals.num_variables
    else:
        known = artifact.polynomials.variable_ids()
        label_ids = {VARIABLES.intern(label) for label in forest.labels}
        new_variables = sum(
            1
            for vid in added.variable_ids()
            if vid not in known and vid not in label_ids
        )
        original_granularity = artifact.original_granularity + new_variables

    base = _writable_polynomials(artifact)
    base.extend(delta)
    variable_loss = original_granularity - base.num_variables

    from repro.api.artifact import CompressedProvenance

    repaired = CompressedProvenance(
        base,
        forest,
        artifact.vvs,
        algorithm=artifact.algorithm,
        bound=artifact.bound,
        original_size=original_size,
        original_granularity=original_granularity,
        monomial_loss=monomial_loss,
        variable_loss=variable_loss,
        revision=revision,
    )
    return MutationResult(
        artifact=repaired,
        path="repaired",
        drift=drift,
        drift_limit=limit,
        added_polynomials=added_polynomials,
        added_monomials=added_monomials,
        revision=revision,
    )
