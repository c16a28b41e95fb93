"""The shippable compression artifact: abstracted provenance + its cut.

The paper's deployment story (§1, "Offline vs. Online Compression") is
artifact-shaped: provenance is captured once, compressed under a
budget, and *shipped* to analysts who then valuate many hypothetical
scenarios against it. :class:`CompressedProvenance` is that artifact —
one object (and one tagged JSON envelope, see
:mod:`repro.core.serialize`) bundling everything an analyst needs:

* the abstracted polynomials ``P↓S`` (with the compiled NumPy batch
  evaluator cached on them);
* the abstraction forest and the chosen
  :class:`~repro.core.forest.ValidVariableSet`;
* the loss accounting relative to the original provenance.

Answering is :meth:`~CompressedProvenance.ask` /
:meth:`~CompressedProvenance.ask_many`, which return
:class:`Answer` objects carrying the values *and* an ``exact`` flag:
``True`` exactly when the scenario is uniform on the cut (the lifting
homomorphism applies — no accuracy lost), ``False`` when the
group-mean :func:`~repro.scenarios.analysis.approximate_lift` fallback
answered approximately. Lifting goes through the cut's lift index
(:meth:`~repro.core.forest.ValidVariableSet.lift_index`) in O(changed
variables); every ask path — these methods, sweeps with
``transform=artifact.lift``, the CLI and the HTTP service — shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.forest import ValidVariableSet
from repro.core.polynomial import PolynomialSet
from repro.core.valuation import NonUniformError, Valuation
from repro.core import serialize
from repro.options import EvalOptions
from repro.scenarios.analysis import approximate_lift

if TYPE_CHECKING:
    import os
    from collections.abc import Iterable, Iterator, Mapping
    from typing import Union

    from repro.algorithms.result import AbstractionResult
    from repro.api.mutation import MutationResult
    from repro.api.session import PolynomialsLike
    from repro.core.forest import AbstractionForest
    from repro.scenarios.scenario import Scenario

    #: Anything :meth:`Valuation.coerce` accepts as a scenario.
    ScenarioLike = Union[Scenario, Valuation, Mapping[str, float]]

__all__ = ["Answer", "CompressedProvenance"]

#: One warning per process for the JSON-ignores-mmap fallback (see
#: :meth:`CompressedProvenance.load`).
_WARNED_JSON_MMAP = False


def _lift(valuation: Valuation, vvs: ValidVariableSet) -> tuple[Valuation, bool]:
    """``(lifted, exact)``: the exact lift when ``valuation`` is uniform
    on the cut, the group-mean :func:`approximate_lift` otherwise.

    Uniform valuations cost one pass over the touched groups:
    :meth:`Valuation.lift` checks uniformity while it lifts.
    """
    try:
        return valuation.lift(vvs), True
    except NonUniformError:
        return approximate_lift(valuation, vvs), False


@dataclass(frozen=True)
class Answer:
    """One scenario's valuation against a compression artifact.

    * ``name`` — the scenario's name (generated for anonymous inputs);
    * ``values`` — one float per polynomial of the artifact, in order;
    * ``exact`` — ``True`` iff the scenario was uniform on the cut, so
      the abstracted answer equals the raw-provenance answer; ``False``
      means the group-mean approximate lift answered best-effort.
    """

    name: str
    values: tuple[float, ...]
    exact: bool

    def __iter__(self) -> Iterator[float]:
        """Iterate the per-polynomial values."""
        return iter(self.values)

    def __len__(self) -> int:
        """Number of polynomials answered."""
        return len(self.values)


class CompressedProvenance:
    """Abstracted provenance bundled with its cut, losses and evaluator.

    Built by :meth:`repro.api.session.ProvenanceSession.compress` (or
    :meth:`from_result` over a raw
    :class:`~repro.algorithms.result.AbstractionResult`); serialized
    with :func:`repro.core.serialize.dumps` and restored with
    :func:`~repro.core.serialize.loads` / :meth:`load`.
    """

    __slots__ = (
        "polynomials",
        "forest",
        "vvs",
        "algorithm",
        "bound",
        "original_size",
        "original_granularity",
        "monomial_loss",
        "variable_loss",
        "revision",
    )

    def __init__(
        self,
        polynomials: PolynomialSet,
        forest: AbstractionForest,
        vvs: ValidVariableSet,
        *,
        algorithm: str,
        bound: int,
        original_size: int,
        original_granularity: int,
        monomial_loss: int,
        variable_loss: int,
        revision: int = 0,
    ) -> None:
        if not isinstance(polynomials, PolynomialSet):
            raise TypeError(
                f"expected PolynomialSet, got {type(polynomials).__name__}"
            )
        if not isinstance(vvs, ValidVariableSet):
            raise TypeError(
                f"expected ValidVariableSet, got {type(vvs).__name__}"
            )
        self.polynomials = polynomials
        self.forest = forest
        self.vvs = vvs
        self.algorithm = str(algorithm)
        self.bound = int(bound)
        self.original_size = int(original_size)
        self.original_granularity = int(original_granularity)
        self.monomial_loss = int(monomial_loss)
        self.variable_loss = int(variable_loss)
        # Lineage counter, bumped by every mutation (extend / refresh).
        # Not part of __eq__: a repaired artifact and a from-scratch one
        # with the same content compare equal whatever their histories.
        self.revision = int(revision)

    @classmethod
    def from_result(
        cls,
        result: AbstractionResult,
        original: PolynomialSet,
        *,
        algorithm: str,
        bound: int,
    ) -> CompressedProvenance:
        """Package an :class:`AbstractionResult` computed on ``original``."""
        from repro.core.abstraction import abstract

        return cls(
            abstract(original, result.vvs),
            result.vvs.forest,
            result.vvs,
            algorithm=algorithm,
            bound=bound,
            original_size=original.num_monomials,
            original_granularity=original.num_variables,
            monomial_loss=result.monomial_loss,
            variable_loss=result.variable_loss,
        )

    # -------------------------------------------------------------- measures

    @property
    def abstracted_size(self) -> int:
        """``|P↓S|_M`` — monomials after compression."""
        return self.polynomials.num_monomials

    @property
    def abstracted_granularity(self) -> int:
        """``|P↓S|_V`` — surviving degrees of freedom."""
        return self.polynomials.num_variables

    @property
    def compression_ratio(self) -> float:
        """``|P↓S|_M / |P|_M`` (1.0 for empty provenance)."""
        if self.original_size == 0:
            return 1.0
        return self.abstracted_size / self.original_size

    @property
    def mmap_active(self) -> bool:
        """``True`` iff the polynomials view an ``mmap`` of the artifact file.

        Only binary (``.rpb``) containers loaded with ``mmap=True`` are
        mmap-backed; JSON envelopes always load eagerly, whatever
        ``mmap=`` said (:meth:`load` warns once about that fallback).
        While ``True``, the artifact file must stay in place.
        """
        return bool(getattr(self.polynomials, "mmap_active", False))

    def stats(self) -> dict[str, object]:
        """The artifact's size/loss accounting plus its load mode.

        One JSON-ready dict — what ``GET /artifacts/{id}`` serves —
        with the paper's measures (sizes, granularities, losses, the
        compression ratio) and ``mmap_active`` making the load mode
        explicit instead of a silent eager fallback.
        """
        return {
            "algorithm": self.algorithm,
            "bound": self.bound,
            "polynomials": len(self.polynomials),
            "original_size": self.original_size,
            "abstracted_size": self.abstracted_size,
            "original_granularity": self.original_granularity,
            "abstracted_granularity": self.abstracted_granularity,
            "monomial_loss": self.monomial_loss,
            "variable_loss": self.variable_loss,
            "compression_ratio": self.compression_ratio,
            "mmap_active": self.mmap_active,
            "revision": self.revision,
        }

    def __len__(self) -> int:
        """Number of polynomials (query result groups)."""
        return len(self.polynomials)

    # ------------------------------------------------------------- answering

    def supports(self, scenario: ScenarioLike, default: float = 1.0) -> bool:
        """``True`` iff ``scenario`` is answered exactly (uniform on the cut)."""
        return Valuation.coerce(scenario, default).is_uniform_on(self.vvs)

    def lift(self, scenario: ScenarioLike, default: float = 1.0) -> Valuation:
        """The scenario on this artifact's meta-variables.

        Exact (the lifting homomorphism) when the scenario is uniform
        on the cut; the group-mean
        :func:`~repro.scenarios.analysis.approximate_lift` otherwise.
        This is the per-scenario transform :meth:`ask_many` applies —
        exposed so analytics (:func:`repro.scenarios.analysis.top_k`,
        :func:`~repro.scenarios.analysis.sensitivity`, the CLI
        ``sweep`` subcommand) can run sweeps against an artifact.
        """
        return _lift(Valuation.coerce(scenario, default), self.vvs)[0]

    def ask(
        self,
        scenario: ScenarioLike,
        default: float = 1.0,
        *,
        options: EvalOptions | None = None,
    ) -> Answer:
        """Answer one scenario (Scenario / Valuation / mapping).

        Uniform-on-the-cut scenarios are lifted exactly onto the
        meta-variables; others fall back to the group-mean
        :func:`~repro.scenarios.analysis.approximate_lift` and are
        flagged ``exact=False``.
        """
        return self.ask_many([scenario], default=default, options=options)[0]

    def ask_many(
        self,
        scenarios: Iterable[ScenarioLike],
        default: float = 1.0,
        *,
        options: EvalOptions | None = None,
    ) -> list[Answer]:
        """Answer a whole scenario family in one vectorized pass.

        :param scenarios: a :class:`~repro.scenarios.scenario.ScenarioSuite`,
            a :class:`~repro.scenarios.sweep.Sweep`, or any iterable of
            Scenario / Valuation / mapping entries.
        :param options: an :class:`~repro.options.EvalOptions`
            bundling the evaluation knobs — ``engine`` (dense vs. delta
            batch evaluation of the lifted valuations; ``"auto"`` picks
            delta for sparse families — lifting onto a cut only
            shrinks a scenario's change-set, so sparse scenarios stay
            sparse on meta-variables) and ``workers`` (shard across
            processes; ``None`` stays in process). Answers are
            bit-identical whatever the knobs.
        :returns: a list of :class:`Answer`, one per scenario, in order.
        """
        from repro.scenarios.analysis import evaluate_scenarios

        opts = EvalOptions.coerce(options)
        names = []
        exacts = []
        lifted = []
        for index, item in enumerate(scenarios):
            valuation = Valuation.coerce(item, default)
            name = getattr(item, "name", None)
            names.append(str(name) if name is not None else f"scenario-{index}")
            entry, exact = _lift(valuation, self.vvs)
            exacts.append(exact)
            lifted.append(entry)
        if not lifted:
            return []
        matrix = evaluate_scenarios(
            self.polynomials, lifted, default=default, options=opts,
        )
        # float64 rows → tuples of Python floats, converted in C.
        return [
            Answer(name, tuple(row), exact)
            for name, exact, row in zip(names, exacts, matrix.tolist(), strict=True)
        ]

    # -------------------------------------------------------------- mutation

    def refresh(
        self,
        polynomials: PolynomialsLike,
        *,
        drift_limit: float | None = None,
    ) -> MutationResult:
        """Append original provenance to this artifact incrementally.

        ``polynomials`` are *original* (unabstracted) provenance; they
        are abstracted under this artifact's existing cut and appended
        in place — the columnar arrays, the compiled batch matrix and
        the delta-engine index are repaired, not rebuilt (see
        :mod:`repro.api.mutation`). Returns a
        :class:`~repro.api.mutation.MutationResult` whose ``artifact``
        is the extended artifact (revision bumped); this artifact is
        consumed by the mutation.

        A bare artifact has no original provenance, so there is no
        recompress fallback here: when the appended monomials drift the
        abstracted size more than ``drift_limit`` past the bound
        (default :data:`~repro.api.mutation.DEFAULT_DRIFT_LIMIT`), a
        :class:`~repro.errors.CompressionError` is raised — keep the
        originals in a :class:`~repro.api.session.ProvenanceSession`
        and use :meth:`~repro.api.session.ProvenanceSession.extend` to
        get the exact recompression fallback.
        """
        from repro.api.mutation import extend_artifact

        return extend_artifact(
            self,
            polynomials,
            drift_limit=drift_limit,
            where="CompressedProvenance.refresh",
        )

    # ----------------------------------------------------------- persistence

    def dumps(self) -> str:
        """The one-envelope JSON string (``kind: compressed_provenance``)."""
        return serialize.dumps(self)

    def save(
        self, path: str | os.PathLike, format: str = "auto"
    ) -> str | os.PathLike:
        """Write the artifact to ``path``; returns ``path``.

        :param format: ``"json"`` (the portable tagged envelope),
            ``"bin"`` (the zero-copy binary container, see
            :mod:`repro.core.binfmt`) or ``"auto"`` (the default:
            binary when ``path`` ends in ``.rpb`` or ``.bin``, JSON
            otherwise). :meth:`load` auto-detects by magic bytes, so
            the choice only affects size and load speed.
        """
        if format == "auto":
            suffix = str(path).lower()
            format = (
                "bin"
                if suffix.endswith(".rpb") or suffix.endswith(".bin")
                else "json"
            )
        if format == "bin":
            from repro.core import binfmt

            return binfmt.write_artifact(self, path)
        if format != "json":
            raise ValueError(
                f"unknown artifact format {format!r}; "
                "expected 'json', 'bin' or 'auto'"
            )
        with open(path, "w") as handle:
            handle.write(self.dumps())
        return path

    @classmethod
    def load(
        cls, path: str | os.PathLike, mmap: bool = True
    ) -> CompressedProvenance:
        """Read an artifact written by :meth:`save`, either format.

        Binary containers are detected by magic bytes and loaded
        zero-copy (via ``mmap`` unless disabled — see
        :func:`repro.core.binfmt.read_artifact`); anything else parses
        as the JSON envelope. JSON has no zero-copy story, so
        ``mmap=True`` on a JSON artifact falls back to an eager parse —
        the loaded artifact reports :attr:`mmap_active` ``False`` and
        the first such fallback per process warns (convert the file
        with ``save(path, format="bin")`` to actually map it).
        """
        artifact = serialize.load_path(path, mmap=mmap)
        if not isinstance(artifact, cls):
            raise TypeError(
                f"{path}: expected a {cls.__name__} envelope, "
                f"got {type(artifact).__name__}"
            )
        global _WARNED_JSON_MMAP
        if mmap and not artifact.mmap_active and not _WARNED_JSON_MMAP:
            import warnings

            _WARNED_JSON_MMAP = True
            warnings.warn(
                f"{path}: mmap=True has no effect on JSON artifacts — the "
                "envelope was parsed eagerly (mmap_active=False). Save as a "
                "binary container (.rpb) for zero-copy loads. This warning "
                "is emitted once per process.",
                UserWarning,
                stacklevel=2,
            )
        return artifact

    # --------------------------------------------------------------- dunders

    def __eq__(self, other):
        if not isinstance(other, CompressedProvenance):
            return NotImplemented
        return (
            self.polynomials == other.polynomials
            and self.vvs.labels == other.vvs.labels
            and self.algorithm == other.algorithm
            and self.bound == other.bound
            and self.original_size == other.original_size
            and self.original_granularity == other.original_granularity
            and self.monomial_loss == other.monomial_loss
            and self.variable_loss == other.variable_loss
        )

    def __repr__(self):
        return (
            f"CompressedProvenance({len(self.polynomials)} polynomials, "
            f"{self.original_size}->{self.abstracted_size} monomials, "
            f"algorithm={self.algorithm!r}, bound={self.bound})"
        )
