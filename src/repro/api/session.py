"""The query→compress→ask session facade.

One object graph for the whole pipeline the paper describes: capture
provenance (from a SQL query, parsed polynomial strings, or an existing
:class:`~repro.core.polynomial.PolynomialSet`), attach the abstraction
forest, compress under a budget with a registry-chosen algorithm, and
get back a shippable :class:`~repro.api.artifact.CompressedProvenance`
that answers scenario suites::

    from repro import ProvenanceSession, Scenario

    session = ProvenanceSession.from_query(sql, relations, params=params,
                                           forest=[plans_tree, months_tree])
    artifact = session.compress(bound=500)            # algorithm="auto"
    answer = artifact.ask(Scenario.uniform("q1 -20%", ["m1", "m2", "m3"], 0.8))
    answer.values, answer.exact

Before this facade, the same flow threaded six modules by hand
(``repro.engine`` → ``repro.core`` → ``repro.algorithms`` →
``repro.scenarios`` → ``repro.core.serialize`` → CLI); each step here
delegates to exactly those modules, so low-level use keeps working
unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algorithms import registry
from repro.core.abstraction import ensure_set
from repro.core.forest import AbstractionForest
from repro.core.parser import parse_set
from repro.core.polynomial import Polynomial, PolynomialSet
from repro.core.tree import AbstractionTree
from repro.api.artifact import CompressedProvenance
from repro.options import EvalOptions

if TYPE_CHECKING:
    import os
    from collections.abc import Callable, Iterable, Mapping
    from fractions import Fraction
    from typing import Union

    from repro.api.artifact import Answer, ScenarioLike
    from repro.api.mutation import MutationResult
    from repro.core.statistics import ProvenanceProfile
    from repro.engine.table import Relation

    #: Anything :func:`as_forest` normalizes (``None`` = no forest).
    ForestSpec = Union[
        AbstractionForest, AbstractionTree, tuple, Iterable, None
    ]
    #: Anything :func:`repro.core.abstraction.ensure_set` accepts.
    PolynomialsLike = Union[Polynomial, PolynomialSet, Iterable[Polynomial]]

__all__ = ["ProvenanceSession", "as_forest"]


def as_forest(spec: ForestSpec) -> AbstractionForest | None:
    """Normalize a forest specification to an :class:`AbstractionForest`.

    Accepts a forest (unchanged), a single tree, a nested-tuple tree
    spec (``("SB", ["b1", "b2"])``), or an iterable mixing trees and
    nested specs. ``None`` stays ``None`` (no forest attached yet).
    """
    if spec is None or isinstance(spec, AbstractionForest):
        return spec
    if isinstance(spec, AbstractionTree):
        return AbstractionForest([spec])
    if isinstance(spec, tuple):
        return AbstractionForest([AbstractionTree.from_nested(spec)])
    trees = [
        tree if isinstance(tree, AbstractionTree)
        else AbstractionTree.from_nested(tree)
        for tree in spec
    ]
    return AbstractionForest(trees)


class ProvenanceSession:
    """Captured provenance plus its abstraction forest, ready to compress.

    Sessions hold the *original* provenance: :meth:`with_forest`
    returns a new session, :meth:`compress` returns an artifact and
    leaves the session usable for further compressions at other
    bounds/algorithms. The one mutator is :meth:`extend` — streaming
    provenance appends to the session in place (repairing its cached
    columnar/compiled views) and maintains a compressed artifact
    incrementally.
    """

    __slots__ = ("polynomials", "forest")

    def __init__(
        self, polynomials: PolynomialsLike, forest: ForestSpec = None
    ) -> None:
        self.polynomials = ensure_set(polynomials)
        self.forest = as_forest(forest)

    # --------------------------------------------------------- entry points

    @classmethod
    def from_polynomials(
        cls, polynomials: PolynomialsLike, forest: ForestSpec = None
    ) -> ProvenanceSession:
        """Wrap an existing :class:`Polynomial`/:class:`PolynomialSet`."""
        return cls(polynomials, forest)

    @classmethod
    def from_strings(
        cls, texts: Iterable[str], forest: ForestSpec = None
    ) -> ProvenanceSession:
        """Parse polynomial strings (see :func:`repro.core.parser.parse_set`).

        >>> session = ProvenanceSession.from_strings(
        ...     ["2*b1*m1 + 3*b2*m1"], forest=("SB", ["b1", "b2"]))
        >>> session.polynomials.num_monomials
        2
        """
        return cls(parse_set(texts), forest)

    @classmethod
    def from_query(
        cls,
        sql: str,
        relations: Mapping[str, Relation],
        params: Callable | None = None,
        forest: ForestSpec = None,
    ) -> ProvenanceSession:
        """Capture provenance by running SQL through :mod:`repro.engine`.

        :param sql: a SPJ + ``SUM`` aggregate query (the §2.1 class).
        :param relations: ``{table_name: Relation}``.
        :param params: optional ``row_dict -> [variable, ...]`` callable
            placing scenario variables on each contributing row (over
            qualified column names, as in
            :func:`repro.engine.sql.execute`).
        :param forest: the abstraction hierarchy (any
            :func:`as_forest` spec).

        Aggregate queries contribute one polynomial per group;
        non-aggregate queries contribute each result row's annotation
        polynomial (constant annotations become constant polynomials).
        """
        from repro.engine.sql import execute
        from repro.engine.table import Relation

        result = execute(sql, relations, params=params)
        if isinstance(result, Relation):
            polynomials = PolynomialSet(
                annotation if isinstance(annotation, Polynomial)
                else Polynomial.constant(annotation)
                for _, annotation in sorted(
                    result.rows.items(), key=lambda item: repr(item[0])
                )
            )
        else:
            polynomials = result.polynomials
        return cls(polynomials, forest)

    # -------------------------------------------------------------- fluent

    def with_forest(self, forest: ForestSpec) -> ProvenanceSession:
        """A new session over the same provenance with ``forest`` attached."""
        return ProvenanceSession(self.polynomials, forest)

    def profile(self) -> ProvenanceProfile:
        """Summary statistics (see :func:`repro.core.statistics.profile`)."""
        from repro.core.statistics import profile

        return profile(self.polynomials)

    def evaluate(
        self, scenario: ScenarioLike, default: float = 1.0
    ) -> list[float | Fraction]:
        """Valuate one scenario against the *raw* provenance."""
        from repro.core.valuation import Valuation

        return Valuation.coerce(scenario, default).evaluate(self.polynomials)

    def ask(
        self,
        scenario: ScenarioLike,
        default: float = 1.0,
        *,
        options: EvalOptions | None = None,
    ) -> Answer:
        """Answer one scenario against the raw provenance.

        Raw provenance loses nothing, so the returned
        :class:`~repro.api.artifact.Answer` is always ``exact=True`` —
        the uncompressed counterpart of
        :meth:`CompressedProvenance.ask
        <repro.api.artifact.CompressedProvenance.ask>`.
        """
        return self.ask_many([scenario], default=default, options=options)[0]

    def ask_many(
        self,
        scenarios: Iterable[ScenarioLike],
        default: float = 1.0,
        *,
        options: EvalOptions | None = None,
    ) -> list[Answer]:
        """Answer a scenario family against the raw provenance.

        :param scenarios: a :class:`~repro.scenarios.sweep.Sweep`, a
            :class:`~repro.scenarios.scenario.ScenarioSuite`, or any
            iterable of Scenario / Valuation / mapping entries.
        :param options: an :class:`~repro.options.EvalOptions`
            bundling the evaluation knobs — ``engine`` (dense vs.
            delta; ``"auto"`` picks by scenario sparsity) and
            ``workers`` (shard across processes; ``None`` stays in
            process). Answers are bit-identical whatever the knobs.
        :returns: a list of :class:`~repro.api.artifact.Answer`, one
            per scenario, in order — all ``exact=True`` (nothing was
            abstracted away).
        """
        from repro.api.artifact import Answer
        from repro.scenarios.analysis import evaluate_scenarios

        opts = EvalOptions.coerce(options)
        # Materialize once: the Answer list is O(S) anyway, and a lazy
        # Sweep would otherwise be generated twice (once for evaluation,
        # once here for the names).
        items = scenarios if isinstance(scenarios, list) else list(scenarios)
        matrix = evaluate_scenarios(
            self.polynomials, items, default=default, options=opts,
        )
        answers = []
        for index, (item, row) in enumerate(zip(items, matrix, strict=True)):
            name = getattr(item, "name", None)
            answers.append(Answer(
                str(name) if name is not None else f"scenario-{index}",
                tuple(float(v) for v in row),
                True,
            ))
        return answers

    # ------------------------------------------------------------- compress

    def compress(
        self,
        bound: int,
        algorithm: str = registry.AUTO,
        **solver_options: object,
    ) -> CompressedProvenance:
        """Select and apply a VVS; package the result as an artifact.

        :param bound: maximum number of monomials ``B``.
        :param algorithm: a registered name (``"optimal"``, ``"greedy"``,
            ``"brute-force"``, …) or ``"auto"`` — pick the optimal DP
            for a single tree, the greedy otherwise (see
            :func:`repro.algorithms.registry.choose`).
        :param solver_options: forwarded to the solver (e.g.
            ``clean=False``).
        :raises ValueError: when the session has no forest.
        :raises CompatibilityError: from the greedy and optimal
            solvers when the provenance breaks the forest's §2.2
            compatibility (a meta-variable, or two nodes of one tree,
            in a monomial).
        :raises InfeasibleBoundError: propagated from bound-strict
            solvers (``optimal``/``brute-force``); the greedy instead
            compresses as far as the forest allows.
        """
        if self.forest is None:
            raise ValueError(
                "this session has no abstraction forest; build one with "
                "with_forest(...) or pass forest= to the constructor"
            )
        name, solver = registry.resolve(
            algorithm, self.polynomials, self.forest
        )
        target = self.forest
        if name == "optimal":
            if algorithm == registry.AUTO:
                # The policy judged the *cleaned* forest (a multi-tree
                # forest whose extra trees vanish under footnote 1 is
                # still a single-tree DP instance) — solve that one.
                target = self.forest.clean(self.polynomials).trees[0]
            elif len(self.forest.trees) != 1:
                raise ValueError(
                    "the optimal algorithm handles exactly one tree "
                    "(the multi-tree problem is NP-hard); use "
                    "algorithm='greedy' or 'auto'"
                )
            else:
                target = self.forest.trees[0]
        result = solver(self.polynomials, target, bound, **solver_options)
        return CompressedProvenance.from_result(
            result, self.polynomials, algorithm=name, bound=bound,
        )

    # --------------------------------------------------------------- extend

    def extend(
        self,
        polynomials: PolynomialsLike,
        artifact: CompressedProvenance,
        *,
        drift_limit: float | None = None,
    ) -> MutationResult:
        """Append provenance to the session *and* an artifact it produced.

        The streaming counterpart of :meth:`compress`: ``polynomials``
        (new original provenance — fresh tuples' annotations) are
        appended to this session in place, and ``artifact`` (previously
        compressed from this session's provenance) is maintained
        incrementally — a copy of its abstracted polynomials, with their
        columnar arrays, compiled batch matrix and delta-engine index,
        is *repaired* under the existing cut rather than rebuilt (see
        :mod:`repro.api.mutation`). When the appended monomials drift
        the abstracted size more than ``drift_limit`` past the bound
        (default :data:`~repro.api.mutation.DEFAULT_DRIFT_LIMIT`), an
        exact from-scratch recompression over the full extended
        provenance runs instead — that fallback is why the session
        entry point exists; a bare
        :meth:`CompressedProvenance.refresh
        <repro.api.artifact.CompressedProvenance.refresh>` has no
        originals and raises on drift overflow.

        Returns a :class:`~repro.api.mutation.MutationResult`; its
        ``artifact`` is the extended artifact (the input is left as it
        was), ``path`` says whether repair (``"repaired"``) or the
        fallback (``"recompressed"``) ran, and ``drift`` quantifies the
        bound overshoot that steered the choice.

        :raises CompatibilityError: when a monomial of ``polynomials``
            holds a meta-variable of the forest or two nodes of one tree.
        :raises ValueError: when ``drift_limit`` is not a number
            ``>= 0``. Neither error grows the session.
        """
        from repro.api import mutation

        where = "ProvenanceSession.extend"
        limit = mutation._resolve_drift_limit(drift_limit, where)
        added = mutation._ensure_added(polynomials)
        # Check the delta before the session grows: a rejected extend
        # must leave the session as it was. This extracts the delta's
        # columnar view, the one extraction of the extend: it is cached
        # on ``added`` and feeds the session's repair and the abstraction.
        added.columnar().tree_columns(artifact.forest)
        # Grow the session first (repairing its caches in place): the
        # recompress fallback must see the full extended provenance.
        self.polynomials.extend(added)
        return mutation.extend_artifact(
            artifact,
            added,
            originals=self.polynomials,
            recompress=lambda: self.compress(
                artifact.bound, algorithm=artifact.algorithm,
            ),
            drift_limit=limit,
            where=where,
        )

    @staticmethod
    def load_artifact(
        path: str | os.PathLike, mmap: bool = True
    ) -> CompressedProvenance:
        """Reload a saved :class:`CompressedProvenance`, either format.

        Binary ``.rpb`` containers load without a parse via ``mmap``
        (pass ``mmap=False`` to read the bytes up front instead); JSON
        envelopes parse as before. Formats are told apart by magic
        bytes, not extension.
        """
        return CompressedProvenance.load(path, mmap=mmap)

    # --------------------------------------------------------------- dunder

    def __repr__(self):
        trees = len(self.forest.trees) if self.forest is not None else 0
        return (
            f"ProvenanceSession({len(self.polynomials)} polynomials, "
            f"{self.polynomials.num_monomials} monomials, {trees} trees)"
        )
