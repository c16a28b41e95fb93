"""One knob object for every evaluation entry point.

An evaluation has two knobs: the batch ``engine`` and the number of
worker processes. :class:`EvalOptions` bundles them in one frozen
dataclass, and an entry point takes it as ``options=`` exactly when it
reads a knob::

    from repro import EvalOptions

    opts = EvalOptions(engine="delta", workers=2)
    artifact.ask_many(suite, options=opts)
    top_k(artifact.polynomials, sweep, k=5, options=opts)

There is no second spelling: a bare ``engine=`` or ``workers=`` on the
facade or the analysis functions is a :class:`TypeError`, and lint rule
RPL009 keeps it that way. Compression and mutation read no knob (one
columnar core, :mod:`repro.core.columnar`), so they take no ``options=``.

None of the knobs change results — the engines and the process pool
are bit-identical by contract; options only steer *how* the same
numbers get computed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ENGINES", "EvalOptions"]

#: The batch engines every ``engine=`` accepts: the dense matrix path,
#: the sparse delta path, and ``"auto"``, which picks between them.
ENGINES = ("dense", "delta", "auto")


@dataclass(frozen=True, slots=True)
class EvalOptions:
    """Evaluation knobs, bundled. Frozen — share instances freely.

    :param engine: batch-evaluation strategy — ``"dense"`` (full
        revaluation per scenario), ``"delta"`` (baseline + sparse
        updates), or ``"auto"`` (pick by scenario sparsity; see
        :func:`repro.core.batch.choose_engine`).
    :param workers: shard batch evaluation across this many worker
        processes; ``None``/``0``/``1`` stay in process.

    Every knob is validated eagerly so a typo fails at construction,
    not deep inside a worker process.
    """

    engine: str = "auto"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers!r}")

    @classmethod
    def coerce(cls, options: EvalOptions | None) -> EvalOptions:
        """Normalize ``None`` / :class:`EvalOptions` to an instance.

        ``None`` means "all defaults" (a shared instance — the class is
        frozen, so sharing is safe)::

            >>> EvalOptions.coerce(None).engine
            'auto'
        """
        if options is None:
            return _DEFAULTS
        if isinstance(options, cls):
            return options
        raise TypeError(
            "options must be an EvalOptions or None; got "
            f"{type(options).__name__}"
        )


_DEFAULTS = EvalOptions()
