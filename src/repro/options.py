"""One knob object for every evaluation entry point.

The public surface grew its tuning knobs one at a time — ``workers=``
landed with the process pool, ``engine=`` with the delta evaluator,
``chunk_size=`` with block streaming — and each facade method threaded
whichever subset it had heard of. :class:`EvalOptions` replaces that
drift with a single frozen dataclass accepted (and forwarded)
everywhere::

    from repro import EvalOptions

    opts = EvalOptions(engine="delta", workers=2)
    artifact.ask_many(suite, options=opts)
    top_k(artifact.polynomials, sweep, k=5, options=opts)

The legacy keywords keep working on every entry point that ever had
them, but raise :class:`DeprecationWarning` and cannot be mixed with
``options=`` (that is a :class:`TypeError` — silently preferring one
would hide a bug). Lint rule RPL009 keeps the contract honest: every
public eval entry point must accept ``options=``.

None of the knobs change results — engines, workers and chunking are
bit-identical by contract; options only steer *how* the same numbers
get computed. Compression has no knob: it runs one columnar core
(:mod:`repro.core.columnar`).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Union

__all__ = ["EvalOptions", "resolve_options"]


@dataclass(frozen=True, slots=True)
class EvalOptions:
    """Evaluation knobs, bundled. Frozen — share instances freely.

    :param engine: batch-evaluation strategy — ``"dense"`` (full
        revaluation per scenario), ``"delta"`` (baseline + sparse
        updates), or ``"auto"`` (pick by scenario sparsity; see
        :func:`repro.core.batch.choose_engine`).
    :param workers: shard batch evaluation across this many worker
        processes; ``None``/``0``/``1`` stay in process.
    :param chunk_size: scenarios per worker task when sharding;
        ``None`` lets the pool pick.

    Every knob is validated eagerly so a typo fails at construction,
    not deep inside a worker process.
    """

    engine: str = "auto"
    workers: int | None = None
    chunk_size: int | None = None

    _ENGINES = ("dense", "delta", "auto")

    def __post_init__(self) -> None:
        if self.engine not in self._ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{self._ENGINES}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size!r}"
            )

    # ------------------------------------------------------------- coercion

    @classmethod
    def coerce(cls, options: OptionsLike) -> EvalOptions:
        """Normalize ``None`` / mapping / :class:`EvalOptions` to an instance.

        ``None`` means "all defaults" (a shared instance — the class is
        frozen, so sharing is safe); mappings are keyword-expanded::

            >>> EvalOptions.coerce(None).engine
            'auto'
            >>> EvalOptions.coerce({"workers": 2}).workers
            2
        """
        if options is None:
            return _DEFAULTS
        if isinstance(options, cls):
            return options
        if isinstance(options, Mapping):
            return cls(**options)
        raise TypeError(
            "options must be an EvalOptions, a mapping of its fields, or "
            f"None; got {type(options).__name__}"
        )

    def with_(self, **changes: object) -> EvalOptions:
        """A copy with ``changes`` applied (validated like construction)."""
        return replace(self, **changes)


#: Anything :meth:`EvalOptions.coerce` accepts.
OptionsLike = Union[EvalOptions, Mapping, None]

_DEFAULTS = EvalOptions()

_FIELD_NAMES = tuple(f.name for f in fields(EvalOptions))


def resolve_options(
    options: OptionsLike = None,
    *,
    where: str,
    stacklevel: int = 3,
    **legacy: object,
) -> EvalOptions:
    """The deprecation shim behind every migrated entry point.

    ``legacy`` holds the entry point's historical knob keywords
    (``engine=``, ``workers=``, …) with ``None`` meaning "not passed"
    — every legacy knob's old default either was ``None`` or is the
    :class:`EvalOptions` default, so ``None`` sentinels lose nothing.
    Passing a legacy knob warns :class:`DeprecationWarning` (attributed
    to the *caller* of the entry point via ``stacklevel``); mixing
    legacy knobs with ``options=`` is a :class:`TypeError`.
    """
    passed = {
        name: value for name, value in legacy.items() if value is not None
    }
    unknown = set(passed) - set(_FIELD_NAMES)
    if unknown:
        raise TypeError(
            f"{where}: unknown legacy option keyword(s) {sorted(unknown)}"
        )
    if not passed:
        return EvalOptions.coerce(options)
    if options is not None:
        raise TypeError(
            f"{where}: pass options=EvalOptions(...) or the deprecated "
            f"keyword(s) {sorted(passed)}, not both"
        )
    warnings.warn(
        f"{where}: the {', '.join(sorted(passed))} keyword(s) are "
        "deprecated; pass options=EvalOptions(...) instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    return EvalOptions(**passed)
