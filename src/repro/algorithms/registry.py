"""Registry of abstraction-selection algorithms, plus the ``auto`` policy.

The CLI, the :mod:`repro.api` session facade and external callers all
need to pick a solver by name. This registry is the single source of
truth: the built-in solvers (Algorithm 1's DP, Algorithm 2's greedy,
the brute-force baseline) self-register here, and new strategies plug
in with the :func:`register` decorator::

    from repro.algorithms.registry import register

    @register("my-strategy")
    def my_vvs(polynomials, forest, bound, **kwargs):
        ...

Every registered callable follows the common solver contract
``fn(polynomials, forest_or_tree, bound, **kwargs) ->
:class:`~repro.algorithms.result.AbstractionResult`` (``optimal``
additionally accepts a one-tree forest, so the uniform call shape
works for all of them).

``"auto"`` is not a registered algorithm but a *policy* resolved by
:func:`choose`: when the (cleaned) forest is a single tree, the PTIME
dynamic program finds the optimal cut — use it; any larger forest makes
the problem NP-hard (Proposition 11), so fall back to the incremental
greedy heuristic.
"""

from __future__ import annotations

from repro.algorithms.brute_force import brute_force_vvs
from repro.algorithms.greedy import greedy_vvs
from repro.algorithms.optimal import optimal_vvs
from repro.core.abstraction import ensure_set
from repro.core.forest import AbstractionForest
from repro.core.tree import AbstractionTree

__all__ = ["register", "get", "names", "available", "choose", "resolve",
           "UnknownAlgorithmError", "AUTO"]

#: The policy name accepted everywhere an algorithm name is (resolved
#: per-input by :func:`choose`, never stored in the registry itself).
AUTO = "auto"

_REGISTRY = {}


class UnknownAlgorithmError(KeyError):
    """Requested algorithm name is not in the registry."""

    def __init__(self, name):
        self.name = name
        super().__init__(
            f"unknown algorithm {name!r}; "
            f"registered: {', '.join(names())} (plus the {AUTO!r} policy)"
        )

    def __str__(self):
        # KeyError.__str__ repr()s the message; keep it readable.
        return self.args[0]


def register(name):
    """Class-/function-decorator adding a solver under ``name``.

    The callable is stored as-is (``get(name)`` returns the identical
    object), so registration never changes behaviour of direct imports.
    Re-registering a taken name raises ``ValueError`` — shadowing a
    built-in silently would make ``compress`` results untraceable.
    """
    name = str(name)

    def decorator(fn):
        if name in _REGISTRY and _REGISTRY[name] is not fn:
            raise ValueError(f"algorithm {name!r} is already registered")
        if name == AUTO:
            raise ValueError(f"{AUTO!r} is reserved for the selection policy")
        _REGISTRY[name] = fn
        return fn

    return decorator


def get(name):
    """The registered callable for ``name`` (KeyError-compatible)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(name) from None


def names():
    """Sorted registered algorithm names (without ``"auto"``)."""
    return sorted(_REGISTRY)


def available():
    """Every name accepted by :func:`resolve`: the registry + ``auto``."""
    return sorted(_REGISTRY) + [AUTO]


def choose(polynomials, forest):
    """The ``auto`` policy: pick an algorithm name for this input.

    A single tree (after footnote-1 cleaning) admits the optimal PTIME
    dynamic program; everything else gets the incremental greedy. The
    choice only reads the input — it never runs a solver. It does not
    check §2.2 compatibility: both solvers run the same check up front
    and reject incompatible input with the same
    :class:`~repro.core.forest.CompatibilityError`.
    """
    polynomials = ensure_set(polynomials)
    if isinstance(forest, AbstractionTree):
        forest = AbstractionForest([forest])
    cleaned = forest.clean(polynomials)
    return "optimal" if len(cleaned.trees) == 1 else "greedy"


def resolve(name, polynomials=None, forest=None):
    """``(resolved_name, callable)`` for ``name``, expanding ``auto``.

    ``auto`` requires ``polynomials`` and ``forest`` (the policy is
    input-dependent); concrete names resolve without them.
    """
    if name == AUTO:
        if polynomials is None or forest is None:
            raise ValueError(
                "resolving 'auto' needs the polynomials and the forest"
            )
        name = choose(polynomials, forest)
    return name, get(name)


# The built-in solvers. Applied-decorator form keeps the registered
# objects identical to the public functions (asserted by tests).
register("optimal")(optimal_vvs)
register("greedy")(greedy_vvs)
register("brute-force")(brute_force_vvs)
