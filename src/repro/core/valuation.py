"""Valuations: assigning values to provenance variables (§1, §2.1).

A hypothetical scenario is applied by valuating the variables of a
provenance polynomial and computing the resulting number. The central
semantic fact about abstraction (tested property): if a valuation is
*uniform on the groups* of a VVS — every leaf below a chosen node gets
the same value — then valuating ``P↓S`` under the lifted valuation
yields exactly the same result as valuating ``P``. Scenarios that are
not group-uniform are the "loss of accuracy" the paper trades for size.
Lifting runs on each cut's :class:`LiftIndex`, which visits only the
groups a valuation touches.
"""

from __future__ import annotations

from itertools import repeat

from repro.core.polynomial import Polynomial, PolynomialSet
from repro.errors import ReproError

__all__ = ["Valuation", "NonUniformError", "LiftIndex"]

#: At most this many per-default drift tables are cached per cut (like
#: the compiled set's baselines: asks mixing unboundedly many defaults
#: recompute past the cap instead of growing the cache).
_MAX_DRIFT_CACHE = 32


class NonUniformError(ReproError, ValueError):
    """Raised when lifting a valuation that is not uniform on a VVS."""


class Valuation:
    """A (partial) assignment of numeric values to variables.

    Unassigned variables default to ``default`` (1.0, i.e., a
    multiplicative scenario that leaves the parameter unchanged).

    >>> v = Valuation({"m1": 0.8, "m3": 0.8})
    >>> v["m1"], v["p1"]
    (0.8, 1.0)
    """

    __slots__ = ("assignment", "default")

    def __init__(self, assignment=None, default=1.0):
        self.assignment = dict(assignment) if assignment else {}
        self.default = default

    @classmethod
    def uniform(cls, variables, value, default=1.0):
        """Assign ``value`` to every variable in ``variables``."""
        return cls({var: value for var in variables}, default=default)

    @classmethod
    def coerce(cls, value, default=1.0):
        """Normalize a scenario-like object to a :class:`Valuation`.

        Accepts a :class:`Valuation` (returned unchanged, its own
        default wins), anything with a callable ``valuation(default)``
        method (e.g. :class:`~repro.scenarios.scenario.Scenario`),
        Valuation-shaped objects (an ``assignment`` mapping attribute,
        optionally a ``default``), or a plain variable→value mapping.

        >>> Valuation.coerce({"m1": 0.8})["m1"]
        0.8
        """
        if isinstance(value, cls):
            return value
        valuation = getattr(value, "valuation", None)
        if callable(valuation):
            return valuation(default)
        mapping = getattr(value, "assignment", None)
        if mapping is not None:
            return cls(mapping, default=getattr(value, "default", default))
        return cls(value, default=default)

    def __getitem__(self, variable):
        return self.assignment.get(variable, self.default)

    def __contains__(self, variable):
        return variable in self.assignment

    def set(self, variable, value):
        """Assign ``value`` to ``variable`` (chainable)."""
        self.assignment[variable] = value
        return self

    def evaluate(self, polynomials):
        """Value(s) of a polynomial or multiset under this valuation."""
        if isinstance(polynomials, Polynomial):
            return polynomials.evaluate(self.assignment, self.default)
        if isinstance(polynomials, PolynomialSet):
            return polynomials.evaluate(self.assignment, self.default)
        raise TypeError(f"expected Polynomial(Set), got {type(polynomials).__name__}")

    # ------------------------------------------------- abstraction interface

    def is_uniform_on(self, vvs):
        """True iff all leaves below each chosen node share one value.

        Checked on the cut's
        :meth:`~repro.core.forest.ValidVariableSet.lift_index`, over the
        groups this valuation touches only.
        """
        return vvs.lift_index().is_uniform(self.assignment, self.default)

    def lift(self, vvs):
        """The valuation on meta-variables induced by this one.

        Each chosen node gets the (unique) value of its group's leaves.
        Raises :class:`NonUniformError` if the valuation is not uniform
        on the VVS — in that case abstraction genuinely loses the
        scenario and there is no faithful lifting. Uniformity is checked
        while lifting, on the cut's
        :meth:`~repro.core.forest.ValidVariableSet.lift_index`, so
        calling this and catching the error costs one pass over the
        touched groups, where checking first costs two.
        """
        lifted = vvs.lift_index().lift(self.assignment, self.default)
        return Valuation(lifted, default=self.default)

    def __repr__(self):
        return f"Valuation({self.assignment!r}, default={self.default!r})"


class LiftIndex:
    """One cut's lift tables, and the three lift operations on them.

    Lifting a valuation onto a VVS (§2.3) is defined group by group:
    every chosen label takes the value — or, approximately, the mean —
    of the leaves below it. A valuation that assigns no leaf of a group
    leaves it all-default: uniform, and lifted to the default, which
    the lifted valuation leaves implicit. So the operations behind
    :meth:`Valuation.is_uniform_on`, :meth:`Valuation.lift` and
    :func:`~repro.scenarios.analysis.approximate_lift` only visit the
    groups a valuation *touches*, found in O(changed variables), where
    their definition walks every group of the cut. The answers are the
    definition's, to the bit. The tables:

    * ``_groups`` — chosen label → its leaves, a tuple in
      :meth:`~repro.core.forest.ValidVariableSet.group` order;
    * ``_label_of`` — leaf → the meta-variable above it, for every leaf
      the cut abstracts;
    * ``_kept`` — the chosen labels that are leaves: each is its own
      one-leaf group and lifts to its own value;
    * ``_drift`` — per default, the groups whose all-default mean is
      not exactly the default (see :meth:`_drifted`).

    Built lazily by
    :meth:`~repro.core.forest.ValidVariableSet.lift_index`; it holds
    the tables only, never an artifact or the valuations it lifts.
    """

    __slots__ = ("_groups", "_label_of", "_kept", "_drift")

    def __init__(self, vvs):
        self._groups = {label: tuple(vvs.group(label)) for label in vvs.labels}
        self._label_of = {
            leaf: label
            for label, group in self._groups.items()
            for leaf in group
            if leaf != label
        }
        self._kept = frozenset(
            label for label, group in self._groups.items() if group == (label,)
        )
        self._drift = {}

    def is_uniform(self, assignment, default):
        """:meth:`Valuation.is_uniform_on` for ``assignment`` over ``default``."""
        for label in self._touched(assignment):
            values = set(map(assignment.get, self._groups[label], repeat(default)))
            if len(values) > 1:
                return False
        return True

    def lift(self, assignment, default):
        """:meth:`Valuation.lift`'s assignment; raises :class:`NonUniformError`."""
        groups = self._groups
        meta = {}
        # An untouched group lifts to `default`, which stays implicit —
        # unless `default` differs from itself (NaN) and must be spelled.
        for label in self._touched(assignment) if default == default else groups:
            values = set(map(assignment.get, groups[label], repeat(default)))
            if len(values) > 1:
                raise NonUniformError(
                    f"leaves of {label!r} receive distinct values {sorted(values)}"
                )
            (value,) = values
            if value != default:
                meta[label] = value
        # Abstracted leaves give way to their meta-variable; a kept leaf
        # keeps its value unless that is the default.
        label_of, kept = self._label_of, self._kept
        lifted = {
            var: value
            for var, value in assignment.items()
            if var not in label_of and (value != default or var not in kept)
        }
        lifted.update(meta)
        return lifted

    def approximate(self, assignment, default):
        """:func:`~repro.scenarios.analysis.approximate_lift`'s assignment."""
        groups, label_of, kept = self._groups, self._label_of, self._kept
        lifted = {
            var: value
            for var, value in assignment.items()
            if var not in label_of and var not in kept
        }
        touched = self._touched(assignment)
        for label in touched:
            group = groups[label]
            mean = sum(map(assignment.get, group, repeat(default))) / len(group)
            if mean != default:
                lifted[label] = mean
        # A kept leaf is its own one-leaf group: the same fold, over one value.
        kept_touched = kept.intersection(assignment)
        for leaf in kept_touched:
            mean = sum([assignment[leaf]]) / 1
            if mean != default:
                lifted[leaf] = mean
        for label, mean in self._drifted(default).items():
            if label not in touched and label not in kept_touched:
                lifted[label] = mean
        return lifted

    def _touched(self, assignment):
        """The meta-variables with an assigned leaf, first-touch order."""
        touched = dict.fromkeys(map(self._label_of.get, assignment))
        touched.pop(None, None)  # kept leaves and variables outside the cut
        return touched

    def _drifted(self, default):
        """``{label: mean}`` of the all-``default`` groups whose mean is
        not exactly ``default``.

        The mean is the approximate lift's fold, ``sum([default] * n) /
        n``: exactly ``default`` for most values, but floating-point
        summation can drift for some (``0.1`` over three leaves), and
        the approximate lift carries the drifted mean of every untouched
        group. Cached per default, for at most :data:`_MAX_DRIFT_CACHE`
        defaults.
        """
        drift = self._drift.get(default)
        if drift is None:
            means = {}
            drift = {}
            for label, group in self._groups.items():
                size = len(group)
                if size not in means:
                    means[size] = sum([default] * size) / size
                if means[size] != default:
                    drift[label] = means[size]
            if len(self._drift) < _MAX_DRIFT_CACHE:
                self._drift[default] = drift
        return drift
