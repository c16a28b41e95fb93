"""Hypothetical scenarios: named, composable parameter changes.

A scenario is a multiplicative change to scenario variables — "what if
the ppm of all plans decreased by 20% in March?" is
``Scenario("march-discount", {"m3": 0.8})``. Applying a scenario to a
provenance polynomial (rather than re-running the query) is the whole
point of provisioning (§1).
"""

from __future__ import annotations

import sys
import warnings

from repro.core.valuation import Valuation

__all__ = ["Scenario", "ScenarioOverlapWarning", "ScenarioSuite"]


class ScenarioOverlapWarning(UserWarning):
    """Both sides of a :meth:`Scenario.compose` change the same variable."""


class Scenario:
    """A named assignment of multipliers to scenario variables.

    >>> s = Scenario("q1-discount", {"m1": 0.8, "m2": 0.8, "m3": 0.8})
    >>> s.valuation()["m2"]
    0.8
    """

    __slots__ = ("name", "changes")

    def __init__(self, name, changes):
        self.name = str(name)
        self.changes = dict(changes)

    @classmethod
    def from_json(cls, entry, index):
        """The scenario a decoded JSON ``entry`` describes — the one
        reader of scenario JSON, behind ``repro ask --suite`` and the
        service's ask bodies alike.

        ``entry`` is an object with a ``"changes"`` mapping of variable
        names to finite numbers and an optional string ``"name"``
        (default ``scenario-<index>``, also for ``null``); an object
        with neither key is the changes itself. Anything else raises :class:`ValueError`
        naming the entry's ``index``: a number must be finite and not a
        boolean, so a misspelt value never reaches the evaluator.

        >>> Scenario.from_json({"changes": {"m3": 0.8}}, 2)
        Scenario('scenario-2', 1 changes)
        >>> Scenario.from_json({"m3": True}, 0)
        Traceback (most recent call last):
        ValueError: scenario #0: "changes" must map variable names to finite numbers
        """
        if not isinstance(entry, dict):
            changes = None
        else:
            changes = entry.get("changes", entry if "name" not in entry else None)
        if not isinstance(changes, dict):
            raise ValueError(
                f'scenario #{index} must be an object with a "changes" '
                'mapping (and an optional "name")'
            )
        if not all(
            isinstance(variable, str)
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            # NaN, ±inf and ints past the float range all fail this.
            and abs(value) <= sys.float_info.max
            for variable, value in changes.items()
        ):
            raise ValueError(
                f'scenario #{index}: "changes" must map variable names to '
                "finite numbers"
            )
        name = entry.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f'scenario #{index}: "name" must be a string')
        return cls(name if name is not None else f"scenario-{index}", changes)

    @classmethod
    def uniform(cls, name, variables, multiplier):
        """The same multiplier on every listed variable.

        >>> Scenario.uniform("all-up", ["a", "b"], 1.1).changes
        {'a': 1.1, 'b': 1.1}
        """
        return cls(name, {var: multiplier for var in variables})

    def valuation(self, default=1.0):
        """The scenario as a :class:`~repro.core.valuation.Valuation`."""
        return Valuation(self.changes, default=default)

    def compose(self, other, name=None):
        """Apply both scenarios, left then right.

        Variables changed by only one side keep that side's multiplier.
        On overlap the multipliers **multiply** — ``other`` never
        overwrites ``self``; composing "March −20%" (0.8) with "March
        −50%" (0.5) yields 0.4, not 0.5. Because a combined multiplier
        is easy to misread as an override, every overlapping variable
        triggers a :class:`ScenarioOverlapWarning` naming it.

        >>> import warnings
        >>> with warnings.catch_warnings():
        ...     warnings.simplefilter("ignore", ScenarioOverlapWarning)
        ...     Scenario("a", {"x": 0.8}).compose(Scenario("b", {"x": 0.5}))
        Scenario('a+b', 1 changes)
        """
        overlap = sorted(var for var in other.changes if var in self.changes)
        if overlap:
            warnings.warn(
                f"composing {self.name!r} with {other.name!r}: both change "
                f"{', '.join(overlap)} — the multipliers multiply "
                "(they do not override)",
                ScenarioOverlapWarning,
                stacklevel=2,
            )
        changes = dict(self.changes)
        for var, multiplier in other.changes.items():
            changes[var] = changes.get(var, 1.0) * multiplier
        return Scenario(name or f"{self.name}+{other.name}", changes)

    def evaluate(self, polynomials):
        """Value(s) of the provenance under this scenario."""
        return self.valuation().evaluate(polynomials)

    def is_supported_by(self, vvs):
        """Can the abstracted provenance answer this scenario exactly?

        True iff the scenario is uniform on every group of the VVS —
        the formal version of "the abstraction supports the anticipated
        hypothetical scenarios".
        """
        return self.valuation().is_uniform_on(vvs)

    def lift(self, vvs, default=1.0):
        """The scenario on meta-variables (raises if unsupported)."""
        return self.valuation(default).lift(vvs)

    def __repr__(self):
        return f"Scenario({self.name!r}, {len(self.changes)} changes)"


class ScenarioSuite:
    """An ordered collection of scenarios evaluated together.

    The paper's use case sends compressed provenance to analysts who
    each run *multiple* scenarios — suites are what the Figure 10
    assignment-speedup experiment times.
    """

    __slots__ = ("scenarios",)

    def __init__(self, scenarios=None):
        self.scenarios = list(scenarios) if scenarios else []

    def add(self, scenario):
        self.scenarios.append(scenario)
        return self

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self):
        return len(self.scenarios)

    def evaluate(self, polynomials):
        """``{scenario name: value(s)}`` over the provenance."""
        return {s.name: s.evaluate(polynomials) for s in self.scenarios}

    def supported_by(self, vvs):
        """The sub-suite the abstraction answers exactly."""
        return ScenarioSuite([s for s in self.scenarios if s.is_supported_by(vvs)])
