"""Abstraction forests and valid variable sets (§2.2–§2.3).

A *valid abstraction forest* is a set of abstraction trees with pairwise
disjoint label sets. A *valid variable set* (VVS, Definition 4) ``S``
picks, for every leaf, exactly one ancestor-or-self — i.e., a cut in
each tree. Abstracting ``P`` by ``S`` (written ``P↓S``) substitutes each
leaf variable by its chosen ancestor.
"""

from __future__ import annotations

from repro.core.tree import AbstractionTree
from repro.core.valuation import LiftIndex
from repro.errors import ReproError

__all__ = ["AbstractionForest", "ValidVariableSet", "CompatibilityError"]


class CompatibilityError(ReproError, ValueError):
    """Raised when a forest is not compatible with a polynomial set."""


class AbstractionForest:
    """A set of abstraction trees with disjoint label sets.

    >>> plans = AbstractionTree.from_nested(("P", [("SB", ["b1", "b2"]), "e"]))
    >>> months = AbstractionTree.from_nested(("Y", ["m1", "m3"]))
    >>> forest = AbstractionForest([plans, months])
    >>> forest.count_cuts()
    6
    """

    __slots__ = ("trees", "_owner")

    def __init__(self, trees):
        self.trees = list(trees)
        self._owner = {}
        for index, tree in enumerate(self.trees):
            if not isinstance(tree, AbstractionTree):
                raise TypeError(f"expected AbstractionTree, got {type(tree).__name__}")
            for label in tree.labels:
                if label in self._owner:
                    raise ValueError(
                        f"label {label!r} appears in more than one tree; "
                        "abstraction forests must be disjoint"
                    )
                self._owner[label] = index

    # -------------------------------------------------------------- queries

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)

    def __contains__(self, label):
        return label in self._owner

    @property
    def labels(self):
        """``V(T)`` — all labels across the forest."""
        return set(self._owner)

    @property
    def leaf_labels(self):
        """Union of the trees' leaf label sets."""
        out = set()
        for tree in self.trees:
            out.update(tree.leaf_labels)
        return out

    def tree_of(self, label):
        """The tree containing ``label`` (KeyError if absent)."""
        return self.trees[self._owner[label]]

    def is_descendant(self, lower, upper):
        """``lower ≤_T upper`` across the forest."""
        if lower not in self._owner or upper not in self._owner:
            return False
        if self._owner[lower] != self._owner[upper]:
            return False
        return self.tree_of(lower).is_descendant(lower, upper)

    # -------------------------------------------------------- compatibility

    def check_compatible(self, polynomials):
        """Raise :class:`CompatibilityError` unless compatible (§2.2).

        Compatibility requires: (1) every leaf label occurs as a variable
        of the polynomials, (2) no internal (meta-variable) label occurs
        in the polynomials, and (3) every monomial contains at most one
        node of each tree.
        """
        variables = polynomials.variables
        for tree in self.trees:
            missing = tree.leaf_labels - variables
            if missing:
                raise CompatibilityError(
                    f"leaves {sorted(missing)} do not occur in the polynomials; "
                    "call forest.clean(polynomials) first (paper footnote 1)"
                )
            internal = tree.labels - tree.leaf_labels
            clashing = internal & variables
            if clashing:
                raise CompatibilityError(
                    f"meta-variables {sorted(clashing)} occur in the polynomials"
                )
        for polynomial in polynomials:
            for monomial in polynomial.monomials:
                per_tree = {}
                for var in monomial.variables:
                    index = self._owner.get(var)
                    if index is None:
                        continue
                    per_tree[index] = per_tree.get(index, 0) + 1
                    if per_tree[index] > 1:
                        raise CompatibilityError(
                            f"monomial {monomial} contains more than one node of "
                            f"tree rooted at {self.trees[index].root.label!r}"
                        )

    def is_compatible(self, polynomials):
        """Boolean form of :meth:`check_compatible`."""
        try:
            self.check_compatible(polynomials)
        except CompatibilityError:
            return False
        return True

    def clean(self, polynomials):
        """Footnote 1 lifted to forests: clean each tree against ``V(P)``.

        Trees whose leaves all vanish are dropped. Returns a new forest.
        """
        variables = polynomials.variables
        cleaned = []
        for tree in self.trees:
            new_tree = tree.clean(variables)
            if new_tree is not None:
                cleaned.append(new_tree)
        return AbstractionForest(cleaned)

    # -------------------------------------------------------- cut machinery

    def count_cuts(self):
        """Number of VVSs = product of per-tree cut counts."""
        product = 1
        for tree in self.trees:
            product *= tree.count_cuts()
        return product

    def iter_cuts(self):
        """Stream every VVS of the forest (product of per-tree cuts)."""

        def product(trees):
            if not trees:
                yield frozenset()
                return
            head, tail = trees[0], trees[1:]
            for head_cut in head.iter_cuts():
                for tail_cut in product(tail):
                    yield head_cut | tail_cut

        for labels in product(self.trees):
            yield ValidVariableSet(self, labels, _validated=True)

    def leaf_vvs(self):
        """The identity cut (every leaf chosen; nothing abstracted)."""
        return ValidVariableSet(self, frozenset(self.leaf_labels), _validated=True)

    def root_vvs(self):
        """The coarsest cut (every root chosen; maximal abstraction)."""
        return ValidVariableSet(
            self, frozenset(tree.root.label for tree in self.trees), _validated=True
        )

    def vvs(self, labels):
        """Construct a validated :class:`ValidVariableSet` from labels."""
        return ValidVariableSet(self, frozenset(labels))

    def is_valid_vvs(self, labels):
        """True iff ``labels`` forms a cut in every tree (Definition 4)."""
        try:
            ValidVariableSet(self, frozenset(labels))
        except ValueError:
            return False
        return True

    def __repr__(self):
        roots = [tree.root.label for tree in self.trees]
        return f"AbstractionForest(roots={roots!r})"


class ValidVariableSet:
    """A valid variable set (Definition 4): one cut per tree.

    Provides the leaf→representative substitution ``mapping`` and the
    ``apply`` operation computing ``P↓S``.

    >>> tree = AbstractionTree.from_nested(("P", [("SB", ["b1", "b2"]), "e"]))
    >>> forest = AbstractionForest([tree])
    >>> vvs = forest.vvs({"SB", "e"})
    >>> vvs.mapping()
    {'b1': 'SB', 'b2': 'SB'}
    """

    __slots__ = ("forest", "labels", "_mapping", "_lift_index")

    def __init__(self, forest, labels, _validated=False):
        self.forest = forest
        self.labels = frozenset(labels)
        self._mapping = None
        self._lift_index = None
        if not _validated:
            self._validate()

    def _validate(self):
        owner = self.forest._owner
        for label in self.labels:
            if label not in owner:
                raise ValueError(f"label {label!r} is not in the forest")
        for tree in self.forest.trees:
            chosen = self.labels & tree.labels
            # Cover: every leaf has an ancestor-or-self in the set.
            covered = set()
            for label in chosen:
                for leaf in tree.leaves_under(label):
                    if leaf in covered:
                        raise ValueError(
                            f"leaf {leaf!r} is covered twice; "
                            "a VVS must be an antichain"
                        )
                    covered.add(leaf)
            missing = tree.leaf_labels - covered
            if missing:
                raise ValueError(
                    f"leaves {sorted(missing)} of tree {tree.root.label!r} "
                    "are not covered by the VVS"
                )

    def mapping(self):
        """Leaf → chosen-ancestor substitution (identity entries omitted)."""
        if self._mapping is None:
            mapping = {}
            for label in self.labels:
                tree = self.forest.tree_of(label)
                for leaf in tree.leaves_under(label):
                    if leaf != label:
                        mapping[leaf] = label
            self._mapping = mapping
        return self._mapping

    def representative(self, variable):
        """The abstraction of ``variable`` under this VVS.

        Variables outside the forest (or chosen as themselves) map to
        themselves.
        """
        return self.mapping().get(variable, variable)

    def apply(self, polynomials):
        """``P↓S`` — abstract a polynomial (or multiset of polynomials)."""
        return polynomials.substitute(self.mapping())

    def group(self, label):
        """The leaves abstracted by ``label`` (singleton if a leaf)."""
        return self.forest.tree_of(label).leaves_under(label)

    def lift_index(self):
        """This cut's :class:`~repro.core.valuation.LiftIndex`, built on
        first use and cached."""
        if self._lift_index is None:
            self._lift_index = LiftIndex(self)
        return self._lift_index

    # ------------------------------------------------------------- dunder

    def __contains__(self, label):
        return label in self.labels

    def __iter__(self):
        return iter(sorted(self.labels))

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, ValidVariableSet)
            and self.labels == other.labels
            and self.forest is other.forest
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"VVS({sorted(self.labels)!r})"

