"""Applying abstractions and measuring their losses (§2.3, §4.1).

Central notions:

* ``abstract(P, S)`` — the abstracted provenance ``P↓S``.
* ``monomial_loss`` / ``variable_loss`` — the paper's ``ML``/``VL``:
  ``ML_P(S) = |P|_M − |P↓S|_M`` and ``VL_P(S) = |P|_V − |P↓S|_V``.
* :class:`LossIndex` — the §4.1 optimization: a single pass over the
  polynomials builds, for every leaf ``l`` of a tree and polynomial
  ``P``, the set ``D_P[l]`` of *residual* monomials (the monomial with
  ``l`` replaced by a sentinel that preserves the exponent). The
  monomial loss of any tree node ``v`` with descendant leaves
  ``l₀..l_m`` is then ``Σ_P (Σᵢ|D_P[lᵢ]| − |⋃ᵢ D_P[lᵢ]|)`` — computed
  bottom-up for *all* nodes without re-traversing the polynomials.

Every operation here runs on the set's columnar view
(:mod:`repro.core.columnar`). :func:`abstract` is the one
implementation of ``P↓S``: a single :class:`Polynomial` abstracts as a
one-polynomial set, and :meth:`ValidVariableSet.apply
<repro.core.forest.ValidVariableSet.apply>` calls it, so every path
gives the same coefficients, bit for bit.

Single-tree additivity (the key insight behind Algorithm 1): because a
compatible monomial holds at most one variable of the tree, the sets of
monomials merged by incomparable nodes are disjoint, so ``ML``/``VL`` of
a cut is the *sum* of per-node losses. This does **not** hold across
multiple trees (Example 15) — the greedy algorithm therefore maintains
a working state instead (see :mod:`repro.algorithms.greedy`).
"""

from __future__ import annotations

from repro.core.forest import ValidVariableSet
from repro.core.interning import VARIABLES
from repro.core.polynomial import Polynomial, PolynomialSet

__all__ = [
    "abstract",
    "monomial_loss",
    "variable_loss",
    "losses",
    "abstract_counts",
    "LossIndex",
]


def ensure_set(polynomials):
    """Normalize a :class:`Polynomial` to a singleton :class:`PolynomialSet`."""
    if isinstance(polynomials, PolynomialSet):
        return polynomials
    if isinstance(polynomials, Polynomial):
        return PolynomialSet([polynomials])
    raise TypeError(f"expected Polynomial(Set), got {type(polynomials).__name__}")


def abstract(polynomials, vvs):
    """Compute ``P↓S`` for a polynomial or a multiset of polynomials.

    A multiset abstracts by the vectorized id-remap + row-grouping
    path of :meth:`ColumnarMultiset.substitute
    <repro.core.columnar.ColumnarMultiset.substitute>`, arrays to
    arrays: the result is a :class:`PolynomialSet` backed by the
    abstracted multiset, whose ``Polynomial`` objects are built only
    if it is iterated. A single :class:`Polynomial` abstracts as the
    one-polynomial set and returns its one polynomial, so it gets the
    coefficients it gets inside any set.

    >>> from repro.core.parser import parse
    >>> from repro.core.tree import AbstractionTree
    >>> from repro.core.forest import AbstractionForest
    >>> tree = AbstractionTree.from_nested(("q1", ["m1", "m3"]))
    >>> vvs = AbstractionForest([tree]).root_vvs()
    >>> str(abstract(parse("2*m1*x + 3*m3*x"), vvs))
    '5*q1*x'
    """
    if not isinstance(vvs, ValidVariableSet):
        raise TypeError(f"expected ValidVariableSet, got {type(vvs).__name__}")
    id_mapping = VARIABLES.intern_mapping(vvs.mapping())
    abstracted = PolynomialSet.from_columnar(
        ensure_set(polynomials).columnar().substitute(id_mapping)
    )
    if isinstance(polynomials, PolynomialSet):
        return abstracted
    return abstracted[0]


def losses(polynomials, vvs):
    """``(ML_P(S), VL_P(S))`` from a single counting pass.

    :func:`monomial_loss` and :func:`variable_loss` each run the same
    ``abstract_counts`` pass and discard half of it — callers needing
    both measures should use this combined form.
    """
    polynomials = ensure_set(polynomials)
    size, granularity = abstract_counts(polynomials, vvs.mapping())
    return (
        polynomials.num_monomials - size,
        polynomials.num_variables - granularity,
    )


def monomial_loss(polynomials, vvs):
    """``ML_P(S) = |P|_M − |P↓S|_M`` (Example 6: ML(S1)=4, ML(S5)=6)."""
    return losses(polynomials, vvs)[0]


def variable_loss(polynomials, vvs):
    """``VL_P(S) = |P|_V − |P↓S|_V`` (Example 6: VL(S1)=2, VL(S5)=3)."""
    return losses(polynomials, vvs)[1]


def abstract_counts(polynomials, mapping):
    """``(|P↓S|_M, |P↓S|_V)`` without materializing ``P↓S``.

    ``mapping`` is a leaf→representative dict as produced by
    :meth:`repro.core.forest.ValidVariableSet.mapping`; the counts come
    from a vectorized id-remap and exact row grouping over the set's
    columnar view. They are structural: an upper bound on the sizes of
    :func:`abstract`'s result, equal to them unless merged coefficients
    cancel (a zero sum still counts here, and ``P↓S`` drops it).
    """
    polynomials = ensure_set(polynomials)
    id_mapping = VARIABLES.intern_mapping(mapping)
    return polynomials.columnar().substituted_counts(id_mapping)


class LossIndex:
    """Per-node ``ML``/``VL`` for one abstraction tree (§4.1).

    Built in a single pass over the polynomials plus one bottom-up tree
    traversal. For every node label ``v`` it records:

    * ``ml(v)`` — monomials lost by abstracting exactly the subtree of
      ``v`` into ``v`` (i.e., by the VVS that picks ``v`` and leaves the
      rest of the tree at its leaves);
    * ``vl(v)`` — variables lost by the same choice:
      ``max(0, (#leaves under v occurring in P) − 1)``;
    * ``leaves_present(v)`` — how many leaves under ``v`` occur in ``P``.

    Because of single-tree additivity, for any cut ``C`` of the tree,
    ``ML(C) = Σ_{v∈C} ml(v)`` and ``VL(C) = Σ_{v∈C} vl(v)`` — exposed as
    :meth:`ml_of_cut` / :meth:`vl_of_cut`.

    >>> from repro.core.parser import parse_set
    >>> from repro.core.tree import AbstractionTree
    >>> polys = parse_set(["2*b1*m1 + 3*b1*m3 + 4*b2*m1 + 5*b2*m3 + 6*e*m1"])
    >>> tree = AbstractionTree.from_nested(("B", [("SB", ["b1", "b2"]), "e"]))
    >>> index = LossIndex(polys, tree)
    >>> index.ml("SB")          # b1/b2 pairs on m1 and on m3 merge
    2
    >>> index.ml("B")           # plus the e*m1 / SB*m1 merge
    3
    >>> index.vl("SB"), index.vl("B")
    (1, 2)
    """

    __slots__ = ("tree", "_ml", "_vl", "_present", "_leaf_count")

    def __init__(self, polynomials, tree):
        """One vectorized pass over the factor arrays.

        Residual classes are formed by exact row grouping of the
        ``[poly, member exponent, rest-of-monomial]`` matrices; the
        per-node distinct-residual counts come from an Euler-ordered
        leaf numbering: every node covers a contiguous leaf interval,
        and a ``(leaf, class)`` pair is a duplicate inside the interval
        exactly when its previous same-class occurrence also falls in
        it — a ``searchsorted`` range plus one comparison per pair
        instead of per-monomial ``set()`` unions.
        """
        import numpy

        from repro.core.columnar import run_starts, unique_row_ids

        polynomials = ensure_set(polynomials)
        self.tree = tree
        self._ml = {}
        self._vl = {}
        self._present = {}
        self._leaf_count = {}
        cm = polynomials.columnar()
        ordered_leaves = [node.label for node in tree.leaves]
        leaf_ids = [VARIABLES.intern(label) for label in ordered_leaves]
        position_of_label = {
            label: pos for pos, label in enumerate(ordered_leaves)
        }
        top = max([cm.max_vid()] + leaf_ids)
        is_leaf = numpy.zeros(top + 2, dtype=bool)
        pos_of_vid = numpy.full(top + 2, -1, dtype=numpy.intp)
        if leaf_ids:
            ids = numpy.asarray(leaf_ids, dtype=numpy.intp)
            is_leaf[ids] = True
            pos_of_vid[ids] = numpy.arange(len(leaf_ids), dtype=numpy.intp)

        frows = cm.factor_rows()
        hits = numpy.flatnonzero(is_leaf[cm.vids])
        # First leaf in key order per row (compatibility: at most one
        # per monomial).
        member_flat = hits[run_starts(frows[hits])]
        entry_rows = frows[member_flat]
        entries = len(member_flat)
        member_exp = cm.exps[member_flat]

        # Residual matrix: [poly, member exp, remaining factors padded].
        rest_len = cm.row_lengths[entry_rows] - 1
        width = int(rest_len.max()) if entries else 0
        matrix = numpy.empty((entries, 2 + 2 * width), dtype=numpy.int64)
        matrix[:, 0] = cm.row_poly[entry_rows]
        matrix[:, 1] = member_exp
        if width:
            matrix[:, 2::2] = -2
            matrix[:, 3::2] = 0
            entry_of_row = numpy.full(cm.num_monomials, -1, dtype=numpy.intp)
            entry_of_row[entry_rows] = numpy.arange(entries, dtype=numpy.intp)
            pos_in_row = cm.factor_positions()
            member_pos = numpy.zeros(cm.num_monomials, dtype=numpy.intp)
            member_pos[entry_rows] = pos_in_row[member_flat]
            factor_entry = entry_of_row[frows]
            rest = numpy.flatnonzero(factor_entry >= 0)
            is_member = numpy.zeros(len(cm.vids), dtype=bool)
            is_member[member_flat] = True
            rest = rest[~is_member[rest]]
            slot = pos_in_row[rest] - (
                pos_in_row[rest] > member_pos[frows[rest]]
            )
            matrix[factor_entry[rest], 2 + 2 * slot] = cm.vids[rest]
            matrix[factor_entry[rest], 3 + 2 * slot] = cm.exps[rest]
        classes, num_classes = unique_row_ids(matrix)

        # Deduplicated (leaf position, class) pairs in leaf-major order.
        scale = max(num_classes, 1)
        pair_keys = numpy.unique(
            pos_of_vid[cm.vids[member_flat]].astype(numpy.int64) * scale
            + classes
        )
        pair_pos = pair_keys // scale
        pair_cls = pair_keys % scale
        # Previous same-class pair (as a leaf-major index, -1 if none):
        # a pair is a duplicate within an interval starting at ``s``
        # exactly when prev >= s.
        previous = numpy.full(len(pair_keys), -1, dtype=numpy.int64)
        by_class = numpy.lexsort((pair_pos, pair_cls))
        if len(pair_keys) > 1:
            same = pair_cls[by_class][1:] == pair_cls[by_class][:-1]
            previous[by_class[1:]] = numpy.where(same, by_class[:-1], -1)
        occupied = numpy.unique(pair_pos)

        # Bottom-up: every node covers a contiguous leaf interval.
        intervals = {}
        stack = [(tree.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
                continue
            label = node.label
            if node.is_leaf:
                lo = position_of_label[label]
                hi = lo + 1
                self._ml[label] = 0
                self._leaf_count[label] = 1
            else:
                lo = min(intervals[child.label][0] for child in node.children)
                hi = max(intervals[child.label][1] for child in node.children)
                start, stop = numpy.searchsorted(pair_pos, (lo, hi))
                self._ml[label] = int(
                    numpy.count_nonzero(previous[start:stop] >= start)
                )
                self._leaf_count[label] = hi - lo
            intervals[label] = (lo, hi)
            left, right = numpy.searchsorted(occupied, (lo, hi))
            self._present[label] = int(right - left)
            self._vl[label] = max(0, self._present[label] - 1)

    # ------------------------------------------------------------- queries

    def ml(self, label):
        """Monomial loss of abstracting the subtree of ``label`` into it."""
        return self._ml[label]

    def vl(self, label):
        """Variable loss of abstracting the subtree of ``label`` into it."""
        return self._vl[label]

    def leaves_present(self, label):
        """How many leaves under ``label`` occur in the polynomials."""
        return self._present[label]

    def leaf_count(self, label):
        """How many leaves the subtree of ``label`` holds (present or not)."""
        return self._leaf_count[label]

    def ml_of_cut(self, labels):
        """``ML`` of a cut of this tree (single-tree additivity)."""
        return sum(self._ml[label] for label in labels)

    def vl_of_cut(self, labels):
        """``VL`` of a cut of this tree (single-tree additivity)."""
        return sum(self._vl[label] for label in labels)

    @property
    def max_ml(self):
        """The largest achievable monomial loss (the root's)."""
        return self._ml[self.tree.root.label]
