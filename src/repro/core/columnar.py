"""Columnar (CSR) view of a polynomial multiset — the compression core.

Every compression operation runs over these flat NumPy arrays:
``abstract_counts``, ``P↓S`` materialization,
:class:`~repro.core.abstraction.LossIndex` (Algorithm 1's per-node
losses) and the greedy working state (Algorithm 2). The batch
evaluator (:class:`repro.core.batch.CompiledPolynomialSet`) compiles
from the same arrays, and abstraction maps arrays to arrays, so
provenance is extracted from ``Polynomial`` objects once and an
abstracted set reaches its ``.rpb`` without any.

* :class:`ColumnarMultiset` — the monomial multiset as flat factor
  arrays: ``vids``/``exps`` hold every ``(variable id, exponent)``
  factor, ``row_starts`` delimits monomial rows, ``poly_starts``
  delimits polynomial runs. Rows are stored in each polynomial's
  *canonical sorted monomial order* — the order of
  ``sorted(Polynomial.terms)``, which ``CompiledPolynomialSet``
  compiles — and the factors of a row in id order (``Monomial.key``).
* vectorized substitution: :meth:`ColumnarMultiset.substituted_counts`
  computes ``(|P↓S|_M, |P↓S|_V)`` and :meth:`ColumnarMultiset.substitute`
  builds ``P↓S`` as another multiset via an id-remap gather, a per-row
  factor sort/merge, and one lexicographic row grouping that is also
  the canonical order — no per-monomial tuple rebuilds. Merged
  coefficients are summed in source row order, so abstracting a subset
  of the polynomials (an extend's delta) gives the same coefficients,
  bit for bit, as abstracting the whole set.
* the §2.2 compatibility check the solvers run up front:
  :meth:`ColumnarMultiset.tree_columns`.
* the shared CSR helpers the columnar algorithms are built on:
  :func:`unique_row_ids` (exact row grouping, the workhorse behind
  collision detection and loss indexing) and :func:`invert_index` /
  :func:`gather_ranges` (the inverted value→row CSR idiom of
  ``repro.core.batch._DeltaIndex``, factored out so the compression
  side reuses the same machinery).

``tests/oracle.py`` restates every one of these operations from the
paper's definitions over plain dicts; the differential suite pins the
columnar core to it.
"""

from __future__ import annotations

import numpy

from repro.core.interning import VARIABLES

__all__ = [
    "ColumnarMultiset",
    "unique_row_ids",
    "run_starts",
    "invert_index",
    "gather_ranges",
]

#: Padding marker for variable-id slots in fixed-width row matrices.
#: Real variable ids are >= 0 and the loss-index sentinel is -1, so -2
#: can never collide with a real factor; padded exponent slots hold 0
#: (real exponents are >= 1).
_PAD_VID = -2


def unique_row_ids(matrix):
    """Group identical rows of a 2-D integer matrix, exactly.

    :returns: ``(ids, count)`` where ``ids[i]`` is the dense group id of
        row ``i`` (ids are assigned in lexicographic row order, so the
        grouping is deterministic) and ``count`` is the number of
        distinct rows. Exact — built on a lexicographic sort of the
        actual row contents, never on hashes.
    """
    rows = matrix.shape[0]
    if rows == 0:
        return numpy.zeros(0, dtype=numpy.intp), 0
    if matrix.shape[1] == 0:
        return numpy.zeros(rows, dtype=numpy.intp), 1
    order = numpy.lexsort(matrix.T[::-1])
    sorted_rows = matrix[order]
    boundary = numpy.empty(rows, dtype=bool)
    boundary[0] = True
    numpy.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=boundary[1:])
    sorted_ids = numpy.cumsum(boundary) - 1
    ids = numpy.empty(rows, dtype=numpy.intp)
    ids[order] = sorted_ids
    return ids, int(sorted_ids[-1]) + 1


def run_starts(values):
    """Start indices of the equal-value runs of a grouped 1-D array.

    ``values`` must already be sorted (or otherwise grouped); the
    result always begins with 0 for non-empty input. The shared form
    of the boundary-scan idiom the columnar algorithms segment their
    sorted keys with.
    """
    if not len(values):
        return numpy.zeros(0, dtype=numpy.intp)
    head = numpy.empty(len(values), dtype=bool)
    head[0] = True
    numpy.not_equal(values[1:], values[:-1], out=head[1:])
    return numpy.flatnonzero(head)


def invert_index(values, minlength, secondary=None):
    """CSR inversion ``value -> positions`` (the ``_DeltaIndex`` idiom).

    ``values`` is a non-negative int array; returns ``(starts, order)``
    with ``order[starts[v]:starts[v + 1]]`` listing the indices ``i``
    with ``values[i] == v`` — the column→monomial inversion
    :class:`repro.core.batch._DeltaIndex` builds for the delta
    evaluation engine, shared here so the compression side indexes
    variables with the same machinery. Within one value the positions
    keep their original order; pass ``secondary`` to sort them by that
    key instead (the delta index sorts by monomial row, so
    single-column plans need no extra sort).
    """
    if secondary is None:
        order = numpy.argsort(values, kind="stable")
    else:
        order = numpy.lexsort((secondary, values))
    counts = numpy.bincount(values, minlength=minlength)
    starts = numpy.zeros(minlength + 1, dtype=numpy.intp)
    numpy.cumsum(counts, out=starts[1:])
    return starts, order.astype(numpy.intp, copy=False)


def gather_ranges(starts, counts):
    """Concatenate the index ranges ``[starts[i], starts[i] + counts[i])``.

    Vectorized (one ``arange`` plus per-range offsets) — the same
    packed-segment gather the delta engine uses for affected polynomial
    runs.
    """
    total = int(counts.sum())
    if total == 0:
        return numpy.zeros(0, dtype=numpy.intp)
    offsets = numpy.zeros(len(counts), dtype=numpy.intp)
    numpy.cumsum(counts[:-1], out=offsets[1:])
    return (
        numpy.arange(total, dtype=numpy.intp)
        + numpy.repeat(starts - offsets, counts)
    )


class ColumnarMultiset:
    """A polynomial multiset as flat factor arrays (CSR over monomials).

    Built once per :class:`~repro.core.polynomial.PolynomialSet` (and
    cached there — see :meth:`PolynomialSet.columnar
    <repro.core.polynomial.PolynomialSet.columnar>`), either by
    extracting ``Polynomial`` objects (``__init__``) or as the output of
    :meth:`substitute`; rows run in each polynomial's canonical sorted
    monomial order, the order the batch evaluator compiles, and no
    polynomial holds two equal rows or a zero coefficient.
    """

    __slots__ = (
        "num_polynomials",
        "num_monomials",
        "vids",
        "exps",
        "row_starts",
        "row_poly",
        "poly_starts",
        "coeffs",
        "_factor_rows",
    )

    def __init__(self, polynomial_set):
        """Extract the polynomials of ``polynomial_set`` into arrays.

        The one extraction loop from ``Polynomial`` objects: every other
        multiset is derived from arrays (:meth:`substitute`,
        :meth:`extend`, :meth:`from_arrays`).
        """
        vids = []
        exps = []
        row_starts = [0]
        poly_starts = [0]
        #: Exact coefficients in row order (Python objects — Fractions
        #: and ints survive untouched; only counting uses the arrays).
        coeffs = []
        for polynomial in polynomial_set:
            for coeff, monomial in polynomial:
                coeffs.append(coeff)
                for vid, exp in monomial.key:
                    vids.append(vid)
                    exps.append(exp)
                row_starts.append(len(vids))
            poly_starts.append(len(coeffs))
        self._adopt(
            numpy.asarray(vids, dtype=numpy.intp),
            numpy.asarray(exps, dtype=numpy.int64),
            numpy.asarray(row_starts, dtype=numpy.intp),
            numpy.asarray(poly_starts, dtype=numpy.intp),
            coeffs,
        )

    @classmethod
    def from_arrays(cls, vids, exps, row_starts, poly_starts, coeffs):
        """Adopt prebuilt CSR factor arrays in the layout of the class.

        The arrays are taken as they are (read-only views too —
        :meth:`extend` concatenates into fresh arrays); the coefficient
        list is copied.
        """
        self = object.__new__(cls)
        self._adopt(
            numpy.asarray(vids, dtype=numpy.intp),
            numpy.asarray(exps, dtype=numpy.int64),
            numpy.asarray(row_starts, dtype=numpy.intp),
            numpy.asarray(poly_starts, dtype=numpy.intp),
            list(coeffs),
        )
        return self

    def _adopt(self, vids, exps, row_starts, poly_starts, coeffs):
        self.vids = vids
        self.exps = exps
        self.row_starts = row_starts
        self.poly_starts = poly_starts
        self.num_polynomials = len(poly_starts) - 1
        self.num_monomials = len(row_starts) - 1
        self.row_poly = numpy.repeat(
            numpy.arange(self.num_polynomials, dtype=numpy.intp),
            numpy.diff(poly_starts),
        )
        self.coeffs = coeffs
        self._factor_rows = None

    def copy(self):
        """An independent copy: its own arrays (writable, whatever
        buffers this one views) and its own coefficient list."""
        return ColumnarMultiset.from_arrays(
            self.vids.copy(), self.exps.copy(), self.row_starts.copy(),
            self.poly_starts.copy(), self.coeffs,
        )

    def extend(self, other):
        """Append the rows of the multiset ``other`` in place.

        The one concatenation routine: polynomials never share rows, so
        a multiset extended by ``other`` is array-identical to one
        extracted from the concatenated polynomials — the invariant the
        incremental artifact pipeline (``ProvenanceSession.extend``) is
        pinned on. Callers must append the same polynomials to the
        owning :class:`~repro.core.polynomial.PolynomialSet` (done by
        :meth:`PolynomialSet.extend
        <repro.core.polynomial.PolynomialSet.extend>`).
        """
        if not other.num_polynomials:
            return
        self.row_starts = numpy.concatenate(
            [self.row_starts, other.row_starts[1:] + len(self.vids)]
        )
        self.vids = numpy.concatenate([self.vids, other.vids])
        self.exps = numpy.concatenate([self.exps, other.exps])
        self.poly_starts = numpy.concatenate(
            [self.poly_starts, other.poly_starts[1:] + self.num_monomials]
        )
        self.row_poly = numpy.concatenate(
            [self.row_poly, other.row_poly + self.num_polynomials]
        )
        self.coeffs.extend(other.coeffs)
        self.num_polynomials += other.num_polynomials
        self.num_monomials += other.num_monomials
        self._factor_rows = None

    def to_polynomial_set(self):
        """Materialize the multiset as a ``PolynomialSet`` of objects.

        The inverse of ``__init__`` and the one path from arrays to
        ``Polynomial`` objects: each row becomes a Monomial (built once
        per distinct key) with its coefficient. Rows are canonical, so
        no merging is needed.
        """
        from repro.core.polynomial import Monomial, Polynomial, PolynomialSet

        vid_list = self.vids.tolist()
        exp_list = self.exps.tolist()
        starts = self.row_starts.tolist()
        poly_starts = self.poly_starts.tolist()
        coeffs = self.coeffs
        cache = {}
        polynomials = []
        for p in range(self.num_polynomials):
            terms = {}
            for row in range(poly_starts[p], poly_starts[p + 1]):
                lo, hi = starts[row], starts[row + 1]
                key = tuple(zip(vid_list[lo:hi], exp_list[lo:hi], strict=True))
                monomial = cache.get(key)
                if monomial is None:
                    monomial = cache[key] = Monomial._from_key(key)
                terms[monomial] = coeffs[row]
            polynomials.append(Polynomial._raw(terms))
        return PolynomialSet(polynomials)

    # ------------------------------------------------------------ derived

    @property
    def row_lengths(self):
        """Factors per monomial row."""
        return numpy.diff(self.row_starts)

    def factor_rows(self):
        """Row index of every factor (cached)."""
        rows = self._factor_rows
        if rows is None:
            rows = numpy.repeat(
                numpy.arange(self.num_monomials, dtype=numpy.intp),
                self.row_lengths,
            )
            self._factor_rows = rows
        return rows

    def max_vid(self):
        """The largest variable id present (-1 for a variable-free set)."""
        return int(self.vids.max()) if self.vids.size else -1

    def variable_ids(self):
        """``V(P)`` as a frozenset of interned ids."""
        return frozenset(numpy.unique(self.vids).tolist())

    def factor_positions(self):
        """Position of every factor within its row (0-based)."""
        return (
            numpy.arange(len(self.vids), dtype=numpy.intp)
            - numpy.repeat(self.row_starts[:-1], self.row_lengths)
        )

    # ------------------------------------------------------ compatibility

    def tree_columns(self, forest):
        """The tree of every factor, after the §2.2 compatibility check.

        Conditions 2 and 3 of §2.2 in one vectorized pass: no factor is
        a meta-variable (an internal node) of the forest, and no
        monomial holds two nodes of one tree. Condition 1 (every leaf
        occurs) is the caller's — the solvers clean the forest first.

        :returns: ``(tree_of, in_tree)`` — ``tree_of[vid]`` is the index
            of the tree holding variable ``vid`` (-1 when free), over
            every id interned so far (the forest's labels included);
            ``in_tree`` is ``tree_of`` gathered per factor.
        :raises CompatibilityError: naming the first offending monomial
            and its tree.
        """
        intern = VARIABLES.intern
        labels = [
            (index, intern(label), bool(node.children))
            for index, tree in enumerate(forest.trees)
            for label, node in tree.nodes.items()
        ]
        tree_of = numpy.full(len(VARIABLES), -1, dtype=numpy.intp)
        internal = numpy.zeros(len(VARIABLES), dtype=bool)
        for index, vid, has_children in labels:
            tree_of[vid] = index
            internal[vid] = has_children
        in_tree = tree_of[self.vids]

        meta = numpy.flatnonzero(internal[self.vids])
        if len(meta):
            factor = int(meta[0])
            self._incompatible(
                forest, factor,
                f"contains meta-variable {VARIABLES.name(int(self.vids[factor]))!r}",
            )
        tree_sel = numpy.flatnonzero(in_tree >= 0)
        if len(tree_sel):
            membership = (
                self.factor_rows()[tree_sel] * len(forest.trees)
                + in_tree[tree_sel]
            )
            order = numpy.argsort(membership, kind="stable")
            repeated = numpy.flatnonzero(
                membership[order][1:] == membership[order][:-1]
            )
            if len(repeated):
                self._incompatible(
                    forest, int(tree_sel[order[repeated[0] + 1]]),
                    "contains more than one node",
                )
        return tree_of, in_tree

    def _incompatible(self, forest, factor, what):
        from repro.core.forest import CompatibilityError
        from repro.core.polynomial import Monomial

        row = int(self.factor_rows()[factor])
        lo, hi = self.row_starts[row], self.row_starts[row + 1]
        monomial = Monomial._from_key(tuple(sorted(zip(
            self.vids[lo:hi].tolist(), self.exps[lo:hi].tolist(), strict=True
        ))))
        tree = forest.tree_of(VARIABLES.name(int(self.vids[factor])))
        raise CompatibilityError(
            f"monomial {monomial} {what} of tree rooted at "
            f"{tree.root.label!r}"
        )

    # ------------------------------------------------------- substitution

    def _remap(self, id_mapping):
        """The identity-extended remap array for an ``{id: id}`` mapping."""
        top = self.max_vid()
        for source, target in id_mapping.items():
            if source > top:
                top = source
            if target > top:
                top = target
        remap = numpy.arange(top + 1, dtype=numpy.int64)
        if id_mapping:
            sources = numpy.fromiter(
                id_mapping.keys(), dtype=numpy.int64, count=len(id_mapping)
            )
            targets = numpy.fromiter(
                id_mapping.values(), dtype=numpy.int64, count=len(id_mapping)
            )
            remap[sources] = targets
        return remap

    def _merged_factors(self, id_mapping):
        """Factors after the remap, merged and re-sorted per row.

        Returns ``(m_rows, m_vids, m_exps, new_starts)``: the surviving
        factor list of every row with equal targets merged (exponents
        added, so ``a*b`` under ``a→b`` is ``b^2``) and factors sorted by
        target id, the order of ``Monomial.key``.
        """
        remap = self._remap(id_mapping)
        new_vids = remap[self.vids]
        frows = self.factor_rows()
        order = numpy.lexsort((new_vids, frows))
        sv = new_vids[order]
        se = self.exps[order]
        sr = frows[order]
        if len(sv):
            head = numpy.empty(len(sv), dtype=bool)
            head[0] = True
            numpy.not_equal(sr[1:], sr[:-1], out=head[1:])
            numpy.logical_or(head[1:], sv[1:] != sv[:-1], out=head[1:])
            seg_starts = numpy.flatnonzero(head)
            m_rows = sr[seg_starts]
            m_vids = sv[seg_starts]
            m_exps = numpy.add.reduceat(se, seg_starts)
        else:
            m_rows = numpy.zeros(0, dtype=numpy.intp)
            m_vids = numpy.zeros(0, dtype=numpy.int64)
            m_exps = numpy.zeros(0, dtype=numpy.int64)
        new_lengths = numpy.bincount(m_rows, minlength=self.num_monomials)
        new_starts = numpy.zeros(self.num_monomials + 1, dtype=numpy.intp)
        numpy.cumsum(new_lengths, out=new_starts[1:])
        return m_rows, m_vids, m_exps, new_starts

    def _row_matrix(self, m_rows, m_vids, m_exps, new_starts):
        """Fixed-width ``[poly, (vid, exp)...]`` matrix of merged rows."""
        lengths = numpy.diff(new_starts)
        width = int(lengths.max()) if self.num_monomials else 0
        matrix = numpy.empty(
            (self.num_monomials, 1 + 2 * width), dtype=numpy.int64
        )
        matrix[:, 0] = self.row_poly
        if width:
            matrix[:, 1::2] = _PAD_VID
            matrix[:, 2::2] = 0
            slot = (
                numpy.arange(len(m_rows), dtype=numpy.intp)
                - numpy.repeat(new_starts[:-1], lengths)
            )
            matrix[m_rows, 1 + 2 * slot] = m_vids
            matrix[m_rows, 2 + 2 * slot] = m_exps
        return matrix

    def substituted_counts(self, id_mapping):
        """``(|P↓S|_M, |P↓S|_V)`` for an interned ``{id: id}`` mapping.

        Rows are remapped, per-row duplicates merged, and identical
        rows within a polynomial collapsed by exact row grouping.
        Counts ignore coefficients: monomials whose merged coefficients
        cancel still count (the paper's ``|P↓S|_M`` is structural).
        """
        if self.num_monomials == 0:
            return 0, 0
        m_rows, m_vids, m_exps, new_starts = self._merged_factors(id_mapping)
        matrix = self._row_matrix(m_rows, m_vids, m_exps, new_starts)
        _, distinct = unique_row_ids(matrix)
        granularity = len(numpy.unique(m_vids))
        return distinct, granularity

    def substitute(self, id_mapping):
        """``P↓S`` as a new multiset, its rows in canonical order.

        The one substitution kernel: :func:`repro.core.abstraction.abstract`
        runs it for a set, a single polynomial and
        :meth:`ValidVariableSet.apply
        <repro.core.forest.ValidVariableSet.apply>` alike. Any renaming
        works, not only a cut's.

        Rows merged by the remap form one row whose coefficient is the
        sum of theirs, added as exact Python objects in source row
        order — a polynomial's sums depend on its own rows only, so any
        subset of the set abstracts to the same coefficients bit for
        bit; zero sums are dropped, as :class:`Polynomial
        <repro.core.polynomial.Polynomial>` drops a zero term. Grouping
        rows on ``[poly, (name rank, exponent)...]`` with the factors in
        name order numbers the groups in canonical order — that of
        ``sorted(Polynomial.terms)``, which compares name-sorted
        ``(name, exponent)`` pairs, so the constant monomial comes
        first and a monomial before any longer one it is a prefix of.
        """
        if self.num_monomials == 0:
            return ColumnarMultiset.from_arrays(
                self.vids, self.exps, self.row_starts,
                numpy.zeros(self.num_polynomials + 1, dtype=numpy.intp), [],
            )
        m_rows, m_vids, m_exps, new_starts = self._merged_factors(id_mapping)
        present = numpy.unique(m_vids)
        name = VARIABLES.name
        by_name = numpy.argsort(
            numpy.array([name(vid) for vid in present.tolist()], dtype=object),
            kind="stable",
        )
        rank_of = numpy.zeros(int(present[-1]) + 1 if len(present) else 0,
                              dtype=numpy.int64)
        rank_of[present[by_name]] = numpy.arange(len(present), dtype=numpy.int64)
        ranks = rank_of[m_vids]
        in_name_order = numpy.lexsort((ranks, m_rows))
        matrix = self._row_matrix(
            m_rows, ranks[in_name_order], m_exps[in_name_order], new_starts
        )
        ids, count = unique_row_ids(matrix)
        sums = [0] * count
        for group, coeff in zip(ids.tolist(), self.coeffs, strict=True):
            sums[group] += coeff
        representative = numpy.empty(count, dtype=numpy.intp)
        representative[ids] = numpy.arange(self.num_monomials, dtype=numpy.intp)
        coeffs = [coeff for coeff in sums if coeff != 0]
        if len(coeffs) < count:
            representative = representative[
                numpy.fromiter((coeff != 0 for coeff in sums), dtype=bool,
                               count=count)
            ]
        lengths = numpy.diff(new_starts)[representative]
        row_starts = numpy.zeros(len(coeffs) + 1, dtype=numpy.intp)
        numpy.cumsum(lengths, out=row_starts[1:])
        factors = gather_ranges(new_starts[representative], lengths)
        poly_starts = numpy.zeros(self.num_polynomials + 1, dtype=numpy.intp)
        numpy.cumsum(
            numpy.bincount(self.row_poly[representative],
                           minlength=self.num_polynomials),
            out=poly_starts[1:],
        )
        return ColumnarMultiset.from_arrays(
            m_vids[factors], m_exps[factors], row_starts, poly_starts, coeffs
        )
