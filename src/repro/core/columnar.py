"""Columnar (CSR) view of a polynomial multiset — the compression core.

Every compression operation runs over these flat NumPy arrays:
``abstract_counts``, ``P↓S`` materialization,
:class:`~repro.core.abstraction.LossIndex` (Algorithm 1's per-node
losses) and the greedy working state (Algorithm 2). The batch
evaluator (:class:`repro.core.batch.CompiledPolynomialSet`) compiles
from the same arrays, so one extraction pass feeds both sides.

* :class:`ColumnarMultiset` — the monomial multiset as flat factor
  arrays: ``vids``/``exps`` hold every ``(variable id, exponent)``
  factor, ``row_starts`` delimits monomial rows, ``poly_starts``
  delimits polynomial runs. Rows are stored in each polynomial's
  *canonical sorted monomial order* — the same order
  ``CompiledPolynomialSet`` compiles, so the two representations share
  one extraction pass (``PolynomialSet.columnar()`` caches the arrays
  and the compiled evaluator is built *from* them).
* vectorized substitution: :meth:`ColumnarMultiset.substituted_counts`
  computes ``(|P↓S|_M, |P↓S|_V)`` and :meth:`ColumnarMultiset.substitute`
  materializes ``P↓S`` via an id-remap gather, a per-row factor
  sort/merge, and an ``np.unique``-style row grouping — no per-monomial
  tuple rebuilds. Merged coefficients are summed in canonical row
  order, so abstracting a subset of the polynomials (an extend's
  delta) gives the same coefficients, bit for bit, as abstracting the
  whole set.
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
    <repro.core.polynomial.PolynomialSet.columnar>`); rows run in each
    polynomial's canonical sorted monomial order, the order the batch
    evaluator compiles, so both columnar consumers share this single
    extraction pass.
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
        self.num_polynomials = 0
        self.num_monomials = 0
        self.vids = numpy.zeros(0, dtype=numpy.intp)
        self.exps = numpy.zeros(0, dtype=numpy.int64)
        self.row_starts = numpy.zeros(1, dtype=numpy.intp)
        self.poly_starts = numpy.zeros(1, dtype=numpy.intp)
        self.row_poly = numpy.zeros(0, dtype=numpy.intp)
        #: Exact coefficients in row order (Python objects — Fractions
        #: and ints survive untouched; only counting uses the arrays).
        self.coeffs = []
        self._factor_rows = None
        self.extend(polynomial_set)

    @classmethod
    def from_arrays(cls, vids, exps, row_starts, poly_starts, coeffs):
        """Adopt prebuilt CSR factor arrays (the binary-envelope load path).

        The arrays follow the layout documented on the class, except
        that factors within a row need *not* be vid-sorted: a loaded
        file's column ids were re-interned in this process, and the
        interning order can differ from the writer's.
        :meth:`to_polynomial_set` re-sorts per row where order matters.
        """
        self = object.__new__(cls)
        self.vids = numpy.asarray(vids, dtype=numpy.intp)
        self.exps = numpy.asarray(exps, dtype=numpy.int64)
        self.row_starts = numpy.asarray(row_starts, dtype=numpy.intp)
        self.poly_starts = numpy.asarray(poly_starts, dtype=numpy.intp)
        self.num_polynomials = len(self.poly_starts) - 1
        self.num_monomials = len(self.row_starts) - 1
        self.row_poly = numpy.repeat(
            numpy.arange(self.num_polynomials, dtype=numpy.intp),
            numpy.diff(self.poly_starts),
        )
        self.coeffs = list(coeffs)
        self._factor_rows = None
        return self

    def extend(self, polynomials):
        """Append the rows of ``polynomials`` in place.

        The one extraction loop: a build is this append onto the empty
        multiset, so a multiset extended by ``polynomials`` is
        array-identical to a build of the concatenated set — the
        invariant the incremental artifact pipeline
        (``ProvenanceSession.extend``) is pinned on. Callers must append
        the same polynomials to the owning
        :class:`~repro.core.polynomial.PolynomialSet` (done by
        :meth:`PolynomialSet.extend
        <repro.core.polynomial.PolynomialSet.extend>`).
        """
        vids = []
        exps = []
        row_starts = []
        poly_starts = []
        coeffs = []
        base_factors = len(self.vids)
        base_rows = self.num_monomials
        for polynomial in polynomials:
            for coeff, monomial in polynomial:
                coeffs.append(coeff)
                for vid, exp in monomial.key:
                    vids.append(vid)
                    exps.append(exp)
                row_starts.append(base_factors + len(vids))
            poly_starts.append(base_rows + len(coeffs))
        added_polys = len(poly_starts)
        if not added_polys:
            return
        self.vids = numpy.concatenate(
            [self.vids, numpy.asarray(vids, dtype=numpy.intp)]
        )
        self.exps = numpy.concatenate(
            [self.exps, numpy.asarray(exps, dtype=numpy.int64)]
        )
        self.row_starts = numpy.concatenate(
            [self.row_starts, numpy.asarray(row_starts, dtype=numpy.intp)]
        )
        starts = numpy.empty(added_polys + 1, dtype=numpy.intp)
        starts[0] = base_rows
        starts[1:] = poly_starts
        self.row_poly = numpy.concatenate(
            [
                self.row_poly,
                numpy.repeat(
                    numpy.arange(
                        self.num_polynomials,
                        self.num_polynomials + added_polys,
                        dtype=numpy.intp,
                    ),
                    numpy.diff(starts),
                ),
            ]
        )
        self.poly_starts = numpy.concatenate(
            [self.poly_starts, starts[1:]]
        )
        self.coeffs.extend(coeffs)
        self.num_polynomials += added_polys
        self.num_monomials += len(coeffs)
        self._factor_rows = None

    def to_polynomial_set(self):
        """Materialize the multiset back into a ``PolynomialSet``.

        The inverse of ``__init__``: each row becomes a Monomial (keys
        are vid-sorted here, one vectorized lexsort for the whole set,
        so rows from :meth:`from_arrays` with re-interned ids come out
        canonical), duplicate rows within a polynomial merge by summing
        coefficients, and zero sums are dropped — exactly the
        :class:`~repro.core.polynomial.Polynomial` constructor rules.
        """
        from repro.core.polynomial import Monomial, Polynomial, PolynomialSet

        # Stable sort by (row, vid): rows keep their positions (the
        # cumulative row lengths match row_starts), factors inside each
        # row come out id-sorted — the canonical Monomial key order.
        order = numpy.lexsort((self.vids, self.factor_rows()))
        vid_list = self.vids[order].tolist()
        exp_list = self.exps[order].tolist()
        starts = self.row_starts.tolist()
        poly_starts = self.poly_starts.tolist()
        cache = {}
        polynomials = []
        for p in range(self.num_polynomials):
            terms = {}
            for row in range(poly_starts[p], poly_starts[p + 1]):
                lo, hi = starts[row], starts[row + 1]
                key = tuple(zip(vid_list[lo:hi], exp_list[lo:hi], strict=True))
                monomial = cache.get(key)
                if monomial is None:
                    monomial = Monomial._from_key(key)
                    cache[key] = monomial
                new = terms.get(monomial, 0) + self.coeffs[row]
                if new == 0:
                    terms.pop(monomial, None)
                else:
                    terms[monomial] = new
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
        added) and factors sorted by target id — the columnar form of
        ``Monomial.substitute_ids``.
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
        """Materialize ``P↓S`` as a list of ``{Monomial: coeff}`` dicts.

        Monomial keys are built once per distinct target key.
        Coefficients of merged monomials are summed in canonical row
        order — a polynomial's sums depend on its own rows only, so any
        subset of the set abstracts to the same coefficients bit for
        bit; zero sums are dropped, as in :meth:`Polynomial.substitute_ids
        <repro.core.polynomial.Polynomial.substitute_ids>`.
        """
        from repro.core.polynomial import Monomial

        if self.num_monomials == 0:
            return [{} for _ in range(self.num_polynomials)]
        m_rows, m_vids, m_exps, new_starts = self._merged_factors(id_mapping)
        matrix = self._row_matrix(m_rows, m_vids, m_exps, new_starts)
        ids, count = unique_row_ids(matrix)
        # One representative row and one coefficient sum per group.
        representative = numpy.full(count, self.num_monomials, dtype=numpy.intp)
        numpy.minimum.at(
            representative, ids, numpy.arange(self.num_monomials, dtype=numpy.intp)
        )
        sums = [0] * count
        for group, coeff in zip(ids.tolist(), self.coeffs, strict=True):
            sums[group] += coeff
        starts = new_starts.tolist()
        vid_list = m_vids.tolist()
        exp_list = m_exps.tolist()
        group_poly = self.row_poly[representative]
        terms = [{} for _ in range(self.num_polynomials)]
        for group, row in enumerate(representative.tolist()):
            coeff = sums[group]
            if coeff == 0:
                continue
            lo, hi = starts[row], starts[row + 1]
            key = tuple(zip(vid_list[lo:hi], exp_list[lo:hi], strict=True))
            terms[group_poly[group]][Monomial._from_key(key)] = coeff
        return terms
