"""Vectorized scenario evaluation (the Figure 10 workload, batched).

The paper's entire case for abstraction is that analysts valuate *many*
hypothetical scenarios against the (compressed) provenance. Evaluating
one scenario with :meth:`Polynomial.evaluate` walks every monomial in
Python; over a 256-scenario suite that is 256 full interpreter passes.
:class:`CompiledPolynomialSet` compiles a polynomial multiset **once**
into flat NumPy arrays over the interned variable alphabet and then
answers whole scenario suites with a handful of array operations.

Layout:

* variables become array columns (``_columns`` maps var id → column);
* monomials are *layered* by factor position: layer ``j`` holds the
  ``j``-th ``(column, exponent)`` factor of every monomial that has one.
  Provenance monomials are short (a couple of tree variables plus free
  indeterminates), so there are only a few layers, each a flat gather;
* every polynomial owns a contiguous run of monomials, delimited by
  ``_poly_starts``, with coefficients in ``_coeffs``.

Evaluation of ``S`` scenarios builds the ``(S, V)`` assignment matrix,
then forms the ``(S, M)`` monomial-value matrix layer by layer
(gather → optional power → in-place multiply) and reduces polynomial
runs with ``add.reduceat`` — no per-monomial Python. Exponents are
overwhelmingly 1 in provenance (multilinear monomials), so the power is
only applied at the rare factors with exponent ≠ 1.

Normalization: layer 0 gives every monomial a factor — constant
monomials get ``x₀⁰ == 1`` — and empty polynomials contribute a
zero-coefficient constant monomial, so every ``reduceat`` segment is
non-empty and the hot path has no special cases.

Coefficients and assignment values are degraded to ``float64`` — exact
``fractions.Fraction`` arithmetic needs the scalar
:meth:`Polynomial.evaluate` path.

Delta engine: the paper's workload perturbs a *handful* of variables
per scenario around a shared baseline ("repeatedly modifying the data
and observing the induced effect"), so recomputing every monomial for
every scenario wastes almost all of the dense work on values that did
not move. ``engine="delta"`` valuates the all-default baseline once,
then per scenario recomputes only the monomial rows whose variables
changed (found through an inverted column→monomial index built lazily
from the compiled layers) and re-reduces only the polynomial segments
containing them. The patched segments are summed by the *same*
``add.reduceat`` machinery over the same float values in the same
order, so delta answers are **bit-identical** to dense ones — the
property the test suite asserts. ``engine="auto"`` picks delta when
the expected number of affected monomials per scenario is at most 15%
of the multiset (:func:`choose_engine`).
"""

from __future__ import annotations

import numpy

__all__ = [
    "CompiledPolynomialSet",
    "ENGINES",
    "choose_engine",
]

#: The valid ``engine=`` names accepted across the stack.
ENGINES = ("dense", "delta", "auto")

#: ``engine="auto"`` picks the delta path when the expected number of
#: affected monomials per scenario — mean changed variables × average
#: monomials per variable — is at most this fraction of the multiset.
#: Changed variables alone undercount the work when variables fan into
#: many monomials (20 changed vars of 288 sounds sparse, but can touch
#: 20% of the monomials, where dense wins).
DELTA_AFFECTED_THRESHOLD = 0.15

#: At most this many per-default baselines are cached per compiled set
#: (suites mixing unboundedly many defaults recompute past the cap).
_MAX_BASELINE_CACHE = 32


def _int_power(base, exps):
    """Elementwise ``base ** exps`` for small non-negative int exponents.

    NumPy's ``**`` ufunc is *not* bit-reproducible across array
    groupings — the SIMD inner loop and the scalar tail can round the
    same ``pow(x, 2)`` differently, so a value computed inside a large
    dense layer and the same value recomputed in a small delta patch
    could disagree in the last bit, breaking the engines'
    bit-identity contract. Multiplication, by contrast, is correctly
    rounded per element however the array is laid out, so integer
    powers are computed as a left-associated multiply chain
    (``x, x·x, (x·x)·x, …``) whose per-element operation sequence
    depends only on that element's exponent. Provenance exponents are
    tiny (overwhelmingly 1, never negative), so the O(max exponent)
    loop is irrelevant in practice.

    ``base`` may be any-dimensional with exponents aligned to its last
    axis; a fresh array is returned (``base`` is not written).
    """
    result = base.copy()
    result[..., exps == 0] = 1.0
    highest = int(exps.max()) if exps.size else 0
    for power in range(2, highest + 1):
        deeper = exps >= power
        result[..., deeper] *= base[..., deeper]
    return result


def choose_engine(mean_changes, *, mean_monomials_per_variable,
                  num_monomials):
    """``"dense"`` or ``"delta"`` for scenarios averaging
    ``mean_changes`` changed variables — the ``engine="auto"`` policy.

    Compares the *expected affected monomials* — ``mean_changes ×
    mean_monomials_per_variable`` — against
    :data:`DELTA_AFFECTED_THRESHOLD` of the ``num_monomials`` rows.

    >>> choose_engine(20.0, mean_monomials_per_variable=18.5,
    ...               num_monomials=1781)
    'dense'
    >>> choose_engine(1.0, mean_monomials_per_variable=18.5,
    ...               num_monomials=1781)
    'delta'
    """
    affected = mean_changes * mean_monomials_per_variable
    if affected <= DELTA_AFFECTED_THRESHOLD * num_monomials:
        return "delta"
    return "dense"


class _DeltaIndex:
    """The compile-time structures behind ``engine="delta"``.

    Built lazily from the compiled layers on first delta evaluation
    (dense-only users pay nothing) and rebuilt the same way after
    unpickling — it never travels.

    * ``depths`` — factor count per monomial row;
    * ``pad_cols`` / ``pad_exps`` — ``(depth, M)`` padded factor
      columns/exponents, so affected rows recompute with the exact
      layer-by-layer multiply order of the dense path;
    * ``col_starts`` / ``col_rows`` — the inverted CSR index: the
      monomial rows touching each column (exponent-0 normalization
      factors excluded — they touch nothing);
    * ``mono_poly`` — monomial row → polynomial index;
    * ``column_cache`` — per-column ``(rows, polys, reduce_idx)``
      plans, the single-changed-variable fast path one-at-a-time
      sweeps hit on every scenario.
    """

    __slots__ = (
        "depths",
        "pad_cols",
        "pad_exps",
        "col_starts",
        "col_rows",
        "mono_poly",
        "any_nonunit",
        "column_cache",
    )

    def __init__(self, layers, poly_starts, num_monomials, num_variables):
        self.depths = numpy.zeros(0, dtype=numpy.intp)
        self.pad_cols = numpy.zeros((0, 0), dtype=numpy.intp)
        self.pad_exps = numpy.ones((0, 0), dtype=numpy.int64)
        self.col_starts = numpy.zeros(1, dtype=numpy.intp)
        self.col_rows = numpy.zeros(0, dtype=numpy.intp)
        self.column_cache = {}
        every_row = numpy.arange(num_monomials, dtype=numpy.intp)
        self.extend(
            [
                (every_row if selector is None else selector, *rest)
                for selector, *rest in layers
            ],
            0, num_monomials, poly_starts, num_variables,
        )

    def extend(self, local_layers, base_rows, added_rows, poly_starts,
               num_variables):
        """Grow the index by appended monomial rows — never rebuilt.

        The one index build: ``__init__`` is this append onto the empty
        index. ``local_layers`` are the appended part's layer tuples
        with selectors in *local* coordinates (always concrete, never
        ``None``); the appended rows occupy ``[base_rows, base_rows +
        added_rows)``. The padded factor matrices grow by trailing
        columns (and trailing layer rows when the appended monomials
        are deeper), the per-column CSR gains each column's new rows at
        the end of its segment (rows stay ascending: every new row id
        exceeds every old one), and only the single-column plans of
        columns that actually gained rows are dropped from the cache —
        untouched columns keep their plans, whose gathers reference old
        rows and old polynomial runs exclusively.
        """
        old_depth = self.pad_cols.shape[0]
        depth = max(old_depth, len(local_layers))
        total = base_rows + added_rows
        pad_cols = numpy.zeros((depth, total), dtype=numpy.intp)
        pad_exps = numpy.ones((depth, total), dtype=numpy.int64)
        pad_cols[:old_depth, :base_rows] = self.pad_cols
        pad_exps[:old_depth, :base_rows] = self.pad_exps
        depths = numpy.zeros(total, dtype=numpy.intp)
        depths[:base_rows] = self.depths
        row_parts = []
        col_parts = []
        for j, (selector, cols, nonunit, exps) in enumerate(local_layers):
            rows = base_rows + selector
            depths[rows] += 1
            pad_cols[j, rows] = cols
            full_exps = numpy.ones(len(cols), dtype=numpy.int64)
            full_exps[nonunit] = exps
            pad_exps[j, rows] = full_exps
            real = full_exps != 0
            row_parts.append(rows[real])
            col_parts.append(cols[real])
        new_rows = (
            numpy.concatenate(row_parts)
            if row_parts
            else numpy.zeros(0, dtype=numpy.intp)
        )
        new_cols = (
            numpy.concatenate(col_parts)
            if col_parts
            else numpy.zeros(0, dtype=numpy.intp)
        )
        from repro.core.columnar import invert_index

        # The old CSR starts, padded to the grown alphabet. An old entry
        # moves past the new entries of earlier columns, a new entry past
        # the old entries of its own and earlier columns.
        old_starts = numpy.full(
            num_variables + 1, self.col_starts[-1], dtype=numpy.intp
        )
        old_starts[: len(self.col_starts)] = self.col_starts
        added_starts, order = invert_index(
            new_cols, num_variables, secondary=new_rows
        )
        starts = old_starts + added_starts
        col_rows = numpy.empty(int(starts[-1]), dtype=numpy.intp)
        col_rows[
            numpy.arange(len(self.col_rows), dtype=numpy.intp)
            + numpy.repeat(added_starts[:-1], numpy.diff(old_starts))
        ] = self.col_rows
        col_rows[
            numpy.arange(len(new_rows), dtype=numpy.intp)
            + numpy.repeat(old_starts[1:], numpy.diff(added_starts))
        ] = new_rows[order]
        for col in numpy.flatnonzero(numpy.diff(added_starts)).tolist():
            self.column_cache.pop(col, None)
        self.depths = depths
        self.pad_cols = pad_cols
        self.pad_exps = pad_exps
        self.col_starts = starts
        self.col_rows = col_rows
        self.mono_poly = numpy.repeat(
            numpy.arange(len(poly_starts) - 1, dtype=numpy.intp),
            numpy.diff(poly_starts),
        )
        self.any_nonunit = bool(
            ((self.pad_exps != 1) & (self.pad_exps != 0)).any()
        )


class CompiledPolynomialSet:
    """A polynomial multiset compiled to NumPy arrays for batch valuation.

    Built by :meth:`repro.core.polynomial.PolynomialSet.compiled` (and
    cached there); evaluate with :meth:`evaluate` or through
    :meth:`repro.core.polynomial.PolynomialSet.evaluate_batch`.
    """

    __slots__ = (
        "num_polynomials",
        "num_monomials",
        "num_variables",
        "_columns",
        "_layers",
        "_coeffs",
        "_poly_starts",
        "_mean_touches",
        "_delta",
        "_baselines",
        "_source",
    )

    def __init__(self, polynomial_set):
        self.num_polynomials = 0
        self.num_monomials = 0
        self._columns = {}
        self._layers = []
        self._coeffs = numpy.zeros(0, dtype=numpy.float64)
        self._poly_starts = numpy.zeros(1, dtype=numpy.intp)
        # Delta-engine structures are derived lazily (and locally after
        # unpickling) — dense-only users never build them.
        self._delta = None
        self.extend(polynomial_set)

    def extend(self, polynomial_set):
        """Compile the rows of ``polynomial_set`` onto the set, in place.

        The one build routine: ``__init__`` is this append onto the
        empty set, so an extended set evaluates bit-identically to a
        build of the concatenated set — the contract the
        incremental-maintenance property tests pin. The two differ at
        most in column numbering: a build numbers the whole alphabet in
        id order, an extend gives new variables trailing columns. The
        rows come from the set's cached columnar view, so one
        extraction pass serves both the compression core and this
        evaluator (and an abstracted set needs none).

        The appended monomials become trailing rows (old row indices —
        and the float summation order of every old polynomial — are
        untouched), new variables become trailing columns in id order
        (old columns keep their indices), each existing layer grows by
        concatenation (appended selectors sort after every old row),
        and deeper layers are appended when the new monomials need
        them. The delta-engine index, when already built, is extended
        by the same rows via :meth:`_DeltaIndex.extend` — never
        rebuilt. Baselines are dropped (their row width changed) and
        ``_source`` is cleared (an extended set no longer matches its
        file).

        Rows run in each polynomial's canonical sorted order (not dict
        insertion order), so float summation order — and therefore the
        batch answers — is identical however the polynomial was built
        (parsed, substituted, or deserialized).
        """
        cm = polynomial_set.columnar()
        present = sorted(polynomial_set.variable_ids())
        for vid in present:
            self._columns.setdefault(vid, len(self._columns))
        # At least one column so constant monomials have a x0^0 factor
        # to point at even in a variable-free multiset.
        self.num_variables = max(1, len(self._columns))

        # Normalization: constant monomials get a x0^0 factor and zero
        # polynomials contribute one 0-coefficient constant monomial,
        # so every reduceat segment is non-empty.
        rows = cm.num_monomials
        lengths = cm.row_lengths
        poly_rows = numpy.diff(cm.poly_starts)
        pad_before = numpy.zeros(cm.num_polynomials, dtype=numpy.intp)
        numpy.cumsum(poly_rows[:-1] == 0, out=pad_before[1:])
        total = rows + int((poly_rows == 0).sum())
        final_idx = (
            numpy.arange(rows, dtype=numpy.intp) + pad_before[cm.row_poly]
        )
        coeffs = numpy.zeros(total, dtype=numpy.float64)
        coeffs[final_idx] = numpy.asarray(
            [float(coeff) for coeff in cm.coeffs], dtype=numpy.float64
        )
        base_total = self.num_monomials
        self._coeffs = numpy.concatenate([self._coeffs, coeffs])
        new_starts = numpy.cumsum(numpy.maximum(poly_rows, 1))
        self._poly_starts = numpy.concatenate(
            [self._poly_starts, base_total + new_starts]
        )

        # Per appended monomial: its factor count after normalization,
        # and where its real factors (if any) start in the flat arrays.
        eff_len = numpy.ones(total, dtype=numpy.intp)
        eff_len[final_idx] = numpy.maximum(lengths, 1)
        real_len = numpy.zeros(total, dtype=numpy.intp)
        real_len[final_idx] = lengths
        flat_start = numpy.zeros(total, dtype=numpy.intp)
        flat_start[final_idx] = cm.row_starts[:-1]
        col_of = numpy.zeros(max(cm.max_vid(), -1) + 2, dtype=numpy.intp)
        col_of[present] = [self._columns[vid] for vid in present]
        cols_flat = col_of[cm.vids]

        # Layer j: (monomial selector, columns, exponent fix-ups) over
        # the monomials with a j-th factor; selector is None for layer 0
        # (every monomial has one, by normalization).
        old_depth = len(self._layers)
        depth = int(eff_len.max()) if total else 0
        layers = list(self._layers)
        local_layers = []
        for j in range(depth):
            select = numpy.flatnonzero(eff_len > j)
            has_real = real_len[select] > j
            cols = numpy.zeros(len(select), dtype=numpy.intp)
            exps = numpy.zeros(len(select), dtype=numpy.int64)
            source = flat_start[select[has_real]] + j
            cols[has_real] = cols_flat[source]
            exps[has_real] = cm.exps[source]
            # Provenance monomials are overwhelmingly multilinear;
            # raising everything to the power 1 would dominate the
            # evaluation, so only exponent != 1 factors go through ``**``.
            nonunit = numpy.nonzero(exps != 1)[0]
            local_layers.append((select, cols, nonunit, exps[nonunit]))
            if j < old_depth:
                old_selector, old_cols, old_nonunit, old_exps = layers[j]
                layers[j] = (
                    None
                    if old_selector is None
                    else numpy.concatenate(
                        [old_selector, base_total + select]
                    ),
                    numpy.concatenate([old_cols, cols]),
                    numpy.concatenate(
                        [old_nonunit, nonunit + len(old_cols)]
                    ),
                    numpy.concatenate([old_exps, exps[nonunit]]),
                )
            else:
                # A new layer 0 (only on an empty set) covers every
                # row; a deeper new layer needs a selector.
                layers.append((
                    None if j == 0 else base_total + select,
                    cols, nonunit, exps[nonunit],
                ))

        self._layers = layers
        self.num_monomials = base_total + total
        self.num_polynomials += cm.num_polynomials
        self._mean_touches = self._compute_mean_touches()
        if self._delta is not None:
            self._delta.extend(
                local_layers, base_total, total,
                self._poly_starts, self.num_variables,
            )
        self._baselines = {}
        self._source = None

    def _compute_mean_touches(self):
        """Average monomials touched per variable (exp-0 normalization
        factors excluded) — the fan-in statistic ``engine="auto"``
        needs. Derived from the layers, so it is rebuilt identically
        after unpickling."""
        real_factors = 0
        for _, cols, _nonunit, exps in self._layers:
            real_factors += len(cols) - int((exps == 0).sum())
        return real_factors / self.num_variables

    # ------------------------------------------------------------- pickling

    @property
    def source(self):
        """Path of the binary container backing this set (or ``None``).

        Set by :func:`repro.core.binfmt.read_artifact` /
        :func:`~repro.core.binfmt.read_compiled` on mmap-backed loads;
        a sourced set pickles as just this descriptor (workers re-mmap
        the file instead of receiving the matrix over the pipe).
        """
        return self._source

    def _state(self):
        """Portable full state for cross-process shipping.

        Variable ids are process-local (they index the process-wide
        interning table), so the column map travels keyed by variable
        *name* and is re-interned on arrival. Everything else is plain
        NumPy arrays and ints, so a compiled set rebuilds and then
        evaluates identically in any process — the contract
        :mod:`repro.scenarios.parallel` and the binary container
        format rely on.
        """
        from repro.core.interning import VARIABLES

        name = VARIABLES.name
        return {
            "columns_by_name": {
                name(vid): col for vid, col in self._columns.items()
            },
            "num_polynomials": self.num_polynomials,
            "num_monomials": self.num_monomials,
            "num_variables": self.num_variables,
            "coeffs": self._coeffs,
            "poly_starts": self._poly_starts,
            "layers": self._layers,
        }

    @classmethod
    def from_state(cls, state):
        """Build a compiled set directly from a :meth:`_state` dict —
        the binary-container load path (no PolynomialSet needed)."""
        self = object.__new__(cls)
        self.__setstate__(state)
        return self

    def __getstate__(self):
        """Pickle as full arrays — or, for a file-backed set, as just
        the container path (workers re-mmap; O(1) bytes per worker)."""
        if self._source is not None:
            return {"source": self._source}
        return self._state()

    def __setstate__(self, state):
        """Rebuild in the receiving process (re-interning the alphabet)."""
        source = state.get("source")
        if source is not None:
            from repro.core import binfmt

            other = binfmt.read_compiled(source)
            for slot in CompiledPolynomialSet.__slots__:
                setattr(self, slot, getattr(other, slot))
            return
        from repro.core.interning import VARIABLES

        intern = VARIABLES.intern
        self._columns = {
            intern(name): col
            for name, col in state["columns_by_name"].items()
        }
        self.num_polynomials = state["num_polynomials"]
        self.num_monomials = state["num_monomials"]
        self.num_variables = state["num_variables"]
        self._coeffs = state["coeffs"]
        self._poly_starts = state["poly_starts"]
        self._layers = state["layers"]
        self._mean_touches = self._compute_mean_touches()
        # Derived delta structures rebuild on demand — they are pure
        # functions of the layers, so a worker's first delta shard
        # builds them (and the baseline) exactly once per process.
        self._delta = None
        self._baselines = {}
        self._source = None

    # ------------------------------------------------------------ assignment

    def assignment_matrix(self, assignments, default=1.0):
        """The ``(S, V)`` matrix of variable values for the scenarios.

        Each entry goes through
        :meth:`~repro.core.valuation.Valuation.coerce`: plain mappings
        (unassigned variables take ``default``), Valuations (their own
        default wins) and Scenario-like objects (anything with a
        ``valuation(default)`` method) all work. Assignments of
        variables the multiset never mentions are ignored, matching
        :meth:`Polynomial.evaluate`.
        """
        from repro.core.interning import VARIABLES
        from repro.core.valuation import Valuation

        rows = []
        for entry in assignments:
            valuation = Valuation.coerce(entry, default)
            rows.append((valuation.assignment, valuation.default))

        matrix = numpy.empty((len(rows), self.num_variables), dtype=numpy.float64)
        columns = self._columns
        lookup = VARIABLES.lookup
        for row, (mapping, row_default) in enumerate(rows):
            matrix[row].fill(row_default)
            for name, value in mapping.items():
                vid = lookup(name)
                if vid is None:
                    continue
                col = columns.get(vid)
                if col is not None:
                    matrix[row, col] = value
        return matrix

    # ------------------------------------------------------------ evaluation

    def resolve_engine(self, engine, *, valuations=None, mean_changes=None):
        """The concrete engine (``"dense"``/``"delta"``) for a request.

        ``"auto"`` applies :func:`choose_engine` — with this set's
        monomial fan-in statistics — to the mean number of changed
        variables per scenario, taken from ``mean_changes`` when the
        caller already knows it (a :meth:`Sweep.mean_changes
        <repro.scenarios.sweep.Sweep.mean_changes>`), otherwise
        measured over the coerced ``valuations``. Explicit names
        validate and pass through. Either way the answers are
        bit-identical; only the work schedule differs.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine != "auto":
            return engine
        if mean_changes is None:
            if not valuations:
                return "dense"
            mean_changes = sum(
                len(valuation.assignment) for valuation in valuations
            ) / len(valuations)
        return choose_engine(
            mean_changes,
            mean_monomials_per_variable=self._mean_touches,
            num_monomials=self.num_monomials,
        )

    def evaluate(self, assignments, default=1.0, engine="auto"):
        """``(S, P)`` array: row ``i`` valuates every polynomial under
        assignment ``i`` (see :meth:`PolynomialSet.evaluate_batch`).

        ``engine`` selects the dense matrix path, the sparse delta path
        (:meth:`evaluate_delta`), or ``"auto"`` (the default, as
        everywhere in the stack) between them; the returned values are
        bit-identical whichever runs.
        """
        from repro.core.valuation import Valuation

        valuations = [
            Valuation.coerce(entry, default) for entry in assignments
        ]
        engine = self.resolve_engine(engine, valuations=valuations)
        if engine == "delta":
            return self.evaluate_delta(valuations, default)
        matrix = self.assignment_matrix(valuations, default)
        return self.evaluate_matrix(matrix)

    def _monomial_values(self, matrix):
        """The ``(S, M)`` monomial-value matrix for an assignment matrix."""
        mono_values = None
        for selector, cols, nonunit, exps in self._layers:
            # The fancy-index gather copies, so in-place ops are safe.
            values = matrix[:, cols]
            if len(nonunit):
                # _int_power, not **: grouping-independent bits (the
                # delta engine recomputes these factors in smaller
                # batches and must land on identical floats).
                values[:, nonunit] = _int_power(values[:, nonunit], exps)
            if selector is None:
                mono_values = values
            else:
                mono_values[:, selector] *= values
        return mono_values

    def evaluate_matrix(self, matrix):
        """Valuate from a prebuilt ``(S, V)`` assignment matrix."""
        num_scenarios = matrix.shape[0]
        if self.num_polynomials == 0:
            return numpy.zeros((num_scenarios, 0), dtype=numpy.float64)
        if num_scenarios == 0:
            return numpy.zeros((0, self.num_polynomials), dtype=numpy.float64)
        weighted = self._monomial_values(matrix) * self._coeffs
        return numpy.add.reduceat(weighted, self._poly_starts[:-1], axis=1)

    # ---------------------------------------------------------- delta engine

    def _delta_index(self):
        """The lazily built :class:`_DeltaIndex` (cached)."""
        index = self._delta
        if index is None:
            index = _DeltaIndex(
                self._layers, self._poly_starts,
                self.num_monomials, self.num_variables,
            )
            self._delta = index
        return index

    def _baseline(self, default):
        """``(assignment_vec, weighted_row, totals)`` for one default.

        The weighted baseline monomial row and per-polynomial totals
        are computed by the *dense* machinery on a single all-default
        row, so every cached float is bit-identical to what a dense
        evaluation of an unchanged scenario would produce. Cached per
        default (bounded by :data:`_MAX_BASELINE_CACHE`). The cached
        arrays are read-only by convention — :meth:`evaluate_delta`
        patches call-local copies, never these.
        """
        key = float(default)
        cached = self._baselines.get(key)
        if cached is None:
            vector = numpy.full(self.num_variables, key, dtype=numpy.float64)
            mono = self._monomial_values(vector[None, :])[0]
            weighted = mono * self._coeffs
            totals = numpy.add.reduceat(weighted, self._poly_starts[:-1])
            cached = (vector, weighted, totals)
            if len(self._baselines) < _MAX_BASELINE_CACHE:
                self._baselines[key] = cached
        return cached

    def _affected(self, index, cols):
        """``(rows, polys, gather, seg_starts, rows_pos, layers)`` for
        a set of changed columns.

        ``rows`` are the monomials to recompute, ``polys`` the
        polynomials containing them, ``gather`` the concatenated
        monomial offsets of exactly those polynomials' runs (so one
        fancy gather pulls the affected segments into a contiguous
        buffer and ``add.reduceat`` at ``seg_starts`` re-sums *only*
        them — never the untouched gaps), ``rows_pos`` the positions
        of the recomputed rows inside that buffer, and ``layers`` the
        precomputed per-layer gather plan of :meth:`_recompute_rows`
        — everything about a recompute that does not depend on the
        scenario's values. Single-column plans (every scenario of a
        one-at-a-time sweep) are cached on the index, so repeated
        knockouts of the same variable do no planning at all.
        """
        if len(cols) == 1:
            plan = index.column_cache.get(cols[0])
            if plan is not None:
                return plan
        starts = index.col_starts
        parts = [index.col_rows[starts[c]:starts[c + 1]] for c in cols]
        rows = (
            parts[0] if len(parts) == 1
            else numpy.unique(numpy.concatenate(parts))
        )
        if rows.size:
            polys = numpy.unique(index.mono_poly[rows])
            poly_starts = self._poly_starts
            seg_first = poly_starts[polys]
            lengths = poly_starts[polys + 1] - seg_first
            seg_starts = numpy.zeros(len(polys), dtype=numpy.intp)
            numpy.cumsum(lengths[:-1], out=seg_starts[1:])
            # Vectorized concatenation of the [first, first+length)
            # runs: a global arange plus each run's offset from its
            # position in the packed buffer.
            gather = numpy.arange(
                int(lengths.sum()), dtype=numpy.intp
            ) + numpy.repeat(seg_first - seg_starts, lengths)
            rows_pos = numpy.searchsorted(gather, rows)
        else:
            polys = numpy.zeros(0, dtype=numpy.intp)
            gather = numpy.zeros(0, dtype=numpy.intp)
            seg_starts = numpy.zeros(0, dtype=numpy.intp)
            rows_pos = numpy.zeros(0, dtype=numpy.intp)
        layers = []
        depths = index.depths[rows]
        for j in range(index.pad_cols.shape[0]):
            if j == 0:
                deeper = None  # every affected row has a first factor
                layer_cols = index.pad_cols[0, rows]
                exps = index.pad_exps[0, rows]
            else:
                deeper = numpy.nonzero(depths > j)[0]
                if not deeper.size:
                    break
                layer_cols = index.pad_cols[j, rows[deeper]]
                exps = index.pad_exps[j, rows[deeper]]
            fix = numpy.nonzero(exps != 1)[0] if index.any_nonunit else None
            if fix is not None and not fix.size:
                fix = None
            layers.append(
                (deeper, layer_cols, fix,
                 exps[fix] if fix is not None else None)
            )
        plan = (rows, polys, gather, seg_starts, rows_pos, tuple(layers))
        if len(cols) == 1:
            index.column_cache[cols[0]] = plan
        return plan

    @staticmethod
    def _recompute_rows(layers, assignment):
        """Monomial values for an affected-row plan under a patched
        assignment vector.

        Mirrors the dense layer loop exactly — same gather-per-layer,
        same exponent fix-ups, same in-place multiply order — restricted
        to the plan's rows, so every recomputed value is bit-identical
        to its dense counterpart.
        """
        values = None
        for deeper, layer_cols, fix, fix_exps in layers:
            factors = assignment[layer_cols]
            if fix is not None:
                factors[fix] = _int_power(factors[fix], fix_exps)
            if deeper is None:
                values = factors
            else:
                values[deeper] *= factors
        return values

    def evaluate_delta(self, assignments, default=1.0):
        """``(S, P)`` answers via baseline + sparse per-scenario patches.

        Bit-identical to :meth:`evaluate` with ``engine="dense"`` on
        the same scenarios: unaffected monomials keep their baseline
        float values (computed by the dense machinery), affected rows
        are recomputed with the dense layer ordering, and affected
        polynomial segments — gathered into a contiguous buffer by the
        plan's precomputed offsets, so untouched gaps are never
        re-summed — are reduced by the same ``add.reduceat`` over the
        same values in the same order. Per-valuation defaults are
        honoured through one cached baseline per distinct default.

        The cached baseline arrays stay read-only; the only in-place
        patching is of a *call-local copy* of the assignment vector
        (one O(V) copy per distinct default per call), so concurrent
        evaluations of one compiled set never observe each other's
        patches.
        """
        from repro.core.interning import VARIABLES
        from repro.core.valuation import Valuation

        valuations = [
            Valuation.coerce(entry, default) for entry in assignments
        ]
        num_scenarios = len(valuations)
        if self.num_polynomials == 0:
            return numpy.zeros((num_scenarios, 0), dtype=numpy.float64)
        if num_scenarios == 0:
            return numpy.zeros((0, self.num_polynomials), dtype=numpy.float64)
        index = self._delta_index()
        lookup = VARIABLES.lookup
        columns = self._columns
        coeffs = self._coeffs
        out = numpy.empty(
            (num_scenarios, self.num_polynomials), dtype=numpy.float64
        )
        local_baselines = {}
        for i, valuation in enumerate(valuations):
            key = float(valuation.default)
            state = local_baselines.get(key)
            if state is None:
                vector, weighted, totals = self._baseline(key)
                state = (vector.copy(), weighted, totals)
                local_baselines[key] = state
            vector, weighted, totals = state
            out[i] = totals
            cols = []
            new_values = []
            for name, value in valuation.assignment.items():
                vid = lookup(name)
                if vid is None:
                    continue
                col = columns.get(vid)
                if col is None:
                    continue  # variable never occurs — ignored, as dense
                cols.append(col)
                new_values.append(value)
            if not cols:
                continue
            rows, polys, gather, seg_starts, rows_pos, layers = self._affected(
                index, cols
            )
            if not rows.size:
                continue
            # Patch the call-local assignment vector in place (restored
            # below), pull the affected segments into a contiguous
            # buffer, overwrite the recomputed rows, and re-sum only
            # those segments — O(affected) work per scenario.
            saved_vector = vector[cols]
            vector[cols] = new_values
            segments = weighted[gather]
            segments[rows_pos] = (
                self._recompute_rows(layers, vector) * coeffs[rows]
            )
            out[i, polys] = numpy.add.reduceat(segments, seg_starts)
            vector[cols] = saved_vector
        return out
