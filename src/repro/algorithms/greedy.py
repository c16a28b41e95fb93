"""Algorithm 2 — greedy valid variable selection for forests (§3.2).

The multi-tree optimization problem is NP-hard (Proposition 11 /
Appendix A), so the paper proposes a greedy heuristic: start from the
identity cut (all leaves), and repeatedly replace a set of sibling nodes
by their parent, always choosing the *candidate* parent (a node all of
whose children are currently chosen) that entails the minimal variable
loss, until the provenance is small enough or no candidate remains.

A subtlety the paper's Example 15 exposes: with multiple trees the
cumulative monomial loss is **not** the sum of per-tree losses — merges
compose across trees (after months collapse into a quarter, the two
business plans sit in *one* monomial pair instead of two). The
implementation therefore maintains a *working state*: the polynomials
abstracted by the current cut, laid out as flat columns over the
monomial rows of the set's columnar view
(:mod:`repro.core.columnar`), and applies each chosen candidate
incrementally.

Tie-breaking: candidates are compared by (minimal incremental VL,
maximal incremental ML, label) — the ML tie-break reproduces Example 15,
where ``q1`` (VL 1, ML 7) is preferred over ``SB`` (VL 1, ML 2).

Candidate ranking is *incremental*. Two structural facts make ranks
cheap to maintain exactly (for compatible inputs, §2.2 — checked up
front):

* a candidate's ΔVL is **constant** from the moment it becomes a
  candidate: merges elsewhere rewrite monomials but never erase a
  selected variable's last occurrence (a rewritten monomial keeps every
  non-member variable, and a collision survivor holds the same ones);
* a candidate's ΔML equals ``n − d``, where ``n`` counts the monomials
  holding one of its children and ``d`` counts the distinct *residue
  groups* among them — two monomials merge under the candidate exactly
  when they share the polynomial, the member's exponent and the rest
  of the monomial.

:func:`greedy_vvs` keeps ``(ΔVL, −ΔML, label)`` ranks in a priority
queue, updates the group counts of exactly the candidates whose
children occur in the monomials a merge touches, and re-ranks those —
the same cuts as the paper's per-round rescan, without re-simulating
any candidate. The literal rescan lives in ``tests/oracle.py``, and
the differential suite asserts the two agree step for step.
"""

from __future__ import annotations

import heapq

import numpy

from repro.core.abstraction import ensure_set
from repro.core.columnar import (
    gather_ranges,
    invert_index,
    run_starts,
    unique_row_ids,
)
from repro.core.forest import AbstractionForest, ValidVariableSet
from repro.core.interning import VARIABLES
from repro.core.tree import AbstractionTree
from repro.algorithms.result import AbstractionResult

__all__ = ["greedy_vvs", "GreedyStep"]


class GreedyStep:
    """One iteration of the greedy loop (kept in ``result.trace``)."""

    __slots__ = ("chosen", "delta_ml", "delta_vl", "cumulative_ml", "cumulative_vl")

    def __init__(self, chosen, delta_ml, delta_vl, cumulative_ml, cumulative_vl):
        self.chosen = chosen
        self.delta_ml = delta_ml
        self.delta_vl = delta_vl
        self.cumulative_ml = cumulative_ml
        self.cumulative_vl = cumulative_vl

    def __repr__(self):
        return (
            f"GreedyStep({self.chosen!r}, dML={self.delta_ml}, "
            f"dVL={self.delta_vl}, ML={self.cumulative_ml}, VL={self.cumulative_vl})"
        )


def _plan(polynomials, forest, bound, clean):
    """Normalize the inputs: the set, the cleaned forest, the initial cut."""
    polynomials = ensure_set(polynomials)
    if isinstance(forest, AbstractionTree):
        forest = AbstractionForest([forest])
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if clean:
        forest = forest.clean(polynomials)

    selected = set(forest.leaf_labels)
    trees = {}
    candidates = set()
    for tree in forest:
        for label in tree.labels:
            trees[label] = tree
            node = tree.node(label)
            if node.children and all(
                child.label in selected for child in node.children
            ):
                candidates.add(label)
    return polynomials, forest, selected, trees, candidates


class _GroupCounts:
    """Sorted ``group id -> alive-row count`` for one active candidate.

    Group ids are drawn from per-tree monotone counters, so arrivals
    (always fresh groups) append in sorted order and departures are a
    single ``searchsorted`` — no re-sorting, ever.
    """

    __slots__ = ("groups", "counts", "size")

    def __init__(self, groups, counts):
        self.groups = groups
        self.counts = counts
        self.size = len(groups)

    def subtract(self, groups, amounts):
        """Decrement the given (unique, present) groups; return priors."""
        positions = numpy.searchsorted(self.groups[: self.size], groups)
        before = self.counts[positions].copy()
        self.counts[positions] = before - amounts
        return before

    def append(self, groups, counts):
        need = self.size + len(groups)
        if need > len(self.groups):
            capacity = max(need, 2 * len(self.groups), 16)
            for name in ("groups", "counts"):
                grown = numpy.empty(capacity, dtype=numpy.int64)
                grown[: self.size] = getattr(self, name)[: self.size]
                setattr(self, name, grown)
        self.groups[self.size:need] = groups
        self.counts[self.size:need] = counts
        self.size = need


def greedy_vvs(polynomials, forest, bound, *, clean=True, ml_tie_break=True):
    """Greedy multi-tree abstraction (Algorithm 2), incremental ranking.

    :param polynomials: a :class:`Polynomial` or :class:`PolynomialSet`.
    :param forest: an :class:`AbstractionForest` (a single
        :class:`AbstractionTree` is accepted and wrapped).
    :param bound: desired maximum number of monomials ``B``.
    :param clean: apply footnote 1 before running.
    :param ml_tie_break: break VL ties by each tied candidate's monomial
        loss, preferring the largest (the Example 15 behaviour).
        Disabling it breaks ties by label only — no ML bookkeeping at
        all, possibly more rounds and worse cuts; the ablation benchmark
        quantifies the trade.
    :raises CompatibilityError: when a monomial holds a meta-variable
        of the (cleaned) forest or two nodes of one tree (§2.2
        conditions 2 and 3) — the losses would be wrong otherwise.

    Unlike :func:`repro.algorithms.optimal.optimal_vvs`, the greedy
    never raises for an unreachable bound — it abstracts as far as the
    forest allows and returns the final cut (check
    ``result.abstracted_size`` against your bound), mirroring the
    paper's "while ML(S) < k and C ≠ ∅" loop, which simply terminates
    when candidates run out.

    State: per-tree current-variable/exponent columns over the monomial
    rows, a static free-factor signature per row, an ``alive`` mask, and
    per-tree *residue groups*: rows whose contents are identical except
    for their variable of that tree share a group id. Two rows collide
    under a candidate exactly when they share a residue group (same
    polynomial, same exponent, same rest-of-monomial) and their members
    both belong to the candidate — so a candidate's exact ΔML is
    ``n − #groups`` over its rows, computed with one sort when the
    candidate activates and maintained per merge with a handful of
    array ops:

    * a merge rewrites only the rows holding the merged children
      (found via the inverted variable→row index); collisions are one
      exact row-grouping of the rewritten contents;
    * the merge does not change those rows' residues *in its own tree*
      (only the tree variable moved), so their groups there persist;
      in every *other* tree the rewritten rows leave their groups and
      form fresh ones — fresh because their contents now hold the new
      meta-variable, which no other row can contain;
    * each active candidate keeps a sorted ``group → count`` table of
      its rows; batch departures/arrivals against those tables yield
      the exact ΔML deltas for precisely the candidates watching the
      touched rows.

    >>> from repro.core.parser import parse_set
    >>> polys = parse_set(["2*b1*m1 + 3*b1*m3 + 4*b2*m1 + 5*b2*m3"])
    >>> tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
    >>> result = greedy_vvs(polys, tree, bound=2)
    >>> sorted(result.vvs.labels), result.abstracted_size
    (['SB'], 2)
    """
    polynomials, forest, selected, trees, initial = _plan(
        polynomials, forest, bound, clean
    )
    cm = polynomials.columnar()
    num_trees = len(forest.trees)
    intern = VARIABLES.intern
    tree_of, in_tree = cm.tree_columns(forest)
    num_vars = len(tree_of)

    parent_vid = numpy.full(num_vars, -1, dtype=numpy.intp)
    for tree in forest.trees:
        for label, node in tree.nodes.items():
            if node.parent is not None:
                parent_vid[intern(label)] = intern(node.parent.label)

    num_rows = cm.num_monomials
    frows = cm.factor_rows()
    tree_sel = numpy.flatnonzero(in_tree >= 0)

    # Per-tree current variable/exponent of every row (-1: no variable
    # of that tree) — a merge is a pure column relabel.
    var_t = numpy.full((num_trees, num_rows), -1, dtype=numpy.intp)
    exp_t = numpy.zeros((num_trees, num_rows), dtype=numpy.int64)
    var_t[in_tree[tree_sel], frows[tree_sel]] = cm.vids[tree_sel]
    exp_t[in_tree[tree_sel], frows[tree_sel]] = cm.exps[tree_sel]

    # Static free factors (never rewritten): a CSR per row plus one
    # interned signature (poly included) used by every residue key.
    free_sel = numpy.flatnonzero(in_tree < 0)
    free_counts = numpy.bincount(frows[free_sel], minlength=num_rows)
    free_starts = numpy.zeros(num_rows + 1, dtype=numpy.intp)
    numpy.cumsum(free_counts, out=free_starts[1:])
    free_vids = cm.vids[free_sel]
    width = int(free_counts.max()) if num_rows else 0
    free_matrix = numpy.empty((num_rows, 1 + 2 * width), dtype=numpy.int64)
    free_matrix[:, 0] = cm.row_poly
    if width:
        free_matrix[:, 1::2] = -2
        free_matrix[:, 2::2] = 0
        slot = (
            numpy.arange(len(free_sel), dtype=numpy.intp)
            - numpy.repeat(free_starts[:-1], free_counts)
        )
        free_matrix[frows[free_sel], 1 + 2 * slot] = free_vids
        free_matrix[frows[free_sel], 2 + 2 * slot] = cm.exps[free_sel]
    free_sig, _ = unique_row_ids(free_matrix)

    alive = numpy.ones(num_rows, dtype=bool)
    var_alive = numpy.bincount(cm.vids, minlength=num_vars)

    # Inverted variable→rows index for the tree alphabet (the rows a
    # merge rewrites, built with the shared CSR inversion); merged
    # meta-variables get their survivor lists.
    var_rows = {}
    if len(tree_sel):
        starts, order = invert_index(cm.vids[tree_sel], num_vars)
        rows_by_var = frows[tree_sel]
        for vid in numpy.unique(cm.vids[tree_sel]).tolist():
            var_rows[int(vid)] = rows_by_var[order[starts[vid]:starts[vid + 1]]]

    def residue_matrix(tree_index, rows):
        """``[free signature, exp, other trees' (var, exp)]`` rows."""
        matrix = numpy.empty((len(rows), 2 * num_trees), dtype=numpy.int64)
        matrix[:, 0] = free_sig[rows]
        matrix[:, 1] = exp_t[tree_index, rows]
        column = 2
        for other in range(num_trees):
            if other == tree_index:
                continue
            matrix[:, column] = var_t[other, rows]
            matrix[:, column + 1] = exp_t[other, rows]
            column += 2
        return matrix

    # Initial residue groups per tree. Group ids are never recycled:
    # regrouped rows draw fresh ids from the per-tree counter, so every
    # candidate table appends in sorted order.
    group_t = numpy.full((num_trees, num_rows), -1, dtype=numpy.intp)
    next_group = [0] * num_trees
    for index in range(num_trees):
        rows = numpy.flatnonzero(var_t[index] >= 0)
        if not len(rows):
            continue
        ids, count = unique_row_ids(residue_matrix(index, rows))
        group_t[index, rows] = ids
        next_group[index] = count

    # Candidate bookkeeping: slots are append-only; a chosen candidate
    # clears its parent-label entry so no row reports to it again.
    slot_label = []
    slot_children = []
    slot_dvl = []
    slot_tree = []
    slot_groups = []
    slot_ml = []
    cand_of_parent = numpy.full(num_vars, -1, dtype=numpy.intp)
    candidates = {}  # label -> slot
    ranks = {}
    heap = []

    def alive_rows_of(children_ids):
        parts = [var_rows[vid] for vid in children_ids if vid in var_rows]
        if not parts:
            return numpy.zeros(0, dtype=numpy.intp)
        rows = numpy.concatenate(parts)
        return rows[alive[rows]]

    def add_candidate(label):
        pid = intern(label)
        tree_index = int(tree_of[pid])
        ids = tuple(intern(child) for child in trees[label].children(label))
        present = sum(1 for vid in ids if var_alive[vid] > 0)
        delta_vl = max(0, present - 1)
        ml = 0
        table = None
        if ml_tie_break:
            rows = alive_rows_of(ids)
            groups = numpy.sort(group_t[tree_index, rows].astype(numpy.int64))
            starts = run_starts(groups)
            counts = numpy.diff(
                numpy.append(starts, len(groups))
            ).astype(numpy.int64)
            table = _GroupCounts(groups[starts].copy(), counts)
            ml = len(groups) - len(starts)
        slot = len(slot_label)
        slot_label.append(label)
        slot_children.append(ids)
        slot_dvl.append(delta_vl)
        slot_tree.append(tree_index)
        slot_groups.append(table)
        slot_ml.append(ml)
        cand_of_parent[pid] = slot
        candidates[label] = slot
        rank = (delta_vl, -ml, label)
        ranks[label] = rank
        heapq.heappush(heap, rank)

    def per_watcher_batches(tree_index, rows):
        """``(slot, groups, counts)`` per active watcher among ``rows``.

        Groups rows of one tree by the candidate watching their
        variable (parent active), aggregating duplicate groups.
        """
        held = var_t[tree_index, rows]
        mask = held >= 0
        sub = rows[mask]
        if not len(sub):
            return
        # Roots have no parent (parent_vid -1) and therefore no
        # watcher — mask them before indexing the slot table.
        parents = parent_vid[held[mask]]
        watched = parents >= 0
        sub = sub[watched]
        if not len(sub):
            return
        slots = cand_of_parent[parents[watched]]
        active = slots >= 0
        sub = sub[active]
        if not len(sub):
            return
        slots = slots[active]
        groups = group_t[tree_index, sub].astype(numpy.int64)
        bound_ = next_group[tree_index] + 1
        keys = slots.astype(numpy.int64) * bound_ + groups
        unique_keys, counts = numpy.unique(keys, return_counts=True)
        key_slots = unique_keys // bound_
        bounds = run_starts(key_slots).tolist() + [len(unique_keys)]
        for start, stop in zip(bounds, bounds[1:], strict=False):
            yield (
                int(key_slots[start]),
                unique_keys[start:stop] % bound_,
                counts[start:stop].astype(numpy.int64),
            )

    def apply_merge(slot, touched):
        label = slot_label[slot]
        tree_index = slot_tree[slot]
        ids = slot_children[slot]
        pid = intern(label)
        rows = alive_rows_of(ids)
        if not len(rows):
            for vid in ids:
                var_rows.pop(vid, None)
                var_alive[vid] = 0
            var_rows[pid] = rows
            var_alive[pid] = 0
            return 0

        # Departures: every touched row leaves its residue group in
        # every *other* tree (its residue there is about to change; in
        # the merged tree only the variable moves, the residue — and
        # with it the group — stays).
        if ml_tie_break:
            for index in range(num_trees):
                if index == tree_index:
                    continue
                for watcher, groups, removed in per_watcher_batches(
                    index, rows
                ):
                    before = slot_groups[watcher].subtract(groups, removed)
                    delta = int((removed - (before == removed)).sum())
                    if delta:
                        slot_ml[watcher] -= delta
                    touched.add(watcher)

        # Rewrite + collisions: identical full contents merge (only
        # rewritten rows can collide — the fresh meta-variable cannot
        # occur in untouched rows).
        var_t[tree_index, rows] = pid
        content = numpy.empty((len(rows), 1 + 2 * num_trees), dtype=numpy.int64)
        content[:, 0] = free_sig[rows]
        for index in range(num_trees):
            content[:, 1 + 2 * index] = var_t[index, rows]
            content[:, 2 + 2 * index] = exp_t[index, rows]
        classes, distinct = unique_row_ids(content)
        first = numpy.full(distinct, len(rows), dtype=numpy.intp)
        numpy.minimum.at(
            first, classes, numpy.arange(len(rows), dtype=numpy.intp)
        )
        survivor_mask = numpy.zeros(len(rows), dtype=bool)
        survivor_mask[first] = True
        survivors = rows[survivor_mask]
        dead = rows[~survivor_mask]
        loss = len(rows) - distinct

        if len(dead):
            alive[dead] = False
            for index in range(num_trees):
                if index == tree_index:
                    continue
                held = var_t[index, dead]
                held = held[held >= 0]
                if len(held):
                    numpy.subtract.at(var_alive, held, 1)
            flat = gather_ranges(free_starts[dead], free_counts[dead])
            if len(flat):
                numpy.subtract.at(var_alive, free_vids[flat], 1)

        # Arrivals: in every other tree the survivors' residues now
        # hold the fresh meta-variable, so they form fresh groups that
        # cannot coincide with any existing residue.
        for index in range(num_trees):
            if index == tree_index:
                continue
            held = var_t[index, survivors]
            sub = survivors[held >= 0]
            if not len(sub):
                continue
            ids_local, count = unique_row_ids(residue_matrix(index, sub))
            group_t[index, sub] = ids_local + next_group[index]
            next_group[index] += count
            if ml_tie_break:
                for watcher, groups, counts in per_watcher_batches(index, sub):
                    slot_groups[watcher].append(groups, counts)
                    delta = int((counts - 1).sum())
                    if delta:
                        slot_ml[watcher] += delta
                    touched.add(watcher)

        for vid in ids:
            var_rows.pop(vid, None)
            var_alive[vid] = 0
        var_rows[pid] = survivors
        var_alive[pid] = len(survivors)
        return loss

    k = polynomials.num_monomials - bound
    trace = []
    for label in sorted(initial):
        add_candidate(label)

    cumulative_ml = 0
    cumulative_vl = 0
    while cumulative_ml < k and candidates:
        while True:
            rank = heapq.heappop(heap)
            label = rank[2]
            if ranks.get(label) == rank and label in candidates:
                break
        delta_vl = rank[0]
        slot = candidates.pop(label)
        ranks.pop(label, None)
        cand_of_parent[intern(label)] = -1
        slot_groups[slot] = None
        touched = set()
        loss = apply_merge(slot, touched)

        children = trees[label].children(label)
        selected.difference_update(children)
        selected.add(label)
        cumulative_ml += loss
        cumulative_vl += delta_vl
        trace.append(
            GreedyStep(label, loss, delta_vl, cumulative_ml, cumulative_vl)
        )

        for touched_slot in sorted(touched):
            touched_label = slot_label[touched_slot]
            if touched_label not in candidates:
                continue
            new_rank = (
                slot_dvl[touched_slot],
                -slot_ml[touched_slot],
                touched_label,
            )
            if new_rank != ranks[touched_label]:
                ranks[touched_label] = new_rank
                heapq.heappush(heap, new_rank)

        tree = trees[label]
        parent = tree.parent(label)
        if parent is not None and all(
            child in selected for child in tree.children(parent)
        ):
            add_candidate(parent)

    size = int(alive.sum())
    granularity = int(numpy.count_nonzero(var_alive > 0))
    vvs = ValidVariableSet(forest, frozenset(selected), _validated=True)
    return AbstractionResult(
        vvs=vvs,
        monomial_loss=polynomials.num_monomials - size,
        variable_loss=polynomials.num_variables - granularity,
        abstracted_size=size,
        abstracted_granularity=granularity,
        trace=trace,
    )
