"""Algorithm 1 — optimal valid variable selection for a single tree (§3.1).

Given a (multi)set of polynomials ``P``, one abstraction tree ``T`` and a
bound ``B``, find the VVS ``S`` with ``|P↓S|_M ≤ B`` that minimizes the
variable loss (equivalently, maximizes the surviving granularity).
Proposition 12: this restricted problem is in PTIME; Proposition 14
bounds the dynamic program by ``O(n · w · k² · |P|_M)`` with
``k = |P|_M − B``.

Why the DP is sound (the paper's "key insight"): compatibility allows at
most one variable of ``T`` per monomial, so VVSs rooted in disjoint
subtrees merge *disjoint* sets of monomials — both ``ML`` and ``VL`` are
additive across siblings, and a per-node table indexed by monomial loss
composes by (saturating) sums.

Two implementations are provided:

* :func:`optimal_vvs` — the optimized version the paper benchmarks
  (§4.1): sparse hash tables instead of dense arrays, Pareto pruning of
  dominated entries, the height-1 shortcut, and the one-pass
  :class:`~repro.core.abstraction.LossIndex` for all per-node ``ML``
  values.
* :func:`optimal_vvs_naive` — a literal transcription of the paper's
  pseudo-code (dense arrays, per-node polynomial traversal for ``ML``).
  It exists as an executable specification: tests assert both versions
  agree, and the ablation benchmark measures the gap the optimizations
  buy.
"""

from __future__ import annotations

from repro.core.abstraction import LossIndex, abstract_counts, ensure_set
from repro.core.forest import AbstractionForest, ValidVariableSet
from repro.core.tree import AbstractionTree
from repro.algorithms.result import AbstractionResult, InfeasibleBoundError

__all__ = ["optimal_vvs", "optimal_vvs_naive"]

# Choice markers for reconstruction.
_SELF = "self"
_CHILDREN = "children"


def _as_single_tree(tree):
    """Accept an AbstractionTree or a one-tree forest; return the tree."""
    if isinstance(tree, AbstractionTree):
        return tree
    if isinstance(tree, AbstractionForest):
        if len(tree.trees) != 1:
            raise ValueError(
                "optimal_vvs handles exactly one abstraction tree "
                f"(got {len(tree.trees)}); the multi-tree problem is NP-hard — "
                "use repro.algorithms.greedy.greedy_vvs"
            )
        return tree.trees[0]
    raise TypeError(f"expected AbstractionTree, got {type(tree).__name__}")


def _pareto(entries):
    """Drop dominated entries: keep, per ml, min vl; then the frontier.

    Entry ``(ml₁, vl₁)`` is dominated by ``(ml₂, vl₂)`` when
    ``ml₂ ≥ ml₁`` and ``vl₂ ≤ vl₁``: more compression for fewer lost
    variables can never hurt the final objective (ML is only constrained
    from below, VL is minimized). Returns ``{ml: (vl, choice)}``.
    """
    best = {}
    for ml, vl, choice in entries:
        current = best.get(ml)
        if current is None or vl < current[0]:
            best[ml] = (vl, choice)
    frontier = {}
    best_vl = None
    for ml in sorted(best, reverse=True):
        vl, choice = best[ml]
        if best_vl is None or vl < best_vl:
            frontier[ml] = (vl, choice)
            best_vl = vl
    return frontier


def _combine_children(child_tables, child_labels, k):
    """The paper's ``computeArray``: knapsack over children tables.

    Returns ``{ml: (vl, ((child_label, child_ml), ...))}`` where ``ml``
    saturates at ``k`` (the paper's ``A_v[k]`` records "ML ≥ k").
    """
    table = {0: (0, ())}
    for label, child in zip(child_labels, child_tables, strict=True):
        merged = {}
        for ml_acc, (vl_acc, picks) in table.items():
            for ml_child, (vl_child, _) in child.items():
                ml = min(k, ml_acc + ml_child)
                vl = vl_acc + vl_child
                current = merged.get(ml)
                if current is None or vl < current[0]:
                    merged[ml] = (vl, picks + ((label, ml_child),))
        table = _pareto(
            (ml, vl, choice) for ml, (vl, choice) in merged.items()
        )
    return table


def optimal_vvs(polynomials, tree, bound, *, clean=True):
    """Optimal single-tree abstraction (Algorithm 1, optimized).

    :param polynomials: a :class:`Polynomial` or :class:`PolynomialSet`.
    :param tree: the abstraction tree (or a one-tree forest).
    :param bound: desired maximum number of monomials ``B``.
    :param clean: apply footnote 1 (drop absent leaves, splice
        single-child nodes) before solving; disable only if the tree is
        already clean.
    :raises CompatibilityError: when a monomial holds a meta-variable
        of the (cleaned) tree or two of its nodes (§2.2 conditions 2
        and 3) — single-tree additivity, and with it the DP, needs
        both.
    :raises InfeasibleBoundError: when even the coarsest cut exceeds
        ``bound``.

    Among adequate cuts of equal variable loss the tables keep the
    first they reach. They cap every monomial loss at
    ``k = |P|_M − bound`` and fold a node's children in tree order, so a
    tie goes to the cut whose longest proper prefix of children loses
    more (capped) monomials, then the next-longest prefix, and so on —
    not to the larger loss that :func:`brute_force_vvs
    <repro.algorithms.brute_force.brute_force_vvs>` prefers.

    >>> from repro.core.parser import parse_set
    >>> polys = parse_set(["2*b1*m1 + 3*b1*m3 + 4*b2*m1 + 5*b2*m3"])
    >>> tree = AbstractionTree.from_nested(("SB", ["b1", "b2"]))
    >>> result = optimal_vvs(polys, tree, bound=2)
    >>> sorted(result.vvs.labels), result.abstracted_size
    (['SB'], 2)
    """
    polynomials = ensure_set(polynomials)
    tree = _as_single_tree(tree)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if clean:
        tree = tree.clean(polynomials.variables)
    forest = AbstractionForest([tree] if tree is not None else [])
    polynomials.columnar().tree_columns(forest)
    total_monomials = polynomials.num_monomials
    k = total_monomials - bound
    if tree is None or k <= 0:
        # Nothing to compress (or no usable tree): the identity cut.
        return _finish(polynomials, forest, forest.leaf_vvs())

    index = LossIndex(polynomials, tree)
    if index.max_ml < k:
        raise InfeasibleBoundError(bound, total_monomials - index.max_ml)

    tables = {}
    # Post-order traversal (children before parents).
    order = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    for node in reversed(order):
        label = node.label
        if node.is_leaf:
            tables[label] = {0: (0, (_SELF,))}
            continue
        height_one = all(child.is_leaf for child in node.children)
        if height_one:
            # §4.1 shortcut: a cut inside a height-1 subtree is either
            # all leaves (ml=0, vl=0) or {v} itself.
            table = {0: (0, (_CHILDREN, tuple((c.label, 0) for c in node.children)))}
        else:
            child_labels = [child.label for child in node.children]
            combined = _combine_children(
                [tables[c] for c in child_labels], child_labels, k
            )
            table = {
                ml: (vl, (_CHILDREN, picks)) for ml, (vl, picks) in combined.items()
            }
        ml_self = min(k, index.ml(label))
        vl_self = index.vl(label)
        current = table.get(ml_self)
        if current is None or vl_self < current[0]:
            table[ml_self] = (vl_self, (_SELF,))
        tables[label] = _pareto(
            (ml, vl, choice) for ml, (vl, choice) in table.items()
        )

    root_table = tables[tree.root.label]
    if k not in root_table:
        # Cannot happen when index.max_ml >= k, but guard for safety.
        raise InfeasibleBoundError(bound, total_monomials - index.max_ml)

    labels = set()
    _reconstruct(tree.root, k, tables, labels)
    vvs = ValidVariableSet(forest, frozenset(labels), _validated=True)
    return _finish(polynomials, forest, vvs)


def _reconstruct(node, ml_key, tables, out):
    """Pointer-chase the DP choices into a concrete cut."""
    vl_choice = tables[node.label][ml_key]
    choice = vl_choice[1]
    if choice[0] == _SELF:
        out.add(node.label)
        return
    _, picks = choice
    children = {child.label: child for child in node.children}
    for child_label, child_ml in picks:
        _reconstruct(children[child_label], child_ml, tables, out)


def _finish(polynomials, forest, vvs):
    size, granularity = abstract_counts(polynomials, vvs.mapping())
    return AbstractionResult(
        vvs=vvs,
        monomial_loss=polynomials.num_monomials - size,
        variable_loss=polynomials.num_variables - granularity,
        abstracted_size=size,
        abstracted_granularity=granularity,
    )


# --------------------------------------------------------------------------
# Literal transcription of the paper's pseudo-code (executable spec).
# --------------------------------------------------------------------------


def _naive_ml(polynomials, tree, label):
    """The §4.1 "naive way": substitute and re-count, per node."""
    mapping = {leaf: label for leaf in tree.leaves_under(label) if leaf != label}
    size, _ = abstract_counts(polynomials, mapping)
    return polynomials.num_monomials - size


def _naive_vl(polynomials, tree, label):
    variables = polynomials.variables
    present = sum(1 for leaf in tree.leaves_under(label) if leaf in variables)
    return max(0, present - 1)


def optimal_vvs_naive(polynomials, tree, bound, *, clean=True):
    """Algorithm 1 exactly as printed: dense arrays, per-node ML scans.

    Kept as an executable specification of the pseudo-code; tests assert
    it agrees with :func:`optimal_vvs` on every instance. ``⊥`` is
    modelled as ``None``.
    """
    polynomials = ensure_set(polynomials)
    tree = _as_single_tree(tree)
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if clean:
        tree = tree.clean(polynomials.variables)
    forest = AbstractionForest([tree] if tree is not None else [])
    total = polynomials.num_monomials
    k = total - bound
    if tree is None or k <= 0:
        return _finish(polynomials, forest, forest.leaf_vvs())

    arrays = {}  # label -> list of (vl, choice) | None, indexed 0..k
    order = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)

    for node in reversed(order):
        label = node.label
        if node.is_leaf:
            array = [None] * (k + 1)
            array[0] = (0, (_SELF,))
            arrays[label] = array
            continue
        # computeArray: dynamic program over the children, dense.
        child_labels = [child.label for child in node.children]
        tau = [(arrays[child_labels[0]][j] and
                (arrays[child_labels[0]][j][0],
                 ((child_labels[0], j),)))
               for j in range(k + 1)]
        for child_label in child_labels[1:]:
            child_array = arrays[child_label]
            new_tau = [None] * (k + 1)
            for j in range(k + 1):
                for s in range(j + 1):
                    left = tau[s]
                    right = child_array[j - s]
                    if left is None or right is None:
                        continue
                    # Saturate at k: "ML >= k" bucket.
                    target = min(k, j)
                    vl = left[0] + right[0]
                    picks = left[1] + ((child_label, j - s),)
                    if new_tau[target] is None or vl < new_tau[target][0]:
                        new_tau[target] = (vl, picks)
            # Entries whose exact sum exceeds k also land in bucket k.
            for s in range(k + 1):
                for j in range(k + 1 - s, k + 1):
                    left = tau[s]
                    right = child_array[j]
                    if left is None or right is None:
                        continue
                    vl = left[0] + right[0]
                    picks = left[1] + ((child_label, j),)
                    if new_tau[k] is None or vl < new_tau[k][0]:
                        new_tau[k] = (vl, picks)
            tau = new_tau
        array = [
            (entry and (entry[0], (_CHILDREN, entry[1]))) for entry in tau
        ]
        ml_v = _naive_ml(polynomials, tree, label)
        vl_v = _naive_vl(polynomials, tree, label)
        slot = ml_v if ml_v < k else k
        if array[slot] is None or vl_v < array[slot][0]:
            array[slot] = (vl_v, (_SELF,))
        arrays[label] = array

    root_array = arrays[tree.root.label]
    if root_array[k] is None:
        best = max((j for j in range(k + 1) if root_array[j] is not None), default=0)
        raise InfeasibleBoundError(bound, total - best)

    labels = set()

    def reconstruct(node, slot):
        entry = arrays[node.label][slot]
        choice = entry[1]
        if choice[0] == _SELF:
            labels.add(node.label)
            return
        children = {child.label: child for child in node.children}
        for child_label, child_slot in choice[1]:
            reconstruct(children[child_label], child_slot)

    reconstruct(tree.root, k)
    vvs = ValidVariableSet(forest, frozenset(labels), _validated=True)
    return _finish(polynomials, forest, vvs)
