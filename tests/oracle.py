"""A naive oracle for provenance abstraction, from the paper's definitions.

Everything here is plain Python data and exact arithmetic — no import
from ``repro``:

* a *monomial* is a tuple of ``(variable, exponent)`` pairs sorted by
  variable name (``()`` is the constant monomial);
* a *polynomial* is a ``{monomial: coefficient}`` dict, a *set* of
  polynomials a list of them;
* a *tree* is a nested spec: a leaf is its label, an internal node is
  ``(label, [child, ...])``; a *forest* is a list of trees;
* a *cut* is a frozenset of labels.

The definitions (§2.2–§3.2):

* ``P↓S`` substitutes every leaf by its representative in ``S``, term
  by term, and sums the coefficients of monomials that become equal;
* ``|P|_M`` counts monomials and ``|P|_V`` distinct variables, over
  the substituted monomials before any coefficient cancels (the size
  is structural, as the solvers count it);
* ``ML_P(S) = |P|_M − |P↓S|_M`` and ``VL_P(S) = |P|_V − |P↓S|_V``;
* Algorithm 2 ranks every candidate afresh each round by
  ``(ΔVL, −ΔML, label)``, with both deltas read off ``|P↓S|`` counts;
* Algorithm 1's optimum is the adequate cut (``|P↓S|_M ≤ B``) of
  least variable loss, found here by enumerating every cut; ties go
  the way the DP's tables break them (:func:`dp_rank`).

The ask side: a scenario assigns values to variables, every other
variable taking a default. :func:`evaluate` valuates a set term by term
in exact :class:`~fractions.Fraction` arithmetic, and :func:`mean_lift`
moves a scenario onto a cut — each chosen label takes the mean of its
leaves' values, which is exact when those values are equal.

It is deliberately slow: every quantity is recomputed from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------- trees


def label_of(spec):
    return spec if isinstance(spec, str) else spec[0]


def children_of(spec):
    return [] if isinstance(spec, str) else list(spec[1])


def nodes(spec):
    """Every ``(label, spec)`` pair of the tree, root first."""
    out = [(label_of(spec), spec)]
    for child in children_of(spec):
        out.extend(nodes(child))
    return out


def leaves(spec):
    if isinstance(spec, str):
        return [spec]
    return [leaf for child in spec[1] for leaf in leaves(child)]


def find(spec, label):
    for name, node in nodes(spec):
        if name == label:
            return node
    raise KeyError(label)


def clean(spec, variables):
    """Footnote 1: drop absent leaves and childless internal nodes;
    a node left with one child is replaced by that child."""
    if isinstance(spec, str):
        return spec if spec in variables else None
    kept = [c for c in (clean(child, variables) for child in spec[1]) if c]
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return (spec[0], kept)


def clean_forest(forest, polynomials):
    variables = set(variables_of(polynomials))
    cleaned = [clean(tree, variables) for tree in forest]
    return [tree for tree in cleaned if tree is not None]


def cuts(spec):
    """Every cut of the tree: the node itself, or a cut of each child."""
    out = [frozenset([label_of(spec)])]
    if not isinstance(spec, str):
        for parts in product(*(cuts(child) for child in spec[1])):
            out.append(frozenset().union(*parts))
    return out


def forest_cuts(forest):
    return [
        frozenset().union(*parts)
        for parts in product(*(cuts(tree) for tree in forest))
    ]


def mapping_of(forest, cut):
    """Leaf → representative under ``cut`` (identity entries omitted)."""
    mapping = {}
    for tree in forest:
        for label, node in nodes(tree):
            if label in cut:
                for leaf in leaves(node):
                    if leaf != label:
                        mapping[leaf] = label
    return mapping


# ---------------------------------------------------------- abstraction


def substitute_monomial(monomial, mapping):
    powers = {}
    for variable, exponent in monomial:
        target = mapping.get(variable, variable)
        powers[target] = powers.get(target, 0) + exponent
    return tuple(sorted(powers.items()))


def substitute(polynomials, mapping):
    """``P↓S`` term by term; monomials whose sum is zero stay listed."""
    out = []
    for polynomial in polynomials:
        terms = {}
        for monomial, coefficient in polynomial.items():
            key = substitute_monomial(monomial, mapping)
            terms[key] = terms.get(key, 0) + coefficient
        out.append(terms)
    return out


def abstract(polynomials, mapping):
    """``P↓S`` as polynomials: zero coefficients dropped."""
    return [
        {monomial: coeff for monomial, coeff in terms.items() if coeff != 0}
        for terms in substitute(polynomials, mapping)
    ]


def variables_of(polynomials):
    return {
        variable
        for polynomial in polynomials
        for monomial in polynomial
        for variable, _ in monomial
    }


def size(polynomials):
    return sum(len(polynomial) for polynomial in polynomials)


def counts(polynomials, mapping):
    """``(|P↓S|_M, |P↓S|_V)``."""
    result = substitute(polynomials, mapping)
    return size(result), len(variables_of(result))


def losses(polynomials, mapping):
    """``(ML_P(S), VL_P(S))``."""
    abstracted_size, granularity = counts(polynomials, mapping)
    return (
        size(polynomials) - abstracted_size,
        len(variables_of(polynomials)) - granularity,
    )


def node_losses(polynomials, tree):
    """``{label: (ml, vl)}``: each node's losses when its subtree alone
    is abstracted into it (the rest of the tree stays at its leaves)."""
    return {
        label: losses(polynomials, {
            leaf: label for leaf in leaves(node) if leaf != label
        })
        for label, node in nodes(tree)
    }


# ----------------------------------------------------------- evaluation


def evaluate(polynomials, assignment, default):
    """``[(value, magnitude), ...]``, one pair per polynomial: its value
    with every variable outside ``assignment`` at ``default``, and the
    sum of its terms' absolute values. Exact: floats count at their
    binary value."""
    values = {variable: Fraction(value) for variable, value in assignment.items()}
    fallback = Fraction(default)
    out = []
    for polynomial in polynomials:
        total = magnitude = Fraction(0)
        for monomial, coefficient in polynomial.items():
            term = Fraction(coefficient)
            for variable, exponent in monomial:
                term *= values.get(variable, fallback) ** exponent
            total += term
            magnitude += abs(term)
        out.append((total, magnitude))
    return out


def mean_lift(forest, cut, assignment, default):
    """``assignment`` moved onto ``cut``: each chosen label takes the
    mean of its leaves' values (a kept leaf, its own); every other
    variable keeps its value. Exact."""
    lifted = {variable: Fraction(value) for variable, value in assignment.items()}
    fallback = Fraction(default)
    for tree in forest:
        for label, node in nodes(tree):
            if label in cut:
                group = [lifted.get(leaf, fallback) for leaf in leaves(node)]
                lifted[label] = sum(group) / len(group)
    return lifted


# ----------------------------------------------------------- algorithms


def greedy(polynomials, forest, bound, *, ml_tie_break=True, do_clean=True):
    """Algorithm 2 as the literal rescan.

    Returns ``(cut, trace)`` where ``trace`` lists
    ``(chosen, ΔML, ΔVL, ML, VL)`` per round.
    """
    if do_clean:
        forest = clean_forest(forest, polynomials)
    cut = set()
    for tree in forest:
        cut.update(leaves(tree))
    node_of = {label: node for tree in forest for label, node in nodes(tree)}
    k = size(polynomials) - bound
    trace = []
    ml = vl = 0
    while ml < k:
        current = counts(polynomials, mapping_of(forest, cut))
        ranked = []
        for label, node in node_of.items():
            children = {label_of(child) for child in children_of(node)}
            if not children or not children <= cut:
                continue
            after = counts(
                polynomials, mapping_of(forest, (cut - children) | {label})
            )
            delta_ml = current[0] - after[0]
            delta_vl = current[1] - after[1]
            ranked.append(
                (delta_vl, -delta_ml if ml_tie_break else 0, label, delta_ml)
            )
        if not ranked:
            break
        delta_vl, _, label, delta_ml = min(ranked)
        cut -= {label_of(child) for child in children_of(node_of[label])}
        cut.add(label)
        ml += delta_ml
        vl += delta_vl
        trace.append((label, delta_ml, delta_vl, ml, vl))
    return frozenset(cut), trace


def optimum(polynomials, tree, bound):
    """Algorithm 1's answer by enumeration (small trees only).

    Returns ``(cut or None, min |P↓S|_M)``: among the adequate cuts of
    least variable loss, the one :func:`dp_rank` puts first.
    """
    k = size(polynomials) - bound
    adequate = []
    smallest = None
    for cut in cuts(tree):
        monomial_loss, variable_loss = losses(
            polynomials, mapping_of([tree], cut)
        )
        abstracted_size = size(polynomials) - monomial_loss
        smallest = abstracted_size if smallest is None else min(
            smallest, abstracted_size
        )
        if abstracted_size <= bound:
            adequate.append((variable_loss, cut))
    if not adequate:
        return None, smallest
    least = min(variable_loss for variable_loss, _ in adequate)
    best = max(
        (cut for variable_loss, cut in adequate if variable_loss == least),
        key=lambda cut: dp_rank(polynomials, tree, cut, k),
    )
    return best, smallest


def dp_rank(polynomials, tree, cut, k):
    """The order Algorithm 1's tables give cuts of equal VL (larger wins).

    The paper leaves ties open. The DP caps every monomial loss at
    ``k = |P|_M − B`` and folds a node's children in tree order. On a
    tie it keeps the cut whose longest proper prefix of children loses
    more (capped) monomials, then the next-longest prefix, and so on;
    then the one whose children lose more, child by child; then each
    child's own rank, in order.
    """
    if label_of(tree) in cut:
        return (0,)
    children = children_of(tree)
    child_ml = [
        losses(polynomials, mapping_of([child], cut))[0] for child in children
    ]
    prefixes = [
        min(k, sum(child_ml[:j])) for j in range(len(children) - 1, 0, -1)
    ]
    return (
        1,
        prefixes + [min(k, ml) for ml in child_ml],
        [dp_rank(polynomials, child, cut, k) for child in children],
    )


def brute_force(polynomials, forest, bound):
    """The adequate cut ranked first by ``(VL, |P↓S|_M, sorted labels)``,
    or ``None``; plus the smallest ``|P↓S|_M`` over all cuts."""
    best = None
    smallest = None
    for cut in forest_cuts(forest):
        abstracted_size, _ = counts(polynomials, mapping_of(forest, cut))
        smallest = abstracted_size if smallest is None else min(
            smallest, abstracted_size
        )
        if abstracted_size > bound:
            continue
        vl = losses(polynomials, mapping_of(forest, cut))[1]
        rank = (vl, abstracted_size, tuple(sorted(cut)))
        if best is None or rank < best[0]:
            best = (rank, cut)
    return (best[1] if best else None), smallest
