"""Positive relational algebra over K-relations (SPJU).

Annotation propagation follows the semiring model exactly:

* selection keeps annotations;
* projection ⊕-combines annotations of tuples that collapse;
* join ⊗-multiplies the matched tuples' annotations;
* union ⊕-combines annotations of equal tuples.

Difference/negation is deliberately absent — semirings have no minus,
which is also why the paper's model covers SPJU (+ aggregates).

Selection, renaming and joins never make two output tuples equal (their
inputs are K-relations, so duplicate-free), so they fill the output's
row dict directly; projection and union go through
:meth:`Relation.add`, which ⊕-combines the tuples that collapse.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.schema import Schema, SchemaError
from repro.engine.table import Relation

__all__ = ["select", "select_rows", "project", "join", "union", "rename", "extend"]


def _require_same_semiring(left, right):
    if left.semiring is not right.semiring:
        raise ValueError(
            f"semiring mismatch: {left.semiring.name} vs {right.semiring.name}"
        )


def select(relation, predicate):
    """``σ_predicate`` — keep rows whose dict satisfies ``predicate``."""
    row_to_dict = relation.schema.row_to_dict
    return select_rows(relation, lambda row: predicate(row_to_dict(row)))


def select_rows(relation, test):
    """``σ`` over value tuples: keep rows for which ``test(row)`` holds.

    Selection keeps annotations and row order, so the surviving rows
    are copied as they are. Planners compile predicates against tuple
    positions and call this directly; :func:`select` wraps a row-dict
    predicate around it.
    """
    out = Relation(relation.schema, semiring=relation.semiring, name=relation.name)
    out.rows = {
        row: annotation for row, annotation in relation.rows.items() if test(row)
    }
    return out


def project(relation, columns):
    """``π_columns`` — project, ⊕-combining collapsing rows."""
    schema = relation.schema.project(columns)
    positions = [relation.schema.index(c) for c in columns]
    out = Relation(schema, semiring=relation.semiring)
    for row, annotation in relation:
        out.add(tuple(row[p] for p in positions), annotation)
    return out


def rename(relation, mapping):
    """``ρ`` — rename columns via ``mapping`` (old → new)."""
    for column in mapping:
        relation.schema.index(column)
    out = Relation(
        relation.schema.rename(mapping),
        semiring=relation.semiring,
        name=relation.name,
    )
    out.rows = dict(relation.rows)
    return out


def extend(relation, column, fn):
    """Add a computed column ``fn(row_dict)`` (annotation-preserving).

    Not part of classic SPJU but needed by aggregate workloads (e.g.
    TPC-H's ``l_extendedprice * (1 - l_discount)``).
    """
    if column in relation.schema:
        raise SchemaError(f"column {column!r} already exists")
    schema = Schema(relation.schema.columns + (column,))
    out = Relation(schema, semiring=relation.semiring)
    for row, annotation in relation:
        value = fn(relation.schema.row_to_dict(row))
        out.add(row + (value,), annotation)
    return out


def _normalize_on(on):
    """Accept ``"col"``, ``("l", "r")``, or lists thereof."""
    if isinstance(on, str):
        return [(on, on)]
    if isinstance(on, tuple) and len(on) == 2 and all(isinstance(c, str) for c in on):
        return [on]
    pairs = []
    for item in on:
        if isinstance(item, str):
            pairs.append((item, item))
        else:
            left, right = item
            pairs.append((left, right))
    if not pairs:
        raise ValueError("join requires at least one column pair")
    return pairs


def join(left, right, on):
    """``⋈`` — equi-join; matched annotations ⊗-multiply.

    ``on`` names the join columns: a single name (same on both sides),
    a ``(left, right)`` pair, or a list of either. The output schema is
    the left schema followed by the right's non-join columns.
    """
    _require_same_semiring(left, right)
    pairs = _normalize_on(on)
    # A one-column key is the value itself: it matches exactly when the
    # one-tuple would, without building a tuple per row.
    left_key = itemgetter(*[left.schema.index(col) for col, _ in pairs])
    right_key = itemgetter(*[right.schema.index(r) for _, r in pairs])
    right_join_cols = {r for _, r in pairs}
    right_kept = right.schema.tuple_getter(
        [column for column in right.schema.columns if column not in right_join_cols]
    )
    schema = left.schema.concat(right.schema, drop_from_other=right_join_cols)

    # Hash join: index the right side by key, keeping only the columns
    # each match appends to a left row.
    index = {}
    for row, annotation in right.rows.items():
        index.setdefault(right_key(row), []).append((right_kept(row), annotation))

    times = left.semiring.times
    is_zero = left.semiring.is_zero
    out = Relation(schema, semiring=left.semiring)
    rows = out.rows
    for row, annotation in left.rows.items():
        for kept, right_annotation in index.get(left_key(row), ()):
            combined = times(annotation, right_annotation)
            if not is_zero(combined):
                rows[row + kept] = combined
    return out


def union(left, right):
    """``∪`` — same-schema union; equal tuples' annotations ⊕-combine."""
    _require_same_semiring(left, right)
    if left.schema != right.schema:
        raise SchemaError(
            f"union schemas differ: {left.schema!r} vs {right.schema!r}"
        )
    out = Relation(left.schema, semiring=left.semiring)
    for row, annotation in left:
        out.add(row, annotation)
    for row, annotation in right:
        out.add(row, annotation)
    return out
