"""Relation schemas: ordered, uniquely-named columns."""

from __future__ import annotations

from operator import itemgetter

__all__ = ["Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised on schema mismatches (unknown columns, name clashes, …)."""


class Schema:
    """An ordered sequence of uniquely-named columns.

    >>> s = Schema(["ID", "Plan", "Zip"])
    >>> s.index("Plan")
    1
    >>> s.project(["Zip", "ID"]).columns
    ('Zip', 'ID')
    """

    __slots__ = ("columns", "_index")

    def __init__(self, columns):
        self.columns = tuple(str(c) for c in columns)
        self._index = {}
        for position, column in enumerate(self.columns):
            if column in self._index:
                raise SchemaError(f"duplicate column name {column!r}")
            self._index[column] = position

    def index(self, column):
        """Position of ``column`` (SchemaError if absent)."""
        try:
            return self._index[column]
        except KeyError:
            raise SchemaError(
                f"unknown column {column!r}; schema has {list(self.columns)}"
            ) from None

    def __contains__(self, column):
        return column in self._index

    def __iter__(self):
        return iter(self.columns)

    def __len__(self):
        return len(self.columns)

    def __eq__(self, other):
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def project(self, columns):
        """Schema restricted to ``columns`` (in the given order)."""
        for column in columns:
            self.index(column)
        return Schema(columns)

    def rename(self, mapping):
        """Schema with columns renamed via ``mapping``."""
        return Schema(mapping.get(c, c) for c in self.columns)

    def concat(self, other, drop_from_other=()):
        """Schema of a join output: self + (other − dropped join columns).

        Raises :class:`SchemaError` on residual name clashes — callers
        should rename first, which keeps provenance columns explicit.
        """
        dropped = set(drop_from_other)
        extra = [c for c in other.columns if c not in dropped]
        clash = set(self.columns) & set(extra)
        if clash:
            raise SchemaError(
                f"join output would duplicate columns {sorted(clash)}; "
                "rename one side first"
            )
        return Schema(self.columns + tuple(extra))

    def tuple_getter(self, columns):
        """A function from a row of this schema to its ``columns`` values.

        >>> Schema(["A", "B", "C"]).tuple_getter(["C", "A"])((1, 2, 3))
        (3, 1)
        """
        positions = [self.index(c) for c in columns]
        if len(positions) == 1:
            position = positions[0]
            return lambda row: (row[position],)
        if not positions:
            return lambda row: ()
        return itemgetter(*positions)

    def row_to_dict(self, row):
        """Zip a value tuple with the column names."""
        return dict(zip(self.columns, row, strict=True))

    def dict_to_row(self, mapping):
        """Project a dict onto this schema's column order."""
        try:
            return tuple(mapping[c] for c in self.columns)
        except KeyError as missing:
            raise SchemaError(f"row is missing column {missing}") from None

    def __repr__(self):
        return f"Schema({list(self.columns)!r})"
