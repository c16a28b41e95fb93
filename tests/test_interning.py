"""Tests for the variable interning table and the id-keyed Monomial."""

from repro.core.interning import SENTINEL_ID, VARIABLES, VariableTable
from repro.core.polynomial import Monomial, Polynomial, PolynomialSet


class TestVariableTable:
    def test_intern_is_idempotent(self):
        table = VariableTable()
        assert table.intern("x") == table.intern("x")

    def test_ids_are_dense_in_first_seen_order(self):
        table = VariableTable()
        assert [table.intern(v) for v in ("a", "b", "a", "c")] == [0, 1, 0, 2]

    def test_name_roundtrip(self):
        table = VariableTable()
        vid = table.intern("month")
        assert table.name(vid) == "month"

    def test_lookup_without_interning(self):
        table = VariableTable()
        assert table.lookup("never-seen") is None
        table.intern("seen")
        assert table.lookup("seen") is not None

    def test_contains_and_len(self):
        table = VariableTable()
        table.intern("x")
        assert "x" in table and "y" not in table
        assert len(table) == 1

    def test_intern_mapping(self):
        table = VariableTable()
        id_map = table.intern_mapping({"b1": "SB", "b2": "SB"})
        assert id_map[table.lookup("b1")] == table.lookup("SB")
        assert id_map[table.lookup("b2")] == table.lookup("SB")

    def test_sentinel_can_never_collide(self):
        # Ids are dense from 0; the residual-key sentinel is negative.
        assert SENTINEL_ID < 0


class TestMonomialKey:
    def test_key_is_id_sorted_and_consistent(self):
        m = Monomial.of("z", "a", ("m", 2))
        assert sorted(m.key) == list(m.key)
        assert {VARIABLES.name(vid) for vid, _ in m.key} == {"z", "a", "m"}
        assert {VARIABLES.name(vid): e for vid, e in m.key} == dict(m.powers)

    def test_equal_monomials_share_key(self):
        assert Monomial.of("x", "y").key == Monomial.of("y", "x").key

    def test_powers_stay_name_sorted(self):
        # The string-facing view is sorted by name even when interning
        # order differs (z interned before a here).
        m = Monomial.of("zz9", "aa0")
        assert [v for v, _ in m.powers] == ["aa0", "zz9"]

    def test_from_key_matches_public_constructor(self):
        original = Monomial.of(("x", 2), "y")
        rebuilt = Monomial._from_key(original.key)
        assert rebuilt == original
        assert hash(rebuilt) == hash(original)
        assert rebuilt.powers == original.powers

    def test_exponent_and_contains_on_uninterned_variable(self):
        m = Monomial.of("x")
        probe = "completely-fresh-variable-name-xyz"
        assert m.exponent(probe) == 0
        assert probe not in m

    def test_substitute_ids(self):
        polys = PolynomialSet([Polynomial({Monomial.of("m1", "x"): 1})])
        id_map = VARIABLES.intern_mapping({"m1": "q1"})
        renamed = polys.columnar().substitute(id_map)
        assert renamed.vids.tolist() == sorted(
            VARIABLES.intern(name) for name in ("q1", "x")
        )
        assert list(PolynomialSet.from_columnar(renamed)[0].monomials) == [
            Monomial.of("q1", "x")
        ]


class TestPolynomialIdCaches:
    def test_variable_ids_match_variables(self):
        p = Polynomial({Monomial.of("a", "b"): 1, Monomial.of("c"): 2})
        names = {VARIABLES.name(vid) for vid in p.variable_ids()}
        assert names == p.variables == {"a", "b", "c"}

    def test_cache_is_stable_across_queries(self):
        p = Polynomial({Monomial.of("a"): 1})
        first = p.variable_ids()
        assert p.variable_ids() is first
        assert p.num_variables == 1
