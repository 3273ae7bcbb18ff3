import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrel import groupoids
from qcrel.groupoids import (
    AbelianGroup,
    ComplementaryPair,
    Groupoid,
    check_structure_laws,
    cnot,
    fourier_rel,
    is_complementary,
    make_complementary_pair,
    parse_group_spec,
    parse_groupoid_spec,
    parse_pair_spec,
    verify_classical_structure,
)
from qcrel.hom_relations import (
    StructuredRel,
    enumerate_classical_relations,
    is_surjective_on_objects,
)
from qcrel.relations import FinRel, StateVec, identity, is_unitary, tensor, then
from reference import structure_laws, x_mult


def x_unbiased_states(pair):
    """X's unbiased states, expressed in the underlying coding."""
    inverse = pair.x_recode_inverse
    return tuple(StateVec(pair.size, (inverse[m] for m in s.members))
                 for s in pair.x.unbiased_states())


small_groups = st.sampled_from(
    [AbelianGroup([n]) for n in (1, 2, 3, 4)] + [AbelianGroup([2, 2])]
)


class TestAbelianGroup:
    def test_mixed_radix_arithmetic(self):
        g = AbelianGroup([2, 3])
        assert g.order == 6
        assert g.add(g.flat([1, 2]), g.flat([1, 1])) == g.flat([0, 0])
        assert g.neg(g.flat([1, 2])) == g.flat([1, 1])

    def test_identity_is_zero(self):
        g = AbelianGroup([4])
        assert all(g.add(0, a) == a for a in range(4))

    @given(small_groups, st.data())
    def test_inverses(self, g, data):
        a = data.draw(st.integers(0, g.order - 1))
        assert g.add(a, g.neg(a)) == 0

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_tables_match_coordinate_arithmetic(self, orders):
        g = AbelianGroup(orders)
        for a in range(g.order):
            ca = g.coords(a)
            assert g.neg_table[a] == g.flat([(-x) % n for x, n in zip(ca, orders)])
            for b in range(g.order):
                cb = g.coords(b)
                assert g.add_table[a][b] == g.flat([(x + y) % n for x, y, n in zip(ca, cb, orders)])

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            AbelianGroup([])
        with pytest.raises(ValueError):
            AbelianGroup([0])


class TestGroupoid:
    def test_xor_multiplication_graph(self):
        z2 = parse_groupoid_spec("Z2")
        assert z2.mult_rel == FinRel(4, 2, [(0, 0), (1, 1), (2, 1), (3, 0)])

    def test_partiality_across_copies(self):
        z = parse_groupoid_spec("Z2^2")
        assert z.mult(1, 3) is None
        assert z.mult(2, 3) == 3

    def test_unit_state(self):
        assert parse_groupoid_spec("Z2^2").unit_state() == StateVec(4, [0, 2])

    def test_classical_states(self):
        assert [s.sorted_members() for s in parse_groupoid_spec("Z2^2").classical_states()] \
            == [[0, 1], [2, 3]]
        assert [s.sorted_members() for s in parse_groupoid_spec("Z3").classical_states()] \
            == [[0, 1, 2]]
        assert [s.sorted_members() for s in parse_groupoid_spec("Z1^3").classical_states()] \
            == [[0], [1], [2]]

    def test_unbiased_states(self):
        assert [s.sorted_members() for s in parse_groupoid_spec("Z2^2").unbiased_states()] \
            == [[0, 2], [1, 3]]
        assert [s.sorted_members() for s in parse_groupoid_spec("Z3").unbiased_states()] \
            == [[0], [1], [2]]
        assert [s.sorted_members() for s in parse_groupoid_spec("Z3^2").unbiased_states()] \
            == [[0, 3], [1, 4], [2, 5]]

    @given(small_groups, st.integers(1, 3), st.data())
    @settings(max_examples=40)
    def test_unbiased_states_hit_each_copy_once(self, g, copies, data):
        z = Groupoid(g, copies)
        u = data.draw(st.sampled_from(z.unbiased_states()))
        per_copy = [sum(1 for m in u.members if z.copy_of(m) == i) for i in range(copies)]
        assert per_copy == [1] * copies


class TestStructureLaws:
    @pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z2^2", "Z3^3", "Z4^2",
                                      "Z2xZ2", "Z2xZ3^2", "Z1^4"])
    def test_groupoids_are_classical_structures(self, spec):
        assert verify_classical_structure(parse_groupoid_spec(spec)).all_ok

    def test_mutated_multiplication_fails(self):
        z2 = parse_groupoid_spec("Z2")
        m = z2.mult_rel
        for drop in m.sorted_pairs():
            mutated = FinRel(m.dom_size, m.cod_size, m.pairs - {tuple(drop)})
            report = check_structure_laws(mutated, z2.unit_state())
            assert not report.all_ok
            # the frobenius or specialness side always registers the damage,
            # aside from pure counit damage which the comonoid axioms catch
            assert (not report.frobenius) or (not report.special) \
                or (not report.coassociative) or (not report.counital)

    def test_report_shape(self):
        rep = verify_classical_structure(parse_groupoid_spec("Z2"))
        assert set(rep.as_dict()) == {"coassociative", "counital", "frobenius",
                                      "special", "symmetric"}


# The groupoids whose laws the tests, acceptance criterion 2 and the
# benchmark's `classify` workload check.
LAW_SPECS = sorted({"Z1", "Z2", "Z3", "Z4", "Z2^2", "Z3^3", "Z4^2", "Z2xZ2", "Z2xZ3^2", "Z1^4",
                    *(f"Z{order}^{copies}" for order in range(1, 5) for copies in range(1, 5)),
                    "Z5", "Z6", "Z2xZ3", "Z3^2", "Z2^3", "Z2^4", "Z2^8"})


LAWS = ("coassociative", "counital", "frobenius", "special", "symmetric")


def toggled(rel, pair):
    """``rel`` with one pair added if absent, removed if present."""
    return FinRel(rel.dom_size, rel.cod_size, rel.pairs ^ {pair})


def block_pairs(z):
    """Every ((a, b), c) of a groupoid's multiplication cells with a, b and c in one copy."""
    m, n = z.base.order, z.size
    return [(a * n + b, c) for lo in range(0, n, m) for a in range(lo, lo + m)
            for b in range(lo, lo + m) for c in range(lo, lo + m)]


class TestLawsByCopy:
    """``verify_classical_structure`` checks one copy of G; the full
    composites over the whole groupoid are the reference."""

    @pytest.mark.parametrize("spec", LAW_SPECS)
    def test_equals_full_composites(self, spec):
        z = parse_groupoid_spec(spec)
        assert verify_classical_structure(z) == structure_laws(z)

    def test_checks_one_restriction_per_distinct_copy(self, monkeypatch):
        shapes = []

        def record(mult, unit):
            shapes.append((mult.dom_size, mult.cod_size, unit.sorted_members()))
            return check_structure_laws(mult, unit)

        monkeypatch.setattr(groupoids, "check_structure_laws", record)
        assert verify_classical_structure(parse_groupoid_spec("Z3^4")).all_ok
        assert shapes == [(9, 3, [0])]
        # One copy is checked whole.
        shapes.clear()
        assert verify_classical_structure(parse_groupoid_spec("Z3")).all_ok
        assert shapes == [(9, 3, [0])]

    @pytest.mark.parametrize("spec,laws", [
        ("Z1^3", {"counital", "special"}),
        *((spec, set(LAWS)) for spec in ("Z2^3", "Z3^2", "Z2xZ2^2", "Z4^2")),
    ])
    def test_block_diagonal_mutants(self, spec, laws):
        # Each mutant adds or drops one product inside one copy, so it breaks
        # a law in that copy, and the full composites see it.
        z = parse_groupoid_spec(spec)
        mult, unit = z.mult_rel, z.unit_state()
        broken = set()
        for pair in block_pairs(z):
            report = check_structure_laws(toggled(mult, pair), unit)
            assert not report.all_ok, pair
            broken |= {law for law, ok in report.as_dict().items() if not ok}
        assert broken == laws

    @pytest.mark.parametrize("spec", ["Z1^3", "Z2^3", "Z3^2", "Z2xZ2^2"])
    def test_unit_mutants(self, spec):
        # The counit and symmetric laws read the union of the units: drop or
        # add one element of one copy's unit.  Abelian products stay symmetric.
        z = parse_groupoid_spec(spec)
        mult, unit = z.mult_rel, z.unit_state()
        broken = set()
        for e in range(z.size):
            report = check_structure_laws(mult, StateVec(z.size, unit.members ^ {e}))
            assert not report.all_ok, e
            broken |= {law for law, ok in report.as_dict().items() if not ok}
        assert broken == {"counital"}

    def test_products_across_copies_go_to_full_composites(self):
        z = parse_groupoid_spec("Z2^2")
        for pair in [(0 * 4 + 2, 0), (1 * 4 + 1, 3), (2 * 4 + 3, 0)]:
            assert not check_structure_laws(toggled(z.mult_rel, pair), z.unit_state()).all_ok

    def test_unit_state_of_another_size_is_refused(self):
        z = parse_groupoid_spec("Z2^2")
        with pytest.raises(ValueError, match="unit lives on 2 elements"):
            check_structure_laws(z.mult_rel, StateVec(2, [0]))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_random_groupoids_equal_full_composites(self, orders, copies):
        z = Groupoid(AbelianGroup(orders), copies)
        assert verify_classical_structure(z) == structure_laws(z)

    def test_many_copies(self):
        # 256 elements: the full composites would build 256^3-row relations.
        assert verify_classical_structure(parse_groupoid_spec("Z2^128")).all_ok

    def test_multiplication_of_many_copies_is_not_built(self):
        z = parse_groupoid_spec("Z2^64")
        assert verify_classical_structure(z).all_ok
        assert "mult_rel" not in vars(z)


class TestComplementaryPair:
    def test_canonical_z2_z2(self):
        pair = parse_pair_spec("pair(Z2,Z2)")
        assert [s.sorted_members() for s in pair.z.classical_states()] == [[0, 1], [2, 3]]
        assert [s.sorted_members() for s in pair.x_classical_states()] == [[0, 2], [1, 3]]

    def test_classical_states_built_once_per_instance(self):
        pair = parse_pair_spec("pair(Z2,Z3)")
        assert type(pair.x_classical_states()) is tuple
        assert pair.x_classical_states() is pair.x_classical_states()
        assert pair.z.classical_states() is pair.z.classical_states()
        fresh = parse_pair_spec("pair(Z2,Z3)")
        assert fresh.x_classical_states() is not pair.x_classical_states()
        assert fresh.x_classical_states() == pair.x_classical_states()

    def test_x_classical_states_are_the_recoded_x_copies(self):
        g = AbelianGroup([2])
        for recode in itertools.permutations(range(4)):
            pair = ComplementaryPair(g, g, x_recode=recode)
            states = pair.x_classical_states()
            # Built from the recoding, not from X's own classical states.
            assert "_classical_states" not in vars(pair.x)
            inverse = pair.x_recode_inverse
            assert states == tuple(StateVec(4, (inverse[m] for m in s.members))
                                   for s in pair.x.classical_states())

    def test_z2_z1_degenerate_side(self):
        pair = parse_pair_spec("pair(Z2,Z1)")
        assert pair.z.copies == 1 and pair.x.copies == 2
        assert [s.sorted_members() for s in pair.x_classical_states()] == [[0], [1]]

    def test_z3_z2_sizes(self):
        pair = parse_pair_spec("pair(Z3,Z2)")
        assert pair.size == 6
        assert pair.z.copies == 2 and pair.z.base.order == 3
        assert pair.x.copies == 3 and pair.x.base.order == 2

    @given(small_groups, small_groups)
    @settings(max_examples=30)
    def test_mutual_unbiasedness(self, g, h):
        pair = make_complementary_pair(g, h)
        assert [s.members for s in pair.z.classical_states()] \
            == [s.members for s in x_unbiased_states(pair)]
        assert [s.members for s in pair.x_classical_states()] \
            == [s.members for s in pair.z.unbiased_states()]

    def test_bad_recode_rejected(self):
        g = AbelianGroup([2])
        with pytest.raises(ValueError, match="permutation"):
            ComplementaryPair(g, g, x_recode=[0, 0, 1, 2])

    def test_x_mult_matches_recode_index_reference(self):
        g = AbelianGroup([2])
        pairs = [ComplementaryPair(g, g, x_recode=p) for p in itertools.permutations(range(4))]
        pairs = [p for p in pairs if p.is_complementary_pair()]
        assert len(pairs) == 16
        for pair in pairs:
            for u in range(4):
                for v in range(4):
                    w = pair.x.mult(pair.x_recode[u], pair.x_recode[v])
                    expected = None if w is None else pair.x_recode.index(w)
                    assert x_mult(pair, u, v) == expected


class TestCnot:
    def test_classical_cnot_shape(self):
        pair = parse_pair_spec("pair(Z2,Z1)")
        expected = FinRel(4, 4, ((x * 2 + y, (x ^ y) * 2 + y)
                                 for x in range(2) for y in range(2)))
        assert cnot(pair) == expected

    def test_sixteen_element_bijection(self):
        assert is_unitary(cnot(parse_pair_spec("pair(Z2,Z2)")))

    @given(small_groups, small_groups)
    @settings(max_examples=25, deadline=None)
    def test_canonical_pairs_unitary(self, g, h):
        assert is_unitary(cnot(make_complementary_pair(g, h)))

    def test_matches_staged_construction(self):
        # comultiply on the first wire, then multiply into the second
        for spec in ["pair(Z2,Z2)", "pair(Z2,Z1)", "pair(Z3,Z2)"]:
            pair = parse_pair_spec(spec)
            n = pair.size
            xmult = FinRel(n * n, n,
                           ((c * n + y, w) for c in range(n) for y in range(n)
                            for w in [x_mult(pair, c, y)] if w is not None))
            staged = then(tensor(pair.z.comult_rel, identity(n)),
                          tensor(identity(n), xmult))
            assert staged == cnot(pair)

    def test_copy_like_on_first_wire(self):
        # feeding the second wire an X-identity leaves the comultiplication
        # restricted to that identity's X-copy
        pair = parse_pair_spec("pair(Z2,Z2)")
        n = pair.size
        for c in range(pair.g.order):
            y0 = pair.x_recode.index(c * pair.h.order)
            feed = FinRel(n, n * n, ((x, x * n + y0) for x in range(n)))
            got = then(feed, cnot(pair))
            expected = FinRel(n, n * n,
                              ((x, a * n + b) for a in range(n) for b in range(n)
                               for x in [pair.z.mult(a, b)] if x is not None
                               if pair.x_recode[b] // pair.h.order == c))
            assert got == expected


class TestIsComplementary:
    def test_canonical_pair_accepted(self):
        pair = parse_pair_spec("pair(Z2,Z2)")
        assert is_complementary(pair.z, pair.x, pair.x_recode)

    def test_z4_against_klein_fails(self):
        z4 = parse_groupoid_spec("Z4")
        x = parse_groupoid_spec("Z2^2")
        assert not is_complementary(z4, x, range(4))

    def test_basis_not_self_complementary(self):
        z2 = parse_groupoid_spec("Z2")
        assert not is_complementary(z2, z2, range(2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="different sets"):
            is_complementary(parse_groupoid_spec("Z2"), parse_groupoid_spec("Z3"), range(2))


class TestFourier:
    def test_maps_classical_states_across(self):
        pair = parse_pair_spec("pair(Z2,Z2)")
        ft = fourier_rel(pair)
        g0, g1 = pair.z.classical_states()
        h0, h1 = pair.x_classical_states()
        assert ft.image(g0.members) == h0.members
        assert ft.image(g1.members) == h1.members

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution(self, n):
        pair = parse_pair_spec(f"pair(Z{n},Z{n})")
        ft = fourier_rel(pair)
        assert then(ft, ft) == identity(pair.size)
        assert is_unitary(ft)

    def test_non_square_pair_rejected(self):
        with pytest.raises(ValueError, match="absorbed"):
            fourier_rel(parse_pair_spec("pair(Z2,Z1)"))

    @pytest.mark.parametrize("spec", ["pair(Z1,Z1)", "pair(Z2,Z2)", "pair(Z3,Z3)",
                                      "pair(Z4,Z4)", "pair(Z5,Z5)", "pair(Z2xZ2,Z4)"])
    def test_canonical_matches_closed_form(self, spec):
        pair = parse_pair_spec(spec)
        n = pair.g.order
        assert fourier_rel(pair) == FinRel(
            pair.size, pair.size, ((i * n + g, g * n + i) for i in range(n) for g in range(n)))

    def test_every_recoding_maps_classical_states_across(self):
        g = AbelianGroup([2])
        pairs = [ComplementaryPair(g, g, x_recode=p) for p in itertools.permutations(range(4))]
        for pair in pairs:
            assert_maps_classical_states_across(pair)
        complementary = [p for p in pairs if p.is_complementary_pair()]
        assert len(complementary) == 16
        # The canonical recoding, given explicitly, gives the default bijection.
        (canonical,) = [p for p in complementary if p.canonical]
        assert fourier_rel(canonical) == fourier_rel(parse_pair_spec("pair(Z2,Z2)"))

    @given(st.sampled_from(["pair(Z1,Z1)", "pair(Z2,Z2)", "pair(Z3,Z3)", "pair(Z2xZ2,Z4)",
                            "pair(Z4,Z2xZ2)"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_recodings_map_classical_states_across(self, spec, data):
        canonical = parse_pair_spec(spec)
        perm = data.draw(st.permutations(range(canonical.size)))
        assert_maps_classical_states_across(
            ComplementaryPair(canonical.g, canonical.h, x_recode=perm))


def assert_maps_classical_states_across(pair):
    """fourier_rel is a bijection sending Z-classical state k onto X-classical state k."""
    ft = fourier_rel(pair)
    assert is_unitary(ft)
    z_states, x_states = pair.z.classical_states(), pair.x_classical_states()
    assert len(z_states) == len(x_states)
    for zk, xk in zip(z_states, x_states):
        assert ft.image(zk.members) == xk.members


class TestLazyTables:
    """Parsing, the complementarity check, the census and surjectivity never
    build a Cayley table, so a large group in a spec costs O(|G|), not O(|G|^2)."""

    def test_no_table_for_large_specs(self):
        pair = parse_pair_spec("pair(Z100000,Z1)")
        big = parse_groupoid_spec("Z100000")
        one = parse_groupoid_spec("Z1")
        (rel,) = enumerate_classical_relations(one, big)
        enumerate_classical_relations(big, one)
        assert is_surjective_on_objects(StructuredRel(rel, one, big))
        recoded = ComplementaryPair(pair.g, pair.h, x_recode=range(pair.size - 1, -1, -1))
        assert not recoded.canonical and recoded.is_complementary_pair()
        assert is_complementary(pair.z, pair.x, pair.x_recode)
        for group in (pair.g, pair.h, big.base, one.base):
            assert "add_table" not in vars(group) and "neg_table" not in vars(group)

    def test_tables_are_cached_per_instance(self):
        g = AbelianGroup([3])
        assert "add_table" not in vars(g)
        assert g.add(1, 2) == 0
        assert "add_table" in vars(g) and "add_table" not in vars(AbelianGroup([3]))


class TestSpecParsing:
    @pytest.mark.parametrize("text,size", [("Z2^2", 4), ("Z3", 3), ("Z2xZ3^2", 12)])
    def test_accepts(self, text, size):
        assert parse_groupoid_spec(text).size == size

    def test_copies_default_to_one(self):
        z = parse_groupoid_spec("Z5")
        assert z.copies == 1 and z.base.order == 5

    @pytest.mark.parametrize("text", ["", "Z", "2", "Z2x", "Z2^", "Z2^^2", "pair(Z2)"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="malformed"):
            parse_groupoid_spec(text)

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_groupoid_spec("Z2y3")

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            parse_groupoid_spec("Z0")
        with pytest.raises(ValueError):
            parse_groupoid_spec("Z2^0")

    def test_group_spec_roundtrip(self):
        assert parse_group_spec("Z2xZ3").cyclic_orders == (2, 3)
        assert parse_groupoid_spec("Z2xZ3^2").spec() == "Z2xZ3^2"
        assert parse_groupoid_spec("Z3").spec() == "Z3"

    def test_pair_spec(self):
        pair = parse_pair_spec("pair(Z3,Z2)")
        assert pair.spec() == "pair(Z3,Z2)"
        with pytest.raises(ValueError, match="pair"):
            parse_pair_spec("pair[Z3,Z2]")
