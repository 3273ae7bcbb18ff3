import json
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from qcrel.groupoids import AbelianGroup, parse_groupoid_spec
from qcrel.hom_relations import (
    StructuredRel,
    _is_homomorphism,
    classical_equations,
    enumerate_classical_relations,
    is_classical_relation,
    is_groupoid_hom_relation,
    is_monoid_hom_relation,
    is_self_conjugate,
    is_surjective_on_objects,
)
from qcrel.relations import FinRel, converse, identity, then
from reference import all_subsets, hom_table, is_homomorphism

GOLDEN = Path(__file__).parent / "golden"

Z3 = parse_groupoid_spec("Z3")
Z4 = parse_groupoid_spec("Z4")
Z22 = parse_groupoid_spec("Z2^2")


def srel(pairs, src=Z3, tgt=Z3):
    return StructuredRel(FinRel(src.size, tgt.size, pairs), src, tgt)


def reference_classical_relations(src, tgt):
    """The brute-force reference for the structural enumerator: scan every
    relation that passes the counit equation (exactly the source identities
    touch target identities), keep those that also pass the comultiplication
    equation, and sort by pair list."""
    target_ids = set(tgt.identities())
    subsets = [frozenset(c) for k in range(tgt.size + 1)
               for c in combinations(range(tgt.size), k)]
    touching = [s for s in subsets if s & target_ids]
    avoiding = [s for s in subsets if not s & target_ids]
    choices = [touching if a % src.base.order == 0 else avoiding for a in range(src.size)]
    found = []
    for images in product(*choices):
        rel = FinRel(src.size, tgt.size, [(a, b) for a, img in enumerate(images) for b in img])
        if all(classical_equations(StructuredRel(rel, src, tgt))):
            found.append(rel)
    return sorted(found, key=lambda r: r.sorted_pairs())


def _images(rel):
    out = [set() for _ in range(rel.dom_size)]
    for (a, b) in rel.pairs:
        out[a].add(b)
    return [frozenset(x) for x in out]


def _inverse(g, e):
    n = g.base.order
    return (e // n) * n + g.base.neg(e % n)


def reference_groupoid_hom(s):
    """The elementwise reference for is_groupoid_hom_relation: source identities
    reach only target identities, and R(x*y) == R(x)*R(y) for every source pair,
    where U*V collects the defined products and an undefined x*y has the empty
    image."""
    src, tgt = s.source, s.target
    img = _images(s.rel)
    target_ids = frozenset(tgt.identities())
    if any(not img[e] <= target_ids for e in src.identities()):
        return False
    for x in range(src.size):
        for y in range(src.size):
            p = src.mult(x, y)
            lhs = img[p] if p is not None else frozenset()
            rhs = {w for u in img[x] for v in img[y] if (w := tgt.mult(u, v)) is not None}
            if lhs != rhs:
                return False
    return True


def reference_self_conjugate(s):
    """The elementwise reference for is_self_conjugate: for every target element
    t, inverting the preimage of t's inverse gives the preimage of t."""
    src, tgt = s.source, s.target
    pre = _images(converse(s.rel))
    return all(frozenset(_inverse(src, u) for u in pre[_inverse(tgt, t)]) == pre[t]
               for t in range(tgt.size))


def census_size(src, tgt):
    """(copies_B * |Hom(H, G)|) ** copies_A with |Hom(H, G)| = prod gcd(h_i, g_j)."""
    homs = prod(gcd(h, g) for h in tgt.base.cyclic_orders for g in src.base.cyclic_orders)
    return (tgt.copies * homs) ** src.copies


REFERENCE_SPECS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2^2", "Z1^2", "Z1^3",
                   "Z1^4", "Z2xZ2", "Z3^2", "Z2^3", "Z2xZ3", "Z2xZ2^2", "Z4^2")
REFERENCE_PAIRS = [
    (a, b) for a in REFERENCE_SPECS for b in REFERENCE_SPECS
    if parse_groupoid_spec(a).size * parse_groupoid_spec(b).size <= 12
]


def load_golden(name):
    lines = (GOLDEN / name).read_text().splitlines()
    return [FinRel.from_json_dict(json.loads(line)) for line in lines]


SMALL_PAIRS = [(a, b) for a, b in REFERENCE_PAIRS
               if parse_groupoid_spec(a).size * parse_groupoid_spec(b).size <= 9]


@pytest.mark.parametrize("a,b", SMALL_PAIRS, ids=[f"{a}->{b}" for a, b in SMALL_PAIRS])
def test_structural_classical_check_equals_equations(a, b):
    src, tgt = parse_groupoid_spec(a), parse_groupoid_spec(b)
    for rel in all_subsets(src, tgt):
        s = StructuredRel(rel, src, tgt)
        assert is_classical_relation(s) == all(classical_equations(s)), rel


@pytest.mark.parametrize("a,b", SMALL_PAIRS, ids=[f"{a}->{b}" for a, b in SMALL_PAIRS])
def test_equations_equal_elementwise_reference(a, b):
    src, tgt = parse_groupoid_spec(a), parse_groupoid_spec(b)
    for rel in all_subsets(src, tgt):
        s = StructuredRel(rel, src, tgt)
        assert is_groupoid_hom_relation(s) == reference_groupoid_hom(s), rel
        assert is_self_conjugate(s) == reference_self_conjugate(s), rel


class TestGroupoidHom:
    def test_identity_is_hom(self):
        assert is_groupoid_hom_relation(srel([(0, 0), (1, 1), (2, 2)]))

    def test_collapse_onto_identity_is_hom(self):
        # converse of the everything-from-zero relation: all elements to 0
        assert is_groupoid_hom_relation(srel([(0, 0), (1, 0), (2, 0)]))

    def test_partial_identity_not_hom(self):
        # R(1+2) = {0} but R(1)*R(2) is empty
        assert not is_groupoid_hom_relation(srel([(0, 0)]))

    def test_full_relation_not_hom(self):
        # multiplicative as sets, but floods the identity with non-identities
        assert not is_groupoid_hom_relation(
            srel([(a, b) for a in range(3) for b in range(3)]))

    def test_identity_on_two_copies(self):
        assert is_groupoid_hom_relation(
            srel([(i, i) for i in range(4)], Z22, Z22))


class TestSurjectiveOnObjects:
    def test_identity(self):
        assert is_surjective_on_objects(srel([(i, i) for i in range(4)], Z22, Z22))

    def test_empty(self):
        assert not is_surjective_on_objects(srel([]))

    def test_misses_copy_zero(self):
        s = srel([(0, 2), (2, 2), (1, 3), (3, 3)], Z22, Z22)
        assert not is_surjective_on_objects(s)
        # yet it is still a perfectly good classical relation
        assert is_classical_relation(s)


class TestMonoidHom:
    def test_identity_z4(self):
        assert is_monoid_hom_relation(srel([(i, i) for i in range(4)], Z4, Z4))

    def test_identity_z3(self):
        assert is_monoid_hom_relation(srel([(0, 0), (1, 1), (2, 2)]))

    def test_unit_pair_removal_detected(self):
        z2 = parse_groupoid_spec("Z2")
        whole = StructuredRel(identity(2), z2, z2)
        assert is_monoid_hom_relation(whole)
        broken = StructuredRel(FinRel(2, 2, [(1, 1)]), z2, z2)
        assert not is_monoid_hom_relation(broken)


class TestClassical:
    def test_inversion_map(self):
        assert is_classical_relation(srel([(0, 0), (1, 2), (2, 1)]))

    def test_full_fails_counit(self):
        s = srel([(a, b) for a in range(3) for b in range(3)])
        eqs = classical_equations(s)
        assert not eqs.counit_ok
        assert not is_classical_relation(s)

    def test_z4_doubling_entry(self):
        assert is_classical_relation(srel([(0, 0), (2, 1), (0, 2), (2, 3)], Z4, Z4))

    @pytest.mark.parametrize("last", [(0, 1, 2, 3), (0, 1, 3, 2)], ids=["hom", "not_hom"])
    def test_repeated_table_then_last_copy(self, last):
        # Copies 0 and 1 repeat the identity table phi: Z4 -> Z4; copy 2 reads
        # back ``last``, total and single-valued either way, but a
        # homomorphism only in the first case.
        z4_3 = parse_groupoid_spec("Z4^3")
        tables = [(0, 1, 2, 3), (0, 1, 2, 3), last]
        s = srel([(4 * i + phi[y], y) for i, phi in enumerate(tables) for y in range(4)],
                 z4_3, Z4)
        assert is_classical_relation(s) == all(classical_equations(s)) == (last == tables[0])

    def test_duality_with_monoid_hom_exhaustive_z3(self):
        for rel in all_subsets(Z3, Z3):
            lhs = is_classical_relation(StructuredRel(rel, Z3, Z3))
            rhs = is_monoid_hom_relation(StructuredRel(converse(rel), Z3, Z3))
            assert lhs == rhs

    def test_duality_spot_checks_z4(self):
        for rel in load_golden("classical_z4_z4.jsonl"):
            assert is_monoid_hom_relation(StructuredRel(converse(rel), Z4, Z4))


class TestSelfConjugate:
    def test_identity(self):
        assert is_self_conjugate(srel([(0, 0), (1, 1), (2, 2)]))

    def test_all_enumerated_classical(self):
        for src in (Z3, Z4, Z22):
            for rel in enumerate_classical_relations(src, src):
                assert is_self_conjugate(StructuredRel(rel, src, src))

    def test_artificial_violation(self):
        assert not is_self_conjugate(srel([(1, 0)]))


class TestEnumeration:
    @pytest.mark.parametrize("g,golden", [
        (Z3, "classical_z3_z3.jsonl"),
        (Z4, "classical_z4_z4.jsonl"),
        (Z22, "classical_z2z2_z2z2.jsonl"),
    ])
    def test_matches_golden(self, g, golden):
        assert enumerate_classical_relations(g, g) == load_golden(golden)

    def test_pruned_equals_plain_bruteforce(self):
        pruned = enumerate_classical_relations(Z3, Z3)
        plain = sorted(
            (rel for rel in all_subsets(Z3, Z3)
             if all(classical_equations(StructuredRel(rel, Z3, Z3)))),
            key=lambda r: r.sorted_pairs())
        assert pruned == plain

    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS, ids=[f"{a}->{b}" for a, b in REFERENCE_PAIRS])
    def test_structural_equals_reference(self, a, b):
        src, tgt = parse_groupoid_spec(a), parse_groupoid_spec(b)
        assert enumerate_classical_relations(src, tgt) == reference_classical_relations(src, tgt)

    def test_budget_counts_relations(self):
        assert len(enumerate_classical_relations(Z22, Z22, max_relations=16)) == 16
        with pytest.raises(ValueError, match="4\\^2 = 16 classical relations"):
            enumerate_classical_relations(Z22, Z22, max_relations=15)

    def test_budget_refuses_huge_copy_count_without_the_power(self):
        with pytest.raises(ValueError, match="census has 2\\^1000000 classical relations"):
            enumerate_classical_relations(parse_groupoid_spec("Z1^1000000"),
                                          parse_groupoid_spec("Z1^2"))

    def test_five_by_five_is_listed(self):
        # 25 candidate bits, which the scan refused; the census is Hom(Z5, Z5).
        z5 = parse_groupoid_spec("Z5")
        rels = enumerate_classical_relations(z5, z5)
        assert len(rels) == 5
        assert all(is_classical_relation(StructuredRel(r, z5, z5)) for r in rels)

    def test_closed_under_converse_on_z3(self):
        rels = {r.pairs for r in enumerate_classical_relations(Z3, Z3)}
        assert frozenset({(0, 0), (1, 1), (2, 2)}) in rels
        assert frozenset({(0, 0), (1, 2), (2, 1)}) in rels

    def test_cross_structure_enumeration(self):
        # one copy of Z2 into two copies of Z1: the blocks collapse completely
        z2 = parse_groupoid_spec("Z2")
        z11 = parse_groupoid_spec("Z1^2")
        rels = enumerate_classical_relations(z2, z11)
        for rel in rels:
            assert is_classical_relation(StructuredRel(rel, z2, z11))


class TestHomSurjectiveInterplay:
    def test_hom_surjective_implies_monoid_z3(self):
        for rel in all_subsets(Z3, Z3):
            s = StructuredRel(rel, Z3, Z3)
            if is_groupoid_hom_relation(s) and is_surjective_on_objects(s):
                assert is_monoid_hom_relation(s)

    def test_classical_iff_converse_hom_surjective_z3(self):
        # the functor-style and comonoid-equation views agree on the full scan
        for rel in all_subsets(Z3, Z3):
            s = StructuredRel(rel, Z3, Z3)
            c = StructuredRel(converse(rel), Z3, Z3)
            lhs = is_classical_relation(s)
            rhs = is_groupoid_hom_relation(c) and is_surjective_on_objects(c)
            assert lhs == rhs

    def test_enumerated_have_hom_surjective_converses(self):
        for src in (Z3, Z4, Z22):
            for rel in enumerate_classical_relations(src, src):
                c = StructuredRel(converse(rel), src, src)
                assert is_groupoid_hom_relation(c)
                assert is_surjective_on_objects(c)


GROUPOID_SPECS = st.builds(
    lambda orders, copies: "x".join(f"Z{n}" for n in orders) + f"^{copies}",
    st.lists(st.integers(1, 4), min_size=1, max_size=2),
    st.integers(1, 3),
)


@settings(max_examples=100, deadline=None)
@given(GROUPOID_SPECS, GROUPOID_SPECS)
def test_census_characterization(a, b):
    src, tgt = parse_groupoid_spec(a), parse_groupoid_spec(b)
    count = census_size(src, tgt)
    if count > 1:
        with pytest.raises(ValueError, match=f"= {count} classical relations"):
            enumerate_classical_relations(src, tgt, max_relations=count - 1)
    if src.size * tgt.size <= 12:
        assert enumerate_classical_relations(src, tgt) == reference_classical_relations(src, tgt)
    if count > 4096:
        return
    rels = enumerate_classical_relations(src, tgt)
    assert len(rels) == count
    keys = [r.sorted_pairs() for r in rels]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert all(is_classical_relation(StructuredRel(r, src, tgt)) for r in rels)


@settings(max_examples=100, deadline=None)
@given(GROUPOID_SPECS, GROUPOID_SPECS, st.data())
def test_structural_check_equals_equations_on_members_and_mutants(a, b, data):
    """The structural check against the comonoid equations on a census
    member, and on that member with one pair added or removed."""
    src, tgt = parse_groupoid_spec(a), parse_groupoid_spec(b)
    if census_size(src, tgt) > 4096:
        reject()
    rel = data.draw(st.sampled_from(enumerate_classical_relations(src, tgt)))
    flip = (data.draw(st.integers(0, src.size - 1)), data.draw(st.integers(0, tgt.size - 1)))
    for pairs in (rel.pairs, rel.pairs ^ {flip}):
        s = StructuredRel(FinRel(src.size, tgt.size, pairs), src, tgt)
        assert is_classical_relation(s) == all(classical_equations(s)), sorted(pairs)


CYCLIC_ORDERS = st.lists(st.integers(1, 6), min_size=1, max_size=3)


@st.composite
def tables_fixing_zero(draw):
    """Groups H and G of 1-3 cyclic factors of order 1-6, and a table H -> G
    with phi(0) = 0: a homomorphism, or one with some values moved."""
    h = AbelianGroup(draw(CYCLIC_ORDERS))
    g = AbelianGroup(draw(CYCLIC_ORDERS))
    # Generator i may go to any element whose j-th coordinate is a multiple
    # of g_j / gcd(h_i, g_j).
    images = [[draw(st.integers(0, gcd(hi, gj) - 1)) * (gj // gcd(hi, gj))
               for gj in g.cyclic_orders] for hi in h.cyclic_orders]
    phi = list(hom_table(h, g, images))
    if h.order > 1 and draw(st.booleans()):
        for x in draw(st.lists(st.integers(1, h.order - 1), min_size=1, max_size=3)):
            phi[x] = draw(st.integers(0, g.order - 1))
    return tuple(phi), h, g


@settings(max_examples=200, deadline=None)
@given(tables_fixing_zero())
def test_generator_recurrence_equals_coordinate_sum_test(case):
    """The homomorphism test by the generator recurrence against the additive
    extension of the generators' images."""
    phi, h, g = case
    assert _is_homomorphism(phi, h, g) == is_homomorphism(phi, h, g)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["Z4", "Z6", "Z2xZ2", "Z2xZ3", "Z2xZ4"]), st.integers(1, 2),
       st.integers(1, 2), st.data())
def test_structural_check_equals_equations_on_permuted_copies(group, copies_a, copies_b, data):
    """A census member with one source copy's table replaced by a permutation
    of H that fixes 0: total and single-valued, and most often not a
    homomorphism, which is the branch a one-pair flip almost never reaches."""
    src = parse_groupoid_spec(f"{group}^{copies_a}")
    tgt = parse_groupoid_spec(f"{group}^{copies_b}")
    n = src.base.order
    rel = data.draw(st.sampled_from(enumerate_classical_relations(src, tgt)))
    i, j = data.draw(st.integers(0, copies_a - 1)), data.draw(st.integers(0, copies_b - 1))
    phi = [0] + data.draw(st.permutations(range(1, n)))
    rows = list(rel.rows)
    rows[i * n:(i + 1) * n] = [()] * n
    pairs = [(a, b) for a, row in enumerate(rows) for b in row]
    pairs += [(i * n + phi[y], j * n + y) for y in range(n)]
    s = StructuredRel(FinRel(src.size, tgt.size, pairs), src, tgt)
    assert is_classical_relation(s) == all(classical_equations(s)), sorted(pairs)
