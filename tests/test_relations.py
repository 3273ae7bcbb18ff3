import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrel.relations import (
    FinRel,
    Scalar,
    StateVec,
    as_bool_matrix,
    born_scalar,
    converse,
    empty,
    full,
    identity,
    is_unitary,
    swap,
    symmetric_difference,
    tensor,
    then,
)
from reference import finrel_from_json_dict, scalar_as_rel, scalar_from_rel


def is_unitary_by_composition(r):
    """The reference for is_unitary: r composed with its converse is the
    identity both ways."""
    conv = converse(r)
    return (then(r, conv) == identity(r.dom_size)
            and then(conv, r) == identity(r.cod_size))


def rel(dom, cod, pairs):
    return FinRel(dom, cod, pairs)


def refuse_size(dom, cod):
    raise ValueError(f"size {dom}->{cod} refused")


@st.composite
def relations(draw, max_size=4, dom=None, cod=None):
    n = dom if dom is not None else draw(st.integers(1, max_size))
    m = cod if cod is not None else draw(st.integers(1, max_size))
    cells = [(a, b) for a in range(n) for b in range(m)]
    pairs = draw(st.sets(st.sampled_from(cells)))
    return FinRel(n, m, pairs)


@st.composite
def functions(draw, max_size=4):
    """Relations with exactly one target per source, the shape some fast
    paths of ``tensor`` and ``is_unitary`` single out."""
    n, m = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    return FinRel(n, m, enumerate(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))))


any_relations = st.one_of(relations(), functions())


# The pair-set implementations the row-based operations replaced, kept as
# their reference.

def reference_then(r, s):
    successors = {}
    for (b, c) in s.pairs:
        successors.setdefault(b, []).append(c)
    return FinRel(r.dom_size, s.cod_size,
                  ((a, c) for (a, b) in r.pairs for c in successors.get(b, ())))


def reference_converse(r):
    return FinRel(r.cod_size, r.dom_size, ((b, a) for (a, b) in r.pairs))


def reference_tensor(r, s):
    m, n = s.dom_size, s.cod_size
    return FinRel(r.dom_size * m, r.cod_size * n,
                  ((x * m + u, y * n + v) for (x, y) in r.pairs for (u, v) in s.pairs))


def reference_symmetric_difference(r, s):
    return FinRel(r.dom_size, r.cod_size, r.pairs ^ s.pairs)


def reference_is_unitary(r):
    if r.dom_size != r.cod_size or len(r.pairs) != r.dom_size:
        return False
    return (len({a for (a, _) in r.pairs}) == r.dom_size
            and len({b for (_, b) in r.pairs}) == r.cod_size)


def reference_image(r, sources):
    return frozenset(b for (a, b) in r.pairs if a in set(sources))


def reference_preimage(r, targets):
    return frozenset(a for (a, b) in r.pairs if b in set(targets))


def same_relation(fast, ref):
    """Equal as values, with the same pair set, pair order and hash."""
    assert fast == ref
    assert (fast.dom_size, fast.cod_size, fast.pairs) == (ref.dom_size, ref.cod_size, ref.pairs)
    assert fast.sorted_pairs() == sorted(ref.pairs)
    assert hash(fast) == hash(ref)


class TestRowsMatchPairSetReference:
    """Every row-based operation against its pair-set reference, on random
    shapes including empty rows and one-element domains or codomains."""

    @given(any_relations, st.data())
    @settings(max_examples=200)
    def test_then(self, r, data):
        s = data.draw(st.one_of(relations(dom=r.cod_size), relations(dom=r.cod_size, cod=1)))
        same_relation(then(r, s), reference_then(r, s))

    @given(any_relations)
    def test_converse(self, r):
        same_relation(converse(r), reference_converse(r))

    @given(any_relations, any_relations)
    @settings(max_examples=200)
    def test_tensor(self, r, s):
        same_relation(tensor(r, s), reference_tensor(r, s))

    @given(any_relations, st.data())
    def test_symmetric_difference(self, r, data):
        s = data.draw(relations(dom=r.dom_size, cod=r.cod_size))
        same_relation(symmetric_difference(r, s), reference_symmetric_difference(r, s))

    @given(any_relations)
    def test_is_unitary(self, r):
        assert is_unitary(r) == reference_is_unitary(r)

    @given(any_relations, st.sets(st.integers(-1, 5)))
    def test_image_and_preimage(self, r, indices):
        assert r.image(indices) == reference_image(r, indices)
        assert r.preimage(indices) == reference_preimage(r, indices)

    def test_rows_are_sorted_and_empty_rows_kept(self):
        r = FinRel(4, 3, [(2, 2), (0, 1), (2, 0), (0, 1)])
        assert r.rows == ((1,), (), (0, 2), ())
        assert then(r, converse(r)).rows == ((0,), (), (2,), ())


class TestCompose:
    def test_state_through_relation(self):
        # boolean column-vector composition: (1,0,1)^T as the image of {0}
        r = rel(3, 3, [(0, 0), (0, 2), (1, 1)])
        psi = StateVec(3, [0])
        out = StateVec.from_ket(then(psi.as_ket(), r))
        assert out == StateVec(3, [0, 2])
        assert [row for row in as_bool_matrix(out.as_ket())] == [[1], [0], [1]]

    def test_identity_neutral(self):
        r = rel(3, 2, [(0, 1), (2, 0)])
        assert then(identity(3), r) == r
        assert then(r, identity(2)) == r

    def test_bijection_with_converse(self):
        r = rel(2, 2, [(0, 1), (1, 0)])
        assert then(r, converse(r)) == identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="middle sizes"):
            then(rel(2, 3, []), rel(2, 2, []))


class TestConverse:
    def test_transposes(self):
        assert converse(rel(2, 3, [(0, 1)])) == rel(3, 2, [(1, 0)])

    def test_identity_fixed(self):
        assert converse(identity(4)) == identity(4)

    def test_example_relation(self):
        r = rel(3, 3, [(0, 0), (0, 2), (1, 1)])
        assert converse(r) == rel(3, 3, [(0, 0), (2, 0), (1, 1)])

    @given(relations())
    def test_involution(self, r):
        assert converse(converse(r)) == r

    @given(relations(dom=3, cod=3), relations(dom=3, cod=3))
    def test_antihomomorphism(self, r, s):
        assert converse(then(r, s)) == then(converse(s), converse(r))


class TestTensor:
    def test_identities(self):
        assert tensor(identity(2), identity(2)) == identity(4)

    def test_product_of_singleton_states(self):
        psi, phi = StateVec(2, [0]).as_ket(), StateVec(2, [1]).as_ket()
        assert tensor(psi, phi) == StateVec(4, [1]).as_ket()

    def test_unit_object(self):
        s = swap(2, 1)
        assert tensor(swap(1, 1), identity(1)) == identity(1)
        # swapping with the 1-element wire relabels nothing
        assert s == identity(2) or sorted(s.pairs) == [(0, 0), (1, 1)]

    @given(relations(max_size=3), relations(max_size=3),
           relations(max_size=3), relations(max_size=3))
    @settings(max_examples=60)
    def test_functorial(self, a, b, c, d):
        left = tensor(a, b)
        if a.cod_size != c.dom_size or b.cod_size != d.dom_size:
            return
        assert then(left, tensor(c, d)) == tensor(then(a, c), then(b, d))


class TestTrustedConstruction:
    """Composites are built without range checks; full validation of the same
    pairs must accept them and give an equal relation."""

    @staticmethod
    def revalidates(r):
        assert type(r.pairs) is frozenset
        assert all(type(a) is int and type(b) is int for (a, b) in r.pairs)
        assert r == FinRel(r.dom_size, r.cod_size, r.pairs)

    @given(relations(), relations(), st.data())
    @settings(max_examples=60)
    def test_then_converse_tensor(self, r, s, data):
        t = data.draw(relations(dom=r.cod_size))
        for out in (then(r, t), converse(r), tensor(r, s)):
            self.revalidates(out)


class TestSymmetricDifference:
    def test_diffusion_shape(self):
        block = rel(4, 4, [(a, b) for a in (0, 2) for b in (0, 2)])
        d = symmetric_difference(identity(4), block)
        assert d == rel(4, 4, [(1, 1), (3, 3), (0, 2), (2, 0)])

    def test_self_cancels(self):
        r = rel(3, 3, [(0, 1), (2, 2)])
        assert symmetric_difference(r, r) == empty(3, 3)

    def test_empty_neutral(self):
        r = rel(2, 3, [(1, 2)])
        assert symmetric_difference(r, empty(2, 3)) == r

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching shapes"):
            symmetric_difference(identity(2), identity(3))


class TestUnitary:
    def test_swap_unitary(self):
        assert is_unitary(rel(2, 2, [(0, 1), (1, 0)]))

    def test_multivalued_not_unitary(self):
        assert not is_unitary(rel(3, 3, [(0, 0), (0, 2), (1, 1)]))

    def test_diffusion_bijection(self):
        assert is_unitary(rel(4, 4, [(1, 1), (3, 3), (0, 2), (2, 0)]))

    def test_agreement_exhaustive_3x3(self):
        cells = [(a, b) for a in range(3) for b in range(3)]
        for mask in range(1 << 9):
            r = FinRel(3, 3, (cells[i] for i in range(9) if mask >> i & 1))
            assert is_unitary(r) == is_unitary_by_composition(r)

    @given(relations(dom=4, cod=4))
    @settings(max_examples=300)
    def test_agreement_sampled_4x4(self, r):
        assert is_unitary(r) == is_unitary_by_composition(r)

    @given(relations(max_size=4))
    def test_rectangular_agree(self, r):
        assert is_unitary(r) == is_unitary_by_composition(r)


class TestAssociativity:
    def test_exhaustive_on_two_elements(self):
        cells = [(a, b) for a in range(2) for b in range(2)]
        rels = [FinRel(2, 2, (cells[i] for i in range(4) if mask >> i & 1))
                for mask in range(16)]
        for r in rels:
            for s in rels:
                rs = then(r, s)
                for t in rels:
                    assert then(rs, t) == then(r, then(s, t))

    @given(relations(max_size=4), st.data())
    @settings(max_examples=100)
    def test_sampled_mixed_sizes(self, r, data):
        s = data.draw(relations(max_size=4, dom=r.cod_size))
        t = data.draw(relations(max_size=4, dom=s.cod_size))
        assert then(then(r, s), t) == then(r, then(s, t))


class TestBornScalar:
    def test_shared_element_possible(self):
        assert born_scalar(StateVec(3, [0]), StateVec(3, [0, 2])).possible

    def test_disjoint_impossible(self):
        assert not born_scalar(StateVec(3, [1]), StateVec(3, [0, 2])).possible

    def test_four_element_effect(self):
        assert born_scalar(StateVec(4, [1, 3]), StateVec(4, [1])).possible

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="effect lives"):
            born_scalar(StateVec(2, [0]), StateVec(3, [0]))

    @given(st.integers(1, 5), st.data())
    def test_equals_relational_composite(self, n, data):
        eff = StateVec(n, data.draw(st.sets(st.integers(0, n - 1))))
        sta = StateVec(n, data.draw(st.sets(st.integers(0, n - 1))))
        composite = then(sta.as_ket(), eff.as_bra())
        assert born_scalar(eff, sta) == scalar_from_rel(composite)
        bra = eff.as_bra()
        assert bra == converse(eff.as_ket())
        assert bra == FinRel(bra.dom_size, bra.cod_size, bra.pairs)


class TestPrimitives:
    def test_swap_two_by_two(self):
        assert swap(2, 2) == rel(4, 4, [(0, 0), (1, 2), (2, 1), (3, 3)])

    def test_identity(self):
        assert identity(3) == rel(3, 3, [(0, 0), (1, 1), (2, 2)])

    def test_empty(self):
        assert empty(2, 2).pairs == frozenset()

    def test_full(self):
        assert len(full(2, 3).pairs) == 6

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_swap_involution(self, n, m):
        assert then(swap(n, m), swap(m, n)) == identity(n * m)


class TestValuesAndJson:
    def test_pair_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            FinRel(2, 2, [(2, 0)])

    def test_equality_is_structural(self):
        assert rel(2, 2, [(0, 0)]) == rel(2, 2, [(0, 0)])
        assert rel(2, 2, [(0, 0)]) != rel(2, 3, [(0, 0)])

    def test_scalar_roundtrip(self):
        assert scalar_from_rel(scalar_as_rel(Scalar(True))).possible
        assert not scalar_from_rel(scalar_as_rel(Scalar(False))).possible

    def test_state_roundtrip(self):
        s = StateVec(5, [0, 3])
        assert StateVec.from_ket(s.as_ket()) == s

    @given(relations())
    def test_json_roundtrip(self, r):
        assert FinRel.from_json(r.to_json()) == r

    @pytest.mark.parametrize("payload", [
        {"dom": True, "cod": 2, "pairs": []},
        {"dom": 1, "cod": True, "pairs": []},
        {"dom": 1, "cod": 2, "pairs": [[False, 1]]},
        {"dom": 1, "cod": 2, "pairs": [[0, True]]},
    ])
    def test_json_booleans_are_not_integers(self, payload):
        with pytest.raises(ValueError, match="schema violation"):
            FinRel.from_json_dict(payload)

    def test_deeply_nested_json_is_schema_violation(self):
        with pytest.raises(ValueError, match="schema violation"):
            FinRel.from_json("[" * 200000 + "]" * 200000)

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=80)
    def test_json_dict_builds_the_validated_relation(self, dom, cod, data):
        cells = [[a, b] for a in range(dom) for b in range(cod)]
        pairs = data.draw(st.lists(st.sampled_from(cells), unique_by=tuple))
        r = FinRel.from_json_dict({"dom": dom, "cod": cod, "pairs": pairs})
        assert r == FinRel(dom, cod, [tuple(p) for p in pairs])
        TestTrustedConstruction.revalidates(r)

    # Each error case and its message, in the order the checks run: schema,
    # duplicate, out-of-range, the caller's size check, non-positive sizes.
    @pytest.mark.parametrize("payload, check_sizes, message", [
        ([], None, "schema violation: expected keys dom, cod, pairs"),
        ({"dom": 1, "cod": 1}, None, "schema violation: expected keys dom, cod, pairs"),
        ({"dom": "1", "cod": 1, "pairs": []}, None,
         "schema violation: dom/cod must be integers and pairs a list"),
        ({"dom": 1, "cod": 1, "pairs": {}}, None,
         "schema violation: dom/cod must be integers and pairs a list"),
        ({"dom": 2, "cod": 2, "pairs": [[0, 0], [0]]}, None,
         "schema violation: malformed pair [0]"),
        ({"dom": 2, "cod": 2, "pairs": [[0, 0], [0, 0], [5, 0]]}, refuse_size,
         "duplicate pair [0, 0]"),
        ({"dom": 2, "cod": 2, "pairs": [[5, 0], [5, 0]]}, refuse_size,
         "out-of-range pair [5, 0] for a 2->2 relation"),
        ({"dom": 2, "cod": 2, "pairs": [[0, 1], [1, 0], [0, 0]]}, refuse_size,
         "size 2->2 refused"),
        ({"dom": 0, "cod": 2, "pairs": [[0, 0]]}, refuse_size,
         "out-of-range pair [0, 0] for a 0->2 relation"),
        ({"dom": 0, "cod": 2, "pairs": []}, refuse_size,
         "relation sizes must be positive, got 0->2"),
        ({"dom": 3, "cod": -1, "pairs": []}, None,
         "relation sizes must be positive, got 3->-1"),
    ])
    def test_json_dict_error_messages(self, payload, check_sizes, message):
        with pytest.raises(ValueError) as exc:
            FinRel.from_json_dict(payload, check_sizes)
        assert str(exc.value) == message

    @given(st.data())
    @settings(max_examples=200)
    def test_json_dict_equals_reference_loop(self, data):
        """The same relation, or the same error text, as the schema loop with
        one check per clause, on payloads with any mix of faults."""
        dom = data.draw(st.sampled_from([1, 2, 3, 4, 0, -1, True]))
        cod = data.draw(st.sampled_from([1, 2, 3, 4, 0, -1]))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, max(dom, 1) - 1),
                                             st.integers(0, max(cod, 1) - 1)).map(list),
                                   max_size=8, unique_by=tuple))
        fault = st.one_of(
            st.lists(st.integers(-1, 5), min_size=2, max_size=2),  # often out of range
            st.lists(st.integers(0, 3), max_size=3),  # often the wrong length
            st.tuples(st.integers(0, 3), st.integers(0, 3)),  # not a list
            st.lists(st.one_of(st.integers(0, 3), st.booleans(), st.sampled_from([0.0, 1.5])),
                     min_size=2, max_size=2),
            st.integers(0, 3), st.just("01"), st.just({"0": 1}), st.none())
        shaped = list(pairs)
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(pairs)))
            if shaped and data.draw(st.booleans()):
                pairs.insert(at, list(data.draw(st.sampled_from(shaped))))  # a repeat
            else:
                pairs.insert(at, data.draw(fault))
        payload = {"dom": dom, "cod": cod, "pairs": pairs}
        check_sizes = data.draw(st.sampled_from([None, refuse_size]))
        outcomes = []
        for decode in (FinRel.from_json_dict, finrel_from_json_dict):
            try:
                outcomes.append(decode(payload, check_sizes))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_json_pairs_sorted(self):
        r = rel(3, 3, [(2, 1), (0, 0), (1, 2)])
        assert r.to_json_dict()["pairs"] == [[0, 0], [1, 2], [2, 1]]
