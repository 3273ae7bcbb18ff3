import functools
import itertools
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from qcrel.groupoids import (
    AbelianGroup,
    ComplementaryPair,
    Groupoid,
    _ControlledBlocks,
    cnot,
    is_complementary,
    parse_groupoid_spec,
    parse_pair_spec,
)
from qcrel.hom_relations import StructuredRel, enumerate_classical_relations
from qcrel.oracles import OracleSpec, build_oracle
from qcrel.relations import FinRel, empty, full, identity, is_unitary, tensor, then


P21 = parse_pair_spec("pair(Z2,Z1)")
P22 = parse_pair_spec("pair(Z2,Z2)")
Z22 = parse_groupoid_spec("Z2^2")


GROUPS = st.builds(AbelianGroup, st.lists(st.integers(1, 3), min_size=1, max_size=2))


def spec_for(pair, za, rel):
    return OracleSpec(za, pair, StructuredRel(rel, za, pair.z))


def x_mult(pair, u, v):
    """X's partial multiplication transported to the underlying coding."""
    w = pair.x.mult(pair.x_recode[u], pair.x_recode[v])
    return None if w is None else pair.x_recode_inverse[w]


def oracle_by_pieces(spec):
    za, pb = spec.za, spec.pair_b
    na, nb = za.size, pb.size
    xmult = FinRel(nb * nb, nb,
                   ((c * nb + y, w) for c in range(nb) for y in range(nb)
                    for w in [x_mult(pb, c, y)] if w is not None))
    staged = tensor(za.comult_rel, identity(nb))
    staged = then(staged, tensor(identity(na), tensor(spec.f.rel, identity(nb))))
    return then(staged, tensor(identity(na), xmult))


def reference_controlled_not(z, f_pairs, x_mult, size_out):
    """The reference for the controlled relation: every y of the target is tried
    and the undefined products c*y are skipped."""
    pairs = set()
    n = z.base.order
    for (b, c) in f_pairs:
        block = (b // n) * n
        for a in range(block, block + n):
            x = z.mult(a, b)
            for y in range(size_out):
                w = x_mult(c, y)
                if w is not None:
                    pairs.add((x * size_out + y, a * size_out + w))
    size = z.size * size_out
    return FinRel(size, size, pairs)


def random_kets(size, rng, count=4):
    """One-row states on ``size`` elements: empty, full and random subsets."""
    members = [(), tuple(range(size))]
    members += [tuple(sorted(rng.sample(range(size), rng.randint(1, size)))) for _ in range(count)]
    return [FinRel._trusted(1, size, (row,)) for row in members]


def assert_blocks_match_oracle(za, pair, f, oracle, rng):
    """The block index against the built oracle: its bijectivity verdict is
    is_unitary, and pushing a ket through it is composing with the oracle."""
    blocks = _ControlledBlocks(za, f, pair.x, pair.x_recode)
    assert blocks.bijective() == is_unitary(oracle)
    for ket in random_kets(oracle.dom_size, rng):
        assert blocks.push(ket, pair.x_recode_inverse) == then(ket, oracle)


def assert_fast_paths_match_reference(pair, blackboxes, rng):
    """cnot, is_complementary, build_oracle(unchecked=True) and the block
    index against the all-y loop."""
    n = pair.size
    pair_x_mult = functools.partial(x_mult, pair)
    expected = reference_controlled_not(pair.z, ((b, b) for b in range(n)), pair_x_mult, n)
    assert cnot(pair) == expected
    assert is_complementary(pair.z, pair.x, pair.x_recode) == is_unitary(expected)
    for f in blackboxes:
        oracle = build_oracle(spec_for(pair, pair.z, f), unchecked=True)
        assert oracle == reference_controlled_not(pair.z, f.pairs, pair_x_mult, n)
        assert_blocks_match_oracle(pair.z, pair, f, oracle, rng)


class TestFastPathsMatchReference:
    @pytest.mark.parametrize("pairspec,complementary", [
        ("pair(Z2,Z2)", 16), ("pair(Z3,Z2)", 288), ("pair(Z2,Z3)", 288), ("pair(Z1,Z4)", 24),
    ])
    def test_every_recoding(self, pairspec, complementary):
        canonical = parse_pair_spec(pairspec)
        n = canonical.size
        census = enumerate_classical_relations(canonical.z, canonical.z)
        blackboxes = [identity(n), full(n, n), *census[-2:]]
        verdicts = []
        rng = random.Random(pairspec)
        for perm in itertools.permutations(range(n)):
            pair = ComplementaryPair(canonical.g, canonical.h, x_recode=perm)
            assert_fast_paths_match_reference(pair, blackboxes, rng)
            verdicts.append(pair.is_complementary_pair())
        # Complementary recodings out of 24, 720, 720 and 24, as the all-y loop decides.
        assert sum(verdicts) == complementary

    @given(GROUPS, GROUPS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_recodings(self, g, h, data):
        n = g.order * h.order
        pair = ComplementaryPair(g, h, x_recode=data.draw(st.permutations(range(n))))
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        f = FinRel(n, n, data.draw(st.sets(cells, max_size=8)))
        rng = random.Random(data.draw(st.integers(0, 1 << 16)))
        assert_fast_paths_match_reference(pair, [f], rng)

    def test_trusted_results_revalidate(self):
        pair, za = parse_pair_spec("pair(Z2,Z3)"), parse_groupoid_spec("Z2xZ2^2")
        census = enumerate_classical_relations(za, pair.z)
        # A crowded oracle (up to 12 targets a row) and the cnot of a recoded
        # pair check that the expanded rows are sorted and repeat-free.
        crowded = build_oracle(spec_for(pair, za, full(8, 6)), unchecked=True)
        assert max(map(len, crowded.rows)) == 12
        recoded = ComplementaryPair(pair.g, pair.h, x_recode=(1, 3, 2, 4, 0, 5))
        assert recoded.is_complementary_pair() and not recoded.canonical
        built = [cnot(pair), build_oracle(spec_for(pair, za, census[-1])), *census,
                 crowded, cnot(recoded),
                 za.mult_rel, za.comult_rel, za.counit_rel, za.inv_rel]
        for r in built:
            assert r == FinRel(r.dom_size, r.cod_size, r.pairs)


class TestBuildOracle:
    def test_identity_blackbox_gives_cnot(self):
        spec = spec_for(P21, P21.z, identity(2))
        oracle = build_oracle(spec)
        assert oracle == cnot(P21)
        assert is_unitary(oracle)

    def test_constant_blackbox_unitary(self):
        f = FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)])
        assert is_unitary(build_oracle(spec_for(P22, Z22, f)))

    def test_non_classical_rejected_with_equation_named(self):
        with pytest.raises(ValueError, match="counit"):
            build_oracle(spec_for(P22, Z22, full(4, 4)))
        # Both identities go to an identity, so only the comultiplication fails.
        with pytest.raises(ValueError, match=": comultiplication equation fails"):
            build_oracle(spec_for(P22, Z22, FinRel(4, 4, [(0, 0), (2, 0)])))

    def test_unchecked_builds_anyway(self):
        oracle = build_oracle(spec_for(P22, Z22, full(4, 4)), unchecked=True)
        assert oracle.dom_size == 16

    def test_unit_deleted_mutation_rejected_or_not_unitary(self):
        base = FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)])
        mutated = FinRel(4, 4, base.pairs - {(0, 0)})
        spec = spec_for(P22, Z22, mutated)
        try:
            oracle = build_oracle(spec)
        except ValueError:
            return
        assert not is_unitary(oracle)

    @pytest.mark.parametrize("srcspec,pairspec", [
        ("Z3", "pair(Z3,Z1)"),
        ("Z4", "pair(Z4,Z1)"),
        ("Z2^2", "pair(Z2,Z2)"),
        ("Z2xZ2", "pair(Z2,Z2)"),
        ("Z3^2", "pair(Z3,Z2)"),
        ("Z2^3", "pair(Z2,Z3)"),
        ("Z1^4", "pair(Z1,Z4)"),
        ("Z2", "pair(Z2xZ2,Z2)"),
    ])
    def test_all_enumerated_blackboxes_unitary(self, srcspec, pairspec):
        za = parse_groupoid_spec(srcspec)
        pair = parse_pair_spec(pairspec)
        census = enumerate_classical_relations(za, pair.z)
        assert census
        for rel in census:
            assert is_unitary(build_oracle(spec_for(pair, za, rel)))

    def test_all_enumerated_blackboxes_unitary_under_every_recoding(self):
        census = enumerate_classical_relations(Z22, P22.z)
        recoded = [ComplementaryPair(P22.g, P22.h, x_recode=perm)
                   for perm in itertools.permutations(range(4))]
        recoded = [pair for pair in recoded if pair.is_complementary_pair()]
        assert len(recoded) == 16
        for pair in recoded:
            for rel in census:
                assert is_unitary(build_oracle(spec_for(pair, Z22, rel)))

    @pytest.mark.parametrize("srcspec,pairspec", [
        ("Z3", "pair(Z3,Z1)"),
        ("Z2^2", "pair(Z2,Z2)"),
        ("Z2", "pair(Z2,Z3)"),
        ("Z3^2", "pair(Z3,Z2)"),
    ])
    def test_comprehension_matches_staged_composite(self, srcspec, pairspec):
        za = parse_groupoid_spec(srcspec)
        pair = parse_pair_spec(pairspec)
        for rel in enumerate_classical_relations(za, pair.z):
            spec = spec_for(pair, za, rel)
            assert build_oracle(spec) == oracle_by_pieces(spec)

    def test_empty_blackbox_unchecked_not_unitary(self):
        oracle = build_oracle(spec_for(P22, Z22, empty(4, 4)), unchecked=True)
        assert oracle.pairs == frozenset()
        assert not is_unitary(oracle)


class TestOracleSpecValidation:
    def test_wrong_source(self):
        z3 = parse_groupoid_spec("Z3")
        with pytest.raises(ValueError, match="control"):
            OracleSpec(z3, P22, StructuredRel(FinRel(4, 4, []), Z22, P22.z))

    def test_wrong_target(self):
        with pytest.raises(ValueError):
            OracleSpec(Z22, P22, StructuredRel(FinRel(4, 3, []), Z22, parse_groupoid_spec("Z3")))


@given(st.builds(Groupoid, GROUPS, st.integers(1, 2)), GROUPS, GROUPS, st.data())
@settings(max_examples=60, deadline=None)
def test_oracle_equals_staged_reference(za, g, h, data):
    pair = ComplementaryPair(g, h)
    # Larger censuses would cost seconds per example just to list.
    try:
        census = enumerate_classical_relations(za, pair.z, max_relations=1 << 12)
    except ValueError as exc:
        assert "beyond the budget" in str(exc)
        reject()
    spec = spec_for(pair, za, data.draw(st.sampled_from(census)))
    oracle = build_oracle(spec)
    assert oracle == oracle_by_pieces(spec)
    assert is_unitary(oracle)
    rng = random.Random(data.draw(st.integers(0, 1 << 16)))
    assert_blocks_match_oracle(za, pair, spec.f.rel, oracle, rng)
