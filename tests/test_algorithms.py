import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qcrel.algorithms import (
    BALANCED,
    CONSTANT,
    NEITHER,
    UNDETERMINED,
    DJInstance,
    GroverInstance,
    HomIDInstance,
    _single_query,
    dj_classify,
    dj_run,
    grouphomid_necessary,
    grouphomid_run,
    grover_diffusion,
    grover_run,
    grover_zero_condition,
)
from qcrel.groupoids import (
    AbelianGroup,
    ComplementaryPair,
    fourier_rel,
    parse_groupoid_spec,
    parse_pair_spec,
)
from qcrel.hom_relations import StructuredRel, enumerate_classical_relations
from qcrel.oracles import OracleSpec, build_oracle
from qcrel.relations import (
    FinRel,
    StateVec,
    converse,
    empty,
    full,
    identity,
    is_unitary,
    symmetric_difference,
    tensor,
    then,
)
from reference import dj_classify as reference_dj_classify, post_select


P22 = parse_pair_spec("pair(Z2,Z2)")
P31 = parse_pair_spec("pair(Z3,Z1)")
Z22 = parse_groupoid_spec("Z2^2")
Z3 = parse_groupoid_spec("Z3")

# Canonical pairs of up to 12 elements, square or not, with one or two cyclic factors.
GROUPS = st.builds(AbelianGroup, st.lists(st.integers(1, 3), min_size=1, max_size=2))
PAIRS = st.builds(ComplementaryPair, GROUPS, GROUPS).filter(lambda p: p.size <= 12)
# The same pairs, each canonical or under a random recoding, complementary or not.
RECODED_PAIRS = PAIRS.flatmap(lambda p: st.one_of(st.just(p), st.permutations(range(p.size)).map(
    lambda perm: ComplementaryPair(p.g, p.h, x_recode=perm))))


def complementary_recodings(g, h):
    """Every complementary recoding of pair(G, H), each as likely to be drawn
    as its transversal choices: element a of Z-copy k lands in X-copy
    tau_k(a), at place rho_l(k) of X-copy l, for permutations tau_k and rho_l."""
    n, m = g.order, h.order
    taus = st.lists(st.permutations(range(n)), min_size=m, max_size=m)
    rhos = st.lists(st.permutations(range(m)), min_size=n, max_size=n)
    return st.tuples(taus, rhos).map(lambda tr: ComplementaryPair(g, h, x_recode=[
        tr[0][k][a] * m + tr[1][tr[0][k][a]][k] for k in range(m) for a in range(n)]))


# Square pairs of 4 or 9 elements with two X-classical states or more, each
# under a random complementary recoding.
SQUARE_RECODED_PAIRS = st.sampled_from([(2, (2,)), (3, (3,)), (2, (1, 2)), (3, (3, 1))]).flatmap(
    lambda spec: complementary_recodings(AbelianGroup((spec[0],)), AbelianGroup(spec[1])))


def random_relations(n, m):
    """Relations n -> m, classical or not: empty, full, or a random set of pairs."""
    cells = [(a, b) for a in range(n) for b in range(m)]
    return st.one_of(st.just(empty(n, m)), st.just(full(n, m)),
                     st.sets(st.sampled_from(cells), max_size=2 * n).map(lambda p: FinRel(n, m, p)))


def grover_opposite_mapping(inst, rho):
    """The all-quantified opposite-mapping predicate: every rho element maps
    to sigma exactly where the prepared-state elements do not.  Vacuous or
    ill-fitting for sufficiently partial indicators."""
    h0 = inst.pair_s.x_classical_states()[0].members
    pairs = inst.f.rel.pairs
    for x in inst.sigma.members:
        for h in h0:
            for s in rho.members:
                if ((h, x) in pairs) == ((s, x) in pairs):
                    return False
    return True


CONSTANT_F = FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)])
BALANCED_FS = [
    FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)]),
    FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]),
    FinRel(4, 4, [(2, 0), (3, 1), (0, 2), (1, 3)]),
    FinRel(4, 4, [(0, 0), (2, 0), (1, 1), (3, 1)]),
]


def dj_inst(rel):
    return DJInstance(P22, P22, StructuredRel(rel, Z22, Z22))


def outcome_sets(report):
    return [s.sorted_members() for s in report.possible_outcomes]


class TestDJClassify:
    def test_constant_examples(self):
        assert dj_classify(dj_inst(CONSTANT_F)) == CONSTANT
        assert dj_classify(dj_inst(FinRel(4, 4, [(0, 2), (0, 3), (2, 2), (2, 3)]))) == CONSTANT

    def test_balanced_examples(self):
        for f in BALANCED_FS:
            assert dj_classify(dj_inst(f)) == BALANCED

    def test_partially_flooding_blackbox_is_balanced(self):
        assert dj_classify(dj_inst(FinRel(4, 4, [(0, 0), (2, 0), (1, 1), (3, 1)]))) == BALANCED

    def test_census_over_all_enumerated(self):
        counts = {CONSTANT: 0, BALANCED: 0, NEITHER: 0}
        for rel in enumerate_classical_relations(Z22, Z22):
            counts[dj_classify(dj_inst(rel))] += 1
        assert counts == {CONSTANT: 2, BALANCED: 4, NEITHER: 10}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(PAIRS, PAIRS.flatmap(lambda p: complementary_recodings(p.g, p.h))),
           PAIRS.filter(lambda p: p.g.order >= 2), st.data())
    def test_equals_every_block_reference(self, pair_a, pair_b, data):
        """The one-block test against the reference that tries every
        Z_B-classical state, on census members, random relations and
        constant-shaped ones: h0a x |G_B| consecutive elements, a Z_B-copy or
        straddling two, perhaps with one pair flipped."""
        n, m = pair_a.size, pair_b.size
        kind = data.draw(st.sampled_from(["census", "random", "constant"]))
        if kind == "census":
            try:
                census = enumerate_classical_relations(pair_a.z, pair_b.z, max_relations=4096)
            except ValueError:
                census = [empty(n, m)]
            rel = data.draw(st.sampled_from(census))
        elif kind == "random":
            rel = data.draw(random_relations(n, m))
        else:
            h0a = pair_a.x_classical_states()[0].members
            start = data.draw(st.integers(0, m - pair_b.g.order))
            block = range(start, start + pair_b.g.order)
            pairs = {(a, b) for a in h0a for b in block}
            if data.draw(st.booleans()):
                pairs ^= {(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1)))}
            rel = FinRel(n, m, pairs)
        inst = DJInstance(pair_a, pair_b, StructuredRel(rel, pair_a.z, pair_b.z), unchecked=True)
        assert dj_classify(inst) == reference_dj_classify(inst)

    def test_builds_no_z_classical_state(self):
        pair_a, pair_b = parse_pair_spec("pair(Z2,Z3)"), ComplementaryPair(
            AbelianGroup((3,)), AbelianGroup((2,)))
        rel = FinRel(pair_a.size, pair_b.size,
                     [(a, b) for a in pair_a.x_classical_states()[0].members for b in (3, 4, 5)])
        report = dj_run(DJInstance(pair_a, pair_b, StructuredRel(rel, pair_a.z, pair_b.z)))
        assert report.decision == CONSTANT
        assert "_classical_states" not in vars(pair_b.z)


class TestDJRun:
    def test_constant_run(self):
        report = dj_run(dj_inst(CONSTANT_F))
        assert report.decision == CONSTANT
        assert report.scalars["composite"] is True
        assert report.diagnostics["formula_output"] == [1]
        assert 1 in report.possible_outcomes[0].members

    def test_balanced_run(self):
        report = dj_run(dj_inst(BALANCED_FS[0]))
        assert report.decision == BALANCED
        assert report.scalars["composite"] is False
        assert report.diagnostics["composite_output"] == []

    def test_runner_matches_classifier_on_promise(self):
        for rel in enumerate_classical_relations(Z22, Z22):
            verdict = dj_classify(dj_inst(rel))
            report = dj_run(dj_inst(rel))
            if verdict in (CONSTANT, BALANCED):
                assert report.decision == verdict
            else:
                assert report.decision == UNDETERMINED

    def test_formula_and_composite_agree_as_scalars(self):
        for rel in enumerate_classical_relations(Z22, Z22):
            report = dj_run(dj_inst(rel))
            assert report.diagnostics["formula_agrees_with_composite"]

    def test_unabsorbed_pipeline_checked_for_square_pairs(self):
        # The key is a proved identity; the staged pipeline is the tests' reference.
        inst = dj_inst(CONSTANT_F)
        report = dj_run(inst)
        assert report.diagnostics["absorbed_equals_unabsorbed"] is True
        oracle = build_oracle(OracleSpec(P22.z, P22, inst.f))
        assert report.composites == {"pipeline": reference_unabsorbed(P22, P22, oracle)}

    def test_oracle_must_be_classical(self):
        with pytest.raises(ValueError, match="classical"):
            dj_inst(FinRel(4, 4, [(0, 0)]))

    def test_second_system_needs_two_x_states(self):
        p21 = parse_pair_spec("pair(Z1,Z2)")
        z2 = parse_groupoid_spec("Z2")
        with pytest.raises(ValueError, match="two classical states"):
            DJInstance(P22, p21, StructuredRel(FinRel(4, 2, []), Z22, p21.z))

    def test_query_count(self):
        assert dj_run(dj_inst(CONSTANT_F)).queries == 1


class TestGroverDiffusion:
    def test_two_copy_reflection_unitary(self):
        d, flag = grover_diffusion(P22)
        assert d == FinRel(4, 4, [(1, 1), (3, 3), (0, 2), (2, 0)])
        assert flag is True

    def test_three_copy_reflection_not_unitary(self):
        pair = parse_pair_spec("pair(Z3,Z3)")
        d, flag = grover_diffusion(pair)
        h0 = pair.x_classical_states()[0]
        assert h0.sorted_members() == [0, 3, 6]
        assert flag is False

    def test_degenerate_single_element(self):
        d, flag = grover_diffusion(parse_pair_spec("pair(Z1,Z1)"))
        assert d.pairs == frozenset()
        assert flag is False

    @staticmethod
    def fresh_reflection(pair):
        """The reflection built anew from the pair, with a validated block."""
        h0 = pair.x_classical_states()[0].members
        n = pair.size
        d = symmetric_difference(identity(n), FinRel(n, n, [(a, b) for a in h0 for b in h0]))
        return d, is_unitary(d)

    @pytest.mark.parametrize("spec", ["pair(Z1,Z1)", "pair(Z2,Z2)", "pair(Z3,Z3)",
                                      "pair(Z2,Z3)", "pair(Z2xZ2,Z2)", "pair(Z4,Z1)"])
    def test_built_once_per_canonical_pair(self, spec):
        # Each call builds the reflection anew, equal to a fresh build; no run calls it.
        pair = parse_pair_spec(spec)
        assert grover_diffusion(pair) == grover_diffusion(pair) == self.fresh_reflection(pair)
        assert grover_diffusion(parse_pair_spec(spec)) == self.fresh_reflection(pair)

    @given(st.sampled_from(["pair(Z2,Z2)", "pair(Z3,Z3)", "pair(Z2,Z3)", "pair(Z2xZ2,Z2)"]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_recoded_pairs_match_a_fresh_reflection(self, spec, data):
        canonical = parse_pair_spec(spec)
        perm = data.draw(st.permutations(range(canonical.size)))
        pair = ComplementaryPair(canonical.g, canonical.h, x_recode=perm)
        assert grover_diffusion(pair) == self.fresh_reflection(pair)
        self.assert_effects_folded(pair)

    @staticmethod
    def assert_effects_folded(pair):
        """The pair's post-selection effects, and the bijectivity flag a search
        reports, in closed form, against the X-classical effects pulled back
        through the converse of a fresh reflection and that reflection's flag."""
        d, flag = TestGroverDiffusion.fresh_reflection(pair)
        back = converse(d)
        assert pair._reflected_effects == tuple(StateVec(pair.size, back.image(rho.members))
                                                for rho in pair.x_classical_states())
        assert (pair.h.order == 2) == flag
        if pair.is_complementary_pair():
            sigma = pair.x_classical_states()[0]
            f = StructuredRel(empty(pair.size, pair.size), pair.z, pair.z)
            report = grover_run(GroverInstance(pair, pair, f, sigma, unchecked=True))
            assert report.diagnostics["diffusion_unitary"] is flag

    @pytest.mark.parametrize("spec", ["pair(Z1,Z1)", "pair(Z2,Z2)", "pair(Z3,Z3)",
                                      "pair(Z2,Z3)", "pair(Z2xZ2,Z2)", "pair(Z4,Z1)"])
    def test_effects_folded_once_per_pair(self, spec):
        self.assert_effects_folded(parse_pair_spec(spec))

    def test_every_recoding_of_small_pairs_matches_a_fresh_reflection(self):
        # Every recoding, complementary or not, of every pair of up to 6 elements.
        checked = 0
        for g, h in itertools.product(range(1, 7), repeat=2):
            if g * h <= 6:
                for perm in itertools.permutations(range(g * h)):
                    pair = ComplementaryPair(AbelianGroup((g,)), AbelianGroup((h,)), x_recode=perm)
                    self.assert_effects_folded(pair)
                    checked += 1
        assert checked == 3209

    @given(RECODED_PAIRS)
    @settings(max_examples=80, deadline=None)
    def test_random_recodings_match_a_fresh_reflection(self, pair):
        self.assert_effects_folded(pair)


def grover_inst(rel, sigma_index=1):
    sigma = P22.x_classical_states()[sigma_index]
    return GroverInstance(P22, P22, StructuredRel(rel, Z22, Z22), sigma)


class TestGroverRun:
    def test_marked_example(self):
        report = grover_run(grover_inst(BALANCED_FS[0]))
        assert outcome_sets(report) == [[1, 3]]
        assert report.diagnostics["composite_possible_outcomes"] == [[1, 3]]

    def test_inverted_example(self):
        rel = FinRel(4, 4, [(0, 0), (2, 0), (0, 1), (2, 1)])
        report = grover_run(grover_inst(rel))
        assert outcome_sets(report) == [[1, 3]]
        # the raw pipeline keeps the complementary state alive instead; the
        # divergence is reported, not hidden
        assert report.diagnostics["composite_possible_outcomes"] == [[0, 2]]
        assert report.diagnostics["composite_agrees_with_decision"] == [False, False]

    def test_zero_condition_values(self):
        inst = grover_inst(BALANCED_FS[0])
        rho0, rho1 = P22.x_classical_states()
        assert grover_zero_condition(inst, rho0) is True
        assert grover_zero_condition(inst, rho1) is False

    def test_zero_condition_rejects_non_classical_state(self):
        inst = grover_inst(BALANCED_FS[0])
        with pytest.raises(ValueError, match="classical state"):
            grover_zero_condition(inst, StateVec(4, [0, 1]))

    def test_membership_is_by_value(self):
        # A fresh state equal to a classical one is classical; an equal set
        # of members on another space is not.
        inst = grover_inst(BALANCED_FS[0])
        assert grover_zero_condition(inst, StateVec(4, [1, 3])) is False
        with pytest.raises(ValueError, match="classical state"):
            grover_zero_condition(inst, StateVec(5, [1, 3]))
        with pytest.raises(ValueError, match="sigma must be a classical state"):
            GroverInstance(P22, P22, inst.f, StateVec(5, [1, 3]))

    def test_outcomes_never_satisfy_zero_condition(self):
        for rel in enumerate_classical_relations(Z22, Z22):
            inst = grover_inst(rel)
            report = grover_run(inst)
            for rho in report.possible_outcomes:
                assert grover_zero_condition(inst, rho) is False

    def test_composite_decision_divergence_census(self):
        # the raw pipeline and the outcome law agree exactly on the four
        # blackboxes whose marked set misses the prepared state00
        disagreements = 0
        for rel in enumerate_classical_relations(Z22, Z22):
            report = grover_run(grover_inst(rel))
            disagreements += report.diagnostics["composite_agrees_with_decision"].count(False)
        assert disagreements == 24

    def test_opposite_mapping_report(self):
        exceptions = 0
        for rel in enumerate_classical_relations(Z22, Z22):
            inst = grover_inst(rel)
            report = grover_run(inst)
            for rho in report.possible_outcomes:
                if not grover_opposite_mapping(inst, rho):
                    exceptions += 1
        assert exceptions == 8

    def test_sigma_must_be_classical(self):
        with pytest.raises(ValueError, match="sigma"):
            GroverInstance(P22, P22, StructuredRel(BALANCED_FS[0], Z22, Z22),
                           StateVec(4, [0, 1]))

    def test_diagnostics_flags(self):
        report = grover_run(grover_inst(BALANCED_FS[0]))
        assert report.diagnostics["oracle_unitary"] is True
        assert report.diagnostics["diffusion_unitary"] is True
        assert report.diagnostics["physical_evolution"] is True
        assert report.queries == 1


def homid_inst(rel, sigma_index=0, pair=P22, unchecked=False):
    sigma = pair.x_classical_states()[sigma_index]
    return HomIDInstance(pair, pair, StructuredRel(rel, pair.z, pair.z), sigma,
                         unchecked=unchecked)


class TestHomID:
    def test_identity_isomorphism_all_outcomes(self):
        report = grouphomid_run(homid_inst(FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)])))
        assert outcome_sets(report) == [[0, 2], [1, 3]]

    def test_isomorphisms_always_return_everything(self):
        for rel in enumerate_classical_relations(Z22, Z22):
            if not is_unitary(rel):
                continue
            for sigma_index in (0, 1):
                report = grouphomid_run(homid_inst(rel, sigma_index))
                assert len(report.possible_outcomes) == 2

    def test_inversion_map_on_z3(self):
        rel = FinRel(3, 3, [(0, 0), (1, 2), (2, 1)])
        for sigma_index in range(3):
            inst = HomIDInstance(P31, P31, StructuredRel(rel, Z3, Z3),
                                 P31.x_classical_states()[sigma_index])
            report = grouphomid_run(inst)
            decided = {tuple(m) for m in outcome_sets(report)}
            composite = {tuple(m) for m in report.diagnostics["composite_possible_outcomes"]}
            verification = {tuple(m) for m in report.diagnostics["verification_possible_outcomes"]}
            assert composite <= decided
            assert verification <= decided

    def test_necessity_predicate(self):
        inst = homid_inst(FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]))
        for rho in P22.x_classical_states():
            assert grouphomid_necessary(inst, rho)

    def test_empty_blackbox_nothing_possible(self):
        inst = homid_inst(FinRel(4, 4, []), unchecked=True)
        report = grouphomid_run(inst)
        assert report.possible_outcomes == ()
        for rho in P22.x_classical_states():
            assert not grouphomid_necessary(inst, rho)

    def test_blackbox_missing_a_candidate_stride(self):
        # every related element sits in the first X-classical state, so the
        # second candidate has no witness and is not reported
        rel = FinRel(4, 4, [(0, 2), (2, 2), (0, 3), (2, 3)])
        report = grouphomid_run(homid_inst(rel))
        assert outcome_sets(report) == [[0, 2]]

    def test_run_outcomes_satisfy_necessity(self):
        for src, pair in ((Z3, P31), (Z22, P22)):
            for rel in enumerate_classical_relations(src, src):
                for sigma in pair.x_classical_states():
                    inst = HomIDInstance(pair, pair, StructuredRel(rel, src, src), sigma)
                    report = grouphomid_run(inst)
                    for rho in report.possible_outcomes:
                        assert grouphomid_necessary(inst, rho)

    def test_necessity_rejects_non_classical_rho(self):
        inst = homid_inst(FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]))
        with pytest.raises(ValueError, match="classical state"):
            grouphomid_necessary(inst, StateVec(4, [0]))

    def test_query_count(self):
        report = grouphomid_run(homid_inst(FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)])))
        assert report.queries == 1


class TestRunReportPayload:
    def test_json_shape(self):
        report = dj_run(dj_inst(CONSTANT_F))
        payload = report.to_json_dict()
        assert set(payload) == {"algorithm", "instance", "decision",
                                "possible_outcomes", "scalars", "diagnostics"}
        assert payload["diagnostics"]["queries"] == 1
        assert list(payload["diagnostics"])[:3] == ["diffusion_unitary", "oracle_unitary", "queries"]


# The built pipeline the runners replaced: the oracle and every stage built
# as a relation, then composed.  Kept as the reference for the pushed state.

def reference_single_query(pair_in, pair_out, f, marker, candidates, diffusion=None):
    oracle = build_oracle(OracleSpec(pair_in.z, pair_out, f), unchecked=True)
    n_out = pair_out.size
    evolved = then(tensor(candidates[0].as_ket(), marker.as_ket()), oracle)
    if diffusion is not None:
        evolved = then(evolved, tensor(diffusion, identity(n_out)))
    return oracle, [then(evolved, tensor(rho.as_bra(), identity(n_out))) for rho in candidates]


def reference_unabsorbed(pair_a, pair_b, oracle):
    ft_a, ft_b = fourier_rel(pair_a), fourier_rel(pair_b)
    g0a, g1b = pair_a.z.classical_states()[0], pair_b.z.classical_states()[1]
    staged = then(tensor(g0a.as_ket(), g1b.as_ket()), tensor(ft_a, ft_b))
    staged = then(staged, oracle)
    staged = then(staged, tensor(converse(ft_a), identity(pair_b.size)))
    return then(staged, tensor(g0a.as_bra(), identity(pair_b.size)))


def assert_runs_match_reference(pair_in, pair_out, rel, sigma_index, unchecked=False):
    """Every runner whose instance accepts (pair_in, pair_out, rel) against
    the built pipeline: composites and ``oracle_unitary``, and for dj on
    square pairs the staged basis-change pipeline too."""
    f = StructuredRel(rel, pair_in.z, pair_out.z)
    candidates = pair_in.x_classical_states()
    sigma = pair_out.x_classical_states()[sigma_index]
    if pair_out.g.order >= 2:
        report = dj_run(DJInstance(pair_in, pair_out, f, unchecked))
        h1b = pair_out.x_classical_states()[1]
        oracle, (expected,) = reference_single_query(pair_in, pair_out, f, h1b, candidates[:1])
        assert report.composites["pipeline"] == expected
        assert report.diagnostics["oracle_unitary"] == is_unitary(oracle)
        assert list(report.composites) == ["pipeline"]
        if pair_in.g.order == pair_in.h.order and pair_out.g.order == pair_out.h.order:
            assert report.composites["pipeline"] == reference_unabsorbed(pair_in, pair_out, oracle)
            assert report.diagnostics["absorbed_equals_unabsorbed"] is True
        else:
            assert "absorbed_equals_unabsorbed" not in report.diagnostics
    diffusion = grover_diffusion(pair_in)
    for run, inst, d in (
            (grover_run, GroverInstance(pair_in, pair_out, f, sigma, unchecked), diffusion),
            (grouphomid_run, HomIDInstance(pair_in, pair_out, f, sigma, unchecked), None)):
        report = run(inst)
        oracle, expected = reference_single_query(
            pair_in, pair_out, f, sigma, candidates, None if d is None else d[0])
        assert [report.composites[f"rho{i}"] for i in range(len(candidates))] == expected
        assert report.diagnostics["oracle_unitary"] == is_unitary(oracle)
        assert report.diagnostics["physical_evolution"] == (
            is_unitary(oracle) and (d is None or d[1]))


# The square ones, pair(Z2,Z2) and pair(Z3,Z3), also check the staged pipeline.
SMALLEST_PAIRS = ["pair(Z2,Z2)", "pair(Z3,Z2)", "pair(Z2,Z3)", "pair(Z1,Z4)", "pair(Z3,Z3)"]


class TestPushedPipelineMatchesBuiltReference:
    @pytest.mark.parametrize("pairspec", SMALLEST_PAIRS)
    def test_census_blackboxes(self, pairspec):
        pair = parse_pair_spec(pairspec)
        sigmas = len(pair.x_classical_states())
        for k, rel in enumerate(enumerate_classical_relations(pair.z, pair.z)):
            assert_runs_match_reference(pair, pair, rel, k % sigmas)

    def test_every_complementary_recoding(self):
        census = enumerate_classical_relations(Z22, Z22)
        recoded = [ComplementaryPair(P22.g, P22.h, x_recode=perm)
                   for perm in itertools.permutations(range(4))]
        recoded = [pair for pair in recoded if pair.is_complementary_pair()]
        assert len(recoded) == 16
        for k, pair in enumerate(recoded):
            for rel in census:
                assert_runs_match_reference(pair, pair, rel, k % 2)

    @given(PAIRS, PAIRS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_unchecked_blackboxes_on_random_shapes(self, pair_in, pair_out, data):
        rel = data.draw(random_relations(pair_in.size, pair_out.size))
        sigma_index = data.draw(st.integers(0, len(pair_out.x_classical_states()) - 1))
        assert_runs_match_reference(pair_in, pair_out, rel, sigma_index, unchecked=True)

    @given(SQUARE_RECODED_PAIRS, SQUARE_RECODED_PAIRS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_square_recodings_match_the_staged_pipeline(self, pair_in, pair_out, data):
        rel = data.draw(random_relations(pair_in.size, pair_out.size))
        sigma_index = data.draw(st.integers(0, len(pair_out.x_classical_states()) - 1))
        assert_runs_match_reference(pair_in, pair_out, rel, sigma_index, unchecked=True)


# The per-candidate post-selection that the one pass of ``reference.post_select``
# replaced: each effect's bra, tensored with the identity, applied to the whole state.

def reference_post_select(state, effects, m):
    return [then(state, tensor(rho.as_bra(), identity(m))) for rho in effects]


class TestOnePassPostSelection:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_candidate_reference(self, n, m, k, data):
        cells = list(range(n * m))
        rows = data.draw(st.lists(st.one_of(
            st.just(set()), st.just(set(cells)), st.sets(st.sampled_from(cells))),
            min_size=k, max_size=k))
        state = FinRel(k, n * m, ((i, a) for i, row in enumerate(rows) for a in row))
        effects = data.draw(st.lists(
            st.sets(st.integers(0, n - 1)).map(lambda members: StateVec(n, members)), max_size=4))
        # An effect on first factors that no row reaches meets nothing.
        missed = set(range(n)) - {a // m for row in rows for a in row}
        if missed:
            effects.append(StateVec(n, missed))
        assert post_select(state, effects, m) == reference_post_select(state, effects, m)

    def test_effect_meeting_nothing_gives_empty_rows(self):
        state = FinRel(1, 6, [(0, 0), (0, 2)])
        effects = [StateVec(2, [0]), StateVec(2, [1])]
        assert post_select(state, effects, 3) == [FinRel(1, 3, [(0, 0), (0, 2)]), FinRel(1, 3)]


class TestKickback:
    """The runs' kickback against the engine it replaced: the prepared state
    and the marker composed with the oracle's expanded block index, then
    post-selected on the first system."""

    @given(RECODED_PAIRS, RECODED_PAIRS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_push_and_post_select(self, pair_in, pair_out, data):
        n, m = pair_in.size, pair_out.size
        f = StructuredRel(data.draw(random_relations(n, m)), pair_in.z, pair_out.z)
        effects = [StateVec(n, members) for members in data.draw(
            st.lists(st.sets(st.integers(0, n - 1)), max_size=4))]
        effects += pair_in.x_classical_states() + pair_in._reflected_effects
        prepared = pair_in.x_classical_states()[0]
        state = data.draw(st.one_of(st.just(prepared), st.sets(st.integers(0, n - 1)).map(
            lambda members: StateVec(n, members))))
        for marker in pair_out.x_classical_states():
            oracle, composites = _single_query(pair_in, pair_out, f, marker, effects)
            relation = oracle.expand(pair_out.x_recode_inverse)
            (pushed,) = then(tensor(prepared.as_ket(), marker.as_ket()), relation).rows
            assert composites == post_select(FinRel._trusted(1, n * m, (pushed,)), effects, m)
            assert oracle.kickback(prepared, marker, pair_out) == {t // m for t in pushed}
            # Any first-system state, not only the prepared one, is kicked back.
            (pushed,) = then(tensor(state.as_ket(), marker.as_ket()), relation).rows
            kept = oracle.kickback(state, marker, pair_out)
            assert set(pushed) == {k * m + y for k in kept for y in marker.members}

    def test_marker_that_is_not_x_classical_is_refused(self):
        pair = parse_pair_spec("pair(Z2,Z2)")
        oracle = _single_query(pair, pair, StructuredRel(identity(4), pair.z, pair.z),
                               pair.x_classical_states()[1], [])[0]
        with pytest.raises(ValueError, match="X-basis"):
            oracle.kickback(pair.x_classical_states()[0], StateVec(4, [0]), pair)

    @pytest.mark.parametrize("run", ["dj", "grover", "homid"])
    def test_run_on_non_square_pair_reads_no_x_table(self, run):
        pair_s = ComplementaryPair(AbelianGroup((2,)), AbelianGroup((2,)))
        pair_b = ComplementaryPair(AbelianGroup((2,)), AbelianGroup((3,)))
        rel = enumerate_classical_relations(pair_s.z, pair_b.z)[1]
        f = StructuredRel(rel, pair_s.z, pair_b.z)
        sigma = pair_b.x_classical_states()[1]
        if run == "dj":
            dj_run(DJInstance(pair_s, pair_b, f))
        elif run == "grover":
            grover_run(GroverInstance(pair_s, pair_b, f, sigma))
        else:
            grouphomid_run(HomIDInstance(pair_s, pair_b, f, sigma))
        assert "add_table" not in vars(pair_b.x.base)
