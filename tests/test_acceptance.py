"""Acceptance gate: the eleven checks below are the package's exit criteria.

Every check is exact (the model is possibilistic, so every expected value is
a finite set or boolean; there are no tolerances).  Run with ``pytest -s``
to see one verdict line per criterion.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qcrel.algorithms import (
    BALANCED,
    CONSTANT,
    DJInstance,
    GroverInstance,
    HomIDInstance,
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
    Groupoid,
    check_structure_laws,
    cnot,
    is_complementary,
    make_complementary_pair,
    parse_groupoid_spec,
    parse_pair_spec,
    verify_classical_structure,
)
from qcrel.hom_relations import (
    StructuredRel,
    enumerate_classical_relations,
    is_groupoid_hom_relation,
    is_monoid_hom_relation,
    is_self_conjugate,
    is_surjective_on_objects,
)
from qcrel.oracles import OracleSpec, build_oracle
from qcrel.relations import FinRel, StateVec, is_unitary, then
from reference import all_subsets

GOLDEN = Path(__file__).parent / "golden"

P22 = parse_pair_spec("pair(Z2,Z2)")
Z22 = parse_groupoid_spec("Z2^2")
Z3 = parse_groupoid_spec("Z3")
Z4 = parse_groupoid_spec("Z4")


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_01_boolean_matrix_composition():
    r = FinRel(3, 3, [(0, 0), (0, 2), (1, 1)])
    psi = StateVec(3, [0])
    out = StateVec.from_ket(then(psi.as_ket(), r))
    assert out == StateVec(3, [0, 2])
    ok(1, "state {0} through the 3x3 example relation lands exactly on {0,2}")


def test_criterion_02_classical_structure_laws():
    for copies in range(1, 5):
        for order in range(1, 5):
            z = Groupoid(AbelianGroup([order]), copies)
            report = verify_classical_structure(z)
            assert report.all_ok, (copies, order, report.as_dict())
    z2 = parse_groupoid_spec("Z2")
    mult = z2.mult_rel
    broken_any = []
    for drop in mult.sorted_pairs():
        mutated = FinRel(mult.dom_size, mult.cod_size, mult.pairs - {tuple(drop)})
        broken_any.append(not check_structure_laws(mutated, z2.unit_state()).all_ok)
    assert all(broken_any)
    ok(2, "all 16 block groupoids pass the five laws; every multiplication "
          "mutation breaks at least one law")


def test_criterion_03_complementarity():
    groups = [AbelianGroup([n]) for n in (1, 2, 3, 4)] + [AbelianGroup([2, 2])]
    for g in groups:
        for h in groups:
            pair = make_complementary_pair(g, h)
            assert is_unitary(cnot(pair)), (g.spec(), h.spec())
    assert not is_complementary(Z4, parse_groupoid_spec("Z2^2"), range(4))
    ok(3, "every canonical pair with |G|,|H| <= 4 has a bijective controlled-not; "
          "Z4 against Z2+Z2 under the identity recoding does not")


def test_criterion_04_classical_relation_tables():
    expected = {
        "classical_z3_z3.jsonl": (Z3, 3),
        "classical_z4_z4.jsonl": (Z4, 4),
        "classical_z2z2_z2z2.jsonl": (Z22, 16),
    }
    for name, (g, count) in expected.items():
        golden = [FinRel.from_json_dict(json.loads(line))
                  for line in (GOLDEN / name).read_text().splitlines()]
        found = enumerate_classical_relations(g, g)
        assert len(found) == count
        assert found == golden, name
    ok(4, "classical-relation census matches the 3/4/16 golden tables "
          "element for element")


def test_criterion_05_hom_surjective_implies_monoid():
    checked = 0
    for g in (Z3, Z22):
        for rel in all_subsets(g, g):
            s = StructuredRel(rel, g, g)
            if is_groupoid_hom_relation(s) and is_surjective_on_objects(s):
                checked += 1
                assert is_monoid_hom_relation(s), rel.sorted_pairs()
    assert checked > 0
    ok(5, f"all 512 + 65536 candidate relations scanned; every hom relation "
          f"surjective on objects ({checked} found) is a monoid hom relation")


def test_criterion_06_self_conjugacy():
    total = 0
    for g in (Z3, Z4, Z22):
        for rel in enumerate_classical_relations(g, g):
            assert is_self_conjugate(StructuredRel(rel, g, g))
            total += 1
    ok(6, f"all {total} enumerated classical relations are self-conjugate")


def test_criterion_07_oracles_unitary():
    cases = [(Z3, parse_pair_spec("pair(Z3,Z1)")),
             (Z4, parse_pair_spec("pair(Z4,Z1)")),
             (Z22, P22)]
    total = 0
    for za, pair in cases:
        for rel in enumerate_classical_relations(za, pair.z):
            oracle = build_oracle(OracleSpec(za, pair, StructuredRel(rel, za, pair.z)))
            assert is_unitary(oracle)
            total += 1
    ok(7, f"all {total} oracles built from enumerated classical relations are bijections")


def test_criterion_08_constant_vs_balanced():
    census = {CONSTANT: 0, BALANCED: 0}
    for rel in enumerate_classical_relations(Z22, Z22):
        inst = DJInstance(P22, P22, StructuredRel(rel, Z22, Z22))
        verdict = dj_classify(inst)
        report = dj_run(inst)
        assert report.queries == 1
        if verdict == CONSTANT:
            assert report.scalars["composite"] is True
            assert report.decision == CONSTANT
            census[CONSTANT] += 1
        elif verdict == BALANCED:
            assert report.scalars["composite"] is False
            assert report.decision == BALANCED
            census[BALANCED] += 1
    assert census == {CONSTANT: 2, BALANCED: 4}
    ok(8, "the 2 constant blackboxes decide possible/constant, the 4 balanced "
          "decide impossible/balanced, classifier and runner agree, 1 query each")


def test_criterion_09_single_step_search():
    d, flag = grover_diffusion(P22)
    assert d == FinRel(4, 4, [(1, 1), (3, 3), (0, 2), (2, 0)])
    assert flag is True
    sigma = P22.x_classical_states()[1]

    f1 = StructuredRel(FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)]), Z22, Z22)
    report1 = grover_run(GroverInstance(P22, P22, f1, sigma))
    assert [s.sorted_members() for s in report1.possible_outcomes] == [[1, 3]]

    f2 = StructuredRel(FinRel(4, 4, [(0, 0), (2, 0), (0, 1), (2, 1)]), Z22, Z22)
    report2 = grover_run(GroverInstance(P22, P22, f2, sigma))
    assert [s.sorted_members() for s in report2.possible_outcomes] == [[1, 3]]

    for rel in enumerate_classical_relations(Z22, Z22):
        inst = GroverInstance(P22, P22, StructuredRel(rel, Z22, Z22), sigma)
        report = grover_run(inst)
        assert report.queries == 1
        for rho in report.possible_outcomes:
            assert grover_zero_condition(inst, rho) is False
    ok(9, "reflection matches and is a bijection; both worked searches return "
          "exactly {1,3}; no reported outcome satisfies the zero condition, "
          "over all 16 blackboxes and both candidates")


def test_criterion_10_homomorphism_identification():
    iso = StructuredRel(FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]), Z22, Z22)
    report = grouphomid_run(HomIDInstance(P22, P22, iso, P22.x_classical_states()[0]))
    assert [s.sorted_members() for s in report.possible_outcomes] == [[0, 2], [1, 3]]

    cases = [(Z3, parse_pair_spec("pair(Z3,Z1)")), (Z4, parse_pair_spec("pair(Z4,Z1)")),
             (Z22, P22)]
    for src, pair in cases:
        for rel in enumerate_classical_relations(src, src):
            for sigma in pair.x_classical_states():
                inst = HomIDInstance(pair, pair, StructuredRel(rel, src, src), sigma)
                rep = grouphomid_run(inst)
                assert rep.queries == 1
                for rho in rep.possible_outcomes:
                    assert grouphomid_necessary(inst, rho)
    ok(10, "identity isomorphism reports every classical state possible; every "
           "reported outcome has witness pairs, over all enumerated blackboxes "
           "and marking states")


def test_criterion_11_cli_determinism(tmp_path):
    rel_path = tmp_path / "f.json"
    rel_path.write_text(FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)]).to_json())
    commands = [
        ["enumerate", "--from", "Z2^2", "--to", "Z2^2"],
        ["verify-structure", "--groupoid", "Z3^2", "--json"],
        ["grover", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
         "--oracle", str(rel_path), "--sigma", "1", "--json"],
    ]
    # Extend the parent environment so PYTHONPATH reaches the child; drop
    # PYTHONHASHSEED so every child keeps its own random set-iteration order.
    base_env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    for args in commands:
        outputs = set()
        for threads in ("1", "3", "7"):
            proc = subprocess.run(
                [sys.executable, "-m", "qcrel.cli", *args],
                capture_output=True, text=True,
                env={**base_env, "QCREL_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, args
    ok(11, "repeated runs byte-identical for enumeration, verification and "
           "search, across QCREL_THREADS=1/3/7")
