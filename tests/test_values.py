"""Value semantics of every frozen class in the package.

Each class behaves as ``@dataclass(frozen=True)`` made it: equal exactly when
the class and the compared fields are the same, hashed consistently with
that, immutable, with the field-by-field repr where the class has no repr of
its own, and with the same constructor defaults.
"""

import pytest

from qcrel.algorithms import DJInstance, GroverInstance, HomIDInstance, RunReport
from qcrel.groupoids import (
    AbelianGroup,
    ComplementaryPair,
    Groupoid,
    LawReport,
    parse_groupoid_spec,
    parse_pair_spec,
)
from qcrel.hom_relations import StructuredRel
from qcrel.oracles import OracleSpec
from qcrel.relations import FinRel, Scalar, StateVec, identity


def pair22():
    return ComplementaryPair(AbelianGroup([2]), AbelianGroup([2]))


def identity_blackbox():
    pair = pair22()
    return StructuredRel(identity(4), pair.z, pair.z)


def report(decision="constant"):
    return RunReport("dj", {"n": 1}, decision, (StateVec(2, [0]),), {"s": True}, {})


# Per class: a maker called twice for two equal but distinct values, and a
# value that differs from them in one compared field.
VALUES = {
    "FinRel": (lambda: FinRel(2, 2, [(0, 0), (1, 1)]), FinRel(2, 2, [(0, 0)])),
    "StateVec": (lambda: StateVec(3, [0, 2]), StateVec(3, [0])),
    "Scalar": (lambda: Scalar(True), Scalar(False)),
    "AbelianGroup": (lambda: AbelianGroup([2, 3]), AbelianGroup([3, 2])),
    "Groupoid": (lambda: Groupoid(AbelianGroup([2]), 2), Groupoid(AbelianGroup([2]), 3)),
    "LawReport": (lambda: LawReport(True, True, True, True, True),
                  LawReport(True, True, True, True, False)),
    "ComplementaryPair": (pair22, ComplementaryPair(AbelianGroup([2]), AbelianGroup([2]),
                                                    [0, 1, 2, 3])),
    "StructuredRel": (identity_blackbox,
                      StructuredRel(FinRel(4, 4, [(0, 0)]), pair22().z, pair22().z)),
    "OracleSpec": (lambda: OracleSpec(pair22().z, pair22(), identity_blackbox()),
                   OracleSpec(pair22().z, pair22(), StructuredRel(
                       FinRel(4, 4, [(0, 0), (1, 0), (2, 2), (3, 2)]), pair22().z, pair22().z))),
    "RunReport": (report, report("balanced")),
    "DJInstance": (lambda: DJInstance(pair22(), pair22(), identity_blackbox()),
                   DJInstance(pair22(), pair22(), identity_blackbox(), True)),
    "GroverInstance": (
        lambda: GroverInstance(pair22(), pair22(), identity_blackbox(),
                               pair22().x_classical_states()[1]),
        GroverInstance(pair22(), pair22(), identity_blackbox(), pair22().x_classical_states()[0])),
    "HomIDInstance": (
        lambda: HomIDInstance(pair22(), pair22(), identity_blackbox(),
                              pair22().x_classical_states()[1]),
        HomIDInstance(pair22(), pair22(), identity_blackbox(), pair22().x_classical_states()[0])),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_iff_same_class_and_fields(name):
    make, different = VALUES[name]
    a, b = make(), make()
    assert a is not b and type(a).__name__ == name
    assert a == b and not a != b
    assert a != different and not a == different
    assert a.__eq__(object()) is NotImplemented
    assert a != object()


@pytest.mark.parametrize("name", sorted(set(VALUES) - {"RunReport"}))
def test_hash_agrees_with_equality(name):
    make, different = VALUES[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b, different}) == 2


def test_run_report_is_unhashable():
    # The hash covers the dict fields, as the dataclass's did.
    with pytest.raises(TypeError):
        hash(report())


def test_same_fields_in_another_class_are_not_equal():
    make, _ = VALUES["GroverInstance"]
    grover = make()
    homid = HomIDInstance(grover.pair_s, grover.pair_b, grover.f, grover.sigma)
    assert grover != homid and homid != grover


@pytest.mark.parametrize("name", VALUES)
def test_assignment_and_deletion_raise(name):
    value = VALUES[name][0]()
    field = next(iter(type(value).__annotations__))
    before = repr(value)
    for attr in (field, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == before and value == VALUES[name][0]()


def test_cached_property_is_outside_equality():
    a, b = FinRel(2, 2, [(1, 0)]), FinRel(2, 2, [(1, 0)])
    assert a.pairs == frozenset({(1, 0)})
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "FinRel(2->2, [(1, 0)])"


G2 = "AbelianGroup(cyclic_orders=(2,))"
Z2_2 = f"Groupoid(base={G2}, copies=2)"
PAIR22 = (f"ComplementaryPair(g={G2}, h={G2}, z={Z2_2}, x={Z2_2}, "
          "x_recode=(0, 2, 1, 3), canonical=True)")
BLACKBOX = f"StructuredRel(rel=FinRel(4->4, [(0, 0), (1, 1), (2, 2), (3, 3)]), source={Z2_2}, target={Z2_2})"


def test_default_reprs():
    make = {name: pair[0] for name, pair in VALUES.items()}
    assert repr(make["Scalar"]()) == "Scalar(possible=True)"
    assert repr(make["AbelianGroup"]()) == "AbelianGroup(cyclic_orders=(2, 3))"
    assert repr(make["Groupoid"]()) == Z2_2
    assert repr(make["LawReport"]()) == (
        "LawReport(coassociative=True, counital=True, frobenius=True, special=True, "
        "symmetric=True)")
    assert repr(make["ComplementaryPair"]()) == PAIR22
    assert repr(make["StructuredRel"]()) == BLACKBOX
    assert repr(make["OracleSpec"]()) == f"OracleSpec(za={Z2_2}, pair_b={PAIR22}, f={BLACKBOX})"
    assert repr(make["RunReport"]()) == (
        "RunReport(algorithm='dj', instance={'n': 1}, decision='constant', "
        "possible_outcomes=(StateVec(2, [0]),), scalars={'s': True}, diagnostics={}, "
        "composites={}, queries=1)")
    assert repr(make["DJInstance"]()) == (
        f"DJInstance(pair_a={PAIR22}, pair_b={PAIR22}, f={BLACKBOX}, unchecked=False)")
    sigma = "StateVec(4, [1, 3])"
    assert repr(make["GroverInstance"]()) == (
        f"GroverInstance(pair_s={PAIR22}, pair_b={PAIR22}, f={BLACKBOX}, sigma={sigma}, "
        "unchecked=False)")
    assert repr(make["HomIDInstance"]()) == (
        f"HomIDInstance(pair_g={PAIR22}, pair_a={PAIR22}, f={BLACKBOX}, sigma={sigma}, "
        "unchecked=False)")


def test_own_reprs():
    assert repr(FinRel(2, 3, [(1, 2), (0, 0)])) == "FinRel(2->3, [(0, 0), (1, 2)])"
    assert repr(StateVec(3, [2, 0])) == "StateVec(3, [0, 2])"


def test_complementary_pair_ignores_its_hidden_fields():
    a, b = pair22(), pair22()
    object.__setattr__(b, "x_recode_inverse", (3, 2, 1, 0))
    object.__setattr__(b, "_complementary", False)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert not b.is_complementary_pair()


def test_run_report_defaults():
    a, b = report(), report()
    assert a.composites == {} and a.composites is not b.composites
    assert a.queries == 1
    assert RunReport("dj", {}, None, (), {}, {}, {"x": identity(1)}, 2).queries == 2


def test_positional_and_keyword_arguments_agree():
    assert Scalar(possible=True) == Scalar(True)
    assert LawReport(True, True, frobenius=False, special=True, symmetric=True) == LawReport(
        True, True, False, True, True)
    f = identity_blackbox()
    assert StructuredRel(rel=f.rel, source=f.source, target=f.target) == f


@pytest.mark.parametrize("cls,args", [
    (DJInstance, ()),
    (GroverInstance, (parse_pair_spec("pair(Z2,Z2)").x_classical_states()[1],)),
    (HomIDInstance, (parse_pair_spec("pair(Z2,Z2)").x_classical_states()[1],)),
])
def test_unchecked_defaults_to_false(cls, args):
    pair = parse_pair_spec("pair(Z2,Z2)")
    inst = cls(pair, pair, identity_blackbox(), *args)
    assert inst.unchecked is False


def test_post_init_checks_run_in_order():
    z3 = parse_groupoid_spec("Z3")
    pair = pair22()
    # f's source is checked before its target.
    with pytest.raises(ValueError, match="must start at"):
        DJInstance(pair, pair, StructuredRel(identity(3), z3, z3))
    with pytest.raises(ValueError, match="must start at"):
        OracleSpec(pair.z, pair, StructuredRel(identity(3), z3, z3))
    with pytest.raises(ValueError, match="domain 3 != source groupoid size 4"):
        StructuredRel(identity(3), pair.z, z3)
