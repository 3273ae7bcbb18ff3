"""Value semantics of every frozen class in the package.

Each class behaves as ``@dataclass(frozen=True)`` made it: equal exactly when
the class and the compared fields are the same, hashed consistently with
that, immutable, with the field-by-field repr where the class has no repr of
its own, and with the same constructor defaults.
"""

from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcrel.algorithms import DJInstance, GroverInstance, HomIDInstance, RunReport, grouphomid_run
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


@pytest.mark.parametrize("name", VALUES)
def test_constructor_stores_exactly_the_fields(name):
    # Only ComplementaryPair stores attributes of its own outside the fields,
    # and a cached_property stores its value on first use.
    for value in (VALUES[name][0](), VALUES[name][1]):
        cls = type(value)
        extra = {key for key, member in vars(cls).items() if isinstance(member, cached_property)}
        if name == "ComplementaryPair":
            hidden = {"x_recode_inverse", "_complementary"}
            assert hidden <= vars(value).keys()
            extra |= hidden
        assert [key for key in vars(value) if key not in extra] == list(cls.__annotations__)


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


# The ids keep the case names from when the classes raised their own messages.
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: Scalar(True, False),
                 "Scalar.__init__() takes 2 positional arguments but 3 were given",
                 id="<lambda>-Scalar() takes 1 arguments, each once0"),
    pytest.param(lambda: Scalar(True, possible=False),
                 "Scalar.__init__() got multiple values for argument 'possible'",
                 id="<lambda>-Scalar() takes 1 arguments, each once1"),
    pytest.param(lambda: Scalar(),
                 "Scalar.__init__() missing 1 required positional argument: 'possible'",
                 id="<lambda>-Scalar() missing argument 'possible'0"),
    pytest.param(lambda: Scalar(True, other=1),
                 "Scalar.__init__() got an unexpected keyword argument 'other'",
                 id="<lambda>-Scalar() got unexpected arguments ['other']"),
    # An unknown keyword is reported before a missing argument.
    pytest.param(lambda: Scalar(other=1),
                 "Scalar.__init__() got an unexpected keyword argument 'other'",
                 id="<lambda>-Scalar() missing argument 'possible'1"),
    pytest.param(lambda: LawReport(True, True, True, True, b=1, a=2),
                 "LawReport.__init__() got an unexpected keyword argument 'b'",
                 id="<lambda>-LawReport() missing argument 'symmetric'"),
    pytest.param(lambda: LawReport(True, True, True, True, True, b=1, a=2),
                 "LawReport.__init__() got an unexpected keyword argument 'b'",
                 id="<lambda>-LawReport() got unexpected arguments ['a', 'b']"),
    pytest.param(lambda: RunReport("dj", {}, None, (), {}, {}, queries=2, algorithm="dj"),
                 "RunReport.__init__() got multiple values for argument 'algorithm'",
                 id="<lambda>-RunReport() takes 8 arguments, each once"),
])
def test_constructor_errors(call, message):
    # Each class writes its own constructor, so Python reports a bad call.
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_keyword_order_and_defaults():
    a = RunReport(queries=3, composites={}, diagnostics={}, scalars={}, possible_outcomes=(),
                  decision=None, instance={}, algorithm="dj")
    assert a == RunReport("dj", {}, None, (), {}, {}, {}, 3)
    b = RunReport("dj", {}, None, (), {}, diagnostics={})
    assert (b.composites, b.queries) == ({}, 1)
    assert b.composites is not RunReport("dj", {}, None, (), {}, {}).composites


ORDERS = st.lists(st.integers(1, 4), min_size=1, max_size=2)


@given(ORDERS, ORDERS, st.data())
@settings(max_examples=60, deadline=None)
def test_trusted_states_equal_validated(g_orders, h_orders, data):
    """The states the package builds unchecked, from a pair under a random
    recoding and from a run's verification preimage, equal the states that
    ``StateVec(...)`` validates from the same members."""
    g, h = AbelianGroup(g_orders), AbelianGroup(h_orders)
    n = g.order * h.order
    assume(n <= 16)
    pair = ComplementaryPair(g, h, x_recode=data.draw(st.one_of(st.none(), st.permutations(range(n)))))
    states = (pair.x_classical_states() + pair._reflected_effects
              + pair.z.classical_states() + pair.x.classical_states())
    for state in states:
        validated = StateVec(state.space_size, state.members)
        assert state == validated and hash(state) == hash(validated)
        assert type(state.space_size) is int and type(state.members) is frozenset
        assert all(type(m) is int and 0 <= m < state.space_size for m in state.members)
    canonical = ComplementaryPair(g, h)
    cells = [(a, b) for a in range(n) for b in range(n)]
    rel = FinRel(n, n, data.draw(st.sets(st.sampled_from(cells), max_size=2 * n)))
    sigma = data.draw(st.sampled_from(canonical.x_classical_states()))
    report = grouphomid_run(HomIDInstance(canonical, canonical, StructuredRel(
        rel, canonical.z, canonical.z), sigma, unchecked=True))
    verification = StateVec(n, rel.preimage(sigma.members))
    assert report.diagnostics["verification_possible_outcomes"] == [
        rho.sorted_members() for rho in canonical.x_classical_states()
        if rho.members & verification.members]
