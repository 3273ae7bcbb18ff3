"""Abelian groups, groupoid bases, their algebra laws, and complementary pairs.

A basis for an n-element system is a disjoint union of N copies of one
abelian group G (n = N * |G|) with multiplication defined only inside a
copy.  Copy i's elements occupy the flat index block [i*|G|, (i+1)*|G|);
the block starts are the identities.

A complementary pair on one underlying set carries two such groupoids:
Z with copies of G (copy-major blocks) and X with copies of H (stride
classes), glued by the canonical recoding that sends the Z-label
(copy i, group element g) to the X-label (copy flat(g), element i).

Arithmetic is by table: a group builds its Cayley and negation tables on
first use, and a groupoid caches its structure relations.  The controlled
relation of Z's comultiplication, a blackbox f and X's multiplication has one
construction: f's pairs indexed by block (a Z-copy times an X-copy).  The
index pushes a state through the relation, decides its bijectivity without
building it, and expands it whole when pushed the identity.  Complementarity
is that bijectivity for f = identity: every Z-copy meets every X-copy in
exactly one element.  A pair decides it once, when it is built, in O(n) and
without any table.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import prod
from typing import Optional, Sequence

from .relations import (
    FinRel,
    StateVec,
    _frozen,
    converse,
    identity,
    is_unitary,
    swap,
    symmetric_difference,
    tensor,
    then,
)


@_frozen
class AbelianGroup:
    """Direct product of cyclic groups, elements coded as mixed-radix flat indices.

    >>> g = AbelianGroup((2, 3))
    >>> g.order
    6
    >>> g.add(1, 5)     # (0,1) + (1,2) = (1,0) -> flat 3
    3
    """

    cyclic_orders: tuple[int, ...]

    def __init__(self, cyclic_orders: Sequence[int]) -> None:
        orders = tuple(int(n) for n in cyclic_orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic factor orders must be >= 1, got {orders}")
        object.__setattr__(self, "cyclic_orders", orders)

    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    def coords(self, flat: int) -> tuple[int, ...]:
        out = []
        for n in reversed(self.cyclic_orders):
            flat, r = divmod(flat, n)
            out.append(r)
        return tuple(reversed(out))

    def flat(self, coords: Sequence[int]) -> int:
        value = 0
        for n, x in zip(self.cyclic_orders, coords):
            value = value * n + (x % n)
        return value

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table, ``add_table[a][b] == a + b``; built on first use."""
        coords = [self.coords(a) for a in range(self.order)]
        return tuple(tuple(self.flat([x + y for x, y in zip(ca, cb)]) for cb in coords)
                     for ca in coords)

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        return tuple(self.flat([-x for x in self.coords(a)]) for a in range(self.order))

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.cyclic_orders)


@_frozen
class Groupoid:
    """N disjoint copies of one abelian group, with partial multiplication.

    Element coding: copy i, group element g  ->  flat index i*|G| + flat(g).
    Products exist only within a copy; the identities sit at the block starts.
    """

    base: AbelianGroup
    copies: int

    def __init__(self, base: AbelianGroup, copies: int = 1) -> None:
        if copies < 1:
            raise ValueError(f"a groupoid needs at least one copy, got {copies}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "copies", int(copies))

    @property
    def size(self) -> int:
        return self.copies * self.base.order

    def copy_of(self, e: int) -> int:
        return e // self.base.order

    def mult(self, a: int, b: int) -> Optional[int]:
        """The partial product, or None when a and b live in different copies."""
        n = self.base.order
        (ca, x), (cb, y) = divmod(a, n), divmod(b, n)
        return ca * n + self.base.add_table[x][y] if ca == cb else None

    def identities(self) -> list[int]:
        return [i * self.base.order for i in range(self.copies)]

    @cached_property
    def mult_rel(self) -> FinRel:
        """Multiplication as a relation A*A -> A under the flat product coding."""
        n, size, table = self.base.order, self.size, self.base.add_table
        return FinRel._trusted(size * size, size, tuple(
            (a - a % n + table[a % n][b % n],) if a // n == b // n else ()
            for a in range(size) for b in range(size)))

    @cached_property
    def inv_rel(self) -> FinRel:
        """Inversion as a bijection A -> A, each element to its inverse in its own copy."""
        n, neg = self.base.order, self.base.neg_table
        return FinRel._trusted(self.size, self.size, tuple(
            (block + neg[x],) for block in range(0, self.size, n) for x in range(n)))

    def unit_state(self) -> StateVec:
        return StateVec(self.size, self.identities())

    @cached_property
    def comult_rel(self) -> FinRel:
        return converse(self.mult_rel)

    @cached_property
    def counit_rel(self) -> FinRel:
        return converse(self.unit_state().as_ket())

    def classical_states(self) -> tuple[StateVec, ...]:
        return self._classical_states

    @cached_property
    def _classical_states(self) -> tuple[StateVec, ...]:
        n = self.base.order
        return tuple(StateVec(self.size, range(i * n, (i + 1) * n)) for i in range(self.copies))

    def unbiased_states(self) -> list[StateVec]:
        n = self.base.order
        return [StateVec(self.size, (i * n + g for i in range(self.copies)))
                for g in range(n)]

    def spec(self) -> str:
        group = self.base.spec()
        return group if self.copies == 1 else f"{group}^{self.copies}"


@_frozen
class LawReport:
    """Outcome of checking the five classical-structure laws."""

    coassociative: bool
    counital: bool
    frobenius: bool
    special: bool
    symmetric: bool

    @property
    def all_ok(self) -> bool:
        return (self.coassociative and self.counital and self.frobenius
                and self.special and self.symmetric)

    def as_dict(self) -> dict[str, bool]:
        return {
            "coassociative": self.coassociative,
            "counital": self.counital,
            "frobenius": self.frobenius,
            "special": self.special,
            "symmetric": self.symmetric,
        }


def check_structure_laws(mult: FinRel, unit: StateVec) -> LawReport:
    """Evaluate the five laws for an arbitrary (multiplication, unit) pair.

    Each law is decided by building both composite sides as relations and
    comparing them exactly; no symbolic reasoning is involved.
    """
    n = mult.cod_size
    if mult.dom_size != n * n:
        raise ValueError(f"multiplication must be {n * n}->{n}, got {mult.dom_size}->{mult.cod_size}")
    if unit.space_size != n:
        raise ValueError(f"unit lives on {unit.space_size} elements, expected {n}")
    idn = identity(n)
    delta = converse(mult)
    eps = converse(unit.as_ket())
    eta = unit.as_ket()
    nu = swap(n, n)

    coassociative = then(delta, tensor(delta, idn)) == then(delta, tensor(idn, delta))
    counital = (then(delta, tensor(eps, idn)) == idn
                and then(delta, tensor(idn, eps)) == idn)
    frobenius = (then(tensor(idn, delta), tensor(mult, idn))
                 == then(tensor(delta, idn), tensor(idn, mult)))
    special = then(delta, mult) == idn
    symmetric = then(then(eta, delta), nu) == then(eta, delta)
    return LawReport(coassociative, counital, frobenius, special, symmetric)


def verify_classical_structure(z: Groupoid) -> LawReport:
    """Check that the groupoid's multiplication and unit form a classical structure."""
    return check_structure_laws(z.mult_rel, z.unit_state())


def _canonical_recode(g_order: int, h_order: int) -> tuple[int, ...]:
    """Z-flat index i*|G| + a  ->  X-flat index a*|H| + i."""
    recode = [0] * (g_order * h_order)
    for i in range(h_order):
        for a in range(g_order):
            recode[i * g_order + a] = a * h_order + i
    return tuple(recode)


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inverse = [0] * len(perm)
    for underlying, xcode in enumerate(perm):
        inverse[xcode] = underlying
    return tuple(inverse)


@_frozen
class ComplementaryPair:
    """Two groupoid bases on one underlying set, in the canonical mutually
    unbiased form: Z has |H| copies of G (blocks) and X has |G| copies of H
    (stride classes), glued by ``x_recode``.

    ``x_recode`` maps the underlying (Z-flat) coding to X's internal coding;
    all states returned by this class are expressed in the underlying coding.
    """

    g: AbelianGroup
    h: AbelianGroup
    z: Groupoid
    x: Groupoid
    x_recode: tuple[int, ...]
    canonical: bool
    # Also set by __init__, outside equality and the repr: x_recode_inverse,
    # the inverse permutation, and _complementary, the verdict it computes.

    def __init__(self, g: AbelianGroup, h: AbelianGroup,
                 x_recode: Optional[Sequence[int]] = None) -> None:
        z = Groupoid(g, copies=h.order)
        x = Groupoid(h, copies=g.order)
        if x_recode is None:
            recode = _canonical_recode(g.order, h.order)
            canonical = True
        else:
            recode = tuple(int(v) for v in x_recode)
            if sorted(recode) != list(range(z.size)):
                raise ValueError("x_recode must be a permutation of the underlying set")
            canonical = recode == _canonical_recode(g.order, h.order)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_recode", recode)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "x_recode_inverse", _inverse(recode))
        complementary = is_complementary(z, x, recode)
        # The canonical coding is complementary by construction; keep it checked.
        if canonical and not complementary:
            raise AssertionError("canonical pair violates the classical/unbiased correspondence")
        object.__setattr__(self, "_complementary", complementary)

    @property
    def size(self) -> int:
        return self.z.size

    def x_classical_states(self) -> tuple[StateVec, ...]:
        """X's classical states, expressed in the underlying coding."""
        return self._x_classical_states

    @cached_property
    def _x_classical_states(self) -> tuple[StateVec, ...]:
        inverse = self.x_recode_inverse
        return tuple(StateVec(self.size, (inverse[m] for m in s.members))
                     for s in self.x.classical_states())

    @cached_property
    def _h0_reflection(self) -> tuple[FinRel, bool]:
        """``algorithms.grover_diffusion``, built once per pair."""
        h0 = self._x_classical_states[0].members
        d = symmetric_difference(identity(self.size), FinRel(
            self.size, self.size, ((a, b) for a in h0 for b in h0)))
        return d, is_unitary(d)

    def is_complementary_pair(self) -> bool:
        """Whether the two bases are complementary under ``x_recode``: the
        verdict ``is_complementary`` gave once, at construction.  It always
        holds for the canonical coding (construction fails otherwise); an
        explicit recoding may break it."""
        return self._complementary

    def spec(self) -> str:
        return f"pair({self.g.spec()},{self.h.spec()})"


def make_complementary_pair(g: AbelianGroup, h: AbelianGroup) -> ComplementaryPair:
    return ComplementaryPair(g, h)


class _ControlledBlocks:
    """The controlled relation

        {((a.b, y), (a, c*y)) : (b, c) in f, a.b defined in ``z``,
                                 c*y defined in ``x`` under ``recode``}

    on z.size*x.size, kept as f's pairs indexed by block and built in O(|f|)
    without any of its rows.  The controlled-not is the case f = identity; a
    blackbox oracle passes its classical relation.  This index is the one
    construction of the relation: ``push`` composes a state with it, and
    pushing the identity expands it whole (``cnot``, ``build_oracle``).

    A block is a pair (K, L) of a Z-copy K of ``z`` and an X-copy L of ``x``
    under ``recode``; a pair (b, c) of f lies in block (Z-copy of b, X-copy
    of c), and is kept as (b's element in its group, c's element in its
    X-copy), which is all the controlled relation needs of it.  Building the
    index reads no group table; only ``push`` does.
    """

    def __init__(self, z: Groupoid, f: FinRel, x: Groupoid, recode: Sequence[int]) -> None:
        n, m = z.base.order, x.base.order
        self.z, self.x, self.recode = z, x, recode
        self.blocks: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for b, f_row in enumerate(f.rows):
            for c in f_row:
                l, c_x = divmod(recode[c], m)
                self.blocks.setdefault((b // n, l), []).append((b % n, c_x))

    def bijective(self) -> bool:
        """Whether the controlled relation is a bijection: exactly when every
        block holds exactly one pair of f.

        Proof.  Row (s, y) gets one target (s.b^-1, c*y) for each pair (b, c)
        of f with b in s's Z-copy and c in y's X-copy: those are the pairs of
        the block K x L that holds (s, y), and the target lies in K x L too.
        With exactly one pair (b, c) in a block, the rows of K x L map by
        (s, y) -> (s.b^-1, c*y), a translation of the group K times a
        translation of the group L, so a bijection of K x L.  With no pair in
        a block, its rows are empty.  With two or more, pairs (b, c) != (b', c')
        give targets that differ, since translations cancel, so each row has
        at least two distinct targets.  The blocks partition both the sources
        and the targets, so the relation is a bijection iff every block is
        the one-pair case.  For f = identity this is the transversal test:
        every Z-copy meets every X-copy in exactly one element.
        """
        return (len(self.blocks) == self.z.copies * self.x.copies
                and all(len(pairs) == 1 for pairs in self.blocks.values()))

    def push(self, state: FinRel, inverse: Sequence[int]) -> FinRel:
        """``then(state, R)`` for the controlled relation R, reading only the
        rows the state reaches; ``inverse`` inverts ``recode``.  Source (s, y)
        reaches one target (s.b^-1, c*y) for each pair (b, c) in its block, so
        only the y in c's X-copy are ever visited.  With ``state`` the identity
        on z.size*x.size the result is R itself, every row sorted and
        repeat-free, however many pairs share a block."""
        n, m, size = self.z.base.order, self.x.base.order, self.x.size
        z_add, z_neg, x_add = self.z.base.add_table, self.z.base.neg_table, self.x.base.add_table
        rows = []
        for row in state.rows:
            targets: set[int] = set()
            for source in row:
                s, y = divmod(source, size)
                k, i = divmod(s, n)
                l, y_x = divmod(self.recode[y], m)
                for b_z, c_x in self.blocks.get((k, l), ()):
                    targets.add((k * n + z_add[i][z_neg[b_z]]) * size
                                + inverse[l * m + x_add[c_x][y_x]])
            rows.append(tuple(sorted(targets)))
        return FinRel._trusted(state.dom_size, state.cod_size, tuple(rows))


def cnot(pair: ComplementaryPair) -> FinRel:
    """The controlled-not of the pair: copy in Z, then multiply in X."""
    n = pair.size
    return _ControlledBlocks(pair.z, identity(n), pair.x, pair.x_recode).push(
        identity(n * n), pair.x_recode_inverse)


def is_complementary(z: Groupoid, x: Groupoid, recode: Sequence[int]) -> bool:
    """Decide complementarity of two bases on a shared set: the controlled-not
    built from (Z comultiplication, X multiplication under ``recode``) must be
    a bijection, which ``_ControlledBlocks.bijective`` decides in O(n)."""
    if z.size != x.size:
        raise ValueError(f"bases live on different sets: {z.size} vs {x.size}")
    recode = tuple(int(v) for v in recode)
    if sorted(recode) != list(range(z.size)):
        raise ValueError("recode must be a permutation of the underlying set")
    return _ControlledBlocks(z, identity(z.size), x, recode).bijective()


def fourier_rel(pair: ComplementaryPair) -> FinRel:
    """The basis-change bijection of a square pair (|G| = |H|): the graph of
    the inverse recoding, u -> ``x_recode_inverse[u]``, which carries the k-th
    Z-classical state onto the k-th X-classical state under any recoding.  It
    is an involution only for the canonical recoding, so measure through its
    converse.  Pairs with |G| != |H| have no such bijection; prepare and
    measure X-classical states directly instead (the absorbed form the
    algorithm runners use).
    """
    if pair.g.order != pair.h.order:
        raise ValueError(
            f"no basis-change bijection for {pair.spec()}: "
            "|G| != |H|; use absorbed preparation/measurement instead"
        )
    return FinRel._trusted(pair.size, pair.size, tuple((u,) for u in pair.x_recode_inverse))


_GROUPOID_SPEC = re.compile(r"^(Z\d+)(xZ\d+)*(\^\d+)?$")


def parse_group_spec(text: str) -> AbelianGroup:
    """Parse a product-of-cyclics spec like ``Z2`` or ``Z2xZ3``."""
    text = text.strip()
    if not re.fullmatch(r"Z\d+(xZ\d+)*", text):
        pos = _first_bad_position(text, allow_caret=False)
        raise ValueError(f"malformed group spec {text!r} at position {pos}")
    orders = [int(part[1:]) for part in text.split("x")]
    if any(n == 0 for n in orders):
        raise ValueError(f"group spec {text!r} names a cyclic factor of order 0")
    return AbelianGroup(orders)


def parse_groupoid_spec(text: str) -> Groupoid:
    """Parse ``Z<n>[xZ<m>...]^<copies>``; ``^1`` may be omitted.

    >>> parse_groupoid_spec("Z2^2").size
    4
    """
    text = text.strip()
    if not _GROUPOID_SPEC.fullmatch(text):
        pos = _first_bad_position(text, allow_caret=True)
        raise ValueError(f"malformed groupoid spec {text!r} at position {pos}")
    if "^" in text:
        group_part, copies_part = text.split("^")
        copies = int(copies_part)
    else:
        group_part, copies = text, 1
    if copies == 0:
        raise ValueError(f"groupoid spec {text!r} asks for 0 copies")
    return Groupoid(parse_group_spec(group_part), copies)


_PAIR_SPEC = re.compile(r"^pair\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def parse_pair_spec(text: str) -> ComplementaryPair:
    """Parse ``pair(G,H)`` where G and H are group specs, e.g. ``pair(Z2,Z2)``."""
    m = _PAIR_SPEC.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed pair spec {text!r}: expected pair(G,H)")
    return make_complementary_pair(parse_group_spec(m.group(1)), parse_group_spec(m.group(2)))


def _first_bad_position(text: str, allow_caret: bool) -> int:
    allowed = set("Zx0123456789")
    if allow_caret:
        allowed.add("^")
    for i, ch in enumerate(text):
        if ch not in allowed:
            return i
    return len(text)
