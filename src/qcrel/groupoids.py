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
first use, each row an additive extension (``_extension``), and a groupoid
caches its structure relations.  A groupoid is the direct sum of its copies,
so its classical-structure laws are decided on one copy of G.

The controlled relation of Z's comultiplication, a blackbox f and X's
multiplication has one construction: f's pairs indexed by block (a Z-copy
times an X-copy).  The index kicks a query with an X-classical marker back
onto the first system, which is all a run asks of it; it also decides its
bijectivity without building it, and expands into the whole relation for
``cnot`` and ``build_oracle``.  Complementarity is that bijectivity for
f = identity: every Z-copy meets every X-copy in exactly one element.  A pair
decides it once, when it is built, in O(n) and without any table.
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
    swap,
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
        vars(self).update(cyclic_orders=orders)

    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The flat index of each cyclic factor's generator, 0 for a factor Z1."""
        orders = self.cyclic_orders
        return tuple(prod(orders[i + 1:]) if n > 1 else 0 for i, n in enumerate(orders))

    def flat(self, coords: Sequence[int]) -> int:
        value = 0
        for n, x in zip(self.cyclic_orders, coords):
            value = value * n + (x % n)
        return value

    @cached_property
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table, ``add_table[a][b] == a + b``; built on first use."""
        return tuple(_extension(self, self, self.generators, a) for a in range(self.order))

    @cached_property
    def neg_table(self) -> tuple[int, ...]:
        """``neg_table[a] == -a``: each generator e_i goes to (g_i - 1)*e_i."""
        return _extension(self, self, [(n - 1) * e for n, e in zip(self.cyclic_orders,
                                                                   self.generators)])

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.cyclic_orders)


def _extension(h: AbelianGroup, g: AbelianGroup, images: Sequence[int],
               offset: int = 0) -> Optional[tuple[int, ...]]:
    """The table on H's flat elements of x -> offset + sum_i x_i*images[i] in
    G, for x of coordinates x_i and flat images in G; None when some
    h_i*images[i] != 0.  Built one coordinate of G at a time, O(|H|) each.

    With offset 0, the images extend to a homomorphism H -> G iff every
    h_i*images[i] = 0; so a table phi is a homomorphism iff it equals the
    extension of its images phi(e_i) of H's generators (e_i = 0 for a Z1).
    Proof.  A homomorphism has h_i*phi(e_i) = phi(h_i*e_i) = phi(0) = 0 and
    phi(x) = sum_i x_i*phi(e_i).  Conversely, the homomorphism Z^k -> G that
    sends unit vector i to images[i] kills every h_i*e_i, so it factors
    through H, and on the representatives 0 <= x_i < h_i it is the extension.
    """
    table, below = None, g.order
    for gj in g.cyclic_orders:
        below //= gj
        column = [offset // below % gj]
        for hi, image in zip(h.cyclic_orders, images):
            step = image // below % gj
            if hi * step % gj:
                return None
            steps = [t * step for t in range(hi)]
            column = [(v + s) % gj for v in column for s in steps]
        table = column if table is None else [v * gj + c for v, c in zip(table, column)]
    return tuple(table)


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
        vars(self).update(base=base, copies=int(copies))

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
        return tuple(StateVec._trusted(self.size, frozenset(range(i * n, (i + 1) * n)))
                     for i in range(self.copies))

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

    def __init__(self, coassociative: bool, counital: bool, frobenius: bool, special: bool,
                 symmetric: bool) -> None:
        vars(self).update(coassociative=coassociative, counital=counital, frobenius=frobenius,
                          special=special, symmetric=symmetric)

    @property
    def all_ok(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict[str, bool]:
        return {law: getattr(self, law) for law in LawReport.__annotations__}


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
    """Check that the groupoid's multiplication and unit form a classical
    structure: ``check_structure_laws`` on one copy of its group G, in
    O(|G|^3) rows whatever the number of copies.

    A groupoid is the direct sum of its copies (Heunen-Contreras-Cattaneo,
    arXiv:1112.1284).  Every product stays in one copy, and so does the unit
    an element meets, so every side of every law is the disjoint union over
    the copies of that side built on one copy alone.  Each copy's
    restriction, shifted to [0, |G|), is the one-copy groupoid of G.  So the
    laws hold on z iff they hold on G.
    """
    g = z if z.copies == 1 else Groupoid(z.base)
    return check_structure_laws(g.mult_rel, g.unit_state())


def _canonical_recode(g_order: int, h_order: int) -> tuple[int, ...]:
    """Z-flat index i*|G| + a  ->  X-flat index a*|H| + i."""
    return tuple(a * h_order + i for i in range(h_order) for a in range(g_order))


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
        complementary = _ControlledBlocks(z, identity(z.size), x, recode).bijective()
        # The canonical coding is complementary by construction; keep it checked.
        if canonical and not complementary:
            raise AssertionError("canonical pair violates the classical/unbiased correspondence")
        vars(self).update(g=g, h=h, z=z, x=x, x_recode=recode, canonical=canonical,
                          x_recode_inverse=_inverse(recode), _complementary=complementary)

    @property
    def size(self) -> int:
        return self.z.size

    def x_classical_states(self) -> tuple[StateVec, ...]:
        """X's classical states, expressed in the underlying coding."""
        return self._x_classical_states

    @cached_property
    def _x_classical_states(self) -> tuple[StateVec, ...]:
        # X-copy l holds X-codes [l*|H|, (l+1)*|H|); recode them back.
        inverse, n, m = self.x_recode_inverse, self.size, self.h.order
        return tuple(StateVec._trusted(n, frozenset(inverse[l * m:(l + 1) * m]))
                     for l in range(self.g.order))

    @cached_property
    def _x_classical_set(self) -> frozenset[StateVec]:
        """The X-classical states as a set, for membership tests."""
        return frozenset(self._x_classical_states)

    @property
    def _reflected_effects(self) -> tuple[StateVec, ...]:
        """Each X-classical effect rho folded back through the search's
        reflection d, the symmetric difference of the identity and H0 x H0,
        H0 the first X-classical state: post-selecting on rho after d is
        post-selecting on converse(d)'s image of rho before.  In closed form that image is H0
        itself for rho = H0 when |H| >= 2, empty when |H| = 1, and rho for
        every other X-classical state, so no reflection is built.

        Proof.  H0 x H0 is symmetric, and so is the identity, so converse(d)
        = d.  Off H0, H0 x H0 holds no pair, so d sends a to {a}; on H0, d
        sends a to H0 minus a.  The X-classical states partition the set, so
        every rho other than H0 misses H0, and d's image of it is rho.  d's
        image of H0 is the union of H0 minus a over a in H0: all of H0 when
        H0 has two or more elements, and empty when it has one.  H0 is an
        X-copy, with |H| elements.
        """
        states = self._x_classical_states
        if self.h.order >= 2:
            return states
        return (StateVec._trusted(self.size, frozenset()),) + states[1:]

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
    construction of the relation: ``kickback`` reads a query through it, and
    ``expand`` writes it whole (``cnot``, ``build_oracle``).

    A block is a pair (K, L) of a Z-copy K of ``z`` and an X-copy L of ``x``
    under ``recode``; a pair (b, c) of f lies in block (Z-copy of b, X-copy
    of c), and is kept as (b's element in its group, c's element in its
    X-copy), which is all the controlled relation needs of it.  Building the
    index reads no group table; ``kickback`` reads Z's and ``expand`` both.
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

    def kickback(self, state: StateVec, marker: StateVec,
                 pair: ComplementaryPair) -> frozenset[int]:
        """The set K that the controlled relation (``expand``) sends state x
        marker to K x marker with, for ``marker`` X-classical in ``pair``,
        whose X-basis and recoding built this index: K = {s.b^-1 : s in
        state, (b, c) in f, b in s's Z-copy, c in the marker's X-copy}.

        Proof.  The marker is an X-copy L under the recoding.  Source (s, y),
        y in L, gets one target (s.b^-1, c*y) for each pair (b, c) in the
        block (s's Z-copy, L), and no other.  As y runs over L, so does c*y,
        a translation of the group L; so the image is K x L, whatever f and
        the recoding, and post-selecting the first system on any effect rho
        leaves L when rho meets K and nothing otherwise.  K costs one block
        lookup per member of the state and reads no X table.
        """
        if marker not in pair._x_classical_set:
            raise ValueError("the marker must be a classical state of the second system's X-basis")
        n, l = self.z.base.order, self.recode[next(iter(marker.members))] // self.x.base.order
        z_add, z_neg = self.z.base.add_table, self.z.base.neg_table
        return frozenset(k * n + z_add[i][z_neg[b_z]]
                         for k, i in (divmod(s, n) for s in state.members)
                         for b_z, _ in self.blocks.get((k, l), ()))

    def expand(self, inverse: Sequence[int]) -> FinRel:
        """The controlled relation R, written from the blocks; ``inverse``
        inverts ``recode``.  Source (s, y) gets one target (s.b^-1, c*y) per
        pair (b, c) in its block, so c*y is defined; the targets are distinct,
        by the proof of ``bijective``, so each row needs only sorting."""
        n, m, size = self.z.base.order, self.x.base.order, self.x.size
        z_add, z_neg, x_add = self.z.base.add_table, self.z.base.neg_table, self.x.base.add_table
        x_labels = [divmod(v, m) for v in self.recode]
        rows = []
        for s in range(self.z.size):
            k, i = divmod(s, n)
            for l, y_x in x_labels:
                rows.append(tuple(sorted(
                    (k * n + z_add[i][z_neg[b_z]]) * size + inverse[l * m + x_add[c_x][y_x]]
                    for b_z, c_x in self.blocks.get((k, l), ()))))
        return FinRel._trusted(self.z.size * size, self.z.size * size, tuple(rows))


def cnot(pair: ComplementaryPair) -> FinRel:
    """The controlled-not of the pair: copy in Z, then multiply in X."""
    return _ControlledBlocks(pair.z, identity(pair.size), pair.x, pair.x_recode).expand(
        pair.x_recode_inverse)


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
    group_part, _, copies_part = text.partition("^")
    copies = int(copies_part or 1)
    if copies == 0:
        raise ValueError(f"groupoid spec {text!r} asks for 0 copies")
    return Groupoid(parse_group_spec(group_part), copies)


_PAIR_SPEC = re.compile(r"^pair\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def parse_pair_groups(text: str) -> tuple[AbelianGroup, AbelianGroup]:
    """The groups G and H of a ``pair(G,H)`` spec, with no pair built."""
    m = _PAIR_SPEC.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed pair spec {text!r}: expected pair(G,H)")
    return parse_group_spec(m.group(1)), parse_group_spec(m.group(2))


def parse_pair_spec(text: str) -> ComplementaryPair:
    """Parse ``pair(G,H)`` where G and H are group specs, e.g. ``pair(Z2,Z2)``."""
    return make_complementary_pair(*parse_pair_groups(text))


def _first_bad_position(text: str, allow_caret: bool) -> int:
    allowed = set("Zx0123456789^" if allow_caret else "Zx0123456789")
    return next((i for i, ch in enumerate(text) if ch not in allowed), len(text))
