"""Structure-preserving relations between groupoid bases.

The predicates here decide, for a relation between two groupoids, whether it
preserves multiplication (groupoid homomorphism relation), the full monoid
structure, or the dual comonoid structure.  Comonoid homomorphism relations
are the *classical relations*: the relations that carry basis data to basis
data, and the admissible blackbox content of a unitary oracle.  Their census
is built from the group structure, not searched for: each source copy picks
one target copy and one group homomorphism from the target group into the
source group (Pavlovic, arXiv:0812.2266; Heunen-Contreras-Cattaneo,
arXiv:1112.1284).  ``is_classical_relation`` reads a relation back into those
blocks; the comonoid equations themselves (``classical_equations``) are its
reference.

Every other predicate but surjectivity on objects is decided as an exact
equality or inclusion of composites in Rel.  Multiplication A*A -> A relates
only the defined products, so the multiplicative equation
mult ; R == (R x R) ; mult says R(x*y) == R(x)*R(y) for every source pair
(x, y): for subsets U, V of the target, U*V collects the defined products
only, and an undefined x*y has the empty image.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from math import gcd, prod
from typing import NamedTuple, Optional, Sequence

from .groupoids import AbelianGroup, Groupoid
from .relations import FinRel, _frozen, tensor, then


def _check_sizes(dom: int, cod: int, source: Groupoid, target: Groupoid) -> None:
    if dom != source.size:
        raise ValueError(f"relation domain {dom} != source groupoid size {source.size}")
    if cod != target.size:
        raise ValueError(f"relation codomain {cod} != target groupoid size {target.size}")


@_frozen
class StructuredRel:
    """A relation together with the groupoids on its two ends."""

    rel: FinRel
    source: Groupoid
    target: Groupoid

    def __init__(self, rel: FinRel, source: Groupoid, target: Groupoid) -> None:
        _check_sizes(rel.dom_size, rel.cod_size, source, target)
        vars(self).update(rel=rel, source=source, target=target)

    @classmethod
    def from_json(cls, text: str, source: Groupoid, target: Groupoid) -> "StructuredRel":
        """Parse a relation file between these groupoids.  Its sizes are
        compared with theirs before any row is built, so a hostile size fails
        fast with the same message as a mismatched relation."""
        rel = FinRel.from_json(text, lambda dom, cod: _check_sizes(dom, cod, source, target))
        return cls(rel, source, target)

    @cached_property
    def _preserves_mult(self) -> bool:
        """The multiplicative equation mult ; R == (R x R) ; mult, built as
        relations and decided once per instance."""
        r = self.rel
        return then(self.source.mult_rel, r) == then(tensor(r, r), self.target.mult_rel)


def is_groupoid_hom_relation(s: StructuredRel) -> bool:
    """The relational weakening of a functor between groupoids: it need not
    relate every element, but it must be multiplicative, R(x*y) == R(x)*R(y)
    for every source pair (the empty set standing in for the image of an
    undefined product), and identity elements may relate only to identity
    elements.  Without the identity clause the multiplicative condition
    admits relations (the full relation on a one-copy groupoid, for one)
    that break the unit half of the monoid-homomorphism property this
    predicate is meant to feed."""
    units = s.rel.image(s.source.identities())
    return units <= set(s.target.identities()) and s._preserves_mult


def is_surjective_on_objects(s: StructuredRel) -> bool:
    """Every target copy holds some element that is related to a source element."""
    hit = {s.target.copy_of(b) for row in s.rel.rows for b in row}
    return len(hit) == s.target.copies


def is_monoid_hom_relation(s: StructuredRel) -> bool:
    """Exact equality of both monoid-homomorphism equations, built as relations."""
    unit_ok = then(s.source.unit_state().as_ket(), s.rel) == s.target.unit_state().as_ket()
    return unit_ok and s._preserves_mult


class ClassicalEquations(NamedTuple):
    comult_ok: bool
    counit_ok: bool


def classical_equations(s: StructuredRel) -> ClassicalEquations:
    """The two comonoid-homomorphism equations, each as an exact relation
    equality: the reference that ``is_classical_relation`` is tested against,
    and what names the failing equation when an oracle input is refused."""
    r = s.rel
    comult_ok = then(r, s.target.comult_rel) == then(s.source.comult_rel, tensor(r, r))
    counit_ok = then(r, s.target.counit_rel) == s.source.counit_rel
    return ClassicalEquations(comult_ok, counit_ok)


def is_classical_relation(s: StructuredRel) -> bool:
    """Whether R is a comonoid homomorphism, read off its rows in O(|R|)
    plus O(|H|*k*m) per distinct table (see ``_is_homomorphism``).

    With source = copies of G and target = copies of H, R is classical
    exactly when, for each source copy i, there are a target copy j and a
    group homomorphism phi: H -> G with R restricted to copy i equal to
    {(i*|G| + phi(h), j*|H| + h) : h in H}, the characterization the census
    is built from.  Each source copy's rows are read back into such a table
    phi, which must be total, single-valued and a homomorphism; each distinct
    table is tested for the homomorphism law once, by the generator recurrence.
    """
    g, h = s.source.base, s.target.base
    ng, nh = g.order, h.order
    rows = s.rel.rows
    homomorphisms: set[tuple[int, ...]] = set()
    for start in range(0, s.source.size, ng):
        # phi(0) = 0, so the copy's identity reaches the target copy's identity
        # j*|H|, which is also the least target the copy reaches.
        first = rows[start]
        if not first or first[0] % nh:
            return False
        base = first[0]
        phi: list[Optional[int]] = [None] * nh
        for a in range(ng):
            for b in rows[start + a]:
                y = b - base
                if not 0 <= y < nh or phi[y] is not None:
                    return False
                phi[y] = a
        if None in phi:
            return False
        table = tuple(phi)
        if table not in homomorphisms:
            if not _is_homomorphism(table, h, g):
                return False
            homomorphisms.add(table)
    return True


def is_self_conjugate(s: StructuredRel) -> bool:
    """Inverting in the source before R equals inverting in the target after
    it: inv ; R == R ; inv, with inverses taken inside each element's own copy."""
    return then(s.source.inv_rel, s.rel) == then(s.rel, s.target.inv_rel)


def _homomorphisms(h: AbelianGroup, g: AbelianGroup) -> list[tuple[int, ...]]:
    """Every group homomorphism H -> G, each as the table of its values on the
    flat elements of H.  Generator i of H (order h_i) may go to any element of
    G whose j-th coordinate is a multiple of g_j / gcd(h_i, g_j); the table is
    the additive extension of these images."""
    per_generator = [
        list(product(*(range(0, gj, gj // gcd(hi, gj)) for gj in g.cyclic_orders)))
        for hi in h.cyclic_orders
    ]
    # zip(*images) gives, per coordinate of G, that coordinate of each generator's image.
    return [tuple(g.flat([sum(c * v for c, v in zip(h.coords(x), column))
                          for column in zip(*images)]) for x in range(h.order))
            for images in product(*per_generator)]


def _is_homomorphism(phi: Sequence[int], h: AbelianGroup, g: AbelianGroup) -> bool:
    """Whether the table ``phi`` on the flat elements of H is a homomorphism
    H -> G, by the generator recurrence: phi(0) = 0 and phi(x + e) =
    phi(x) + phi(e) for every x and generator e of H, x + e cyclic in e's
    coordinate.  O(|H|*k*m) integer steps for k factors in H and m in G.

    Proof.  A homomorphism satisfies it.  Conversely, show phi(x + y) =
    phi(x) + phi(y) by induction on the coordinate sum of y (0 <= y_i < h_i):
    for y = 0 it is phi(0) = 0; else y = y' + e_i with y'_i = y_i - 1, and
    phi(x + y) = phi(x + y') + phi(e_i) = phi(x) + phi(y') + phi(e_i) =
    phi(x) + phi(y), by the recurrence at x + y', the hypothesis and the
    recurrence at y'.  (The wrap-around steps force h_i * phi(e_i) = 0.)  A
    map into G = Z_g1 x ... x Z_gm is a homomorphism iff each coordinate is,
    so each coordinate is tested mod g_j.
    """
    if phi[0]:
        return False
    below = g.order
    for gj in g.cyclic_orders:
        below //= gj
        values = [v // below % gj for v in phi]
        stride = h.order
        for hi in h.cyclic_orders:
            # Adding generator e_i, of flat value ``stride``, rotates each block
            # of hi * stride consecutive elements by ``stride``.
            block, stride = stride, stride // hi
            if hi == 1:
                continue  # e_i = 0
            step = values[stride]
            for start in range(0, h.order, block):
                here = values[start:start + block]
                if [(v + step) % gj for v in here] != here[stride:] + here[:stride]:
                    return False
    return True


def enumerate_classical_relations(source: Groupoid, target: Groupoid, *,
                                  max_relations: int = 1 << 16) -> list[FinRel]:
    """All classical relations source -> target, canonically sorted.

    With source = copies_A copies of G and target = copies_B copies of H, a
    classical relation picks, for each source copy i, one target copy j and
    one group homomorphism phi: H -> G; copy i of the relation is then
    {(i*|G| + phi(h), j*|H| + h) : h in H}.  This is the Rel reading of
    comonoid homomorphisms between groupoid Frobenius algebras (Pavlovic,
    arXiv:0812.2266; Heunen-Contreras-Cattaneo, arXiv:1112.1284), so the
    census has (copies_B * |Hom(H, G)|) ** copies_A members, with
    |Hom(H, G)| = prod gcd(h_i, g_j).  That count is checked against
    ``max_relations`` before anything is built (``census_size``).

    The output is sorted by pair-set lexicographic order.  Every copy
    contributes |H| pairs in its own source block, so listing the per-copy
    blocks in sorted order and taking their product in that order is already
    sorted.
    """
    census_size(source, target, max_relations)
    g, h = source.base, target.base
    ng, nh = g.order, h.order
    blocks = sorted((FinRel(ng, target.size, ((phi[y], j * nh + y) for y in range(nh)))
                     for j in range(target.copies) for phi in _homomorphisms(h, g)),
                    key=FinRel.sorted_pairs)
    return [FinRel._trusted(source.size, target.size,
                            tuple(chain.from_iterable(block.rows for block in choice)))
            for choice in product(blocks, repeat=source.copies)]


def census_size(source: Groupoid, target: Groupoid, max_relations: int) -> int:
    """The pairs ``enumerate_classical_relations`` lists, |H| per source copy
    of each relation; a census of more than ``max_relations`` is refused."""
    g, h = source.base, target.base
    per_copy = target.copies * prod(gcd(hi, gj) for hi in h.cyclic_orders for gj in g.cyclic_orders)
    # Past this many copies a per_copy > 1 census exceeds the budget; the
    # power itself would be a needlessly huge integer.
    huge = per_copy > 1 and source.copies > max_relations.bit_length()
    count = None if huge else per_copy ** source.copies
    if huge or count > max_relations:
        exact = "" if huge else f" = {count}"
        raise ValueError(
            f"census has {per_copy}^{source.copies}{exact} classical relations, "
            f"beyond the budget of {max_relations}"
        )
    return count * source.copies * h.order
