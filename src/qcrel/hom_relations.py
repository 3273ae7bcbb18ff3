"""Structure-preserving relations between groupoid bases.

The predicates here decide, for a relation between two groupoids, whether it
preserves multiplication (groupoid homomorphism relation), the full monoid
structure, or the dual comonoid structure.  Comonoid homomorphism relations
are the *classical relations*: the relations that carry basis data to basis
data, and the admissible blackbox content of a unitary oracle.  Their census
is built from the group structure, not searched for: each source copy picks
one target copy and one group homomorphism from the target group into the
source group (Pavlovic, arXiv:0812.2266; Heunen-Contreras-Cattaneo,
arXiv:1112.1284).

Every predicate but surjectivity on objects is decided as an exact equality
or inclusion of composites in Rel.  Multiplication A*A -> A relates only the
defined products, so the multiplicative equation mult ; R == (R x R) ; mult
says R(x*y) == R(x)*R(y) for every source pair (x, y): for subsets U, V of
the target, U*V collects the defined products only, and an undefined x*y
has the empty image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .groupoids import AbelianGroup, Groupoid
from .relations import FinRel, tensor, then


@dataclass(frozen=True)
class StructuredRel:
    """A relation together with the groupoids on its two ends."""

    rel: FinRel
    source: Groupoid
    target: Groupoid

    def __post_init__(self) -> None:
        if self.rel.dom_size != self.source.size:
            raise ValueError(
                f"relation domain {self.rel.dom_size} != source groupoid size {self.source.size}"
            )
        if self.rel.cod_size != self.target.size:
            raise ValueError(
                f"relation codomain {self.rel.cod_size} != target groupoid size {self.target.size}"
            )


def _preserves_mult(s: StructuredRel) -> bool:
    """The multiplicative equation mult ; R == (R x R) ; mult, built as relations."""
    r = s.rel
    return then(s.source.mult_rel, r) == then(tensor(r, r), s.target.mult_rel)


def is_groupoid_hom_relation(s: StructuredRel) -> bool:
    """The relational weakening of a functor between groupoids: it need not
    relate every element, but it must be multiplicative, R(x*y) == R(x)*R(y)
    for every source pair (the empty set standing in for the image of an
    undefined product), and identity elements may relate only to identity
    elements.  Without the identity clause the multiplicative condition
    admits relations (the full relation on a one-copy groupoid, for one)
    that break the unit half of the monoid-homomorphism property this
    predicate is meant to feed."""
    units = then(s.source.unit_state().as_ket(), s.rel)
    return units.pairs <= s.target.unit_state().as_ket().pairs and _preserves_mult(s)


def is_surjective_on_objects(s: StructuredRel) -> bool:
    """Every target copy holds some element that is related to a source element."""
    hit = {s.target.copy_of(b) for (_, b) in s.rel.pairs}
    return len(hit) == s.target.copies


def is_monoid_hom_relation(s: StructuredRel) -> bool:
    """Exact equality of both monoid-homomorphism equations, built as relations."""
    unit_ok = then(s.source.unit_state().as_ket(), s.rel) == s.target.unit_state().as_ket()
    return unit_ok and _preserves_mult(s)


class ClassicalEquations(NamedTuple):
    comult_ok: bool
    counit_ok: bool


def classical_equations(s: StructuredRel) -> ClassicalEquations:
    """The two comonoid-homomorphism equations, each as an exact relation equality."""
    r = s.rel
    comult_ok = then(r, s.target.comult_rel) == then(s.source.comult_rel, tensor(r, r))
    counit_ok = then(r, s.target.counit_rel) == s.source.counit_rel
    return ClassicalEquations(comult_ok, counit_ok)


def is_classical_relation(s: StructuredRel) -> bool:
    eqs = classical_equations(s)
    return eqs.comult_ok and eqs.counit_ok


def is_self_conjugate(s: StructuredRel) -> bool:
    """Inverting in the source before R equals inverting in the target after
    it: inv ; R == R ; inv, with inverses taken inside each element's own copy."""
    return then(s.source.inv_rel, s.rel) == then(s.rel, s.target.inv_rel)


def _homomorphisms(h: AbelianGroup, g: AbelianGroup) -> list[tuple[int, ...]]:
    """Every group homomorphism H -> G, each as the table of its values on the
    flat elements of H.  Generator i of H (order h_i) may go to any element of
    G whose j-th coordinate is a multiple of g_j / gcd(h_i, g_j)."""
    per_generator = [
        list(product(*(range(0, gj, gj // gcd(hi, gj)) for gj in g.cyclic_orders)))
        for hi in h.cyclic_orders
    ]
    # zip(*images) gives, per coordinate of G, that coordinate of each generator's image.
    return [
        tuple(g.flat([sum(c * v for c, v in zip(h.coords(x), column)) for column in zip(*images)])
              for x in range(h.order))
        for images in product(*per_generator)
    ]


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
    ``max_relations`` before anything is built.

    The output is sorted by pair-set lexicographic order.  Every copy
    contributes |H| pairs in its own source block, so listing the per-copy
    blocks in sorted order and taking their product in that order is already
    sorted.
    """
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

    ng, nh = g.order, h.order
    blocks = sorted(
        tuple(sorted((phi[y], j * nh + y) for y in range(nh)))
        for j in range(target.copies)
        for phi in _homomorphisms(h, g)
    )
    return [
        FinRel._trusted(source.size, target.size,
                        [(i * ng + a, b) for i, block in enumerate(choice) for (a, b) in block])
        for choice in product(blocks, repeat=source.copies)
    ]
