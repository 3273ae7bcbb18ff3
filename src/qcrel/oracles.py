"""Unitary blackbox oracles built from classical relations.

An oracle embeds a classical relation f between the Z-bases of two systems
into a single bijective relation on the product system: split the first
wire with Z_A's comultiplication, push one leg through f, and merge it into
the second wire with X_B's multiplication.  For classical (hence
self-conjugate) f the result is always a bijection.
"""

from __future__ import annotations

from .groupoids import ComplementaryPair, Groupoid, _ControlledBlocks
from .hom_relations import StructuredRel, classical_equations, is_classical_relation
from .relations import FinRel, _frozen


@_frozen
class OracleSpec:
    """Blackbox data: the control system's Z-basis, the target system's
    complementary pair, and the classical relation connecting their Z-bases."""

    za: Groupoid
    pair_b: ComplementaryPair
    f: StructuredRel

    def __init__(self, za: Groupoid, pair_b: ComplementaryPair, f: StructuredRel) -> None:
        if f.source != za:
            raise ValueError("oracle relation must start at the control Z-basis")
        if f.target != pair_b.z:
            raise ValueError("oracle relation must land in the target system's Z-basis")
        vars(self).update(za=za, pair_b=pair_b, f=f)


def build_oracle(spec: OracleSpec, *, unchecked: bool = False) -> FinRel:
    """The endomorphism of A x B: ((x,y),(a, c*y)) whenever some b has
    a . b = x in Z_A, (b,c) in f, and c * y defined in X_B.

    It is the controlled relation of ``groupoids._ControlledBlocks``, written
    straight from f's block index (``expand``); the runs kick their queries
    back through the same index instead of building this.
    Rejects non-classical f unless ``unchecked`` is set; unitarity is only
    guaranteed for classical relations, but the comprehension itself is total.
    """
    if not unchecked and not is_classical_relation(spec.f):
        eqs = classical_equations(spec.f)
        failing = [name for name, ok in zip(("comultiplication", "counit"), eqs) if not ok]
        raise ValueError(
            "oracle input is not a classical relation: "
            + " and ".join(failing) + " equation fails "
            "(pass unchecked=True to build it anyway)"
        )
    pb = spec.pair_b
    return _ControlledBlocks(spec.za, spec.f.rel, pb.x, pb.x_recode).expand(pb.x_recode_inverse)
