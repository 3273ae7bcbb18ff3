"""
Groupoid bases and their algebra laws
=====================================

A basis for an n-element system is a disjoint union of copies of one
abelian group: multiplication works inside a copy and is undefined
across copies.  Such a structure can copy, delete and merge classical
data, and it passes the same five algebra laws that characterize
orthonormal bases in the linear-map world.
"""

from qcrel import FinRel, check_structure_laws, parse_groupoid_spec, verify_classical_structure

# Two copies of the two-element group on {0,1,2,3}: blocks {0,1} and {2,3}.
z = parse_groupoid_spec("Z2^2")
print("size:", z.size)
print("identities:", z.identities())
print("1 * 3 =", z.mult(1, 3), "   (different blocks: undefined)")
print("2 * 3 =", z.mult(2, 3))

# The basis has two kinds of distinguished states.  Classical states are
# the blocks; unbiased states thread one element through every block.
print("classical states:", [s.sorted_members() for s in z.classical_states()])
print("unbiased states: ", [s.sorted_members() for s in z.unbiased_states()])

# The five laws, each decided by building both sides as relations.
report = verify_classical_structure(z)
for law, holds in report.as_dict().items():
    print(f"{law:>13}: {'ok' if holds else 'FAILED'}")

# Damage the multiplication table and the laws notice.
z2 = parse_groupoid_spec("Z2")
mult = z2.mult_rel
broken = FinRel(mult.dom_size, mult.cod_size, mult.pairs - {(3, 0)})
damaged = check_structure_laws(broken, z2.unit_state())
print("after dropping 1*1=0:",
      {law: holds for law, holds in damaged.as_dict().items() if not holds})
