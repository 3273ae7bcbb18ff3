"""
The census of classical relations
=================================

Classical relations are the maps that carry basis data to basis data:
relations satisfying both comonoid-homomorphism equations.  They are the
only blackboxes the oracle construction accepts.  The census is built from
the group structure: each source copy picks one target copy and one group
homomorphism into its own group.  Every member passes the self-conjugacy
condition that oracle unitarity rests on.
"""

from qcrel import (
    StructuredRel, build_oracle, OracleSpec, enumerate_classical_relations,
    is_self_conjugate, is_unitary, parse_groupoid_spec, parse_pair_spec,
)

for spec in ("Z3", "Z4", "Z2^2"):
    g = parse_groupoid_spec(spec)
    rels = enumerate_classical_relations(g, g)
    print(f"{spec} -> {spec}: {len(rels)} classical relations")
    for r in rels:
        print("   ", r.sorted_pairs())

# Self-conjugacy holds across the census...
g = parse_groupoid_spec("Z2^2")
census = enumerate_classical_relations(g, g)
print("all self-conjugate?",
      all(is_self_conjugate(StructuredRel(r, g, g)) for r in census))

# ...which is what makes every census member a legal blackbox: the oracle
# each one generates is a bijection on the 16-element product system.
pair = parse_pair_spec("pair(Z2,Z2)")
oracles = [build_oracle(OracleSpec(g, pair, StructuredRel(r, g, g))) for r in census]
print("all oracles bijections?", all(is_unitary(o) for o in oracles))
