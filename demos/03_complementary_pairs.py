"""
Complementary bases and the controlled-not
==========================================

Two bases on one set are complementary exactly when the classical states
of each are the unbiased states of the other; equivalently, when the
abstract controlled-not built from them is a bijection.  Both views are
computed here, together with the basis-change bijection for square pairs.
"""

from qcrel import (
    cnot, fourier_rel, identity, is_complementary, is_unitary,
    parse_groupoid_spec, parse_pair_spec, then,
)

pair = parse_pair_spec("pair(Z2,Z2)")
print("Z blocks:        ", [s.sorted_members() for s in pair.z.classical_states()])
print("X classical:     ", [s.sorted_members() for s in pair.x_classical_states()])
print("Z unbiased:      ", [s.sorted_members() for s in pair.z.unbiased_states()])

gate = cnot(pair)
print("controlled-not bijection?", is_unitary(gate), f"({len(gate.pairs)} pairs on 16)")

# The degenerate pair over a trivial group gives the familiar classical
# controlled-not on two bits.
tiny = parse_pair_spec("pair(Z2,Z1)")
print("pair(Z2,Z1) cnot:", cnot(tiny).sorted_pairs())

# Complementarity genuinely fails for mismatched structures: the cyclic
# four-element basis against the Klein basis on the same set, say.
print("Z4 vs Z2^2 complementary?",
      is_complementary(parse_groupoid_spec("Z4"), parse_groupoid_spec("Z2^2"), range(4)))

# For square pairs there is a basis-change bijection carrying the k-th
# Z-classical state onto the k-th X-classical state: the inverse recoding.
# Under the canonical recoding it is an involution.
ft = fourier_rel(pair)
for k, state in enumerate(pair.z.classical_states()):
    print(f"basis change of Z-classical {k}:", sorted(ft.image(state.members)))
print("involution?", then(ft, ft) == identity(pair.size))

# A six-element example: two copies of Z3 against three copies of Z2.
six = parse_pair_spec("pair(Z3,Z2)")
print("pair(Z3,Z2): Z blocks", [s.sorted_members() for s in six.z.classical_states()],
      "| X classical", [s.sorted_members() for s in six.x_classical_states()],
      "| cnot bijection?", is_unitary(cnot(six)))
