"""Reference definitions shared by the tests.

Each helper here is a direct transcription of a definition, kept in one
place so that every test file checks the package against the same one.
"""

from itertools import product

from qcrel.groupoids import check_structure_laws
from qcrel.hom_relations import _homomorphisms
from qcrel.relations import FinRel, Scalar


def x_mult(pair, u, v):
    """X's partial multiplication transported to the underlying coding."""
    w = pair.x.mult(pair.x_recode[u], pair.x_recode[v])
    return None if w is None else pair.x_recode_inverse[w]


def all_subsets(src, tgt):
    """Every relation between the two groupoids, one per subset of the cells."""
    cells = [(a, b) for a in range(src.size) for b in range(tgt.size)]
    size = len(cells)
    for mask in range(1 << size):
        yield FinRel(src.size, tgt.size, (cells[i] for i in range(size) if mask >> i & 1))


def coords(group, flat):
    """The mixed-radix coordinates of a flat element, first factor most
    significant: the inverse of ``AbelianGroup.flat``."""
    out = []
    for n in reversed(group.cyclic_orders):
        flat, r = divmod(flat, n)
        out.append(r)
    return tuple(reversed(out))


def hom_table(h, g, images):
    """The map H -> G sending generator i of H to the element of G with
    coordinates ``images[i]``, extended additively, as a table of its values
    on the flat elements of H.  It is a homomorphism when each image has an
    order dividing its generator's."""
    # zip(*images) gives, per coordinate of G, that coordinate of each generator's image.
    return tuple(
        g.flat([sum(c * v for c, v in zip(coords(h, x), column)) for column in zip(*images)])
        for x in range(h.order))


def is_homomorphism(phi, h, g):
    """Whether the table ``phi`` on the flat elements of H is a homomorphism
    H -> G: it must be the additive extension of its values on H's
    generators, each of an order dividing its generator's."""
    k = len(h.cyclic_orders)
    images = [coords(g, phi[h.flat([int(i == j) for j in range(k)])]) for i in range(k)]
    orders_divide = all(hi * v % gj == 0 for hi, image in zip(h.cyclic_orders, images)
                        for v, gj in zip(image, g.cyclic_orders))
    return orders_divide and tuple(phi) == hom_table(h, g, images)


def classical_relations_by_validation(source, target):
    """The census with every (target copy j, homomorphism phi) block built
    through the validating ``FinRel`` constructor from its pairs
    {(phi(y), j*|H| + y) : y in H}, the blocks sorted by pair list, and one
    block chosen per source copy."""
    ng, nh = source.base.order, target.base.order
    blocks = sorted((FinRel(ng, target.size, ((phi[y], j * nh + y) for y in range(nh)))
                     for j in range(target.copies)
                     for phi in _homomorphisms(target.base, source.base)),
                    key=FinRel.sorted_pairs)
    return [FinRel(source.size, target.size,
                   ((i * ng + a, b) for i, block in enumerate(choice) for a, b in block.pairs))
            for choice in product(blocks, repeat=source.copies)]


def dj_classify(inst):
    """``algorithms.dj_classify`` as the definition reads: constant when f is
    h0a x (some Z_B-classical state), trying every one; balanced when f sends
    nothing in h0a to h1b."""
    h0a = inst.pair_a.x_classical_states()[0].members
    h1b = inst.pair_b.x_classical_states()[1].members
    rows = inst.f.rel.rows
    for gk in inst.pair_b.z.classical_states():
        block = tuple(gk.sorted_members())
        if all(row == (block if a in h0a else ()) for a, row in enumerate(rows)):
            return "constant"
    return "balanced" if not inst.f.rel.image(h0a) & h1b else "neither"


def finrel_from_json_dict(payload, check_sizes=None):
    """``FinRel.from_json_dict`` as a schema loop with one check per clause:
    schema, then per pair in file order its shape, repeats and range, then
    ``check_sizes`` for positive sizes, then the positivity of the sizes."""
    if not isinstance(payload, dict) or set(payload) != {"dom", "cod", "pairs"}:
        raise ValueError("schema violation: expected keys dom, cod, pairs")
    dom, cod, pairs = payload["dom"], payload["cod"], payload["pairs"]
    # ``type(...) is int``: JSON true/false load as bool, an int subclass.
    if type(dom) is not int or type(cod) is not int or not isinstance(pairs, list):
        raise ValueError("schema violation: dom/cod must be integers and pairs a list")
    seen = set()
    for p in pairs:
        if (not isinstance(p, list)) or len(p) != 2 or not all(type(x) is int for x in p):
            raise ValueError(f"schema violation: malformed pair {p!r}")
        key = (p[0], p[1])
        if key in seen:
            raise ValueError(f"duplicate pair {p!r}")
        seen.add(key)
        if not (0 <= p[0] < dom and 0 <= p[1] < cod):
            raise ValueError(f"out-of-range pair {p!r} for a {dom}->{cod} relation")
    if check_sizes is not None and dom > 0 and cod > 0:
        check_sizes(dom, cod)
    return FinRel(dom, cod, seen)


def post_select(state, effects, m):
    """``then(state, tensor(rho.as_bra(), identity(m)))`` for every rho in
    ``effects``, in one pass over ``state``: its targets (x, v) are grouped by
    x once, and each effect's row is the union of the groups its members hold.
    This is the engine the runs used before the kickback: applied to a state
    composed with ``_ControlledBlocks.expand``'s relation, it evaluates any
    single query, marker or not.
    """
    grouped = []
    for row in state.rows:
        by_x = {}
        for a in row:
            x, v = divmod(a, m)
            by_x.setdefault(x, []).append(v)
        grouped.append(by_x)
    return [FinRel._trusted(state.dom_size, m, tuple(
        tuple(sorted({v for x in rho.members if x in by_x for v in by_x[x]}))
        for by_x in grouped)) for rho in effects]


def structure_laws(z):
    """The five laws of a groupoid decided by the full composites over all
    its n elements: ``check_structure_laws`` of its multiplication and unit."""
    return check_structure_laws(z.mult_rel, z.unit_state())


def scalar_as_rel(scalar):
    """A scalar as the 1->1 relation it is: the identity on {*} when
    possible, the empty relation otherwise."""
    return FinRel(1, 1, [(0, 0)] if scalar.possible else [])


def scalar_from_rel(rel):
    """The scalar a 1->1 relation is."""
    if rel.dom_size != 1 or rel.cod_size != 1:
        raise ValueError(f"a scalar must be a 1->1 relation, got {rel.dom_size}->{rel.cod_size}")
    return Scalar(bool(rel.rows[0]))
