"""Reference definitions shared by the tests.

Each helper here is a direct transcription of a definition, kept in one
place so that every test file checks the package against the same one.
"""

from qcrel.relations import FinRel


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
