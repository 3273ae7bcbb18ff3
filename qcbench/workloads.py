"""Seeded inputs for the qcrel benchmark, built without importing qcrel.

Everything here is derived from the workload seed and from the
characterization of classical relations between groupoids (ROADMAP item 2):
for each source copy i pick a target copy j and a group homomorphism
phi: H -> G from the target group into the source group; copy i of the
relation is then {(i*|G| + phi(h), j*|H| + h) : h in H}.  The program never
sees these objects, only the relation files and argv built from them, and it
runs its own classical check on every one of them.

Element coding follows the package's documented conventions: a group
Z<n1>xZ<n2>... codes its elements as mixed-radix flat indices (first factor
most significant), copy i of a groupoid occupies the flat block
[i*|G|, (i+1)*|G|), and the pair pair(G,H) carries Z = |H| copies of G and an
X basis whose k-th classical state is {i*|G| + k : i < |H|}.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path

# Spec pairs for `census` and `classify`: 8 to 12 candidate bits, between
# 3 ms and 150 ms per enumeration, so that latencies stay comparable.
CENSUS_POOL = (
    ("Z2^2", "Z2"), ("Z2", "Z2^2"), ("Z3", "Z3"), ("Z2", "Z2^3"), ("Z2", "Z3^2"),
    ("Z2", "Z4"), ("Z4", "Z2"), ("Z3", "Z4"), ("Z3", "Z2^2"), ("Z4", "Z3"),
    ("Z2^2", "Z3"), ("Z2", "Z5"), ("Z5", "Z2"), ("Z6", "Z2"), ("Z2^3", "Z2"),
    ("Z3^2", "Z2"), ("Z2xZ3", "Z2"), ("Z1^2", "Z2^2"), ("Z1^3", "Z1^3"),
    ("Z1^2", "Z1^4"), ("Z2xZ2", "Z2"), ("Z2", "Z2xZ2"), ("Z1^3", "Z3"),
)
# `verify-structure` groupoids for `classify`, of size 4 to 16 and 2 to 6 ms
# each, so that these law checks stay a minority of the workload's time.
STRUCTURE_POOL = ("Z2^2", "Z2xZ2", "Z5", "Z6", "Z2xZ3", "Z3^2", "Z2^3", "Z4^2", "Z2^4", "Z2^8")
# `pipeline` shapes, all of size 64; (Z8,Z8) and (Z2xZ4,Z8) are square.
PIPELINE_SHAPES = (("Z8", "Z8"), ("Z4", "Z16"), ("Z16", "Z4"), ("Z2xZ4", "Z8"))
PIPELINE_VERBS = ("dj", "grover", "homid")
BLACKBOX_KINDS = ("constant", "balanced", "mixed")
# Distinct rotations generated per run; the timed loop cycles through them.
ROTATIONS = 4


def group_orders(spec: str) -> tuple[int, ...]:
    if not re.fullmatch(r"Z\d+(xZ\d+)*", spec):
        raise ValueError(f"bad group spec {spec!r}")
    return tuple(int(part[1:]) for part in spec.split("x"))


def groupoid_shape(spec: str) -> tuple[tuple[int, ...], int]:
    """(cyclic orders, copies) of a groupoid spec such as ``Z2xZ3^2``."""
    group, _, copies = spec.partition("^")
    return group_orders(group), int(copies or 1)


def _coords(orders: tuple[int, ...], flat: int) -> list[int]:
    out = []
    for n in reversed(orders):
        flat, r = divmod(flat, n)
        out.append(r)
    return out[::-1]


def _flat(orders: tuple[int, ...], coords) -> int:
    value = 0
    for n, x in zip(orders, coords):
        value = value * n + x % n
    return value


def homomorphisms(h: tuple[int, ...], g: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every homomorphism H -> G as a table phi[flat h] = flat g.

    Generator i of H (order h_i) may go to any element whose j-th coordinate
    is a multiple of g_j / gcd(h_i, g_j), so |Hom(H, G)| = prod gcd(h_i, g_j).
    """
    per_generator = []
    for hi in h:
        choices = [range(0, gj, gj // gcd(hi, gj)) for gj in g]
        per_generator.append(list(itertools.product(*choices)))
    tables = []
    for images in itertools.product(*per_generator):
        table = []
        for x in range(prod(h)):
            cs = _coords(h, x)
            table.append(_flat(g, [sum(c * img[j] for c, img in zip(cs, images))
                                   for j in range(len(g))]))
        tables.append(tuple(table))
    return tables


def relation_from_choices(g: tuple[int, ...], h: tuple[int, ...], choices) -> tuple[tuple[int, int], ...]:
    """The classical relation from copies of G to copies of H that picks
    (target copy j, phi: H -> G) for each source copy, as sorted pairs."""
    ng, nh = prod(g), prod(h)
    pairs = [(i * ng + phi[y], j * nh + y) for i, (j, phi) in enumerate(choices) for y in range(nh)]
    return tuple(sorted(pairs))


@functools.lru_cache(maxsize=None)
def classical_relations(src: str, tgt: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All classical relations src -> tgt, in the program's (lexicographic) order.

    Cached: the checks and the `classify` generator share one computation."""
    g, copies_a = groupoid_shape(src)
    h, copies_b = groupoid_shape(tgt)
    per_copy = [(j, phi) for j in range(copies_b) for phi in homomorphisms(h, g)]
    rels = {relation_from_choices(g, h, c) for c in itertools.product(per_copy, repeat=copies_a)}
    return tuple(sorted(rels, key=list))


def classical_count(src: str, tgt: str) -> int:
    """(copies_B * |Hom(H, G)|) ** copies_A, the census closed form, with
    |Hom(H, G)| = prod gcd(h_i, g_j) taken from the orders, not by listing."""
    g, copies_a = groupoid_shape(src)
    h, copies_b = groupoid_shape(tgt)
    return (copies_b * prod(gcd(hi, gj) for hi in h for gj in g)) ** copies_a


def groupoid_size(spec: str) -> int:
    orders, copies = groupoid_shape(spec)
    return prod(orders) * copies


def blackbox(rng: random.Random, shape: tuple[str, str], kind: str) -> tuple[tuple[int, int], ...]:
    """A classical relation Z -> Z on pair(G,H), for G, H = ``shape``.

    ``constant``: every phi trivial and one target copy, so f is the first
    X classical state times one Z classical state.  ``balanced``: every phi
    moves flat element 1 of G, so nothing in X state 0 reaches X state 1.
    ``mixed``: any choice.
    """
    g, copies = group_orders(shape[0]), prod(group_orders(shape[1]))
    homs = homomorphisms(g, g)
    if kind == "constant":
        choices = [(rng.randrange(copies), homs[0])] * copies
    else:
        pool = [phi for phi in homs if phi[1] != 0] if kind == "balanced" else homs
        choices = [(rng.randrange(copies), rng.choice(pool)) for _ in range(copies)]
    return relation_from_choices(g, g, choices)


def relation_json(dom: int, cod: int, pairs) -> str:
    return json.dumps({"dom": dom, "cod": cod, "pairs": [list(p) for p in sorted(pairs)]})


@dataclass(frozen=True)
class Op:
    """One CLI call and what the benchmark needs to check its output."""

    verb: str
    argv: tuple[str, ...]
    expect: dict


def _pipeline_rotation(rng: random.Random, rotation: int, files: dict) -> list[Op]:
    ops = []
    for s, shape in enumerate(PIPELINE_SHAPES):
        for v, verb in enumerate(PIPELINE_VERBS):
            kind = BLACKBOX_KINDS[(rotation + s + v) % len(BLACKBOX_KINDS)]
            pairs = blackbox(rng, shape, kind)
            n = prod(group_orders(shape[0])) * prod(group_orders(shape[1]))
            name = f"pipeline-{rotation}-{s}-{verb}.json"
            files[name] = relation_json(n, n, pairs)
            spec = f"pair({shape[0]},{shape[1]})"
            expect = {"shape": shape, "pairs": pairs, "kind": kind}
            if verb == "dj":
                argv = ("dj", "--pairA", spec, "--pairB", spec, "--oracle", name)
            else:
                sigma = rng.randrange(prod(group_orders(shape[0])))
                expect["sigma"] = sigma
                argv = (verb, "--pairS", spec, "--pairB", spec, "--oracle", name,
                        "--sigma", str(sigma))
            ops.append(Op(verb, argv + ("--json",), expect))
    return ops


def _census_rotation(rng: random.Random, rotation: int, files: dict) -> list[Op]:
    ops = [Op("enumerate", ("enumerate", "--from", a, "--to", b, "--json"), {"src": a, "tgt": b})
           for a, b in CENSUS_POOL]
    rng.shuffle(ops)
    return ops


def _classify_rotation(rng: random.Random, rotation: int, files: dict) -> list[Op]:
    ops = []
    for k, (a, b) in enumerate(CENSUS_POOL):
        rels = classical_relations(a, b)
        na, nb = groupoid_size(a), groupoid_size(b)
        for mutant in (False, True):
            pairs = set(rng.choice(rels))
            if mutant:
                pairs ^= {(rng.randrange(na), rng.randrange(nb))}
            name = f"classify-{rotation}-{k}-{int(mutant)}.json"
            files[name] = relation_json(na, nb, pairs)
            ops.append(Op("check-relation",
                          ("check-relation", "--from", a, "--to", b, "--rel", name, "--json"),
                          {"src": a, "tgt": b, "pairs": tuple(sorted(pairs)),
                           "classical": tuple(sorted(pairs)) in rels}))
    ops += [Op("verify-structure", ("verify-structure", "--groupoid", z, "--json"), {"groupoid": z})
            for z in STRUCTURE_POOL]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "pipeline": _pipeline_rotation,
    "census": _census_rotation,
    "classify": _classify_rotation,
}


def generate(workload: str, seed: int) -> tuple[list[list[Op]], dict[str, str]]:
    """The rotations of ops and the relation files (name -> JSON text) they read.

    Op argv name relation files by bare file name; `materialize` rewrites them
    to paths once the files are written.
    """
    rng = random.Random(f"qcbench:{workload}:{seed}")
    files: dict[str, str] = {}
    rotations = [WORKLOADS[workload](rng, r, files) for r in range(ROTATIONS)]
    return rotations, files


def materialize(rotations: list[list[Op]], files: dict[str, str], directory: Path) -> list[list[Op]]:
    """Write the relation files into ``directory`` and point the ops at them."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return [[Op(op.verb, tuple(str(directory / a) if a in files else a for a in op.argv), op.expect)
             for op in rotation] for rotation in rotations]
