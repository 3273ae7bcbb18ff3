"""Exact algebra of relations between finite index sets.

Everything in this package is a relation: states are relations from the
one-element set, effects are their converses, evolutions are bijective
relations, and the only two scalars are the identity and the empty relation
on the one-element set.  All values are immutable and all operations are
pure functions, so they can be shared freely across threads.

Composition order
-----------------
``then(r, s)`` applies ``r`` first and ``s`` second, reading left to right
like a pipeline; the mathematical composite "s after r" is ``then(r, s)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Tuple


Pair = Tuple[int, int]


@dataclass(frozen=True)
class FinRel:
    """A relation between the index sets ``range(dom_size)`` and ``range(cod_size)``.

    Equality is equality of sizes and of the pair set; there is no hidden
    representation state.

    >>> r = FinRel(3, 3, [(0, 0), (0, 2), (1, 1)])
    >>> sorted(r.image({0}))
    [0, 2]
    """

    dom_size: int
    cod_size: int
    pairs: frozenset[Pair]

    def __init__(self, dom_size: int, cod_size: int, pairs: Iterable[Pair] = ()) -> None:
        if dom_size <= 0 or cod_size <= 0:
            raise ValueError(f"relation sizes must be positive, got {dom_size}->{cod_size}")
        normalized = set()
        for p in pairs:
            a, b = p
            a, b = int(a), int(b)
            if not (0 <= a < dom_size and 0 <= b < cod_size):
                raise ValueError(
                    f"pair ({a},{b}) out of range for a {dom_size}->{cod_size} relation"
                )
            normalized.add((a, b))
        object.__setattr__(self, "dom_size", int(dom_size))
        object.__setattr__(self, "cod_size", int(cod_size))
        object.__setattr__(self, "pairs", frozenset(normalized))

    @classmethod
    def _trusted(cls, dom_size: int, cod_size: int, pairs: Iterable[Pair]) -> "FinRel":
        """Build from int pairs already known to be in range, skipping the checks."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "dom_size", dom_size)
        object.__setattr__(rel, "cod_size", cod_size)
        object.__setattr__(rel, "pairs", frozenset(pairs))
        return rel

    def sorted_pairs(self) -> list[Pair]:
        return sorted(self.pairs)

    def image(self, sources: Iterable[int]) -> frozenset[int]:
        src = set(sources)
        return frozenset(b for (a, b) in self.pairs if a in src)

    def preimage(self, targets: Iterable[int]) -> frozenset[int]:
        tgt = set(targets)
        return frozenset(a for (a, b) in self.pairs if b in tgt)

    def to_json_dict(self) -> dict:
        return {"dom": self.dom_size, "cod": self.cod_size,
                "pairs": [list(p) for p in self.sorted_pairs()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FinRel":
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
        return cls(dom, cod, seen)

    @classmethod
    def from_json(cls, text: str) -> "FinRel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"schema violation: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValueError("schema violation: JSON nested too deeply") from exc
        return cls.from_json_dict(payload)

    def __repr__(self) -> str:
        return f"FinRel({self.dom_size}->{self.cod_size}, {self.sorted_pairs()})"


@dataclass(frozen=True)
class StateVec:
    """A state: a subset of ``range(space_size)``, i.e. a boolean column vector."""

    space_size: int
    members: frozenset[int]

    def __init__(self, space_size: int, members: Iterable[int] = ()) -> None:
        if space_size <= 0:
            raise ValueError(f"state space size must be positive, got {space_size}")
        mem = frozenset(int(m) for m in members)
        for m in mem:
            if not (0 <= m < space_size):
                raise ValueError(f"member {m} out of range for a {space_size}-element space")
        object.__setattr__(self, "space_size", int(space_size))
        object.__setattr__(self, "members", mem)

    def as_ket(self) -> FinRel:
        """The relation {*} -> H selecting this subset."""
        return FinRel(1, self.space_size, ((0, m) for m in self.members))

    def as_bra(self) -> FinRel:
        """The converse effect H -> {*}."""
        return converse(self.as_ket())

    @classmethod
    def from_ket(cls, rel: FinRel) -> "StateVec":
        if rel.dom_size != 1:
            raise ValueError(f"a ket must have a one-element domain, got {rel.dom_size}")
        return cls(rel.cod_size, (b for (_, b) in rel.pairs))

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"StateVec({self.space_size}, {self.sorted_members()})"


@dataclass(frozen=True)
class Scalar:
    """One of the two scalars: the identity (possible) or empty (impossible) relation on {*}."""

    possible: bool

    def as_rel(self) -> FinRel:
        return FinRel(1, 1, [(0, 0)] if self.possible else [])

    @classmethod
    def from_rel(cls, rel: FinRel) -> "Scalar":
        if rel.dom_size != 1 or rel.cod_size != 1:
            raise ValueError(f"a scalar must be a 1->1 relation, got {rel.dom_size}->{rel.cod_size}")
        return cls(bool(rel.pairs))

    def __bool__(self) -> bool:
        return self.possible


def then(first: FinRel, second: FinRel) -> FinRel:
    """Diagrammatic composition: apply ``first``, then ``second``."""
    if first.cod_size != second.dom_size:
        raise ValueError(
            f"cannot compose {first.dom_size}->{first.cod_size} with "
            f"{second.dom_size}->{second.cod_size}: middle sizes differ"
        )
    successors: dict[int, list[int]] = {}
    for (b, c) in second.pairs:
        successors.setdefault(b, []).append(c)
    return FinRel._trusted(first.dom_size, second.cod_size,
                           ((a, c) for (a, b) in first.pairs for c in successors.get(b, ())))


def converse(r: FinRel) -> FinRel:
    return FinRel._trusted(r.cod_size, r.dom_size, ((b, a) for (a, b) in r.pairs))


def tensor(r: FinRel, s: FinRel) -> FinRel:
    """Cartesian product of relations, with flat row-major index coding.

    The product of an a-element set and a c-element set is coded as
    ``(x, u) -> x * c + u``; every module in this package uses this single
    coding for product sets.
    """
    m, n = s.dom_size, s.cod_size
    return FinRel._trusted(r.dom_size * m, r.cod_size * n,
                           ((x * m + u, y * n + v) for (x, y) in r.pairs for (u, v) in s.pairs))


def symmetric_difference(r: FinRel, s: FinRel) -> FinRel:
    if (r.dom_size, r.cod_size) != (s.dom_size, s.cod_size):
        raise ValueError(
            f"symmetric difference needs matching shapes, got "
            f"{r.dom_size}->{r.cod_size} and {s.dom_size}->{s.cod_size}"
        )
    return FinRel(r.dom_size, r.cod_size, r.pairs ^ s.pairs)


def identity(n: int) -> FinRel:
    return FinRel(n, n, ((i, i) for i in range(n)))


def empty(n: int, m: int) -> FinRel:
    return FinRel(n, m)


def full(n: int, m: int) -> FinRel:
    return FinRel(n, m, ((a, b) for a in range(n) for b in range(m)))


def swap(n: int, m: int) -> FinRel:
    """The bijection (a, b) -> (b, a) between n*m and m*n under the flat coding."""
    return FinRel(n * m, m * n, ((a * m + b, b * n + a) for a in range(n) for b in range(m)))


def is_unitary(r: FinRel) -> bool:
    """True iff ``r`` is a bijection (direct row/column counting check)."""
    if r.dom_size != r.cod_size:
        return False
    if len(r.pairs) != r.dom_size:
        return False
    sources = {a for (a, _) in r.pairs}
    targets = {b for (_, b) in r.pairs}
    return len(sources) == r.dom_size and len(targets) == r.cod_size


def born_scalar(effect: StateVec, state: StateVec) -> Scalar:
    """Possibility of measuring ``effect`` after preparing ``state``.

    Equals the 1->1 composite of the state's ket with the effect's bra: the
    outcome is possible exactly when the two subsets intersect.
    """
    if effect.space_size != state.space_size:
        raise ValueError(
            f"effect lives on {effect.space_size} elements but state on {state.space_size}"
        )
    return Scalar(bool(effect.members & state.members))


def as_bool_matrix(r: FinRel) -> list[list[int]]:
    """Render as a 0/1 matrix with rows indexed by the codomain (column-vector convention)."""
    mat = [[0] * r.dom_size for _ in range(r.cod_size)]
    for (a, b) in r.pairs:
        mat[b][a] = 1
    return mat
