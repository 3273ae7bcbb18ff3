"""Exact algebra of relations between finite index sets.

Everything in this package is a relation: states are relations from the
one-element set, effects are their converses, evolutions are bijective
relations, and the only two scalars are the identity and the empty relation
on the one-element set.  All values are immutable and all operations are
pure functions, so they can be shared freely across threads.

Representation
--------------
A relation stores one row per source: ``rows[a]`` is the sorted tuple of
a's successors, with no repeats, and ``()`` when a relates to nothing.  So
composition gathers rows, the tensor offsets them, the converse transposes
them, and equality compares them; relations built from others share the
rows they can.  The pair set ``pairs`` is derived from the rows on first use.

Composition order
-----------------
``then(r, s)`` applies ``r`` first and ``s`` second, reading left to right
like a pipeline; the mathematical composite "s after r" is ``then(r, s)``.

Values
------
Every value class writes its own constructor, which runs its checks and
then stores the fields in one step.  ``_frozen`` gives it value semantics:
its fields are its annotated names, in order; equality holds only within one
class and compares the fields as one tuple, which is also what is hashed;
assignment and deletion raise ``AttributeError``; and a class without its
own ``__repr__`` gets one over the fields.  These methods are closures, not
generated code, so importing the package imports neither ``dataclasses``
nor the ``inspect`` and ``ast`` modules it pulls in.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Optional, Tuple


Pair = Tuple[int, int]
Row = Tuple[int, ...]


def _frozen(cls):
    """Class decorator: frozen value semantics over the annotated fields.

    The class writes its own ``__init__``, which stores every annotated field
    in one ``vars(self).update(...)``, since assignment raises.  An attribute
    it stores without annotating it stays out of equality, hashing and the
    repr, and so does a ``cached_property``, which writes the instance's
    ``__dict__`` directly.
    """
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__eq__, __hash__, __setattr__, __delattr__]
    if "__repr__" not in cls.__dict__:
        methods.append(__repr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _check_positive(dom_size: int, cod_size: int) -> None:
    if dom_size <= 0 or cod_size <= 0:
        raise ValueError(f"relation sizes must be positive, got {dom_size}->{cod_size}")


@_frozen
class FinRel:
    """A relation between the index sets ``range(dom_size)`` and ``range(cod_size)``.

    Equality is equality of sizes and of the rows, which determine the pair
    set; there is no other representation state.

    >>> r = FinRel(3, 3, [(0, 0), (0, 2), (1, 1)])
    >>> sorted(r.image({0}))
    [0, 2]
    >>> r.rows
    ((0, 2), (1,), ())
    """

    dom_size: int
    cod_size: int
    rows: tuple[Row, ...]

    def __init__(self, dom_size: int, cod_size: int, pairs: Iterable[Pair] = ()) -> None:
        _check_positive(dom_size, cod_size)
        successors: dict[int, set[int]] = {}
        for a, b in pairs:
            a, b = int(a), int(b)
            if not (0 <= a < dom_size and 0 <= b < cod_size):
                raise ValueError(
                    f"pair ({a},{b}) out of range for a {dom_size}->{cod_size} relation"
                )
            successors.setdefault(a, set()).add(b)
        vars(self).update(dom_size=int(dom_size), cod_size=int(cod_size), rows=tuple(
            tuple(sorted(successors[a])) if a in successors else () for a in range(int(dom_size))))

    @classmethod
    def _trusted(cls, dom_size: int, cod_size: int, rows: tuple[Row, ...]) -> "FinRel":
        """Build from rows already in the stored form (one sorted, repeat-free
        tuple of in-range targets per source), skipping every check."""
        rel = object.__new__(cls)
        vars(rel).update(dom_size=dom_size, cod_size=cod_size, rows=rows)
        return rel

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """The relation as a set of (source, target) pairs, built on first use."""
        return frozenset(self.sorted_pairs())

    def sorted_pairs(self) -> list[Pair]:
        return [(a, b) for a, row in enumerate(self.rows) for b in row]

    def image(self, sources: Iterable[int]) -> frozenset[int]:
        rows = self.rows
        return frozenset(b for a in set(sources) if 0 <= a < self.dom_size for b in rows[a])

    def preimage(self, targets: Iterable[int]) -> frozenset[int]:
        tgt = set(targets)
        return frozenset(a for a, row in enumerate(self.rows) if not tgt.isdisjoint(row))

    def to_json_dict(self) -> dict:
        return {"dom": self.dom_size, "cod": self.cod_size,
                "pairs": [[a, b] for a, row in enumerate(self.rows) for b in row]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict,
                       check_sizes: Optional[Callable[[int, int], None]] = None) -> "FinRel":
        """Validate a decoded relation file.  ``check_sizes(dom, cod)``, when
        given, runs after the pairs are validated and before any row is built,
        so a caller can refuse a size it cannot hold."""
        if not isinstance(payload, dict) or set(payload) != {"dom", "cod", "pairs"}:
            raise ValueError("schema violation: expected keys dom, cod, pairs")
        dom, cod, pairs = payload["dom"], payload["cod"], payload["pairs"]
        # ``type(...) is int``: JSON true/false load as bool, an int subclass.
        if type(dom) is not int or type(cod) is not int or not isinstance(pairs, list):
            raise ValueError("schema violation: dom/cod must be integers and pairs a list")
        # A repeat follows an in-range copy, so the range may be tested first.
        # A pair (a, b) is kept as its cell a * cod + b.
        seen: set[int] = set()
        for p in pairs:
            if (not isinstance(p, list) or len(p) != 2
                    or type(p[0]) is not int or type(p[1]) is not int):
                raise ValueError(f"schema violation: malformed pair {p!r}")
            a, b = p
            if not (0 <= a < dom and 0 <= b < cod):
                raise ValueError(f"out-of-range pair {p!r} for a {dom}->{cod} relation")
            cell = a * cod + b
            if cell in seen:
                raise ValueError(f"duplicate pair {p!r}")
            seen.add(cell)
        # Sizes that are not positive get their own message, after the size check.
        if check_sizes is not None and dom > 0 and cod > 0:
            check_sizes(dom, cod)
        _check_positive(dom, cod)
        rows: list = [()] * dom  # a list only where a source has targets
        for cell in sorted(seen):
            a = cell // cod
            if rows[a]:
                rows[a].append(cell % cod)
            else:
                rows[a] = [cell % cod]
        return cls._trusted(dom, cod, tuple(map(tuple, rows)))

    @classmethod
    def from_json(cls, text: str,
                  check_sizes: Optional[Callable[[int, int], None]] = None) -> "FinRel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"schema violation: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValueError("schema violation: JSON nested too deeply") from exc
        return cls.from_json_dict(payload, check_sizes)

    def __repr__(self) -> str:
        return f"FinRel({self.dom_size}->{self.cod_size}, {self.sorted_pairs()})"


@_frozen
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
        vars(self).update(space_size=int(space_size), members=mem)

    @classmethod
    def _trusted(cls, space_size: int, members: frozenset[int]) -> "StateVec":
        """Build from a positive size and a frozenset of in-range members, unchecked."""
        state = object.__new__(cls)
        vars(state).update(space_size=space_size, members=members)
        return state

    def as_ket(self) -> FinRel:
        """The relation {*} -> H selecting this subset."""
        return FinRel._trusted(1, self.space_size, (tuple(sorted(self.members)),))

    def as_bra(self) -> FinRel:
        """The converse effect H -> {*}, built as its column directly."""
        members = self.members
        return FinRel._trusted(self.space_size, 1, tuple(
            (0,) if i in members else () for i in range(self.space_size)))

    @classmethod
    def from_ket(cls, rel: FinRel) -> "StateVec":
        if rel.dom_size != 1:
            raise ValueError(f"a ket must have a one-element domain, got {rel.dom_size}")
        return cls(rel.cod_size, rel.rows[0])

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"StateVec({self.space_size}, {self.sorted_members()})"


@_frozen
class Scalar:
    """One of the two scalars: the identity (possible) or empty (impossible) relation on {*}."""

    possible: bool

    def __init__(self, possible: bool) -> None:
        vars(self).update(possible=possible)

    def __bool__(self) -> bool:
        return self.possible


def then(first: FinRel, second: FinRel) -> FinRel:
    """Diagrammatic composition: apply ``first``, then ``second``.

    Each row of the composite gathers the rows of ``second`` that the source
    reaches; a source with one successor shares that successor's row.
    """
    if first.cod_size != second.dom_size:
        raise ValueError(
            f"cannot compose {first.dom_size}->{first.cod_size} with "
            f"{second.dom_size}->{second.cod_size}: middle sizes differ"
        )
    successors = second.rows
    rows: list[Row] = []
    for row in first.rows:
        if len(row) == 1:
            rows.append(successors[row[0]])
        elif not row:
            rows.append(())
        else:
            gathered: set[int] = set()
            for b in row:
                gathered.update(successors[b])
            rows.append(tuple(sorted(gathered)))
    return FinRel._trusted(first.dom_size, second.cod_size, tuple(rows))


def converse(r: FinRel) -> FinRel:
    columns: list[list[int]] = [[] for _ in range(r.cod_size)]
    for a, row in enumerate(r.rows):
        for b in row:
            columns[b].append(a)
    return FinRel._trusted(r.cod_size, r.dom_size, tuple(map(tuple, columns)))


def tensor(r: FinRel, s: FinRel) -> FinRel:
    """Cartesian product of relations, with flat row-major index coding.

    The product of an a-element set and a c-element set is coded as
    ``(x, u) -> x * c + u``; every module in this package uses this single
    coding for product sets.
    """
    m, n = s.dom_size, s.cod_size
    s_rows = s.rows
    # When every row of s holds one target, a source block is shifted at once.
    function = set(map(len, s_rows)) == {1}
    filled = [(u, s_row) for u, s_row in enumerate(s_rows) if s_row]
    rows: list[Row] = [()] * (r.dom_size * m)
    for x, r_row in enumerate(r.rows):
        block = slice(x * m, (x + 1) * m)
        if r_row == (0,):
            rows[block] = s_rows
        elif function and len(r_row) == 1:
            o = r_row[0] * n
            rows[block] = [(o + v,) for (v,) in s_rows]
        elif r_row:
            offsets = [y * n for y in r_row]
            for u, s_row in filled:
                rows[x * m + u] = tuple([o + v for o in offsets for v in s_row])
    return FinRel._trusted(r.dom_size * m, r.cod_size * n, tuple(rows))


def symmetric_difference(r: FinRel, s: FinRel) -> FinRel:
    if (r.dom_size, r.cod_size) != (s.dom_size, s.cod_size):
        raise ValueError(
            f"symmetric difference needs matching shapes, got "
            f"{r.dom_size}->{r.cod_size} and {s.dom_size}->{s.cod_size}"
        )
    return FinRel._trusted(r.dom_size, r.cod_size, tuple(
        tuple(sorted(set(x).symmetric_difference(y))) for x, y in zip(r.rows, s.rows)))


def identity(n: int) -> FinRel:
    _check_positive(n, n)
    return FinRel._trusted(n, n, tuple((i,) for i in range(n)))


def empty(n: int, m: int) -> FinRel:
    return FinRel(n, m)


def full(n: int, m: int) -> FinRel:
    return FinRel(n, m, ((a, b) for a in range(n) for b in range(m)))


def swap(n: int, m: int) -> FinRel:
    """The bijection (a, b) -> (b, a) between n*m and m*n under the flat coding."""
    return FinRel(n * m, m * n, ((a * m + b, b * n + a) for a in range(n) for b in range(m)))


def is_unitary(r: FinRel) -> bool:
    """True iff ``r`` is a bijection: every row holds exactly one target and
    no two rows hold the same one."""
    return (r.dom_size == r.cod_size and set(map(len, r.rows)) == {1}
            and len(set(r.rows)) == r.dom_size)


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
    for a, row in enumerate(r.rows):
        for b in row:
            mat[b][a] = 1
    return mat
