"""Per-layer spans for the traced run, installed from outside the package.

`Tracer.install` replaces every public function of the six qcrel modules, and
every public method (plus ``__init__``) of the classes they define, with a
timing wrapper, except the `INTERNAL` group arithmetic that only the
groupoids layer calls (wrapping it would add overhead and move no time
between layers).  A function is replaced in every qcrel module namespace that
binds it, because modules import each other's names directly
(``from .relations import then``).  `Tracer.uninstall` puts the originals
back.  Properties are left alone.

Each wrapped call is a span with a name, start, end, parent span and op id.
Spans live in memory and are written out when the run ends.  Self time is a
span's duration minus the time its child spans cover.  The few functions
called hundreds of thousands of times per op (`HOT`) are timed and counted
the same way but keep no span record, so that memory stays small.

The program is single-threaded and has no queue or lock, so no layer has
waiting time and none is reported.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("relations", "groupoids", "hom_relations", "oracles", "algorithms", "cli")
INTERNAL = frozenset(f"groupoids.AbelianGroup.{m}" for m in ("add", "neg", "coords", "flat"))
HOT = frozenset({
    "relations.FinRel.__init__",
    "relations.StateVec.__init__",
    "groupoids.Groupoid.mult",
    "groupoids.Groupoid.inv",
    "groupoids.Groupoid.copy_of",
    "groupoids.Groupoid.elem_of",
    "groupoids.Groupoid.is_identity",
    "groupoids.ComplementaryPair.x_mult",
})
RUNS = ("algorithms.dj_run", "algorithms.grover_run", "algorithms.grouphomid_run")
PREDICATES = tuple(f"hom_relations.{n}" for n in (
    "is_groupoid_hom_relation", "is_surjective_on_objects", "is_monoid_hom_relation",
    "is_classical_relation", "is_self_conjugate"))
ENUMERATE = "hom_relations.enumerate_classical_relations"


def _adds(key, value):
    def hook(counts, args, result):
        counts[key] = counts.get(key, 0) + value(args, result)
    return hook


# Counts taken from a call's arguments or result: name -> hook(counts, args, result).
AFTER = {
    "relations.FinRel.__init__": _adds("finrel.pairs", lambda a, r: len(a[0].pairs)),
    "relations.tensor": _adds("tensor.pairs_out", lambda a, r: len(r.pairs)),
    "groupoids.ComplementaryPair.x_mult": _adds("x_mult.useful", lambda a, r: r is not None),
    ENUMERATE: _adds("enumerate.found", lambda a, r: len(r)),
    "oracles.build_oracle": _adds("build_oracle.pairs_out", lambda a, r: len(r.pairs)),
    # Candidate outcomes evaluated: one composite per rho for grover and homid, one for dj.
    **{name: _adds("run.candidates", lambda a, r: sum(k.startswith("rho") for k in r.composites) or 1)
       for name in RUNS},
}


class Tracer:
    """Span recorder for one traced pass; install, run ops, uninstall, read."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        # (name id, parent span index or -1, op id, start, end); end is None while open.
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[list] = []  # [start, child time, span index]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        record = name not in HOT
        after = AFTER.get(name)
        stack, spans, calls, self_s, counts = self._stack, self.spans, self.calls, self.self_s, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if record:
                index = len(spans)
                span = [nid, parent, tracer.op_id, 0.0, None]
                spans.append(span)
            else:
                index = parent
            frame = [0.0, 0.0, index]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    span[3], span[4] = start, end
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qcrel" or k.startswith("qcrel.")]
        for layer in LAYERS:
            module = sys.modules[f"qcrel.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._set(m, key, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in INTERNAL:
                continue
            if isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading a finished pass -------------------------------------------

    def _total(self, names, table) -> float:
        wanted = set(names)
        return sum(v for n, v in zip(self.names, table) if n in wanted)

    def calls_of(self, *names: str) -> int:
        return int(self._total(names, self.calls))

    def self_of(self, *names: str) -> float:
        return self._total(names, self.self_s)

    def layer_self(self, layer: str) -> float:
        return sum(v for n, v in zip(self.names, self.self_s) if n.startswith(layer + "."))

    def under(self, name: str, ancestors: tuple[str, ...]) -> int:
        """Spans named ``name`` that have an ancestor span in ``ancestors``."""
        ids = {i for i, n in enumerate(self.names) if n in ancestors}
        target = self.names.index(name)
        found = 0
        for span in self.spans:
            if span[0] != target:
                continue
            parent = span[1]
            while parent >= 0 and self.spans[parent][0] not in ids:
                parent = self.spans[parent][1]
            found += parent >= 0
        return found

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass: counts repeat exactly, times are seconds."""
        c = self.counts
        x_mult = self.calls_of("groupoids.ComplementaryPair.x_mult")
        candidates = self.under("hom_relations.classical_equations", (ENUMERATE,))
        found = c.get("enumerate.found", 0)
        runs = self.calls_of(*RUNS)
        return {
            "relations.finrel.count": self.calls_of("relations.FinRel.__init__"),
            "relations.finrel.pairs": c.get("finrel.pairs", 0),
            "relations.then.calls": self.calls_of("relations.then"),
            "relations.then.self_s": self.self_of("relations.then"),
            "relations.tensor.calls": self.calls_of("relations.tensor"),
            "relations.tensor.self_s": self.self_of("relations.tensor"),
            "relations.tensor.pairs_out": c.get("tensor.pairs_out", 0),
            "relations.self_s": self.layer_self("relations"),
            "groupoids.mult.calls": self.calls_of("groupoids.Groupoid.mult"),
            "groupoids.x_mult.calls": x_mult,
            "groupoids.x_mult.useful_frac": c.get("x_mult.useful", 0) / x_mult if x_mult else 0.0,
            "groupoids.pair_ctor.self_s": self.self_of("groupoids.ComplementaryPair.__init__"),
            "groupoids.check_structure_laws.self_s": self.self_of("groupoids.check_structure_laws"),
            "groupoids.self_s": self.layer_self("groupoids"),
            "hom_relations.enumerate.self_s": self.self_of(ENUMERATE),
            "hom_relations.enumerate.candidates": candidates,
            "hom_relations.enumerate.found": found,
            "hom_relations.enumerate.yield_frac": found / candidates if candidates else 0.0,
            "hom_relations.classical_equations.self_s": self.self_of("hom_relations.classical_equations"),
            "hom_relations.predicates.self_s": self.self_of(*PREDICATES),
            "hom_relations.self_s": self.layer_self("hom_relations"),
            "oracles.build_oracle.calls": self.calls_of("oracles.build_oracle"),
            "oracles.build_oracle.self_s": self.self_of("oracles.build_oracle"),
            "oracles.build_oracle.pairs_out": c.get("build_oracle.pairs_out", 0),
            "oracles.self_s": self.layer_self("oracles"),
            "algorithms.run.self_s": self.self_of(*RUNS),
            "algorithms.oracle_builds_per_run":
                self.under("oracles.build_oracle", RUNS) / runs if runs else 0.0,
            "algorithms.candidates": c.get("run.candidates", 0),
            "algorithms.self_s": self.layer_self("algorithms"),
            "cli.main.calls": self.calls_of("cli.main"),
            "cli.self_s": self.layer_self("cli"),
            "cli.parse_relation_file.self_s": self.self_of("cli.parse_relation_file"),
            "cli.emit_report.self_s": self.self_of("cli.emit_report"),
            "trace.spans": len(self.spans),
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, parent span index, op id, start and end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for nid, parent, op, start, end in self.spans:
                fh.write(json.dumps([self.names[nid], parent, op, start, end]) + "\n")
