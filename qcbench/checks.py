"""Output checks for every benchmark op, computed without the program.

The expected answers come from the closed forms in the paper's model and
from the census characterization in `workloads`, never from qcrel itself:

- ``enumerate``: the relation count is (copies_B * |Hom(H, G)|) ** copies_A,
  the output is exactly the characterized set in lexicographic order, and
  Z3 -> Z3 is byte-equal to the checked-in golden file.
- ``dj``: the decision follows the constant/balanced closed forms on f.
- ``grover``: the possible outcomes follow the zero-possibility law.
- ``homid``: the possible outcomes follow the witness-pair law.
- ``check-relation``: the classical verdict is membership in the
  characterized set.
- ``verify-structure``: every law holds.

Every pipeline report must also say the oracle is unitary.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path

from workloads import (
    CENSUS_POOL,
    Op,
    classical_count,
    classical_relations,
    group_orders,
    groupoid_size,
    relation_json,
)

GOLDENS = {("Z3", "Z3"): "tests/golden/classical_z3_z3.jsonl"}


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own expectation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _census_text(src: str, tgt: str) -> str:
    dom, cod = groupoid_size(src), groupoid_size(tgt)
    return "".join(relation_json(dom, cod, r) + "\n" for r in classical_relations(src, tgt))


def _x_state(shape: tuple[str, str], k: int) -> set[int]:
    """The k-th X classical state of pair(G,H): {i*|G| + k : i < |H|}."""
    ng, nh = prod(group_orders(shape[0])), prod(group_orders(shape[1]))
    return {i * ng + k for i in range(nh)}


def dj_decision(shape: tuple[str, str], pairs) -> str:
    """Closed forms: constant iff f is X state 0 times one Z classical state;
    balanced iff f sends nothing in X state 0 into X state 1."""
    ng, nh = prod(group_orders(shape[0])), prod(group_orders(shape[1]))
    h0, h1 = _x_state(shape, 0), _x_state(shape, 1)
    f = set(pairs)
    if any(f == {(a, k * ng + x) for a in h0 for x in range(ng)} for k in range(nh)):
        return "constant"
    if not any(a in h0 and b in h1 for a, b in f):
        return "balanced"
    return "undetermined"


def grover_outcomes(shape: tuple[str, str], pairs, sigma: int) -> list[list[int]]:
    """Zero-possibility law: rho is possible iff (rho f sigma) != (X0 f sigma)."""
    target = _x_state(shape, sigma)
    ng = prod(group_orders(shape[0]))

    def hit(state: set[int]) -> bool:
        return any(a in state and b in target for a, b in pairs)

    base = hit(_x_state(shape, 0))
    return [sorted(_x_state(shape, k)) for k in range(ng) if hit(_x_state(shape, k)) != base]


def homid_outcomes(shape: tuple[str, str], pairs, sigma: int) -> list[list[int]]:
    """Witness-pair law: f relates something in rho and something into sigma."""
    target = _x_state(shape, sigma)
    ng = prod(group_orders(shape[0]))
    if not any(b in target for _, b in pairs):
        return []
    states = [_x_state(shape, k) for k in range(ng)]
    return [sorted(state) for state in states if any(a in state for a, _ in pairs)]


def _rel_dict(op: Op) -> dict:
    return json.loads(relation_json(*_sizes(op), op.expect["pairs"]))


def _sizes(op: Op) -> tuple[int, int]:
    if "shape" in op.expect:
        n = prod(group_orders(op.expect["shape"][0])) * prod(group_orders(op.expect["shape"][1]))
        return n, n
    return groupoid_size(op.expect["src"]), groupoid_size(op.expect["tgt"])


class Checker:
    """Checks one op's exit code and stdout; raises CheckFailed on a mismatch.

    Building it reads the goldens and computes the census expectations; the
    benchmark builds it once, before the timed set-ups, as it is no work of
    the program's.
    """

    def __init__(self, root: Path) -> None:
        self.census = {(a, b): _census_text(a, b) for a, b in CENSUS_POOL}
        self.goldens = {key: (root / path).read_text(encoding="utf-8") for key, path in GOLDENS.items()}

    def __call__(self, op: Op, rc: int, out: str) -> None:
        _require(rc == 0, f"exit code {rc}")
        try:
            getattr(self, "_" + op.verb.replace("-", "_"))(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from exc

    def _enumerate(self, op: Op, out: str) -> None:
        key = (op.expect["src"], op.expect["tgt"])
        count = classical_count(*key)
        _require(len(out.splitlines()) == count, f"{key}: {len(out.splitlines())} relations, expected {count}")
        expected = self.census.get(key) or _census_text(*key)
        _require(out == expected, f"{key}: output differs from the characterized set")
        if key in self.goldens:
            _require(out == self.goldens[key], f"{key}: output differs from the golden file")

    def _pipeline_report(self, op: Op, out: str, keys: tuple[str, str]) -> dict:
        report = json.loads(out)
        spec = "pair({},{})".format(*op.expect["shape"])
        _require(report["algorithm"] == op.verb, f"algorithm {report['algorithm']!r}")
        _require(report["instance"][keys[0]] == spec and report["instance"][keys[1]] == spec,
                 "instance pairs differ from the input")
        _require(report["instance"]["f"] == _rel_dict(op), "instance f differs from the input")
        _require(report["diagnostics"]["oracle_unitary"] is True, "oracle not unitary")
        return report

    def _dj(self, op: Op, out: str) -> None:
        report = self._pipeline_report(op, out, ("pairA", "pairB"))
        expected = dj_decision(op.expect["shape"], op.expect["pairs"])
        _require(report["decision"] == expected, f"decision {report['decision']!r}, expected {expected!r}")

    def _grover(self, op: Op, out: str) -> None:
        report = self._pipeline_report(op, out, ("pairS", "pairB"))
        expected = grover_outcomes(op.expect["shape"], op.expect["pairs"], op.expect["sigma"])
        _require(report["possible_outcomes"] == expected, "outcomes break the zero-possibility law")

    def _homid(self, op: Op, out: str) -> None:
        report = self._pipeline_report(op, out, ("pairS", "pairB"))
        expected = homid_outcomes(op.expect["shape"], op.expect["pairs"], op.expect["sigma"])
        _require(report["possible_outcomes"] == expected, "outcomes break the witness-pair law")

    def _check_relation(self, op: Op, out: str) -> None:
        report = json.loads(out)
        _require(report["from"] == op.expect["src"] and report["to"] == op.expect["tgt"],
                 "from/to differ from the input")
        _require(report["rel"] == _rel_dict(op), "rel differs from the input")
        _require(report["predicates"]["classical"] is op.expect["classical"],
                 f"classical verdict {report['predicates']['classical']!r}, "
                 f"expected {op.expect['classical']!r}")

    def _verify_structure(self, op: Op, out: str) -> None:
        report = json.loads(out)
        _require(report["groupoid"] == op.expect["groupoid"], "groupoid differs from the input")
        _require(report["all_ok"] is True and all(report["laws"].values()), "a structure law fails")
