"""Tests of the benchmark itself: python3 -m pytest qcbench -q"""

from __future__ import annotations

import json
import random

import pytest

import run
from checks import CheckFailed, Checker, dj_decision
from tracing import Tracer
from workloads import WORKLOADS, Op, blackbox, generate, relation_json


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def checker():
    return Checker(run.ROOT)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)


def test_pipeline_mix_has_constant_and_balanced_blackboxes():
    ops = [op for rotation in generate("pipeline", 0)[0] for op in rotation if op.verb == "dj"]
    assert {dj_decision(op.expect["shape"], op.expect["pairs"]) for op in ops} >= {"constant", "balanced"}


def _tiny_ops(tmp_path) -> list[Op]:
    """Small ops of every verb, with files written under ``tmp_path``."""
    rng = random.Random(0)
    shape = ("Z2", "Z3")
    ops = []
    for verb, kind in (("dj", "balanced"), ("dj", "constant"), ("grover", "mixed"), ("homid", "mixed")):
        pairs = blackbox(rng, shape, kind)
        path = tmp_path / f"{verb}-{kind}.json"
        path.write_text(relation_json(6, 6, pairs))
        flags = ("--pairA", "pair(Z2,Z3)", "--pairB", "pair(Z2,Z3)") if verb == "dj" else \
            ("--pairS", "pair(Z2,Z3)", "--pairB", "pair(Z2,Z3)", "--sigma", "1")
        ops.append(Op(verb, (verb, *flags, "--oracle", str(path), "--json"),
                      {"shape": shape, "pairs": pairs, "kind": kind, "sigma": 1}))
    rel = tmp_path / "rel.json"
    rel.write_text(relation_json(3, 3, [(0, 0), (1, 2), (2, 1)]))
    ops.append(Op("check-relation", ("check-relation", "--from", "Z3", "--to", "Z3", "--rel", str(rel), "--json"),
                  {"src": "Z3", "tgt": "Z3", "pairs": ((0, 0), (1, 2), (2, 1)), "classical": True}))
    ops.append(Op("enumerate", ("enumerate", "--from", "Z3", "--to", "Z3", "--json"), {"src": "Z3", "tgt": "Z3"}))
    ops.append(Op("verify-structure", ("verify-structure", "--groupoid", "Z2^2", "--json"), {"groupoid": "Z2^2"}))
    return ops


def _corrupt(op: Op, out: str) -> str:
    """A plausible wrong answer for the op's verb."""
    if op.verb == "enumerate":
        return "".join(out.splitlines(keepends=True)[:-1])
    report = json.loads(out)
    if op.verb == "dj":
        report["decision"] = "constant" if report["decision"] != "constant" else "balanced"
    elif op.verb in ("grover", "homid"):
        outcomes = report["possible_outcomes"]
        report["possible_outcomes"] = outcomes[1:] if outcomes else [[0, 2, 4]]
    elif op.verb == "check-relation":
        report["predicates"]["classical"] = not report["predicates"]["classical"]
    else:
        report["laws"]["frobenius"] = False
    return json.dumps(report)


def test_checkers_accept_real_output_and_reject_corrupted_reports(cli, checker, tmp_path):
    ops = _tiny_ops(tmp_path)
    assert {op.verb for op in ops} == {"dj", "grover", "homid", "check-relation", "enumerate",
                                       "verify-structure"}
    for op in ops:
        rc, out, _ = run.run_op(cli, op.argv)
        checker(op, rc, out)
        with pytest.raises(CheckFailed):
            checker(op, rc, _corrupt(op, out))
        with pytest.raises(CheckFailed):
            checker(op, 1, out)
        with pytest.raises(CheckFailed):
            checker(op, rc, out[: len(out) // 2])


def test_census_checker_holds_the_golden_byte_for_byte(cli, checker, tmp_path):
    op = next(op for op in _tiny_ops(tmp_path) if op.verb == "enumerate")
    rc, out, _ = run.run_op(cli, op.argv)
    assert out == checker.goldens[("Z3", "Z3")]
    reordered = "".join(sorted(out.splitlines(keepends=True), reverse=True))
    with pytest.raises(CheckFailed):
        checker(op, rc, reordered)


def test_traced_and_untraced_outputs_are_equal(cli, checker, tmp_path):
    ops = _tiny_ops(tmp_path)
    plain = [run.run_op(cli, op.argv)[:2] for op in ops]
    originals = {name: getattr(cli, name) for name in ("main", "dj_run", "parse_relation_file")}
    with Tracer() as tracer:
        assert cli.dj_run is not originals["dj_run"]
        traced = [run.run_op(cli, op.argv)[:2] for op in ops]
    assert traced == plain
    assert {name: getattr(cli, name) for name in originals} == originals
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == len(ops)
    assert layers["oracles.build_oracle.calls"] == 4
    assert layers["algorithms.oracle_builds_per_run"] == 1.0
    assert layers["hom_relations.enumerate.found"] == 3
    assert layers["hom_relations.enumerate.candidates"] > 3
    assert all(span[4] is not None and span[3] <= span[4] for span in tracer.spans)


def test_high_percentile_keeps_ten_samples_above():
    values = list(range(100))
    assert run.high_percentile(values) == (89, 90.0)
    value, used = run.high_percentile(list(range(50)))
    assert value == 39 and used == 80.0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(capsys, trace, section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert run.main(["--workload", "classify", "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("value,refused", [(None, False), ("1", False), ("0", False), ("2", True), ("x", True)])
def test_threads_knob_above_one_makes_the_run_incorrect(monkeypatch, value, refused):
    monkeypatch.delenv("QCREL_THREADS", raising=False)
    if value is not None:
        monkeypatch.setenv("QCREL_THREADS", value)
    assert (run.threads_problem() is not None) == refused


def test_cold_import_is_timed_in_a_fresh_interpreter():
    assert 0 < run.cold_import_s() < 30
