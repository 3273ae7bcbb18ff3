import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcrel import algorithms, cli, groupoids, hom_relations
from qcrel.algorithms import DJInstance, dj_run
from qcrel.cli import emit_report, main, parse_relation_file
from qcrel.groupoids import ComplementaryPair, parse_groupoid_spec, parse_pair_spec
from qcrel.hom_relations import StructuredRel, enumerate_classical_relations
from qcrel.relations import FinRel, identity, tensor

GOLDEN = Path(__file__).parent / "golden"


def write_rel(tmp_path, rel, name="rel.json"):
    path = tmp_path / name
    path.write_text(rel.to_json())
    return str(path)


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "qcrel.cli", *args],
                          capture_output=True, text=True, **kwargs)


Z3 = parse_groupoid_spec("Z3")


@pytest.fixture(autouse=True)
def cold_spec_caches():
    """Each test starts, and leaves, with the CLI's spec caches empty, so a
    test that patches how specs are parsed sees its patch reached."""
    cli.parse_groupoid_spec.cache_clear()
    cli.parse_pair_spec.cache_clear()
    yield
    cli.parse_groupoid_spec.cache_clear()
    cli.parse_pair_spec.cache_clear()


class TestParseRelationFile:
    def test_identity(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text('{"dom":3,"cod":3,"pairs":[[0,0],[1,1],[2,2]]}')
        assert parse_relation_file(path, Z3, Z3) == StructuredRel(identity(3), Z3, Z3)

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dom":3,"cod":3,"pairs":[[3,0]]}')
        with pytest.raises(ValueError, match="out-of-range pair"):
            parse_relation_file(path, Z3, Z3)

    def test_duplicate(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"dom":3,"cod":3,"pairs":[[0,0],[0,0]]}')
        with pytest.raises(ValueError, match="duplicate pair"):
            parse_relation_file(path, Z3, Z3)

    def test_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"dom":3,"pairs":[]}')
        with pytest.raises(ValueError, match="schema violation"):
            parse_relation_file(path, Z3, Z3)


class TestVerifyStructure:
    def test_human_output(self, capsys):
        assert main(["verify-structure", "--groupoid", "Z2^2"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 5

    def test_json_output(self, capsys):
        assert main(["verify-structure", "--groupoid", "Z3"]) == 0
        main(["verify-structure", "--groupoid", "Z3", "--json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["all_ok"] is True
        assert payload["groupoid"] == "Z3"

    def test_bad_spec_is_input_error(self, capsys):
        assert main(["verify-structure", "--groupoid", "Q2"]) == 1


class TestEnumerateCommand:
    def test_matches_golden_bytes(self, capsys):
        assert main(["enumerate", "--from", "Z3", "--to", "Z3"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "classical_z3_z3.jsonl").read_text()

    def test_budget_counts_listed_relations(self, capsys):
        assert main(["enumerate", "--from", "Z2^2", "--to", "Z2^2", "--budget", "15"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16 classical relations" in captured.err
        assert main(["enumerate", "--from", "Z2^2", "--to", "Z2^2", "--budget", "16"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 16

    def test_default_budget_refuses_huge_census(self, capsys):
        # 64^4 relations; the closed form refuses it before anything is built.
        assert main(["enumerate", "--from", "Z2xZ2^4", "--to", "Z2xZ2^4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "16777216 classical relations" in captured.err

    def test_census_beyond_candidate_scan(self, capsys):
        # 2^24 candidate relations, but only 3^8 classical ones.
        assert main(["enumerate", "--from", "Z1^8", "--to", "Z1^3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6561
        assert all(json.loads(line)["dom"] == 8 for line in lines)


class TestCheckRelation:
    def test_prints_five_predicates(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(3, 3, [(0, 0), (1, 2), (2, 1)]))
        assert main(["check-relation", "--from", "Z3", "--to", "Z3", "--rel", path]) == 0
        out = capsys.readouterr().out
        for name in ("groupoid_hom", "surjective_on_objects", "monoid_hom",
                     "classical", "self_conjugate"):
            assert name in out

    def test_json_mode(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(3, 3, [(0, 0), (1, 2), (2, 1)]))
        assert main(["check-relation", "--from", "Z3", "--to", "Z3",
                     "--rel", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicates"]["classical"] is True
        assert payload["predicates"]["self_conjugate"] is True

    def test_multiplicative_equation_decided_once(self, tmp_path, capsys, monkeypatch):
        # Of the five predicates only the multiplicative equation takes R x R.
        calls = []
        monkeypatch.setattr(hom_relations, "tensor",
                            lambda r, s: calls.append(r) or tensor(r, s))
        path = write_rel(tmp_path, identity(4))
        assert main(["check-relation", "--from", "Z2^2", "--to", "Z2^2", "--rel", path]) == 0
        assert capsys.readouterr().out.count(": true") == 5
        assert len(calls) == 1

    def test_boolean_entries_are_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"dom": true, "cod": 2, "pairs": [[false, true]]}')
        assert main(["check-relation", "--from", "Z1", "--to", "Z2", "--rel", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: schema violation")

    def test_deeply_nested_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["check-relation", "--from", "Z1", "--to", "Z2", "--rel", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


HUGE = 10 ** 12


def cap_address_space():
    """A 1 GB address-space cap for a child, which turns a run that would
    fill the machine into a fast MemoryError."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestHostileRelationFiles:
    """A relation file whose sizes do not match the groupoids is refused
    before any of it is built, however large the sizes it claims."""

    @pytest.mark.parametrize("payload,message", [
        ({"dom": HUGE, "cod": 2, "pairs": []},
         f"relation domain {HUGE} != source groupoid size 2"),
        ({"dom": 2, "cod": HUGE, "pairs": []},
         f"relation codomain {HUGE} != target groupoid size 2"),
    ], ids=["domain", "codomain"])
    @pytest.mark.parametrize("verb", [
        ["check-relation", "--from", "Z2", "--to", "Z2", "--rel"],
        ["dj", "--pairA", "pair(Z2,Z1)", "--pairB", "pair(Z2,Z1)", "--oracle"],
        ["grover", "--pairS", "pair(Z2,Z1)", "--pairB", "pair(Z2,Z1)", "--sigma", "0", "--oracle"],
        ["homid", "--pairS", "pair(Z2,Z1)", "--pairB", "pair(Z2,Z1)", "--sigma", "0", "--oracle"],
    ], ids=lambda verb: verb[0])
    def test_sizes_checked_before_rows_are_built(self, verb, payload, message, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        proc = run_cli([*verb, str(path)], timeout=60, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


class TestOutOfMemory:
    def test_pair_too_large_to_hold_is_input_error(self, tmp_path):
        # Nothing refuses this pair before its recoding and block index are
        # built, and those outgrow the capped address space.
        path = write_rel(tmp_path, identity(4))
        proc = run_cli(["dj", "--pairA", "pair(Z1,Z3000000)", "--pairB", "pair(Z2,Z2)",
                        "--oracle", path], timeout=120, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: out of memory: the input is too large to hold\n")


# Starts the command given as arguments and prints its peak resident set in
# kB.  The command is a grandchild of the test run, so its high-water mark
# starts from this small interpreter's, not from the test run's.
PEAK_RSS_PROBE = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


class TestMemoryGuard:
    def test_dj_on_pair_z16_stays_under_150_mb(self, tmp_path):
        path = write_rel(tmp_path, identity(256))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "qcrel.cli", "dj",
             "--pairA", "pair(Z16,Z16)", "--pairB", "pair(Z16,Z16)", "--oracle", path],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 150 * 1024

    # A run pushes its state through the n^2-row oracle and stage tensors
    # without building them, so n = 1024 fits where a built oracle would not.
    @pytest.mark.parametrize("verb,args", [
        ("dj", ["--pairA", "pair(Z32,Z32)"]),
        ("grover", ["--pairS", "pair(Z32,Z32)", "--sigma", "1"]),
    ])
    def test_run_on_pair_z32_stays_under_60_mb(self, tmp_path, verb, args):
        path = write_rel(tmp_path, identity(1024))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "qcrel.cli", verb,
             *args, "--pairB", "pair(Z32,Z32)", "--oracle", path],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 60 * 1024


# Imports the CLI from the source tree given as the first argument and prints
# which of the named modules the import loaded.  Run with -S, so that site
# and the .pth files it reads load nothing before the package does.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import qcrel.cli
print(sorted(m for m in sys.argv[2:] if m in sys.modules))
"""


class TestColdImport:
    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # Either module costs the CLI's every call a share of its cold start.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", IMPORT_PROBE, str(src), "dataclasses", "inspect"],
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestVerificationPropertyViolated:
    """A failed internal cross-check exits 2 with one message line, not a traceback."""

    def run_dj(self, tmp_path):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        return main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", path])

    def test_staged_dj_pipeline_disagrees(self, tmp_path, capsys, monkeypatch):
        # An identity "basis change" sends the staged pipeline elsewhere.
        monkeypatch.setattr(algorithms, "fourier_rel", lambda pair: identity(pair.size))
        assert self.run_dj(tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: verification property violated: "
                                "basis-change pipeline disagrees with the absorbed composite\n")

    def test_canonical_pair_check_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(groupoids._ControlledBlocks, "bijective", lambda self: False)
        assert self.run_dj(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: verification property violated: canonical pair")
        assert "Traceback" not in err


class TestAlgorithmCommands:
    def test_dj_human(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path]) == 0
        out = capsys.readouterr().out
        assert "decision: CONSTANT (scalar possible)" in out

    def test_dj_json(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)]))
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == "balanced"
        assert payload["diagnostics"]["queries"] == 1

    def test_grover(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)]))
        assert main(["grover", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--sigma", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["possible_outcomes"] == [[1, 3]]
        assert payload["diagnostics"]["diffusion_unitary"] is True

    def test_homid(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]))
        assert main(["homid", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--sigma", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["possible_outcomes"] == [[0, 2], [1, 3]]

    def test_sigma_out_of_range(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]))
        assert main(["homid", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--sigma", "7"]) == 1

    def test_non_classical_oracle_is_input_error(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0)]))
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path]) == 1

    def test_unchecked_flag_allows_it(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0)]))
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--unchecked", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["oracle_unitary"] is False

    def test_canonical_recode_flag_matches_default(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        base = ["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                "--oracle", path, "--json"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--recodeB", "0,2,1,3"]) == 0
        assert capsys.readouterr().out == first

    def test_non_complementary_recode_fails_instance(self, tmp_path, capsys):
        # the identity recoding of a square pair is not complementary, so the
        # controlled-not/oracle is not bijective and the blackbox check fails
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        code = main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--recodeB", "0,1,2,3"])
        assert code == 1

    def test_unknown_flag_is_input_error(self):
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--mystery"]) == 1


def parse_outcome(parser, argv):
    """What ``parse_args`` does with argv, at a fixed terminal width: the
    namespace on success, else (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return ("parsed", vars(parser.parse_args(argv)))
            except SystemExit as exc:
                return ("exited", exc.code, out.getvalue(), err.getvalue())


def verb_parsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


VERBS = ["verify-structure", "enumerate", "check-relation", "dj", "grover", "homid"]
FLAGS = ["--groupoid", "--from", "--to", "--budget", "--rel", "--pairA", "--pairS", "--pairB",
         "--oracle", "--sigma", "--recodeA", "--recodeS", "--recodeB", "--unchecked", "--json",
         "-h", "--help", "--js", "--pa", "--b", "--budget=7", "--json=1"]
VALUES = ["Z2", "Z2^2", "pair(Z2,Z2)", "3", "x", "f.json", "0,1,2,3", "--", "-1", "-", "bogus"]


class TestParserPerVerb:
    """The parser ``main`` builds attaches only the named verbs' arguments; it
    must parse every argv as the parser with every verb's arguments does."""

    def assert_same(self, argv):
        full = parse_outcome(cli._build_parser(), argv)
        assert parse_outcome(cli._build_parser(argv), argv) == full
        return full

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], *([verb, "--help"] for verb in VERBS), ["-h", "dj"], [], ["bogus"],
        ["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", "f.json", "extra"],
        ["--", "dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", "f.json"],
        ["grover", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", "f.json"],
        ["enumerate", "--from", "Z2", "--to", "Z2", "--budget", "x"],
        ["enumerate", "--from", "Z2", "--to", "Z2", "--js"],
    ])
    def test_fixed_cases(self, argv):
        self.assert_same(argv)

    def test_fixed_cases_reach_every_outcome(self):
        assert self.assert_same(["dj", "--help"])[:2] == ("exited", 0)
        assert self.assert_same(["bogus"])[:2] == ("exited", 2)
        assert self.assert_same(["enumerate", "--from", "Z2", "--to", "Z2", "--js"]) == (
            "parsed", {"verb": "enumerate", "source": "Z2", "target": "Z2",
                       "budget": 1 << 16, "json": True})

    @given(st.lists(st.sampled_from(VERBS + FLAGS + VALUES), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_any_argv(self, argv):
        self.assert_same(argv)

    def test_enumerate_builds_only_its_arguments(self):
        parsers = verb_parsers(cli._build_parser(["enumerate", "--from", "Z2", "--to", "Z2"]))
        assert list(parsers) == VERBS
        for verb, p in parsers.items():
            flags = [a.option_strings for a in p._actions]
            if verb == "enumerate":
                assert flags == [["-h", "--help"], ["--from"], ["--to"], ["--budget"], ["--json"]]
            else:
                assert flags == [["-h", "--help"]]


class TestSysArgv:
    """``main()`` reads ``sys.argv``: a process prints what in-process
    ``main([...])`` prints, byte for byte, with the same exit code."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["dj", "--help"], ["enumerate", "--from", "Z2", "--to", "Z2", "--json"],
    ])
    def test_process_matches_in_process(self, argv, capsysbinary, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(argv)
        captured = capsysbinary.readouterr()
        proc = subprocess.run([sys.executable, "-m", "qcrel.cli", *argv], capture_output=True,
                              env={**os.environ, "COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["enumerate", "--from", "Z2", "--to", "Z2", "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["qcrel", *argv])
        assert main() == 0
        assert capsys.readouterr() == expected


class TestReportGoldens:
    """Run-verb stdout and exit codes, frozen byte for byte.

    Each golden line holds an argv whose ``{oracle}`` entry names a file
    holding the line's ``oracle`` relation, the exit code and the stdout.
    """

    @pytest.mark.parametrize("verb", ["dj", "dj_recoded", "grover", "homid"])
    def test_stdout_matches_golden_bytes(self, verb, tmp_path, capsys):
        path = tmp_path / "oracle.json"
        lines = (GOLDEN / f"reports_{verb}.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            case = json.loads(line)
            path.write_text(json.dumps(case["oracle"]))
            argv = [str(path) if a == "{oracle}" else a for a in case["argv"]]
            code = main(argv)
            assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), argv


def first_golden_case_of_each_kind(verb):
    """The first case in ``reports_<verb>.jsonl`` for each (human or --json,
    exit code) kind."""
    cases = {}
    for line in (GOLDEN / f"reports_{verb}.jsonl").read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        cases.setdefault(("--json" in case["argv"], case["exit"]), case)
    return list(cases.values())


class TestSpecCache:
    """Repeated in-process calls share parsed specs and print the same bytes."""

    def repeat(self, argv, capsys, times=3):
        """(exit code, stdout, stderr) of ``main(argv)``, the same on every call."""
        results = []
        for _ in range(times):
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results == results[:1] * times, argv
        return results[0]

    @pytest.mark.parametrize("verb", ["dj", "dj_recoded", "grover", "homid"])
    def test_run_verbs_repeat_golden_bytes(self, verb, tmp_path, capsys):
        path = tmp_path / "oracle.json"
        for case in first_golden_case_of_each_kind(verb):
            path.write_text(json.dumps(case["oracle"]))
            argv = [str(path) if a == "{oracle}" else a for a in case["argv"]]
            code, out, _ = self.repeat(argv, capsys)
            assert (code, out) == (case["exit"], case["stdout"]), argv

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_enumerate_repeats_golden_bytes(self, json_flag, capsys):
        code, out, _ = self.repeat(["enumerate", "--from", "Z3", "--to", "Z3", *json_flag], capsys)
        assert (code, out) == (0, (GOLDEN / "classical_z3_z3.jsonl").read_text())

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_structure_verbs_repeat_first_bytes(self, json_flag, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (1, 1), (2, 3), (3, 2)]))
        for argv in (["verify-structure", "--groupoid", "Z2^2"],
                     ["check-relation", "--from", "Z2^2", "--to", "Z2^2", "--rel", path]):
            code, out, _ = self.repeat([*argv, *json_flag], capsys)
            assert code == 0 and out, argv

    @pytest.mark.parametrize("argv", [
        ["verify-structure", "--groupoid", "Z2^"],
        ["enumerate", "--from", "Z2", "--to", "Q3"],
        ["dj", "--pairA", "pair(Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", "f.json"],
        ["grover", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z0,Z2)", "--sigma", "0",
         "--oracle", "f.json"],
    ], ids=lambda argv: argv[0])
    def test_malformed_spec_fails_every_call(self, argv, capsys):
        code, out, err = self.repeat(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_parse_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed pair spec"):
                cli.parse_pair_spec("pair(Z2)")
        assert cli.parse_pair_spec.cache_info().currsize == 0

    def test_non_complementary_recode_after_canonical_run(self, tmp_path, capsys):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        canonical = ["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path, "--json"]
        first = self.repeat(canonical, capsys, times=1)
        assert first[0] == 0
        assert self.repeat(canonical + ["--recodeB", "0,1,2,3"], capsys) == (
            1, "", "error: second system's bases are not complementary "
                   "under the supplied recoding\n")
        assert self.repeat(canonical, capsys) == first

    def test_cli_shares_and_groupoids_builds_anew(self):
        spec = "pair(Z2,Z2)"
        assert groupoids.parse_pair_spec(spec) is not groupoids.parse_pair_spec(spec)
        assert groupoids.parse_pair_spec(spec) == cli.parse_pair_spec(spec)
        assert groupoids.parse_groupoid_spec("Z2^2") is not groupoids.parse_groupoid_spec("Z2^2")
        assert cli.parse_pair_spec(spec) is cli.parse_pair_spec(spec)
        assert cli.parse_groupoid_spec("Z2^2") is cli.parse_groupoid_spec("Z2^2")

    def test_recoded_pair_is_new_over_the_cached_groups(self):
        pair = cli.parse_pair_spec("pair(Z2,Z2)")
        recoded = cli._parse_pair_argument("pair(Z2,Z2)", "0,2,1,3")
        assert recoded is not pair and recoded == pair
        assert recoded.g is pair.g and recoded.h is pair.h


class TestComplementaryRecodes:
    @pytest.mark.parametrize("flag", ["--recodeA", "--recodeB"])
    def test_dj_reports_on_every_recoding(self, flag, tmp_path, capsys):
        g = parse_pair_spec("pair(Z2,Z2)").g
        recodes = [",".join(map(str, perm)) for perm in itertools.permutations(range(4))
                   if ComplementaryPair(g, g, x_recode=perm).is_complementary_pair()]
        assert len(recodes) == 16
        z22 = parse_groupoid_spec("Z2^2")
        for i, rel in enumerate(enumerate_classical_relations(z22, z22)):
            path = write_rel(tmp_path, rel, f"f{i}.json")
            for recode in recodes:
                argv = ["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                        "--oracle", path, flag, recode, "--json"]
                assert main(argv) == 0, argv
                report = json.loads(capsys.readouterr().out)
                assert report["algorithm"] == "dj"
                # The staged basis-change pipeline runs under every recoding.
                assert report["diagnostics"]["absorbed_equals_unabsorbed"] is True, argv


class TestEmitReport:
    def test_roundtrip_payload(self):
        p = parse_pair_spec("pair(Z2,Z2)")
        z = parse_groupoid_spec("Z2^2")
        f = StructuredRel(FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]), z, z)
        report = dj_run(DJInstance(p, p, f))
        text = emit_report(report, "json")
        assert json.loads(text) == report.to_json_dict()


class TestDeterminism:
    def test_enumerate_byte_identical_across_thread_counts(self, tmp_path):
        # Extend the parent environment so PYTHONPATH reaches the child; drop
        # PYTHONHASHSEED so every child keeps its own random set-iteration order.
        base_env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        outputs = set()
        for threads in ("1", "2", "8"):
            proc = run_cli(["enumerate", "--from", "Z2^2", "--to", "Z2^2"],
                           env={**base_env, "QCREL_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_repeated_runs_byte_identical(self, tmp_path):
        rel = FinRel(4, 4, [(0, 2), (2, 2), (1, 3), (3, 3)])
        path = write_rel(tmp_path, rel)
        args = ["grover", "--pairS", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                "--oracle", path, "--sigma", "1", "--json"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
