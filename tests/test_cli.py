import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcrel import algorithms, cli, groupoids, hom_relations, relations
from qcrel.algorithms import DJInstance, dj_run
from qcrel.cli import emit_report, main, parse_relation_file
from qcrel.groupoids import ComplementaryPair, LawReport, parse_groupoid_spec, parse_pair_spec
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

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_failed_law_exits_2(self, json_flag, monkeypatch, capsys):
        # No parsed groupoid fails a law, so the verdict is patched in.
        failed = LawReport(True, True, False, True, True)
        monkeypatch.setattr(cli, "verify_classical_structure", lambda z: failed)
        assert main(["verify-structure", "--groupoid", "Z2", *["--json"] * json_flag]) == 2
        out = capsys.readouterr().out
        if json_flag:
            assert json.loads(out) == {"groupoid": "Z2", "laws": failed.as_dict(), "all_ok": False}
        else:
            assert out == ("coassociative: ok\ncounital: ok\nfrobenius: FAILED\nspecial: ok\n"
                           "symmetric: ok\n")


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


def cap_address_space(limit=1 << 30):
    """An address-space cap for a child, 1 GB unless ``limit`` says, which
    turns a run that would fill the machine into a fast MemoryError."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


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


# Runs the CLI on the arguments given, with no size limit.
UNLIMITED_CLI = """
import sys
from qcrel import cli
cli._SIZE_LIMIT = float("inf")
raise SystemExit(cli.main(sys.argv[1:]))
"""


class TestOutOfMemory:
    def test_pair_too_large_to_hold_is_input_error(self, tmp_path):
        # With the size limit lifted, nothing refuses this pair before its
        # recoding and block index are built, and those outgrow the capped
        # address space.  A 256 MB cap reaches the MemoryError sooner than
        # the shared 1 GB one.
        path = write_rel(tmp_path, identity(4))
        proc = subprocess.run(
            [sys.executable, "-c", UNLIMITED_CLI, "dj", "--pairA", "pair(Z1,Z3000000)",
             "--pairB", "pair(Z2,Z2)", "--oracle", path],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: cap_address_space(1 << 28))
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

    # A run kicks its query back through the oracle's block index and builds
    # no n^2-row relation, so n = 1024 fits where a built oracle would not.
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

    def test_cnot_on_pair_z32_stays_under_150_mb(self):
        # cnot writes its n^2 = 2^20 rows straight from the block index, with
        # no identity relation on n^2 rows built beside them.  The child uses
        # the release allocator even in development mode, whose debug hooks
        # would add their own bytes to each of those rows.
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-c",
             "from qcrel.groupoids import cnot, parse_pair_spec; "
             "cnot(parse_pair_spec('pair(Z32,Z32)'))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONMALLOC": "pymalloc"})
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 150 * 1024

    def test_search_over_8192_x_copies_stays_under_60_mb(self, tmp_path):
        # |H| = 8192: the search folds its reflection in closed form, with no
        # |H|^2 relation built, so the run is admitted and stays small.
        path = write_rel(tmp_path, FinRel(8192, 2, ((a, b) for a in range(8192) for b in (0, 1))))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PROBE, sys.executable, "-m", "qcrel.cli", "grover",
             "--pairS", "pair(Z1,Z8192)", "--pairB", "pair(Z2,Z1)", "--sigma", "1",
             "--oracle", path],
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

    def test_cli_does_not_import_pathlib(self):
        # Without site, nothing else loads pathlib: the relation file is read
        # with open().
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, str(src), "pathlib"],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestUnreadableRelationFile:
    """An unreadable relation file exits 1 with the operating system's message."""

    def test_missing_oracle(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)",
                     "--oracle", path]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_directory_as_rel(self, tmp_path, capsys):
        assert main(["check-relation", "--from", "Z2", "--to", "Z2",
                     "--rel", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


class TestVerificationPropertyViolated:
    """A failed internal cross-check exits 2 with one message line, not a traceback."""

    def run_dj(self, tmp_path):
        path = write_rel(tmp_path, FinRel(4, 4, [(0, 0), (0, 1), (2, 0), (2, 1)]))
        return main(["dj", "--pairA", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", path])

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
        assert [a.option_strings for a in parsers["enumerate"]._actions] == [
            ["-h", "--help"], ["--from"], ["--to"], ["--budget"], ["--json"]]
        assert [verb for verb, p in parsers.items() if p is not None] == ["enumerate"]

    @pytest.mark.parametrize("argv,built", [
        (["enumerate", "--from", "Z2", "--to", "Z2"], 2), (["dj", "--help"], 2),
        (["--help"], 1), (None, 1 + len(VERBS)),
    ])
    def test_parsers_built_per_call(self, argv, built, monkeypatch):
        # The top parser, and one per verb the argv names.
        inits = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: inits.append(self) or init(self, *a, **kw))
        cli._build_parser(argv)
        assert len(inits) == built

    def test_given_prefix_is_the_one_argparse_formats(self):
        # The full parser passes the same prefix as the per-verb one, so the
        # equivalence tests above cannot catch a wrong one: compare with a
        # stock parser that lets argparse format it.
        stock = argparse.ArgumentParser(prog="qcrel").add_subparsers(dest="verb", required=True)
        full = verb_parsers(cli._build_parser())
        for verb in VERBS:
            expected = stock.add_parser(verb).prog
            assert full[verb].prog == expected
            assert verb_parsers(cli._build_parser([verb]))[verb].prog == expected


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


class TestHelpWidth:
    """``main`` asks the terminal for its width once per call, and prints
    what argparse's stock formatter, which asks per formatter, prints."""

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", [
        ["--help"], *([verb, "--help"] for verb in VERBS), ["dj", "--pairA"],
    ], ids=" ".join)
    def test_same_as_stock_formatter(self, argv, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        got = self.outcome(argv)
        monkeypatch.setattr(cli, "partial", lambda formatter_class, **kwargs: formatter_class)
        assert got == self.outcome(argv)
        assert got[0] in (0, 1) and got[1] + got[2]

    def test_terminal_asked_once(self, monkeypatch, capsys):
        asked = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: asked.append(a) or size(*a))
        assert main(["verify-structure", "--groupoid", "Z2", "--json"]) == 0
        assert main(["dj", "--help"]) == 0
        assert len(asked) == 2


class TestVerifyStructureBudget:
    """A groupoid whose law check would build more than ``_SIZE_LIMIT``
    rows (|G|^2 for the multiplication of one copy of G, |G|^3 for its laws)
    is refused before any table is built; the number of copies costs
    nothing."""

    @pytest.mark.parametrize("spec,rows", [("Z2000", 2000 ** 2 + 2000 ** 3)])
    def test_oversized_groupoid_is_input_error(self, spec, rows):
        proc = run_cli(["verify-structure", "--groupoid", spec], timeout=60,
                       preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: groupoid {spec} is too large to check: its laws take {rows} rows, "
                   f"above the limit of {1 << 22}\n")

    @pytest.mark.parametrize("spec", ["Z2^2000", "Z1^1000000"])
    def test_many_copies_are_admitted(self, spec):
        proc = run_cli(["verify-structure", "--groupoid", spec], timeout=60,
                       preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "".join(
            f"{law}: ok\n" for law in ("coassociative", "counital", "frobenius", "special",
                                        "symmetric")), "")

    def test_limit_is_inclusive(self, monkeypatch, capsys):
        # Z4^2: 4^2 + 4^3 = 80 rows.
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 80)
        assert main(["verify-structure", "--groupoid", "Z4^2"]) == 0
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 79)
        assert main(["verify-structure", "--groupoid", "Z4^2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: groupoid Z4^2 is too large to check: its laws take 80 "
                                "rows, above the limit of 79\n")


class TestCheckRelationBudget:
    """Groupoids whose multiplicative equation would build more than
    ``_SIZE_LIMIT`` rows (n^2 for the source's multiplication and for R x R
    each, and n^2 for the target's) are refused before the file is read."""

    @pytest.mark.parametrize("source,target,rows", [("Z1", "Z3000", 2 + 3000 ** 2),
                                                    ("Z3000", "Z1", 2 * 3000 ** 2 + 1)])
    def test_oversized_groupoids_are_input_error(self, source, target, rows, tmp_path):
        # The file does not exist: it is never opened.
        proc = run_cli(["check-relation", "--from", source, "--to", target,
                        "--rel", str(tmp_path / "missing.json")], timeout=60,
                       preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: relations {source} -> {target} are too large to check: their "
                   f"predicates take {rows} rows, above the limit of {1 << 22}\n")

    def test_limit_is_inclusive(self, tmp_path, monkeypatch, capsys):
        # Z2 -> Z4: 2 * 2^2 + 4^2 = 24 rows.
        argv = ["check-relation", "--from", "Z2", "--to", "Z4",
                "--rel", write_rel(tmp_path, FinRel(2, 4, [(0, 0), (1, 2)]))]
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 24)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 23)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: relations Z2 -> Z4 are too large to check: "
                                           "their predicates take 24 rows, above the limit of 23\n")


class TestCheckRelationPairBudget:
    """A relation whose R x R would hold more than ``_SIZE_LIMIT`` pairs is
    refused after the file is decoded and before any predicate runs."""

    def test_dense_relation_is_input_error(self, tmp_path):
        # Every identity maps only to an identity, so the multiplicative
        # equation is reached: 3541^2 pairs in R x R.
        pairs = [(0, 0), *((a, b) for a in range(1, 60) for b in range(60))]
        path = write_rel(tmp_path, FinRel(60, 60, pairs))
        proc = run_cli(["check-relation", "--from", "Z60", "--to", "Z60", "--rel", path],
                       timeout=60, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: relation Z60 -> Z60 is too large to check: R x R holds "
                   f"{3541 ** 2} pairs, above the limit of {1 << 22}\n")

    def test_limit_is_inclusive(self, tmp_path, monkeypatch, capsys):
        # Z2 -> Z2: 2 * 2^2 + 2^2 = 12 rows, and the full relation's R x R
        # holds 4^2 = 16 pairs.
        argv = ["check-relation", "--from", "Z2", "--to", "Z2",
                "--rel", write_rel(tmp_path, FinRel(2, 2, itertools.product(range(2), repeat=2)))]
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 16)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 15)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: relation Z2 -> Z2 is too large to check: "
                                           "R x R holds 16 pairs, above the limit of 15\n")


class TestEnumeratePairBudget:
    """A census whose relations take more than ``_SIZE_LIMIT`` rows and pairs
    together (a row per source element and |H| pairs per source copy of
    each) is refused before any of it is built."""

    # Each census holds one relation, of a row per source element and a pair per target one.
    @pytest.mark.parametrize("source,target,rows", [
        pytest.param(source, target, rows, id=f"{source}-{target}") for source, target, rows in [
            ("Z1", "Z100000000", 1 + 10 ** 8), ("Z1^100000000", "Z1", 2 * 10 ** 8),
            ("Z67108864", "Z1", 67108864 + 1), ("Z4194304", "Z1", 4194304 + 1),
            ("Z1", "Z4194304", 1 + 4194304)]])
    def test_oversized_census_is_input_error(self, source, target, rows):
        proc = run_cli(["enumerate", "--from", source, "--to", target], timeout=60,
                       preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: census {source} -> {target} is too large to list: its relations "
                   f"take {rows} rows and pairs, above the limit of {1 << 22}\n")

    def test_limit_is_inclusive(self, monkeypatch, capsys):
        # Z2^2 -> Z2^2: 16 relations of 4 rows and 2 copies x 2 pairs, 128 rows and pairs.
        argv = ["enumerate", "--from", "Z2^2", "--to", "Z2^2"]
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 128)
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 16
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 127)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: census Z2^2 -> Z2^2 is too large to list: "
                                           "its relations take 128 rows and pairs, above the "
                                           "limit of 127\n")

    def test_relation_budget_is_checked_first(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 1)
        assert main(["enumerate", "--from", "Z2^2", "--to", "Z2^2", "--budget", "15"]) == 1
        assert capsys.readouterr().err == (
            "error: census has 4^2 = 16 classical relations, beyond the budget of 15\n")

    @pytest.mark.parametrize("budget", ["0", "-5", "1"])
    def test_refusal_states_the_count_whatever_the_budget(self, budget, capsys):
        assert main(["enumerate", "--from", "Z2", "--to", "Z2", "--budget", budget]) == 1
        assert capsys.readouterr() == ("", "error: census has 2^1 = 2 classical relations, "
                                           f"beyond the budget of {budget}\n")


class TestRunBudget:
    """A run whose pairs and table would take more than ``_SIZE_LIMIT`` rows
    (32 per pair element and |G|^2 for the first system's table, which the
    kickback reads) is refused before either pair is built.  Nothing else a
    run builds is counted: it builds no other table, state or reflection
    that large."""

    @pytest.mark.parametrize("verb,pair_in,rows", [
        ("dj", "pair(Z1,Z3000000)", 32 * (3000000 + 4) + 1),
        ("grover", "pair(Z1,Z200000)", 32 * (200000 + 4) + 1),
        ("homid", "pair(Z3000,Z1)", 32 * (3000 + 4) + 3000 ** 2),
    ])
    def test_oversized_run_is_input_error(self, verb, pair_in, rows, tmp_path):
        # The file does not exist: it is never opened.
        first, sigma = ("A", []) if verb == "dj" else ("S", ["--sigma", "0"])
        proc = run_cli([verb, f"--pair{first}", pair_in, "--pairB", "pair(Z2,Z2)", *sigma,
                        "--oracle", str(tmp_path / "missing.json")],
                       timeout=60, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {verb} run {pair_in} -> pair(Z2,Z2) is too large to hold: it takes "
                   f"{rows} rows, above the limit of {1 << 22}\n")

    @pytest.mark.parametrize("verb,rows", [("dj", 260), ("grover", 260), ("homid", 260)])
    def test_limit_is_inclusive(self, verb, rows, tmp_path, monkeypatch, capsys):
        # pair(Z2,Z2) -> pair(Z2,Z2): 32 * 8 + 2^2 = 260 rows for every verb.
        path = write_rel(tmp_path, identity(4))
        first, sigma = ("A", []) if verb == "dj" else ("S", ["--sigma", "0"])
        argv = [verb, f"--pair{first}", "pair(Z2,Z2)", "--pairB", "pair(Z2,Z2)", "--oracle", path,
                *sigma, "--json"]
        monkeypatch.setattr(cli, "_SIZE_LIMIT", rows)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == verb
        monkeypatch.setattr(cli, "_SIZE_LIMIT", rows - 1)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {verb} run pair(Z2,Z2) -> pair(Z2,Z2) is too "
                                           f"large to hold: it takes {rows} rows, above the "
                                           f"limit of {rows - 1}\n")

    @pytest.mark.parametrize("verb", ["dj", "grover", "homid"])
    def test_second_pair_counts_its_product(self, verb, tmp_path, monkeypatch, capsys):
        # pair(Z2,Z2) -> pair(Z3,Z4): 32 * (4 + 12) + 2^2 = 516 rows, where
        # |G_B| + |H_B| in place of |G_B||H_B| would give 356.
        rel = enumerate_classical_relations(parse_groupoid_spec("Z2^2"),
                                            parse_pair_spec("pair(Z3,Z4)").z)[0]
        first, sigma = ("A", []) if verb == "dj" else ("S", ["--sigma", "0"])
        argv = [verb, f"--pair{first}", "pair(Z2,Z2)", "--pairB", "pair(Z3,Z4)",
                "--oracle", write_rel(tmp_path, rel), *sigma, "--json"]
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 516)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == verb
        monkeypatch.setattr(cli, "_SIZE_LIMIT", 515)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {verb} run pair(Z2,Z2) -> pair(Z3,Z4) is too "
                                           f"large to hold: it takes 516 rows, above the limit "
                                           f"of 515\n")


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


class TestRunsAreTheKickback:
    """A run evaluates its query by the kickback alone: with the staged
    engines it replaced, and the relation algebra they were built from, made
    to raise wherever a module binds them, every kind of golden case prints
    the same bytes."""

    @pytest.mark.parametrize("verb", ["dj", "dj_recoded", "grover", "homid"])
    def test_golden_bytes_without_push_basis_change_or_reflection(self, verb, tmp_path, capsys,
                                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run reached a staged engine")

        monkeypatch.setattr(groupoids._ControlledBlocks, "expand", refuse)
        for module in (relations, groupoids, hom_relations, algorithms):
            for name in ("then", "tensor", "symmetric_difference", "is_unitary", "fourier_rel",
                         "grover_diffusion"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        path = tmp_path / "oracle.json"
        for case in first_golden_case_of_each_kind(verb):
            path.write_text(json.dumps(case["oracle"]))
            argv = [str(path) if a == "{oracle}" else a for a in case["argv"]]
            assert (main(argv), capsys.readouterr().out) == (case["exit"], case["stdout"]), argv


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
                # The staged basis-change pipeline equals the run's under every
                # recoding; the tests compare the two, and the report says so.
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
