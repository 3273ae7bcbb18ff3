"""Command-line surface: structure checks, enumeration, and algorithm runs.

Verbs:
  verify-structure --groupoid SPEC          check the five basis laws
  enumerate --from SPEC --to SPEC           list classical relations (JSON lines)
  check-relation --from SPEC --to SPEC --rel FILE   print all five predicates
  dj --pairA PAIR --pairB PAIR --oracle FILE
  grover --pairS PAIR --pairB PAIR --oracle FILE --sigma INDEX
  homid --pairS PAIR --pairB PAIR --oracle FILE --sigma INDEX

Outputs are deterministic: pair lists are sorted and JSON keys have a fixed
order, so identical inputs produce byte-identical output.  QCREL_THREADS
is accepted and ignored; enumeration is single-threaded.  Exit codes: 0 ok,
1 input error (an input too large to hold in memory included), 2 verification
property violated.

Each process parses a spec once: ``parse_groupoid_spec``, ``parse_pair_spec``
and ``parse_pair_groups`` here are bounded caches (128 specs each) of the
``groupoids`` parsers over frozen values, so ``main`` calls share a pair and
all it keeps; a failed parse is not cached, and an explicit recoding builds a
pair per call.  Each ``main`` call builds a parser only for the verbs its
argv names: argparse picks a verb by its exact name among the argv tokens
(no aliases, abbreviations or ``@file``) and uses any other only as a choice
name and help line, recorded before ``add_parser`` asks for its parser, so
output is as with every verb's parser built; the subcommand prefix ``qcrel``
is given, as argparse would format it with no positional before the verb.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial

from .algorithms import (
    DJInstance,
    GroverInstance,
    HomIDInstance,
    RunReport,
    dj_run,
    grouphomid_run,
    grover_run,
)
from . import groupoids
from .groupoids import ComplementaryPair, Groupoid, verify_classical_structure
from .hom_relations import (
    StructuredRel,
    census_size,
    enumerate_classical_relations,
    is_classical_relation,
    is_groupoid_hom_relation,
    is_monoid_hom_relation,
    is_self_conjugate,
    is_surjective_on_objects,
)

parse_groupoid_spec = lru_cache(maxsize=128)(groupoids.parse_groupoid_spec)
parse_pair_spec = lru_cache(maxsize=128)(groupoids.parse_pair_spec)
parse_pair_groups = lru_cache(maxsize=128)(groupoids.parse_pair_groups)


def parse_relation_file(path: str | os.PathLike, source: Groupoid, target: Groupoid) -> StructuredRel:
    """Load a relation between two groupoids from the JSON interchange format,
    with validation; its sizes are checked before any of it is built."""
    with open(path, encoding="utf-8") as file:
        text = file.read()
    return StructuredRel.from_json(text, source, target)


def emit_report(report: RunReport, mode: str = "human") -> str:
    """Render a run report as JSON or a small human-readable summary."""
    payload = report.to_json_dict()
    if mode == "json":
        return json.dumps(payload)
    lines = [f"algorithm: {payload['algorithm']}"]
    for key, value in payload["instance"].items():
        lines.append(f"  {key}: {json.dumps(value)}")
    if report.algorithm == "dj":
        scalar = "possible" if payload["scalars"]["composite"] else "impossible"
        lines.append(f"decision: {payload['decision'].upper()} (scalar {scalar})")
        lines.append(f"output: {payload['possible_outcomes'][0]}")
    else:
        lines.append("possible outcomes:")
        for members in payload["possible_outcomes"]:
            lines.append(f"  {members}")
        if not payload["possible_outcomes"]:
            lines.append("  (none)")
    diag = payload["diagnostics"]
    lines.append(
        "diagnostics: "
        f"oracle_unitary={diag['oracle_unitary']} "
        f"diffusion_unitary={diag['diffusion_unitary']} "
        f"queries={diag['queries']}"
    )
    return "\n".join(lines)


def _parse_pair_argument(spec: str, recode: str | None) -> ComplementaryPair:
    pair = parse_pair_spec(spec)
    if recode is None:
        return pair
    try:
        perm = [int(v) for v in recode.split(",")]
    except ValueError as exc:
        raise ValueError(f"recode must be a comma-separated permutation, got {recode!r}") from exc
    return ComplementaryPair(pair.g, pair.h, x_recode=perm)


# The run verbs: first system's letter, blackbox role, takes --sigma, instance class,
# runner (looked up by name when called, so a tracer's wrapper sees the call).
_RUN_VERBS = {
    "dj": ("A", "blackbox", False, DJInstance, lambda inst: dj_run(inst)),
    "grover": ("S", "indicator", True, GroverInstance, lambda inst: grover_run(inst)),
    "homid": ("S", "blackbox", True, HomIDInstance, lambda inst: grouphomid_run(inst)),
}


def _add_arguments(p: argparse.ArgumentParser, verb: str) -> None:
    if verb == "verify-structure":
        p.add_argument("--groupoid", required=True, help="groupoid spec, e.g. Z2^2")
    elif verb == "enumerate":
        p.add_argument("--from", dest="source", required=True, help="source groupoid spec")
        p.add_argument("--to", dest="target", required=True, help="target groupoid spec")
        p.add_argument("--budget", type=int, default=1 << 16,
                       help="max relations listed (default 65536); a larger census is refused")
    elif verb == "check-relation":
        p.add_argument("--from", dest="source", required=True)
        p.add_argument("--to", dest="target", required=True)
        p.add_argument("--rel", required=True, help="relation file (JSON)")
    else:
        first, role, marked, _, _ = _RUN_VERBS[verb]
        p.add_argument(f"--pair{first}", required=True, help="pair spec, e.g. pair(Z2,Z2)")
        p.add_argument("--pairB", required=True)
        p.add_argument("--oracle", required=True, help=f"{role} relation file (JSON)")
        if marked:
            p.add_argument("--sigma", type=int, required=True,
                           help="index of the marking X_B-classical state")
        p.add_argument(f"--recode{first}", help=f"advanced: explicit X recoding for system {first}")
        p.add_argument("--recodeB", help="advanced: explicit X recoding for system B")
        p.add_argument("--unchecked", action="store_true",
                       help=f"skip the classical-relation check on the {role}")
    p.add_argument("--json", action="store_true")


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """Every verb, with a parser, arguments and help action for those named
    in ``argv`` (all if None); a verb not named is only a name and a help line.

    The terminal is asked for its width once: argparse's stock formatter
    asks again for each of the dozen or so formatters a build makes, and
    ``columns - 2`` is the width it would compute itself."""
    import shutil

    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="qcrel", description=__doc__.splitlines()[0],
                                     formatter_class=formatter)
    sub = parser.add_subparsers(
        dest="verb", required=True, prog="qcrel",
        parser_class=lambda **kw: argparse.ArgumentParser(**kw) if kw["add_help"] else None)
    for verb, (help_text, _) in _VERBS.items():
        named = argv is None or verb in argv
        if p := sub.add_parser(verb, help=help_text, formatter_class=formatter, add_help=named):
            _add_arguments(p, verb)
    return parser


def _sigma_state(pair: ComplementaryPair, index: int):
    states = pair.x_classical_states()
    if not (0 <= index < len(states)):
        raise ValueError(f"sigma index {index} out of range: {len(states)} classical states")
    return states[index]


# The most rows or pairs a verb builds; ``verify-structure`` fits Z160 (4.1 million rows).
_SIZE_LIMIT = 1 << 22


def _cmd_verify_structure(args) -> int:
    z = parse_groupoid_spec(args.groupoid)
    # The laws are checked on one copy of G: its |G|^2 multiplication rows,
    # and |G|^3 for the composites.
    rows = z.base.order ** 2 + z.base.order ** 3
    if rows > _SIZE_LIMIT:
        raise ValueError(f"groupoid {z.spec()} is too large to check: its laws take {rows} "
                         f"rows, above the limit of {_SIZE_LIMIT}")
    report = verify_classical_structure(z)
    if args.json:
        print(json.dumps({"groupoid": z.spec(), "laws": report.as_dict(),
                          "all_ok": report.all_ok}))
    else:
        for law, ok in report.as_dict().items():
            print(f"{law}: {'ok' if ok else 'FAILED'}")
    return 0 if report.all_ok else 2


def _cmd_enumerate(args) -> int:
    source = parse_groupoid_spec(args.source)
    target = parse_groupoid_spec(args.target)
    pairs = census_size(source, target, args.budget)
    if pairs > _SIZE_LIMIT:
        raise ValueError(f"census {source.spec()} -> {target.spec()} is too large to list: it "
                         f"holds {pairs} pairs, above the limit of {_SIZE_LIMIT}")
    for rel in enumerate_classical_relations(source, target, max_relations=args.budget):
        print(rel.to_json())
    return 0


def _cmd_check_relation(args) -> int:
    source = parse_groupoid_spec(args.source)
    target = parse_groupoid_spec(args.target)
    # The multiplicative equation builds both multiplications and R x R.
    rows = 2 * source.size ** 2 + target.size ** 2
    if rows > _SIZE_LIMIT:
        raise ValueError(f"relations {source.spec()} -> {target.spec()} are too large to check: "
                         f"their predicates take {rows} rows, above the limit of {_SIZE_LIMIT}")
    s = parse_relation_file(args.rel, source, target)
    pairs = sum(map(len, s.rel.rows)) ** 2
    if pairs > _SIZE_LIMIT:
        raise ValueError(f"relation {source.spec()} -> {target.spec()} is too large to check: "
                         f"R x R holds {pairs} pairs, above the limit of {_SIZE_LIMIT}")
    verdicts = {
        "groupoid_hom": is_groupoid_hom_relation(s),
        "surjective_on_objects": is_surjective_on_objects(s),
        "monoid_hom": is_monoid_hom_relation(s),
        "classical": is_classical_relation(s),
        "self_conjugate": is_self_conjugate(s),
    }
    if args.json:
        print(json.dumps({"from": source.spec(), "to": target.spec(),
                          "rel": s.rel.to_json_dict(), "predicates": verdicts}))
    else:
        for name, ok in verdicts.items():
            print(f"{name}: {str(ok).lower()}")
    return 0


def _cmd_run(args) -> int:
    first, _, marked, instance, run = _RUN_VERBS[args.verb]
    spec_in = getattr(args, f"pair{first}")
    (g, h), (g_b, h_b) = map(parse_pair_groups, (spec_in, args.pairB))
    # A pair holds up to about 1.2 kB per element (its recodings, complementarity check and
    # classical states), 32 times the 36 bytes of a table entry or a state's pair, so an element
    # counts 32 rows.  The kickback reads G's table; a run builds nothing else that large.
    rows = 32 * (g.order * h.order + g_b.order * h_b.order) + g.order ** 2
    if rows > _SIZE_LIMIT:
        raise ValueError(f"{args.verb} run pair({g.spec()},{h.spec()}) -> "
                         f"pair({g_b.spec()},{h_b.spec()}) is too large to hold: it takes "
                         f"{rows} rows, above the limit of {_SIZE_LIMIT}")
    pair_in = _parse_pair_argument(spec_in, getattr(args, f"recode{first}"))
    pair_b = _parse_pair_argument(args.pairB, args.recodeB)
    f = parse_relation_file(args.oracle, pair_in.z, pair_b.z)
    sigma = (_sigma_state(pair_b, args.sigma),) if marked else ()
    report = run(instance(pair_in, pair_b, f, *sigma, unchecked=args.unchecked))
    print(emit_report(report, "json" if args.json else "human"))
    return 0


# Every verb, in help order: help, command.
_VERBS = {
    "verify-structure": ("check the five classical-structure laws", _cmd_verify_structure),
    "enumerate": ("list all classical relations between two groupoids", _cmd_enumerate),
    "check-relation": ("evaluate all five predicates for a relation", _cmd_check_relation),
    "dj": ("run the constant-vs-balanced distinguisher", _cmd_run),
    "grover": ("run the single-step search", _cmd_run),
    "homid": ("run the homomorphism identification step", _cmd_run),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; code 2 is reserved for property
        # violations, so malformed invocations report as input errors.
        return 0 if exc.code == 0 else 1
    try:
        return _VERBS[args.verb][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # reported below, once the traceback and the frames it holds are freed
    except AssertionError as exc:
        print(f"error: verification property violated: {exc}", file=sys.stderr)
        return 2
    print("error: out of memory: the input is too large to hold", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
