"""The qcrel benchmark: one closed-loop caller driving the CLI in-process.

Usage, from the root of a checkout:

    python3 qcbench/run.py --workload {pipeline,census,classify} --seed N \
        --seconds S --trace {0,1}

Each op calls ``qcrel.cli.main([..., "--json"])`` with stdout captured, on
inputs generated from the seed (see `workloads`), and its output is checked
(see `checks`) before it counts.  The package is imported from ``src/`` of
this checkout without installing it, as the Tier-1 tests run it.  One
process runs one workload with one thread, so ``peak_rss_mb`` belongs to that
workload alone.

``--trace 0`` measures the end-to-end metrics with tracing off: whole
rotations of the workload's ops until the next one would pass ``--seconds``.
``--trace 1`` reports the per-layer metrics instead: it alternates an
untraced and a traced pass over the first rotation until ``--seconds`` is
used, compares the two outputs of every op byte for byte, and writes the
spans of the first traced pass to ``.qcbench_run/spans-<workload>.jsonl``.

The last stdout line is the result object; the line before it holds the
environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".qcbench_run"
SETUP_REPEATS = 9

from checks import CheckFailed, Checker  # noqa: E402  (BENCH is sys.path[0] when run as a script)
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, generate, materialize  # noqa: E402

SPEC_FLAGS = {"--from": "parse_groupoid_spec", "--to": "parse_groupoid_spec",
              "--groupoid": "parse_groupoid_spec", "--pairA": "parse_pair_spec",
              "--pairB": "parse_pair_spec", "--pairS": "parse_pair_spec"}


def import_cli():
    """Import ``qcrel.cli`` from this checkout's ``src/`` into this process."""
    src = ROOT / "src"
    if not (src / "qcrel" / "cli.py").is_file():
        raise FileNotFoundError(f"no qcrel sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("qcrel.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"qcrel was imported from {cli.__file__}, not from {src}")
    return cli


# Timed inside the child, so interpreter start-up is left out.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import qcrel.cli; print(time.perf_counter() - start, qcrel.cli.__file__)")


def cold_import_s() -> float:
    """Seconds to import ``qcrel.cli`` in a fresh interpreter.

    Every sample pays for every module the package pulls in, its own and the
    standard library's, as a user's first call does."""
    src = ROOT / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise ImportError(f"cannot import qcrel.cli from {src}: {proc.stderr.strip()[-300:]}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent.parent != src.resolve():
        raise ImportError(f"the import probe loaded qcrel from {path.strip()}, not from {src}")
    return float(seconds)


@dataclass
class Setup:
    cli: object
    rotations: list
    checker: Checker


def set_up(cli, workload: str, seed: int, workdir: Path) -> tuple[list, float, float]:
    """The program's set-up: a cold import of ``qcrel.cli``, then input
    generation, writing the relation files and parsing every spec.  The child
    interpreter's own start-up is not counted.

    Returns (rotations, set-up seconds, import seconds)."""
    import_s = cold_import_s()
    start = perf_counter()
    rotations, files = generate(workload, seed)
    rotations = materialize(rotations, files, workdir)
    for op in rotations[0]:
        for flag, value in zip(op.argv, op.argv[1:]):
            if flag in SPEC_FLAGS:
                getattr(cli, SPEC_FLAGS[flag])(value)
    return rotations, import_s + perf_counter() - start, import_s


def run_op(cli, argv) -> tuple[int | None, str, float]:
    """One CLI call: (exit code or None if it raised, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # an escaping exception is a failed op, not a dead benchmark
        rc = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return rc, out.getvalue(), seconds


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, setup: Setup, op, rc, out, untraced_out: str | None = None) -> None:
        """Count one op; with ``untraced_out``, its stdout must also equal that."""
        self.attempted += 1
        try:
            setup.checker(op, rc, out)
            if untraced_out is not None and out != untraced_out:
                raise CheckFailed("stdout differs with tracing on")
        except CheckFailed as exc:
            self.failed += 1
            self.note(f"{' '.join(op.argv[:5])}: {exc}")

    def note(self, message: str) -> None:
        if len(self.messages) < 5:
            self.messages.append(message)


def high_percentile(sorted_values: list[float], q: float = 0.9) -> tuple[float, float]:
    """Nearest-rank percentile q, lowered until at least 10 samples lie above it.

    Returns (value, percentile actually used)."""
    n = len(sorted_values)
    k = max(0, min(math.ceil(q * n) - 1, n - 11))
    return sorted_values[k], 100.0 * (k + 1) / n


def measure_end_to_end(setup: Setup, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Whole rotations, cycled, until the next one would pass ``seconds``."""
    latencies = []
    rotations = 0
    start = perf_counter()
    while True:
        for op in setup.rotations[rotations % len(setup.rotations)]:
            rc, out, dt = run_op(setup.cli, op.argv)
            latencies.append(dt)
            tally.check(setup, op, rc, out)
        rotations += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rotations > seconds:
            break
    # The rate is over the ops' own time, so the output checks between them do not count.
    timed = sum(latencies)
    latencies.sort()
    p90, p90_rank = high_percentile(latencies)
    metrics = {
        "ops_per_s": ((tally.attempted - tally.failed) / timed, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
    }
    details = {"samples": len(latencies), "rotations": rotations, "timed_s": timed,
               "wall_s": elapsed, "op_p90_percentile": p90_rank}
    return metrics, details


def measure_layers(setup: Setup, workload: str, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced passes over the first rotation, in pairs, until ``seconds``."""
    ops = setup.rotations[0]
    passes, plain_rates, traced_rates = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain = []
        for op in ops:
            rc, out, _ = run_op(setup.cli, op.argv)
            tally.check(setup, op, rc, out)
            plain.append(out)
        plain_rates.append(len(ops) / (perf_counter() - began))
        traced_began = perf_counter()
        with Tracer() as tracer:
            for i, op in enumerate(ops):
                tracer.op_id = i
                rc, out, _ = run_op(setup.cli, op.argv)
                tally.check(setup, op, rc, out, untraced_out=plain[i])
        traced_rates.append(len(ops) / (perf_counter() - traced_began))
        passes.append(tracer.layer_metrics())
        if len(passes) == 1:
            first = tracer
        pair_s = perf_counter() - began
        if perf_counter() - start + pair_s > seconds:
            break
    first.write(OUT / f"spans-{workload}.jsonl")
    unsteady = [name for name, value in passes[0].items()
                if not name.endswith("self_s") and any(p[name] != value for p in passes)]
    if unsteady:
        tally.note(f"counts differ between traced passes of one op list: {unsteady}")
    # Counts repeat exactly (checked above); times are the median over passes.
    metrics = {name: (statistics.median(p[name] for p in passes) if name.endswith("self_s") else value,
                      _unit(name)) for name, value in passes[0].items()}
    plain_rate, traced_rate = statistics.median(plain_rates), statistics.median(traced_rates)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - plain_rate, "1/s")
    # Each layer's self time over all layers' self time, which covers the whole of every op.
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    share = {layer: metrics[f"{layer}.self_s"][0] / total for layer in LAYERS}
    details = {"passes": len(passes), "ops_per_pass": len(ops), "unsteady_counts": unsteady,
               "layer_self_share": share,
               "spans_file": str((OUT / f"spans-{workload}.jsonl").relative_to(ROOT))}
    return metrics, details


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def threads_problem() -> str | None:
    """Why the run cannot stand for the single-threaded program, or None.

    ``QCREL_THREADS`` above 1 makes enumeration use a thread pool, which the
    closed loop and the tracer's one span stack do not allow for; the
    benchmark records the knob and never sets it."""
    raw = os.environ.get("QCREL_THREADS", "").strip()
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        return f"QCREL_THREADS={raw!r} is not an integer"
    return f"QCREL_THREADS={threads} runs enumeration on {threads} threads" if threads > 1 else None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "qcrel_threads_set": "QCREL_THREADS" in os.environ,
        "import_path": "src (uninstalled checkout)",
        "caller": "closed loop, 1 caller, 1 thread, in-process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    setup_s, import_s = [], []
    try:
        cli = import_cli()
        # The benchmark's own expectations, computed once and not timed as set-up.
        checker = Checker(ROOT)
        for _ in range(SETUP_REPEATS):
            # Only the last set-up is kept, so earlier ones add no memory or GC work.
            rotations, seconds, imported = set_up(cli, args.workload, args.seed, workdir)
            setup_s.append(seconds)
            import_s.append(imported)
    except (OSError, ImportError, ValueError, subprocess.SubprocessError) as exc:
        print(f"qcbench: cannot set up: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2
    setup = Setup(cli, rotations, checker)
    tally = Tally()
    try:
        if args.trace:
            metrics, details = measure_layers(setup, args.workload, args.seconds, tally)
            metrics["cli.import_s"] = (statistics.median(import_s), "s")
        else:
            metrics, details = measure_end_to_end(setup, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problem = threads_problem()
    details.update(attempted=tally.attempted, failed=tally.failed,
                   failed_frac=tally.failed / tally.attempted, failures=tally.messages,
                   setup_s_each=setup_s, import_s_each=import_s, threads_problem=problem)
    print(json.dumps({"environment": environment(args), "details": details}))
    print(json.dumps({
        "correct": tally.failed == 0 and not details.get("unsteady_counts") and problem is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
