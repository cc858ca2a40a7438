"""hvlab benchmark: time to verdict of the CLI on seeded workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``hvlab.cli.main`` from ``src/`` in this process, on one thread,
over the workload's seeded command list (see workloads.py), with stdout
captured in memory.  An untimed warm-up pass comes first; timed passes
follow until ``--seconds`` have elapsed (at least three).  Every pass
goes through the correctness gate.  The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` (report rows over the
timed passes, and those whose verdict is FAIL) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time,
pass wall time, rows per second, the share of rows that pass and the
tracemalloc peak of one extra untimed pass.  With ``--trace 1`` half of
the time runs untraced and half traced (see tracing.py); the metrics are
per-layer self times and counters, and the spans are written to
``.bench_build/traces/``.  README.md in this directory explains each
metric and workload.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "traces"

MIN_PASSES = 3
SETUP_RUNS = 9

# One thread: the BLAS/OpenMP pools, pinned before hvlab imports numpy.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

# What a CLI invocation pays before any experiment runs, timed inside a
# fresh interpreter so that interpreter start-up is left out.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import hvlab, hvlab.cli
from hvlab.oracle import BASIS_KINDS, build_basis
hvlab.cli.build_parser()
for kind in BASIS_KINDS:
    build_basis(kind)
print(repr(time.perf_counter() - start))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "row_pass_ratio": "ratio", "peak_alloc_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def check_sources() -> None:
    if not (SRC / "hvlab" / "cli.py").is_file():
        raise BenchError(f"no hvlab sources under {SRC}")


def measure_setup() -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class SetupSampler:
    """Times ``runs`` fresh interpreters at evenly spaced points of the
    timed passes, so that their median covers the whole run rather than
    one moment of a machine whose speed drifts."""

    def __init__(self, runs: int, budget: float) -> None:
        self.runs = runs
        self.budget = budget
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < self.runs and elapsed >= len(self.times) * self.budget / self.runs:
            self.times.append(measure_setup())

    def finish(self) -> list[float]:
        while len(self.times) < self.runs:
            self.times.append(measure_setup())
        return self.times


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import hvlab.cli
    except ImportError as exc:
        raise BenchError(f"cannot import hvlab from {SRC}: {exc}") from None
    if Path(hvlab.cli.__file__).resolve() != (SRC / "hvlab" / "cli.py").resolve():
        raise BenchError(f"imported {hvlab.cli.__file__}, not the sources under {SRC}")
    return hvlab.cli


def source_rev() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hvlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return "src-sha256:" + digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# passes


def run_pass(main, commands, keep_text: bool) -> tuple[float, list[tuple]]:
    """Wall time of one pass and (exit code, stdout digest, stdout or None,
    wall time) per command.  Capturing and digesting stdout is part of
    the pass."""
    gc.collect()
    start = time.perf_counter()
    results = []
    for command in commands:
        began = time.perf_counter()
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            try:
                code = main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = "exception"
        text = buffer.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        results.append((code, digest, text if keep_text else None, time.perf_counter() - began))
    return time.perf_counter() - start, results


def parse_rows(fmt: str, text: str) -> tuple[list[str], list[bool], list[str]]:
    """Experiment names, verdicts and leading note lines of one command's stdout."""
    if fmt == "json":
        payload = json.loads(text)
        verdicts = [row["pass"] for row in payload]
        if not all(isinstance(v, bool) for v in verdicts):
            raise ValueError("non-boolean pass value")
        return [row["experiment"] for row in payload], verdicts, []
    if fmt == "csv":
        header, *body = csv.reader(io.StringIO(text))
        column = header.index("pass")
        cells = [row[column] for row in body]
        if not set(cells) <= {"true", "false"}:
            raise ValueError("pass column holds something other than true/false")
        return [row[0] for row in body], [cell == "true" for cell in cells], []
    lines = text.splitlines()
    notes = []
    while lines and not lines[0].startswith("experiment"):
        notes.append(lines.pop(0))
    tokens = [line.split() for line in lines[1:]]
    if any(tok[-1] not in ("pass", "FAIL") for tok in tokens):
        raise ValueError("table row without a pass/FAIL verdict")
    return [tok[0] for tok in tokens], [tok[-1] == "pass" for tok in tokens], notes


class Gate:
    """Checks the first pass against the manifest and every later pass
    against the first (exit codes and stdout digests)."""

    def __init__(self, commands) -> None:
        self.commands = commands
        self.rows = sum(command.row_count for command in commands)
        self.failed_rows = 0
        self.reference: list[tuple] = []
        self.errors: list[str] = []

    def first(self, results) -> None:
        for command, (code, _, text, _) in zip(self.commands, results):
            label = " ".join(command.argv)
            try:
                names, verdicts, notes = parse_rows(command.fmt, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.errors.append(f"{label}: unreadable output ({exc})")
                continue
            expected = [name for name, count in command.rows for _ in range(count)]
            if names != expected:
                self.errors.append(f"{label}: rows {len(names)} do not match the manifest ({len(expected)})")
            if command.note is not None and not any(note.startswith(command.note) for note in notes):
                self.errors.append(f"{label}: missing note {command.note!r}")
            if command.note is None and notes:
                self.errors.append(f"{label}: unexpected note {notes[0]!r}")
            failed = verdicts.count(False)
            if code != (1 if failed else 0):
                self.errors.append(f"{label}: exit code {code} with {failed} failing rows")
            self.failed_rows += failed
        self.reference = [(code, digest) for code, digest, _, _ in results]

    def check(self, results) -> None:
        for command, expected, (code, digest, _, _) in zip(self.commands, self.reference, results):
            if (code, digest) != expected:
                self.errors.append(f"{' '.join(command.argv)}: output differs between passes")


def timed_passes(
    main, commands, gate: Gate, budget: float, tracer=None, between=None
) -> tuple[list[float], list[list[float]]]:
    """Pass times and per-command times of the passes run within ``budget``.
    With a tracer, each pass gets its own pass id; ``between`` is called
    with the elapsed time after each pass."""
    times: list[float] = []
    per_command: list[list[float]] = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < budget:
        if tracer is not None:
            tracer.pass_id = len(times)
        seconds, results = run_pass(main, commands, keep_text=False)
        gate.check(results)
        times.append(seconds)
        per_command.append([result[3] for result in results])
        if between is not None:
            between(time.perf_counter() - start)
    return times, per_command


def command_stats(commands, per_command: list[list[float]]) -> list[list]:
    """[argv, fastest, median] wall time of each command."""
    return [
        [" ".join(command.argv), min(column), statistics.median(column)]
        for command, column in zip(commands, zip(*per_command))
    ]


def peak_alloc_bytes(main, commands, gate: Gate) -> int:
    tracemalloc.start()
    try:
        _, results = run_pass(main, commands, keep_text=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check(results)
    return peak


def traced_run(main, commands, gate: Gate, workload: str, budget: float):
    """Per-layer metrics (medians over traced passes), the traced pass
    times and the tracer holding the spans."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
    except RuntimeError as exc:
        raise BenchError(f"cannot trace: {exc}") from None
    try:
        times, _ = timed_passes(main, commands, gate, budget, tracer)
    finally:
        tracer.uninstall()
    per_pass = [tracer.layer_metrics(k) for k in range(len(times))]
    for k in range(len(times)):
        missing = set(tracing.EXPECTED_SPANS[workload]) - tracer.fired(k)
        if missing:
            gate.errors.append(f"traced pass {k}: spans never fired: {sorted(missing)}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, times, tracer


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    commands = workloads.generate(args.workload, args.seed, args.samples)
    check_sources()
    measure_setup()  # untimed: fills the bytecode and file caches
    cli = load_cli()
    import numpy

    gate = Gate(commands)
    _, warm = run_pass(cli.main, commands, keep_text=True)
    gate.first(warm)
    del warm

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": args.samples,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": source_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": THREAD_ENV,
        "commands": len(commands),
        "rows_per_pass": gate.rows,
        "failed_rows_per_pass": gate.failed_rows,
    }
    if args.trace:
        plain, _ = timed_passes(cli.main, commands, gate, args.seconds / 2)
        layers, traced, tracer = traced_run(cli.main, commands, gate, args.workload, args.seconds / 2)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {name: metric(value, tracing.UNITS[name]) for name, value in layers.items()}
        meta.update(untraced_pass_s=plain, traced_pass_s=traced)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}.json", meta)
        passes = len(plain) + len(traced)
    else:
        sampler = SetupSampler(SETUP_RUNS, args.seconds)
        times, per_command = timed_passes(cli.main, commands, gate, args.seconds, between=sampler)
        setup_times = sampler.finish()
        peak = peak_alloc_bytes(cli.main, commands, gate)
        wall = statistics.median(times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "rows_per_s": gate.rows / wall,
            "row_pass_ratio": 1.0 - gate.failed_rows / gate.rows,
            "peak_alloc_mb": peak / 1e6,
        }
        metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        meta.update(
            pass_s=times,
            command_s=command_stats(commands, per_command),
            setup_s=setup_times,
            peak_alloc_bytes=peak,
        )
        passes = len(times)
    result = {
        "correct": not gate.errors,
        "attempted": gate.rows * passes,
        "failed": gate.failed_rows * passes,
        "metrics": metrics,
    }
    for error in gate.errors[:20]:
        print(f"hvlab-bench: {error}", file=sys.stderr)
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=workloads.SAMPLES, help="Monte Carlo samples per command")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)
    try:
        meta, result = run(args)
    except BenchError as exc:
        print(f"hvlab-bench: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
