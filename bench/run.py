"""Benchmark of the citeweight CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --make-references

Run from the repository root.  Workloads (see workloads.py for sizes):

  paper    CLI on the price fixture, 8 subcommands x 3 formats, input by
           --fixture, labeled CSV file and stdin.  Isolates process start,
           import and cli argument handling.
  vector   CLI iw/sensitivity/fit/pwr/diagnose on n=1024 ``fields`` files.
           Isolates matrix.parse_matrix_csv; rendering is under 2%.
  grid     CLI normalize and power -k 3 on n=256 ``uniform`` files, half
           written with --output.  Isolates report build/render.
  library  In-process influence_weights, self_citation_sensitivity +
           linear_fit, power_weakness_ratio(7) and diagnostics on n=1024
           ``fields`` matrices.  Isolates metrics and sensitivity.

All workloads are closed loops with one client.  CLI operations run as
``sys.executable -m citeweight`` with ``src`` on PYTHONPATH; library
operations run in a fresh worker process.  Every output is checked against
references.json (see checks.py); a non-zero exit or a mismatch is a failed
operation.  The BLAS thread count is recorded, never pinned.

With ``--trace 0`` the run reports the end-to-end metrics:

  op_s.p50     median wall time of one operation (s)
  op_s.tail    wall time at the highest percentile with >= 10 samples
               beyond it (s)
  ops_per_s    successful operations per second of operation time (1/s)
  setup_s      median over fresh starts of interpreter start, import and
               the first (untimed) operation, without input generation (s)
  peak_rss_mb  peak resident memory of the CLI child or library worker (MiB)

With ``--trace 1`` it runs the first half of the same sequence in-process,
each operation once untraced and once with spans around the public
functions of cli, matrix, metrics, sensitivity and report (tracer.py).  A
layer's ``_s`` metric is its self time (span minus child spans) summed over
the traced operations and divided by their number, so the layers add up to
the mean traced operation.  Counts are per operation, except iterate_cycles
(per tolerance-mode iteration) and the ratios.  LAYER_MAP below says which
end-to-end metric each layer metric should move, and on which workload.

Every run writes its full record, with per-operation samples, run facts and
the host probe, to .bench_work/results/; traced runs also write their spans.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import re
import select
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from workloads import WORKLOADS, Op, Variant, Workload, matrix_ids, plan, reference_key, size

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "libworker.py"

SETUP_STARTS = 7
SMOKE_SETUP_STARTS = 2
IMPORT_STARTS = 5
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # stop issuing operations so the run ends within 180 s
TAIL_BEYOND = 10

# layer metric, unit, end-to-end metric it should move, on which workload
# (and where it has little or no effect)
LAYER_MAP = (
    ("import.python_s", "s", "op_s.p50, setup_s", "paper, also vector, grid (not library ops)"),
    ("import.citeweight_s", "s", "op_s.p50, setup_s", "paper, also vector, grid (not library ops)"),
    ("cli.self_s", "s", "op_s.p50", "paper (not library)"),
    ("matrix.parse_s", "s", "op_s.p50, peak_rss_mb", "vector, partly grid (not paper, library)"),
    ("matrix.parse_cells_per_s", "1/s", "op_s.p50", "vector, partly grid (not paper, library)"),
    ("matrix.power_s", "s", "op_s.p50", "grid"),
    ("metrics.normalize_s", "s", "ops_per_s, op_s.p50", "library (CLI workloads: <5%)"),
    ("metrics.iterate_s", "s", "ops_per_s, op_s.p50", "library (CLI workloads: <5%)"),
    ("metrics.iterate_cycles", "count", "ops_per_s, op_s.p50", "library (CLI workloads: <5%)"),
    ("metrics.iterate_converged_ratio", "ratio", "failed", "library, vector"),
    ("metrics.pwr_s", "s", "ops_per_s, op_s.p50", "library (CLI workloads: <5%)"),
    ("metrics.diagnose_s", "s", "ops_per_s, op_s.p50", "library (CLI workloads: <5%)"),
    ("sensitivity.self_s", "s", "ops_per_s", "library (CLI workloads)"),
    ("sensitivity.fit_s", "s", "ops_per_s", "library (CLI workloads)"),
    ("report.build_s", "s", "op_s.p50, op_s.tail, peak_rss_mb", "grid (vector, paper)"),
    ("report.build_cells", "count", "op_s.p50, op_s.tail, peak_rss_mb", "grid (vector, paper)"),
    ("report.render_s.table", "s", "op_s.p50, op_s.tail", "grid (vector, paper)"),
    ("report.render_s.csv", "s", "op_s.p50, op_s.tail", "grid (vector, paper)"),
    ("report.render_s.json", "s", "op_s.p50, op_s.tail", "grid (vector, paper)"),
    ("report.render_bytes", "bytes", "op_s.p50, op_s.tail, peak_rss_mb", "grid (vector, paper)"),
    ("trace.overhead_s", "s", "none", "every workload"),
    ("host.probe_s", "s", "none", "every workload"),
)

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import citeweight; "
    "print(time.perf_counter() - t)"
)


# -- processes ------------------------------------------------------------


ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int
    started: float


def spawn(argv, stdout: Path, stderr: Path, stdin: Path | None, timeout: float) -> Child:
    """Run one child to completion; kill it after ``timeout`` seconds."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, str(stdin) if stdin else os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), write, 0o644),
    ]
    started = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - started
    finally:
        os.close(pidfd)
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, started)


# -- run facts --------------------------------------------------------------


def blas_facts() -> tuple[str, int | None]:
    """Loaded BLAS library's config string and thread count, if OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return "unknown", None


def run_facts() -> dict:
    blas, threads = blas_facts()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def host_probe() -> float:
    """Wall time of a fixed pure-Python plus numpy loop; tracks host speed."""
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = np.arange(200_000, dtype=float)
    for _ in range(10):
        values = np.sqrt(values * values + 1.0)
        np.sort(values[::-1])
    return perf_counter() - start


def probe_samples() -> list[float]:
    return [host_probe() for _ in range(5)]


# -- inputs and operations --------------------------------------------------


def prepare_inputs(w: Workload, ids, smoke: bool, refs, work: Path):
    """Write each matrix as CSV; return paths and inputs that differ from
    the committed digests."""
    paths, bad = {}, []
    for m in ids:
        if m is None:
            text = inputs.labeled_csv(inputs.PRICE_LABELS, inputs.PRICE_COUNTS)
        else:
            counts = inputs.GENERATORS[w.generator](size(w, smoke), m)
            text = inputs.headerless_csv(counts)
        path = work / (f"m{m}.csv" if m is not None else "price-labeled.csv")
        path.write_text(text, encoding="utf-8")
        paths[m] = path
        if refs.get(reference_key(w, smoke, m, "input")) != checks.input_digest(text):
            bad.append(f"input {reference_key(w, smoke, m, 'input')}")
    return paths, bad


def cli_args(w: Workload, op, paths, out_path: Path) -> list[str]:
    args = [*op.variant.args, "--format", op.variant.fmt]
    if op.variant.args[0] != "reproduce-paper":
        if op.input_mode == "fixture":
            args += ["--fixture", "price"]
        else:
            args += ["-" if op.input_mode == "stdin" else str(paths[op.matrix])]
            if w.generator is None:
                args += ["--labeled"]
    if op.to_file:
        args += ["--output", str(out_path)]
    return args


def check_output(w, smoke, op, text: str | None, refs) -> str | None:
    """None when the output matches its reference, else the reason."""
    if text is None:
        return "no output"
    key = reference_key(w, smoke, op.matrix, op.variant.key)
    try:
        digest = checks.output_digest(text, op.variant.fmt)
    except ValueError as exc:
        return f"{key}: bad JSON ({exc})"
    if refs.get(key) != digest:
        return f"{key}: digest {digest} != reference {refs.get(key)}"
    return None


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.samples: list[tuple[str, float]] = []  # (variant, wall s) per timed op

    def record(self, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def run_cli_child(w, smoke, op, paths, work, refs, ledger, deadline) -> Child:
    out_path = work / "out.txt"
    report_path = work / "report.out"
    if report_path.exists():
        report_path.unlink()
    argv = [sys.executable, "-m", "citeweight", *cli_args(w, op, paths, report_path)]
    stdin = paths[op.matrix] if op.input_mode == "stdin" else None
    timeout = min(OP_TIMEOUT_S, deadline - perf_counter())
    child = spawn(argv, out_path, work / "err.txt", stdin, timeout)
    if child.code != 0:
        err = (work / "err.txt").read_text(encoding="utf-8", errors="replace").strip()
        ledger.record(f"{op.variant.key} exit {child.code}: {err[-200:]}")
        return child
    source = report_path if op.to_file else out_path
    text = source.read_text(encoding="utf-8") if source.exists() else None
    ledger.record(check_output(w, smoke, op, text, refs))
    return child


# -- statistics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    that percentile and the samples beyond it.  It is never below the
    median: with fewer than 2 * TAIL_BEYOND + 1 samples, fewer lie beyond."""
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def end_to_end(times, setups, peak_kb, ok_ops, peak_note) -> list[tuple[str, float, str, str]]:
    tail_value, tail_pct, beyond = tail(times)
    n = len(times)
    return [
        ("op_s.p50", statistics.median(times), "s", f"{n} samples"),
        ("op_s.tail", tail_value, "s", f"p{tail_pct:.1f}, {n} samples, {beyond} beyond"),
        ("ops_per_s", ok_ops / sum(times), "1/s", f"{ok_ops} ok ops in {sum(times):.3f} s"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh starts"),
        ("peak_rss_mb", peak_kb / 1024.0, "MiB", peak_note),
    ]


# -- timed runs -------------------------------------------------------------


def timed_cli(w, seed, seconds, smoke, refs, work, ledger, deadline):
    ids, warmup, ops = plan(w, seed, seconds, smoke)
    paths, problems = prepare_inputs(w, ids, smoke, refs, work)
    # Fresh starts of the warm-up op are spread over the run, so set-up time
    # sees the same host conditions as the timed operations.
    starts = SMOKE_SETUP_STARTS if smoke else SETUP_STARTS
    setup_at = {round(i * len(ops) / starts) for i in range(starts)}
    setups, times, peak, ok = [], [], 0, 0
    for index, op in enumerate(ops):
        if perf_counter() > deadline:
            problems.append(f"deadline reached after {len(times)} of {len(ops)} ops")
            break
        if index in setup_at:
            setups.append(run_cli_child(w, smoke, warmup, paths, work, refs, ledger, deadline).wall_s)
        failed_before = ledger.failed
        child = run_cli_child(w, smoke, op, paths, work, refs, ledger, deadline)
        times.append(child.wall_s)
        ledger.samples.append((op.variant.key, child.wall_s))
        peak = max(peak, child.maxrss_kb)
        ok += ledger.failed == failed_before
    return end_to_end(times, setups, peak, ok, f"max over {len(times)} CLI processes"), problems


def library_worker(w, smoke, warmup, ops, refs, work, ledger, deadline):
    """Run one fresh library worker; return (its output, set-up time, child)."""
    order = ",".join(str(op.matrix) for op in ops)
    argv = [sys.executable, str(WORKER), str(SRC), str(size(w, smoke)), str(warmup.matrix), order]
    child = spawn(argv, work / "worker.json", work / "err.txt", None, deadline - perf_counter())
    if child.code != 0:
        err = (work / "err.txt").read_text(encoding="utf-8", errors="replace")
        ledger.record(f"library worker exit {child.code}: {err.strip()[-300:]}")
        return None, None, child
    data = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    key = reference_key(w, smoke, warmup.matrix, "library")
    ledger.record(None if refs.get(key) == data["first_digest"] else f"{key}: {data['first_digest']}")
    return data, data["imported_at"] - child.started + data["first_op_s"], child


def timed_library(w, seed, seconds, smoke, refs, work, ledger, deadline):
    _ids, warmup, ops = plan(w, seed, seconds, smoke)
    problems = []
    starts = SMOKE_SETUP_STARTS if smoke else SETUP_STARTS
    # Set-up-only workers run before and after the one that runs the loop.
    before = (starts - 1) // 2
    setups = []
    for worker_ops in [[]] * before + [ops] + [[]] * (starts - 1 - before):
        data, setup, child = library_worker(w, smoke, warmup, worker_ops, refs, work, ledger, deadline)
        if data is None:
            return None, problems
        setups.append(setup)
        if worker_ops:
            loop, loop_child = data, child
    for m, digest in loop["input_digests"].items():
        key = reference_key(w, smoke, int(m), "input")
        if refs.get(key) != digest:
            problems.append(f"input {key}")
    ok = 0
    for op, elapsed, digest in zip(ops, loop["times"], loop["digests"]):
        key = reference_key(w, smoke, op.matrix, "library")
        reason = None if refs.get(key) == digest else f"{key}: {digest}"
        ledger.record(reason)
        ledger.samples.append((f"library.m{op.matrix}", elapsed))
        ok += reason is None
    return end_to_end(loop["times"], setups, loop_child.maxrss_kb, ok, "library worker"), problems


# -- traced runs ------------------------------------------------------------


def fresh_start_metrics(work: Path, starts: int) -> dict[str, float]:
    python_s, import_s = [], []
    for _ in range(starts):
        python_s.append(
            spawn([sys.executable, "-c", "pass"], work / "o.txt", work / "e.txt", None, OP_TIMEOUT_S).wall_s
        )
        child = spawn([sys.executable, "-c", IMPORT_SNIPPET], work / "o.txt", work / "e.txt", None, OP_TIMEOUT_S)
        if child.code == 0:
            import_s.append(float((work / "o.txt").read_text()))
    return {
        "import.python_s": statistics.median(python_s),
        "import.citeweight_s": statistics.median(import_s) if import_s else 0.0,
    }


def cli_in_process(cli, argv, stdin_text, report_path: Path, to_file: bool):
    """Call citeweight.cli.main with stdin and stdout swapped for buffers.

    Returns (exit code, report text or None)."""
    saved = sys.stdin, sys.stdout
    sys.stdout = io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.main(argv)
    except Exception as exc:  # an uncaught error fails the operation, as exit 1 would
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        captured = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    if to_file:
        captured = report_path.read_text(encoding="utf-8") if report_path.exists() else None
    return code, captured


def traced(w, seed, seconds, smoke, refs, work, ledger, deadline):
    sys.path.insert(0, str(SRC))
    from citeweight import cli, metrics, sensitivity

    from tracer import Tracer

    tracer = Tracer()
    layer = fresh_start_metrics(work, 2 if smoke else IMPORT_STARTS)
    ids, warmup, ops = plan(w, seed, seconds, smoke, count_share=0.5)
    problems = []
    report_path = work / "report.out"

    if w.is_library:
        matrices = {}
        for m in ids:
            matrices[m], digest = inputs.library_matrix(size(w, smoke), m)
            if refs.get(reference_key(w, smoke, m, "input")) != digest:
                problems.append(f"input {reference_key(w, smoke, m, 'input')}")

        def execute(op):
            try:
                result = checks.library_op(matrices[op.matrix], metrics, sensitivity)
            except Exception as exc:  # a failed operation is counted, not fatal
                return f"library: {type(exc).__name__}: {exc}"
            return None if refs.get(reference_key(w, smoke, op.matrix, "library")) == checks.library_digest(result) else "library digest"
    else:
        paths, problems = prepare_inputs(w, ids, smoke, refs, work)
        texts = {m: p.read_text(encoding="utf-8") for m, p in paths.items()}

        def execute(op):
            if report_path.exists():
                report_path.unlink()
            argv = cli_args(w, op, paths, report_path)
            stdin_text = texts[op.matrix] if op.input_mode == "stdin" else None
            code, text = cli_in_process(cli, argv, stdin_text, report_path, op.to_file)
            if code != 0:
                return f"{op.variant.key} exit {code}"
            return check_output(w, smoke, op, text, refs)

    ledger.record(execute(warmup))  # untraced: lazy set-up and warm caches
    times = {False: [], True: []}
    for i, op in enumerate(ops):
        if perf_counter() > deadline:
            problems.append(f"deadline reached after {i} of {len(ops)} ops")
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
            start = perf_counter()
            try:
                reason = execute(op)
            finally:
                elapsed = perf_counter() - start
                tracer.uninstall()
            times[with_trace].append(elapsed)
            ledger.record(reason)
    traced_ops = max(len(times[True]), 1)
    layer.update(layer_metrics(tracer, traced_ops))
    layer["trace.overhead_s"] = (sum(times[True]) - sum(times[False])) / traced_ops
    spans_path = WORK / "results" / f"spans-{w.name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
    if tracer.absent:
        print(f"absent wrapped names: {', '.join(tracer.absent)}")
    print(f"traced ops: {len(times[True])} (each also run untraced); spans: {spans_path}")
    return layer, problems


def layer_metrics(tracer, ops: int) -> dict[str, float]:
    """Per-operation self times and counts from the recorded spans."""
    own = tracer.self_times()
    counts = tracer.counts()

    def per_op(name):
        return own.get(name, 0.0) / ops

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.self_s": per_op("cli.main"),
        "matrix.parse_s": per_op("matrix.parse"),
        "matrix.parse_cells_per_s": ratio(count("matrix.parse", "cells"), own.get("matrix.parse", 0.0)),
        "matrix.power_s": per_op("matrix.power"),
        "metrics.normalize_s": per_op("metrics.normalize"),
        "metrics.iterate_s": per_op("metrics.iterate"),
        "metrics.iterate_cycles": ratio(count("metrics.iterate", "cycles"), count("metrics.iterate", "calls")),
        "metrics.iterate_converged_ratio": ratio(
            count("metrics.iterate", "converged"), count("metrics.iterate", "calls")
        ),
        "metrics.pwr_s": per_op("metrics.pwr"),
        "metrics.diagnose_s": per_op("metrics.diagnose"),
        "sensitivity.self_s": per_op("sensitivity.self"),
        "sensitivity.fit_s": per_op("sensitivity.fit"),
        "report.build_s": per_op("report.build"),
        "report.build_cells": count("report.build", "cells") / ops,
        "report.render_s.table": per_op("report.render.table"),
        "report.render_s.csv": per_op("report.render.csv"),
        "report.render_s.json": per_op("report.render.json"),
        "report.render_bytes": sum(count(f"report.render.{f}", "bytes") for f in ("table", "csv", "json")) / ops,
    }


# -- one run ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    w = WORKLOADS[workload]
    refs = checks.load_references()
    deadline = perf_counter() + RUN_DEADLINE_S
    work = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    facts = run_facts()
    ledger = Ledger()
    probe_before = probe_samples()
    try:
        if trace:
            values, problems = traced(w, seed, seconds, smoke, refs, work, ledger, deadline)
        else:
            timed_fn = timed_library if w.is_library else timed_cli
            rows, problems = timed_fn(w, seed, seconds, smoke, refs, work, ledger, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = probe_samples()
    probes = probe_before + probe_after

    print(f"workload={w.name} n={size(w, smoke)} seed={seed} trace={int(trace)} "
          f"smoke={int(smoke)} seconds={seconds:g}")
    print("facts: " + json.dumps(facts))
    print(f"host.probe_s: before {statistics.median(probe_before):.5f} s, "
          f"after {statistics.median(probe_after):.5f} s")
    for reason in ledger.reasons + problems:
        print(f"FAILED: {reason}")
    if trace:
        values["host.probe_s"] = statistics.median(probes)
        metrics = {}
        for name, unit, moves, where in LAYER_MAP:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:32s} {values[name]:12.6g} {unit:5s} moves {moves} on {where}")
    else:
        if rows is None:
            metrics = {}
        else:
            metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
            for name, value, unit, note in rows:
                print(f"  {name:12s} {value:12.6g} {unit:4s} ({note})")
    correct = ledger.failed == 0 and not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": w.name, "seed": seed, "trace": int(trace),
              "facts": facts, "host_probe_s": {"before": probe_before, "after": probe_after},
              "problems": problems, "failures": ledger.reasons, "samples": ledger.samples}
    (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


# -- smoke and references ---------------------------------------------------


def smoke() -> int:
    """Every workload at tiny size, timed and traced, then a check that a
    corrupted output is caught."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, seed=1, seconds=1, trace=trace, smoke=True)
            print(json.dumps(result))
            ok &= result["correct"]
    refs = checks.load_references()
    w = WORKLOADS["paper"]
    sys.path.insert(0, str(SRC))
    from citeweight import cli

    for fmt in ("table", "csv", "json"):
        op = Op(Variant(f"iw.{fmt}", ("iw",), fmt), None, "fixture", False)
        _, text = cli_in_process(cli, cli_args(w, op, {}, Path()), None, Path(), False)
        clean = check_output(w, False, op, text, refs)
        corrupted = text.replace("0.", "1.", 1)
        caught = check_output(w, False, op, corrupted, refs)
        print(f"output check {fmt}: clean -> {clean or 'match'}; corrupted -> {caught or 'MISSED'}")
        ok &= clean is None and caught is not None
        if fmt == "json":
            meta_changed = json.loads(text)
            meta_changed["meta"]["extra"] = 1
            ignored = check_output(w, False, op, checks.canonical_json(meta_changed), refs)
            print(f"output check json meta block changed -> {ignored or 'match (ignored)'}")
            ok &= ignored is None
            for label, variant_text in (
                ("no trailing newline", text.rstrip("\n")),
                ("compact", json.dumps(json.loads(text), separators=(",", ":")) + "\n"),
                ("number with a trailing zero", re.sub(r"(\d\.\d+)", r"\g<1>0", text, count=1)),
            ):
                caught = check_output(w, False, op, variant_text, refs)
                print(f"output check json {label} -> {caught or 'MISSED'}")
                ok &= caught is not None
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def make_references() -> int:
    """Regenerate references.json from the current source tree.

    Run only when an output change is intended; every digest describes
    what the program printed when it was written."""
    sys.path.insert(0, str(SRC))
    from citeweight import cli, metrics, sensitivity

    refs = {}
    work = WORK / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for w in WORKLOADS.values():
            for smoke_size in (False, True):
                n = size(w, smoke_size)
                for m in matrix_ids(w, smoke_size):
                    if w.is_library:
                        matrix, digest = inputs.library_matrix(n, m)
                        refs[reference_key(w, smoke_size, m, "input")] = digest
                        result = checks.library_op(matrix, metrics, sensitivity)
                        refs[reference_key(w, smoke_size, m, "library")] = checks.library_digest(result)
                        continue
                    paths, _ = prepare_inputs(w, [m], smoke_size, {}, work)
                    refs[reference_key(w, smoke_size, m, "input")] = checks.input_digest(
                        paths[m].read_text(encoding="utf-8")
                    )
                    for variant in w.variants:
                        op = Op(variant, m, "file", False)
                        code, text = cli_in_process(cli, cli_args(w, op, paths, Path()), None, Path(), False)
                        if code != 0:
                            raise SystemExit(f"{variant.key} on matrix {m} exited {code}")
                        refs[reference_key(w, smoke_size, m, variant.key)] = checks.output_digest(text, variant.fmt)
                print(f"{w.name}: done n={n}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} digests to {checks.REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "citeweight" / "__init__.py").is_file():
        print(f"error: {SRC / 'citeweight'} not found; run from a citeweight checkout",
              file=sys.stderr)
        return 2
    if args.make_references:
        return make_references()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
