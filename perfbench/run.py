"""End-to-end and per-layer benchmark of mjones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real entry point ``mjones.cli.main([...])`` in-process, stdout
captured, as a closed loop with one client.  BLAS runs on one thread, so the
process never uses more threads than ``nproc``.  Workloads, and why each
exists, are in ``words.py`` and ``BENCHMARK.json``.

``--trace 0`` measures set-up in fresh interpreters, warms up, then runs
ops for S seconds and reports the end-to-end metrics:

* ``ops_per_s``: correct ops per second spent inside ``cli.main``;
* ``latency_p50_ms``: the median op latency;
* ``setup_s``: median of ``SETUP_RUNS`` fresh interpreters that import
  ``mjones.cli`` and complete one op from the workload's cheapest stratum;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

The three times are in reference seconds: wall time scaled by how fast a
fixed reference job, chosen per workload, ran beside it (``reference.py``).
That cancels most of a shared host's drift in speed.  The wall-clock
figures are printed beside them, and on a line ``wall_clock {...}`` that
``spread.py`` reads.

The error rate and the p90 latency (when at least 100 ops ran) are
printed with their sample counts but are not metrics: a metric must never
read 0, and ``verify`` runs too few ops for a p90.  Failed ops show in the
result's ``failed`` and ``attempted`` instead.

``--trace 1`` runs each round of ops twice after warm-up, plain and then
with spans wrapped around every layer's calls (``tracing.py``), and reports
the per-layer metrics; the difference between the passes is the tracing
overhead.

Every op's output is checked (``check.py``); failing ops are counted and
listed, never dropped.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

Must be run from a checkout that holds ``src/mjones``; it exits with code 2
otherwise.
"""

import os

# one BLAS thread, set before numpy is first imported here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import reference
import tracing
import words

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
WARMUP_S = 1.0
NOISE = 1.5   # baseline rows that differ by more than this factor are flagged

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# ROADMAP baseline rows (2-core x86_64, Python 3.11.7, numpy 2.4.6): (low, high)
BASELINES = {
    "import mjones [s]": (0.14, 0.14),
    "bracket, 3 strands, c = 12 [s]": (0.026, 0.026),
    "spin replay per generator [ms]": (3.3, 3.3),
    "apply_pauli, 10 qubits [us]": (25.0, 37.0),
    "jw-spectra check [s]": (1.17, 1.17),
}


class Loop:
    """Closed-loop client over one workload's op stream; checks every op."""

    def __init__(self, workload: str, seed: int):
        self.stream = words.ops(workload, seed)
        self.round_size = words.WORKLOADS[workload].round_size
        self.reference = words.WORKLOADS[workload].reference
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped = 0

    def call(self, main, op) -> tuple[float, dict, bool]:
        """Run and check one op; returns (latency, CLI timing dict, correct)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception"
                err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
        return (latency, *self.record(op, code, out.getvalue(), err.getvalue()))

    def record(self, op, code, out: str, err: str = "") -> tuple[dict, bool]:
        """Count and check one op's result; returns (CLI timing dict, correct)."""
        self.attempted += 1
        report = check.parse(out)
        self.skipped += check.skipped_backends(report)
        problems = check.check(op, code, report)
        if problems:
            detail = "; ".join(problems) + (f" | stderr: {err.strip()}" if err.strip() else "")
            self.failures.append(f"{' '.join(op.argv)!r}: {detail}")
        return (report or {}).get("timing", {}), not problems

    def next_round(self) -> list:
        return [next(self.stream) for _ in range(self.round_size)]

    def run_for(self, main, seconds: float) -> tuple[list, list]:
        """Run whole rounds of ops until ``seconds`` have passed, with the
        workload's reference job before the first round and after each one.
        Returns (latency, correct, scale) per op and the reference times.
        ``scale`` turns the op's wall time into reference seconds; it uses the
        faster of the jobs just before and after the op's round, because a
        job that is preempted once reads far too slow.  Ops are not kept, so
        that they do not count in peak_rss_mb."""
        job = reference.JOBS[self.reference]
        rounds, refs = [], [job()]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            rounds.append([self.call(main, op)[::2] for op in self.next_round()])
            refs.append(job())
        done = []
        for i, ops in enumerate(rounds):
            scale = reference.scale(self.reference, min(refs[i:i + 2]))
            done += [(latency, ok, scale) for latency, ok in ops]
        return done, refs


def environment(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas.get('version', '?')} "
            f"(threads {blas_threads(np)}), nproc {len(os.sched_getaffinity(0))}")


def blas_threads(np) -> str:
    """OpenBLAS's own thread count, read through ctypes; '?' if unavailable."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "?"


def baseline_lines(measured: dict) -> list[str]:
    lines = []
    for row, value in measured.items():
        low, high = BASELINES[row]
        flag = "DIFFERS" if value > high * NOISE or value < low / NOISE else "within noise"
        ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        lines.append(f"  baseline {row:34s} roadmap {ref:>9s}  measured {value:.4g}  {flag}")
    return lines


def cold_starts(workload: str, seed: int, loop: Loop) -> tuple[list, list, list]:
    """SETUP_RUNS fresh interpreters; returns setup_s scaled like the ops,
    wall-clock setup_s and import_s values."""
    op = words.cold_start_op(workload, seed)
    setup, wall, imports = [], [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=150, check=False)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (ValueError, IndexError):
            loop.record(op, f"cold start exit {proc.returncode}", "", proc.stderr[-2000:])
            continue
        loop.record(op, result["code"], result["out"], proc.stderr)
        setup.append(result["setup_s"] * reference.scale(loop.reference, result["reference_s"]))
        wall.append(result["setup_s"])
        imports.append(result["import_s"])
    return setup, wall, imports


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Loop, dict, list[str]]:
    loop = Loop(workload, seed)
    setup, setup_wall, imports = cold_starts(workload, seed, loop)
    if not setup:
        raise RuntimeError("every cold start failed:\n" + "\n".join(loop.failures))
    import numpy as np
    import mjones.cli as cli

    loop.run_for(cli.main, WARMUP_S)
    done, refs = loop.run_for(cli.main, seconds)
    latencies = [latency * scale for latency, _, scale in done]
    wall = [latency for latency, _, _ in done]
    n = len(done)
    correct = sum(ok for _, ok, _ in done)
    metrics = {
        "ops_per_s": correct / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_clock = {"ops_per_s": correct / sum(wall),
                  "latency_p50_ms": statistics.median(wall) * 1e3,
                  "setup_s": statistics.median(setup_wall)}
    lines = [
        f"env: {environment(np)}",
        f"reference job {loop.reference}: median {statistics.median(refs) * 1e3:.3f} ms over "
        f"{len(refs)} runs, REF_S {reference.REF_S[loop.reference] * 1e3:g} ms; times below "
        "are in reference seconds",
        f"ops_per_s       {metrics['ops_per_s']:.4f} 1/s  (n={n} ops, {correct} correct; "
        f"wall-clock {wall_clock['ops_per_s']:.4f})",
        f"latency_p50_ms  {metrics['latency_p50_ms']:.4f} ms  (n={n}; "
        f"wall-clock {wall_clock['latency_p50_ms']:.4f})",
    ]
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
        lines.append(f"latency_p90_ms  {p90:.4f} ms  (n={n})")
    else:
        lines.append(f"latency_p90_ms  not reported: n={n} < 100")
    lines += [
        f"error_rate      {(n - correct) / n:.6f}  ({n - correct} of {n} timed ops)",
        f"setup_s         {metrics['setup_s']:.4f} s  (median of {len(setup)} cold starts; "
        f"wall-clock {wall_clock['setup_s']:.4f}, import {statistics.median(imports):.4f})",
        f"peak_rss_mb     {metrics['peak_rss_mb']:.2f} MB  (ru_maxrss of this process)",
    ]
    lines += baseline_lines({"import mjones [s]": statistics.median(imports)})
    lines.append("wall_clock " + json.dumps(wall_clock))
    return loop, metrics, lines


def traced_run(workload: str, seed: int, seconds: float) -> tuple[Loop, dict, list[str]]:
    import numpy as np
    import mjones
    import mjones.cli as cli

    loop = Loop(workload, seed)
    loop.run_for(cli.main, WARMUP_S)
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(cli.main, "cli", "main")
    ops, plain, traced = [], [], []
    # each round runs plain, then traced, so both passes see the same inputs
    # and the same spells of contention
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = loop.next_round()
        plain += [loop.call(cli.main, op) for op in batch]
        with tracing.installed(tracer, np, mjones):
            for op in batch:
                tracer.op = len(ops)
                ops.append(op)
                traced.append(loop.call(traced_main, op))
    plain_s = sum(latency for latency, _, _ in plain)
    traced_s = sum(latency for latency, _, _ in traced)
    overhead = (traced_s / plain_s - 1.0) * 100
    metrics = tracing.per_layer(tracer.spans, ops, [timing for _, timing, _ in plain], overhead,
                                loop.skipped)
    self_s = tracing.layer_times(tracer.spans)
    root_s = sum(self_s.values())
    lines = [f"env: {environment(np)}",
             f"traced {len(ops)} ops: plain {plain_s:.3f} s, traced {traced_s:.3f} s, "
             f"overhead {overhead:.1f}%, {len(tracer.spans)} spans",
             "layer self-time shares (traced):"]
    lines += [f"  {layer:16s} {s / root_s * 100:6.2f}%  {s / len(ops) * 1e3:9.4f} ms/op"
              for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])]
    lines += span_timing_lines(tracer.spans, [timing for _, timing, _ in traced])
    lines.append("per-layer metrics:")
    lines += [f"  {name:44s} {value:.6g} {tracing.PER_LAYER[name][0]}"
              for name, value in metrics.items()]
    lines += baseline_lines(traced_baselines(tracer.spans, metrics))
    path = OUT / f"spans-{workload}.jsonl.gz"
    tracer.write(path)
    lines.append(f"spans written to {path.relative_to(HERE.parent)}")
    return loop, metrics, lines


def span_timing_lines(spans, timings) -> list[str]:
    """Span totals beside the CLI's own ``timing`` key for the same calls."""
    pairs = {
        "anyon_s": ("jones_su2_2", "jones_majorana_abs"),
        "spin_s": ("jones_spin_abs",),
        "kauffman_s": ("jones_polynomial", "eval_at"),
    }
    lines = []
    for key, names in pairs.items():
        cli_s = sum(t.get(key, 0.0) for t in timings)
        span_s = sum(s[5] - s[4] for s in spans
                     if s[3] in names and s[1] >= 0 and spans[s[1]][3] == "main")
        if cli_s:
            lines.append(f"  spans vs CLI timing {key:10s} {span_s:.4f} s / {cli_s:.4f} s")
    checks_s = sum(v for t in timings for k, v in t.items() if k in tracing.CHECK_NAMES)
    if checks_s:
        run_all_s = sum(s[5] - s[4] for s in spans if s[3] == "run_all")
        lines.append(f"  spans vs CLI timing run_all    {run_all_s:.4f} s / {checks_s:.4f} s "
                     "(sum of CheckResult.elapsed)")
    return lines


def traced_baselines(spans, metrics) -> dict:
    out = {}
    c12 = [s[5] - s[4] for s in spans if s[3] == "bracket" and tuple(s[6]) == (3, 12)]
    if c12:
        out["bracket, 3 strands, c = 12 [s]"] = statistics.median(c12)
    rows = (("spin replay per generator [ms]", "spin_sim.ms_per_generator"),
            ("apply_pauli, 10 qubits [us]", "pauli.apply_us"),
            ("jw-spectra check [s]", "verify.jw-spectra_s"))
    out.update({row: metrics[name] for row, name in rows if metrics[name]})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(words.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mjones" / "cli.py").is_file():
        print(f"error: no mjones sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = traced_run if args.trace else timed_run
    loop, metrics, lines = run(args.workload, args.seed, args.seconds)
    units = tracing.PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"closed loop, 1 client, in-process mjones.cli.main")
    print("\n".join(lines))
    print(f"ops checked: {loop.attempted}, failed: {len(loop.failures)}")
    for failure in loop.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
