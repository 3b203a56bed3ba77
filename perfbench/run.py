"""stretchkit benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nm_corpus --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller, one call at a time):

  nm_corpus  library time_stretch, mode nm, on 2 s click_plus_hiss, two_tone
             and shaped_noise clips at 44.1 kHz, alpha in {0.5, 2, 4}
  whole_mix  library time_stretch, modes nd and an, on 10 s clips of the same
             kinds, alpha in {0.5, 2, 4}: no decomposition, no peak picking
  cli_long   `python3 -m stretchkit.cli` as a subprocess per call on a 10 s
             48 kHz click_plus_hiss WAV: alpha 2, nm, 24-bit, stems, onsets

--trace 0 measures untraced and prints the end-to-end metrics; --trace 1
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead. Stdout shows every metric with its unit; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Details (environment, SHA-256 of every case's output, spans) are
written to .perfbench_out/ in the checkout.

--scale tiny and --inject exist for perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("nm_corpus", "whole_mix", "cli_long")
# clip seconds per workload, and fresh processes timed for setup_s
SCALES = {
    "full": {"nm_corpus": 2.0, "whole_mix": 10.0, "cli_long": 10.0, "setup_repeats": 5},
    "tiny": {"nm_corpus": 1.0, "whole_mix": 1.0, "cli_long": 1.5, "setup_repeats": 1},
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name, unit; the first four are the gated ones in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("call_s_p50", "s"),
    ("realtime_x", "x"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
    ("onset_dev_ms", "ms"),
    ("band_dev_db", "dB"),
    ("pitch_err_hz", "Hz"),
)
GATED = ("setup_s", "call_s_p50", "realtime_x", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="stretchkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full",
                   help="input sizes; tiny is for the self-test")
    p.add_argument("--inject", choices=("short", "nan"), default=None,
                   help="corrupt the first timed output (self-test of the checks)")
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(repeats: int, env: dict) -> list[float]:
    """Wall time of fresh processes that import stretchkit and build a config."""
    code = "import stretchkit; stretchkit.StretchConfig(alpha=2.0)"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def highest_percentile(values: list[float]):
    """(p, value) for the highest whole-ten percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    for p in (90, 80, 70, 60):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stretchkit" / "__init__.py").is_file():
        print(f"no stretchkit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scale = SCALES[args.scale]
    env = dict(os.environ)

    setup = [] if args.trace else measure_setup(scale["setup_repeats"], env)

    import numpy as np
    import scipy

    import spans
    import workloads as wl

    ledger = wl.Ledger()
    duration = scale[args.workload]
    if args.workload == "cli_long":
        x, clicks = wl.make_input("click_plus_hiss", duration, wl.CLI_RATE, args.seed)
        case = wl.Case(f"click_plus_hiss/cli/a{wl.CLI_ALPHA:g}", "click_plus_hiss", "nm",
                       wl.CLI_ALPHA, x, clicks)
        workdir = OUT / "cli"
        workdir.mkdir(exist_ok=True)
        runner = wl.CliRun(case, workdir, env, ledger, args.inject)
        cases = [case]
    else:
        modes = ("nm",) if args.workload == "nm_corpus" else ("nd", "an")
        cases = wl.library_cases(modes, duration, args.seed)
        runner = wl.LibraryRun(cases, ledger, args.inject)
    t = runner.run(args.seconds, bool(args.trace))

    if args.workload == "cli_long":
        peak_rss = statistics.median(t.rss_mb)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_calls = [s for v in t.by_case.values() for s in v]
    n_calls = len(all_calls)
    quality = {}
    for verdict in ledger.quality.values():
        if verdict.value is not None:
            quality[verdict.metric] = max(quality.get(verdict.metric, 0.0), verdict.value)
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "call_s_p50": statistics.median(statistics.median(v) for v in t.by_case.values()),
        "realtime_x": statistics.median(t.pass_input_s / s for s in t.pass_s),
        "peak_rss_mb": peak_rss,
        "fail_ratio": len(ledger.failures) / max(1, ledger.attempted),
        "onset_dev_ms": quality.get("onset_dev_ms"),
        "band_dev_db": quality.get("band_dev_db"),
        "pitch_err_hz": quality.get("pitch_err_hz"),
    }

    layers = {}
    if args.trace:
        layers, notes = spans.summarize(t.layers)
        ledger.notes += notes
        layers[spans.OVERHEAD] = 100.0 * (
            statistics.median(t.traced_pass_s) / statistics.median(t.pass_s) - 1.0)

    env_info = {
        "nproc": nproc, "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"scale {args.scale}: {len(cases)} cases, {ledger.attempted} checked calls")
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items() if k != "threads"))
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "call_s_p50": f"median over {len(cases)} cases of each one's median, {n_calls} calls",
        "realtime_x": f"median over {len(t.pass_s)} passes of {t.pass_input_s:g} s of input",
        "peak_rss_mb": "CLI process, median over calls" if args.workload == "cli_long"
        else "benchmark process",
        "fail_ratio": f"{len(ledger.failures)}/{ledger.attempted} calls failed",
    }
    for name, unit in END_TO_END:
        value = e2e[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12} {unit:<5} {notes.get(name, '')}")
    tail = highest_percentile(all_calls)
    if tail:
        print(f"  call_s_p{tail[0]:<10} {tail[1]:>12.6g} s")
    for name, unit in spans.PER_LAYER if args.trace else ():
        print(f"  {name:<26} {layers[name]:>14.6g} {unit}")
    if args.trace:
        n_spans = sum(len(s) for s in t.span_lists)
        bad = sum(len(spans.child_sum_violations(s)) for s in t.span_lists)
        print(f"  span check: {bad} of {n_spans} spans over {len(t.span_lists)} traced passes "
              f"have children summing past their own duration")
    for case_name, digest in ledger.sha.items():
        print(f"  sha256 {case_name:<28} {digest}")
    for line in ledger.failures + ledger.notes:
        print(f"  FAIL {line}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if t.span_lists:
        spans.dump(t.span_lists, OUT / f"{stem}-spans.json")
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({
            "args": vars(args), "env": env_info, "end_to_end": e2e, "per_layer": layers,
            "call_s": t.by_case, "pass_s": t.pass_s, "traced_pass_s": t.traced_pass_s,
            "setup_s": setup,
            "cases": [{"name": c.name, "alpha": c.alpha, "input_s": c.x.duration,
                       "sha256": ledger.sha.get(c.name)} for c in cases],
            "quality": {k: vars(v) for k, v in ledger.quality.items()},
            "failures": ledger.failures, "notes": ledger.notes,
        }, f, indent=1)

    units = dict(END_TO_END + spans.PER_LAYER)
    shown = layers if args.trace else {k: e2e[k] for k in GATED}
    print(json.dumps({
        "correct": not ledger.failures and not ledger.notes,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
