"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks, for every workload, that the untraced run prints every end-to-end
metric and the traced run every per-layer metric, each with the unit that
BENCHMARK.json names, that the human-readable table lists all eight
end-to-end metrics, and that an output made one sample short or given a NaN
through the benchmark's own fault injection is counted as a failed call.
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E2E_TABLE = ("setup_s", "call_s_p50", "realtime_x", "peak_rss_mb", "fail_ratio",
             "onset_dev_ms", "band_dev_db", "pitch_err_hz")


def bench(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, table = bench(w, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace {trace}: clean run not correct: {table[-5:]}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace {trace}: {m['name']} missing or unit {got}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{w} trace {trace}: unexpected metrics {sorted(extra)}")
            shown = {line.split()[0] for line in table if line.startswith("  ")}
            missing = [name for name in E2E_TABLE if name not in shown]
            if missing:
                problems.append(f"{w} trace {trace}: table lacks {missing}")
        print(f"ok  {w}: metrics and units")

    for w in ("nm_corpus", "cli_long"):
        for fault in ("short", "nan"):
            result, table = bench(w, 0, "--inject", fault)
            ratio = next(line.split()[1] for line in table if line.split()[:1] == ["fail_ratio"])
            if result["correct"] or result["failed"] < 1 or float(ratio) <= 0:
                problems.append(f"{w} --inject {fault}: not counted "
                                f"(failed={result['failed']}, fail_ratio={ratio})")
            else:
                print(f"ok  {w}: injected {fault} counted, fail_ratio {ratio}")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
