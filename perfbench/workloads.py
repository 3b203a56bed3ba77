"""Workload inputs, checked stretch calls and the timing loops.

Every workload is a closed loop: one caller, one call at a time. Library
workloads call ``stretchkit.pipeline.time_stretch`` in this process; the CLI
workload starts ``python3 -m stretchkit.cli`` once per call, as users do.
Each output is checked (exact length, finite samples, the same SHA-256 as the
case's first good output) and ``nm`` outputs are judged by the oracles in
``stretchkit.metrics``. Inputs come from ``stretchkit.signals`` and are built
before any timing starts.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import spans
from stretchkit import pipeline, signals
from stretchkit.core import AudioBuffer
from stretchkit.metrics import dominant_frequency, octave_band_levels, onset_positions
from stretchkit.pipeline import StretchConfig

HERE = Path(__file__).resolve().parent

KINDS = ("click_plus_hiss", "two_tone", "shaped_noise")
# The range users stretch by. Extreme factors (alpha=0.01 on a 1 s input raises
# IndexError in noisemorph) are left out: the input-domain contract belongs to
# property tests, not to a speed benchmark.
ALPHAS = (0.5, 2.0, 4.0)
CLICK_PERIOD = 0.25
PARTIALS = (440.0, 660.0)
NOISE_SLOPE_DB = -3.0
TOL_ONSET_MS, TOL_BAND_DB, TOL_PITCH_HZ = 10.0, 2.0, 1.0

CLI_ALPHA = 2.0
CLI_RATE = 48000
CLI_TIMEOUT_S = 150.0


@dataclass
class Case:
    name: str
    kind: str
    mode: str
    alpha: float
    x: AudioBuffer
    clicks: np.ndarray  # true click onsets (s); empty when the kind has none

    @property
    def out_len(self) -> int:
        return int(round(self.alpha * len(self.x)))


def make_input(kind: str, duration: float, rate: int, seed: int):
    """(signal, true click times) for one corpus kind."""
    if kind == "click_plus_hiss":
        x = signals.click_plus_hiss(duration, rate, seed=seed, period=CLICK_PERIOD)
        return x, signals.click_times(duration, CLICK_PERIOD, CLICK_PERIOD)
    if kind == "two_tone":
        return signals.two_tone(*PARTIALS, duration, rate), np.zeros(0)
    return signals.shaped_noise(NOISE_SLOPE_DB, duration, rate, seed=seed), np.zeros(0)


def library_cases(modes, duration: float, seed: int) -> list[Case]:
    cases = []
    for kind in KINDS:
        x, clicks = make_input(kind, duration, 44100, seed)
        for mode in modes:
            for alpha in ALPHAS:
                cases.append(Case(f"{kind}/{mode}/a{alpha:g}", kind, mode, alpha, x, clicks))
    return cases


@dataclass
class Verdict:
    metric: str
    value: float | None
    ok: bool
    note: str = ""


def judge(case: Case, y: np.ndarray) -> Verdict:
    """Apply the quality oracle for the case's kind to an nm output."""
    out = AudioBuffer(y, case.x.sample_rate)
    if case.kind == "click_plus_hiss":
        found = onset_positions(out)
        expected = case.alpha * case.clicks
        if len(found) != len(expected):
            return Verdict("onset_dev_ms", None, False,
                           f"{len(found)} onsets for {len(expected)} clicks")
        dev = float(np.max(np.abs(found - expected))) * 1e3
        return Verdict("onset_dev_ms", dev, bool(dev <= TOL_ONSET_MS))
    if case.kind == "two_tone":
        f = dominant_frequency(out)
        err = min(abs(f - p) for p in PARTIALS)
        return Verdict("pitch_err_hz", err, bool(err <= TOL_PITCH_HZ))
    _, level_in = octave_band_levels(case.x)
    _, level_out = octave_band_levels(out)
    dev = float(np.max(np.abs(level_out - level_in)))
    return Verdict("band_dev_db", dev, bool(dev <= TOL_BAND_DB))


def inject_fault(y: np.ndarray, fault: str | None) -> np.ndarray:
    """Corrupt an output on purpose, so the self-test sees the checks fire."""
    if fault == "short":
        return y[:-1]
    if fault == "nan":
        y = y.copy()
        y[len(y) // 2] = np.nan
    return y


@dataclass
class Ledger:
    """Counts checked calls and remembers why any of them failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sha: dict[str, str] = field(default_factory=dict)  # case -> first good output
    quality: dict[str, Verdict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # benchmark self-checks that failed
    _verdicts: dict[str, Verdict] = field(default_factory=dict)

    def check(self, case: Case, y: np.ndarray):
        self.attempted += 1
        problems = []
        if len(y) != case.out_len:
            problems.append(f"length {len(y)} != {case.out_len}")
        if not np.all(np.isfinite(y)):
            problems.append("non-finite sample")
        if not problems:
            digest = hashlib.sha256(np.ascontiguousarray(y, dtype=np.float64).tobytes()).hexdigest()
            if self.sha.setdefault(case.name, digest) != digest:
                problems.append("output differs from the case's first output")
            elif case.mode == "nm":
                if digest not in self._verdicts:
                    self._verdicts[digest] = judge(case, y)
                verdict = self.quality[case.name] = self._verdicts[digest]
                if not verdict.ok:
                    problems.append(f"{verdict.metric} out of tolerance "
                                    f"({verdict.value}) {verdict.note}")
        if problems:
            self.failures.append(f"{case.name}: {'; '.join(problems)}")


@dataclass
class Timings:
    """What one workload run measured. A pass is one call of every case."""

    pass_input_s: float  # input audio seconds in one pass
    by_case: dict[str, list[float]] = field(default_factory=dict)  # untraced call s
    pass_s: list[float] = field(default_factory=list)  # untraced pass wall s
    traced_pass_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)  # per call, CLI only
    layers: list[dict] = field(default_factory=list)  # per traced pass
    span_lists: list[list[spans.Span]] = field(default_factory=list)  # per traced pass

    def add_pass(self, case_s: dict[str, float]):
        for name, s in case_s.items():
            self.by_case.setdefault(name, []).append(s)
        self.pass_s.append(sum(case_s.values()))

    def add_traced(self, case_s: dict[str, float], span_list, clicks, ledger: Ledger):
        self.traced_pass_s.append(sum(case_s.values()))
        self.layers.append(spans.layer_metrics(span_list, clicks))
        self.span_lists.append(span_list)
        ledger.notes += spans.child_sum_violations(span_list)


class LibraryRun:
    """Round-robin passes over the cases; every case once per pass."""

    def __init__(self, cases: list[Case], ledger: Ledger, fault: str | None):
        self.cases = cases
        self.ledger = ledger
        self.fault = fault  # applied to the first timed call only
        self.configs = {c.name: StretchConfig(alpha=c.alpha, mode=c.mode) for c in cases}
        self.call_id = 0

    def one_pass(self, tracer: spans.Tracer | None = None) -> dict[str, float]:
        times = {}
        for case in self.cases:
            config = self.configs[case.name]
            self.call_id += 1
            if tracer is not None:
                tracer.call_id = self.call_id
            t0 = time.perf_counter()
            y = pipeline.time_stretch(case.x, config).samples
            times[case.name] = time.perf_counter() - t0
            self.ledger.check(case, inject_fault(y, self.fault))
            self.fault = None
        return times

    def traced_pass(self, t: Timings):
        tracer = spans.Tracer()
        spans.install(tracer)
        first_id = self.call_id + 1
        try:
            times = self.one_pass(tracer)
        finally:
            tracer.uninstall()
        clicks = {first_id + i: case.clicks for i, case in enumerate(self.cases)}
        t.add_traced(times, tracer.spans, clicks, self.ledger)

    def run(self, seconds: float, traced: bool) -> Timings:
        t = Timings(sum(c.x.duration for c in self.cases))
        # untimed warm-up: settles FFT plans and page faults, and sets the
        # reference hash of every case
        fault, self.fault = self.fault, None
        t0 = time.perf_counter()
        self.one_pass()
        warm_s = time.perf_counter() - t0
        self.fault = fault
        if not traced:
            for _ in range(max(1, round(seconds / warm_s))):
                t.add_pass(self.one_pass())
            return t
        # alternate untraced and traced passes; their difference is the
        # tracing overhead
        for p in range(max(1, round(seconds / (2 * warm_s)))):
            for on in ((False, True) if p % 2 == 0 else (True, False)):
                if on:
                    self.traced_pass(t)
                else:
                    t.add_pass(self.one_pass())
        return t


class CliRun:
    """The stretch CLI on one WAV, one subprocess per call, no warm-up."""

    def __init__(self, case: Case, workdir: Path, env: dict, ledger: Ledger, fault: str | None):
        self.case = case
        self.workdir = workdir
        self.env = env
        self.ledger = ledger
        self.fault = fault  # applied to the first call only
        self.input = workdir / "cli_in.wav"
        wavfile.write(self.input, case.x.sample_rate, case.x.samples.astype(np.float32))
        self.call_id = 0

    def one_call(self, traced: bool):
        """Run the CLI once; returns (wall s, peak RSS MB, spans or None)."""
        self.call_id += 1
        out, stems = self.workdir / "out.wav", self.workdir / "stems"
        onsets = self.workdir / "onsets.csv"
        spans_file = self.workdir / f"spans-{self.call_id}.json"
        for path in (out, onsets, spans_file):
            path.unlink(missing_ok=True)
        shutil.rmtree(stems, ignore_errors=True)
        args = [str(self.input), str(out), "--alpha", f"{CLI_ALPHA:g}", "--mode", "nm",
                "--bit-depth", "24", "--stems", str(stems), "--onsets", str(onsets)]
        if traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file),
                   str(self.call_id), *args]
        else:
            cmd = [sys.executable, "-m", "stretchkit.cli", *args]
        with open(self.workdir / "cli.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=self.env,
                                    cwd=self.workdir)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._check(proc.returncode, out, stems, onsets)
        traced_spans = spans.load(spans_file)[0] if traced and spans_file.exists() else None
        return wall, usage.ru_maxrss / 1024.0, traced_spans

    def _check(self, code: int, out: Path, stems: Path, onsets: Path):
        missing = [p.name for p in (out, onsets) if not p.exists()]
        n_stems = len(list(stems.glob("*.wav"))) if stems.exists() else 0
        if code != 0 or missing or n_stems != 6:
            self.ledger.attempted += 1
            self.ledger.failures.append(
                f"{self.case.name}: exit {code}, missing {missing}, {n_stems}/6 stems")
            return
        _, data = wavfile.read(out)
        y = data.astype(np.float64) / 2.0**31  # 24-bit PCM arrives left-justified in int32
        fault, self.fault = self.fault, None
        self.ledger.check(self.case, inject_fault(y, fault))

    def run(self, seconds: float, traced: bool) -> Timings:
        t = Timings(self.case.x.duration)
        t0 = time.perf_counter()
        calls = 0
        # at least two calls, so every run also checks a repeated output
        while calls < 2 or time.perf_counter() - t0 < seconds:
            on = traced and calls % 2 == 1
            wall, rss, call_spans = self.one_call(on)
            calls += 1
            if not on:
                t.add_pass({self.case.name: wall})
                t.rss_mb.append(rss)
            elif call_spans is None:
                self.ledger.notes.append(f"call {self.call_id}: no spans written")
            else:
                clicks = {self.call_id: self.case.clicks}
                t.add_traced({self.case.name: wall}, call_spans, clicks, self.ledger)
        return t
