"""In-memory span tracing around stretchkit's public functions.

Each wrapper is installed at the module attribute where its caller looks the
function up (``stn`` calls ``stretchkit.stn.median_filter_axis``, ``pipeline``
calls ``stretchkit.pipeline.stretch_sines``), so the package itself is not
edited. A wrapper records one span per call: name, start, end, the enclosing
span, the id of the stretch call it belongs to, and a few counts taken from
the arguments and the result. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

USEFUL_WITHIN_S = 0.010  # a detected event this close to a true click is useful
OVERHEAD = "trace.overhead_pct"  # traced against untraced passes, set by the caller

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("core.median_time_s", "s"),
    ("core.median_freq_s", "s"),
    ("core.median_cells", "count"),
    ("core.stft.calls", "count"),
    ("core.stft.frames", "count"),
    ("core.stft.self_s", "s"),
    ("core.istft.calls", "count"),
    ("core.istft.frames", "count"),
    ("core.istft.self_s", "s"),
    ("stn.decompose_s", "s"),
    ("stn.self_s", "s"),
    ("vocoder.locked_s", "s"),
    ("vocoder.plain_s", "s"),
    ("vocoder.find_peaks_s", "s"),
    ("vocoder.frames", "count"),
    ("vocoder.peaks_per_frame", "peaks/frame"),
    ("vocoder.self_s", "s"),
    ("transients.detect_s", "s"),
    ("transients.detect.calls", "count"),
    ("transients.events", "count"),
    ("transients.useful_ratio", "ratio"),
    ("transients.reposition_s", "s"),
    ("noisemorph.stretch_s", "s"),
    ("noisemorph.excitation_s", "s"),
    ("noisemorph.self_s", "s"),
    ("pipeline.time_stretch_s", "s"),
    ("pipeline.self_s", "s"),
    ("wavio.read_s", "s"),
    ("wavio.read_mb", "MB"),
    ("wavio.write_s", "s"),
    ("wavio.write_mb", "MB"),
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    (OVERHEAD, "%"),
)

# counts that must repeat exactly for the same inputs
EXACT_COUNTS = (
    "core.median_cells",
    "core.stft.calls",
    "core.stft.frames",
    "core.istft.calls",
    "core.istft.frames",
    "vocoder.frames",
    "vocoder.peaks_per_frame",
    "transients.detect.calls",
    "transients.events",
    "transients.useful_ratio",
)


@dataclass(slots=True)
class Span:
    name: str
    call_id: int
    parent: int | None  # index of the enclosing span in the same list
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the span list and the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call_id = 0
        self._open: list[int] = []
        self._patches = []

    def wrap(self, module, attr, name, count=None):
        """Replace module.attr by a recording wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``count`` maps (args, kwargs, result) to the span's counts.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = Span(
                name(args, kwargs) if callable(name) else name,
                self.call_id,
                self._open[-1] if self._open else None,
                time.perf_counter(),
            )
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# stn calls median_filter_axis(mag, axis, length) positionally
def _median_name(args, kwargs):
    from stretchkit.core import TIME_AXIS

    return "core.median_time" if args[1] == TIME_AXIS else "core.median_freq"


def _median_cells(args, kwargs, result):
    return {"cells": int(result.values.size) * int(args[2])}


def _pv_frames(args, kwargs, result):
    # synthesis frame count of the vocoder loop, computed from the output
    # length and the framing in use
    from stretchkit.vocoder import PvParams

    params = next((a for a in (*args, *kwargs.values()) if isinstance(a, PvParams)), PvParams())
    n = len(result)
    return {"frames": 1 + math.ceil(max(0, n - params.window_size) / params.synthesis_hop)}


def _events(args, kwargs, result):
    rate = args[0].sample_rate
    return {"events": len(result), "onset_s": [e.onset / rate for e in result]}


def install(tracer: Tracer):
    """Wrap each layer's public functions where their callers look them up."""
    from stretchkit import cli, noisemorph, pipeline, stn, vocoder

    for mod in (stn, noisemorph):
        tracer.wrap(mod, "stft", "core.stft", lambda a, k, r: {"frames": r.n_frames})
        tracer.wrap(mod, "istft", "core.istft", lambda a, k, r: {"frames": a[0].n_frames})
    tracer.wrap(stn, "median_filter_axis", _median_name, _median_cells)
    tracer.wrap(pipeline, "stretch_sines", "vocoder.locked", _pv_frames)
    tracer.wrap(pipeline, "stretch_plain", "vocoder.plain", _pv_frames)
    tracer.wrap(vocoder, "find_peaks", "vocoder.find_peaks", lambda a, k, r: {"peaks": len(r)})
    tracer.wrap(pipeline, "reposition_events", "transients.reposition")
    tracer.wrap(pipeline, "stretch_noise", "noisemorph.stretch")
    tracer.wrap(noisemorph, "generate_excitation", "noisemorph.excitation")
    for mod in (pipeline, cli):
        tracer.wrap(mod, "stretch_components", "pipeline.stretch_components")
        tracer.wrap(mod, "stn_decompose", "stn.decompose")
        tracer.wrap(mod, "detect_events", "transients.detect", _events)
        tracer.wrap(mod, "time_stretch", "pipeline.time_stretch")
    tracer.wrap(cli, "read_wav", "wavio.read", lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    tracer.wrap(cli, "write_wav", "wavio.write",
                lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    tracer.wrap(cli, "run", "cli.run")


def dump(span_lists: list[list[Span]], path):
    """Write lists of spans (one per traced pass or call) as JSON."""
    with open(path, "w") as f:
        json.dump([[asdict(s) for s in spans] for spans in span_lists], f)


def load(path) -> list[list[Span]]:
    with open(path) as f:
        return [[Span(**d) for d in spans] for spans in json.load(f)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def child_sum_violations(spans: list[Span]) -> list[str]:
    """Spans whose direct children add up to more than the span itself."""
    child_sum: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_sum[s.parent] = child_sum.get(s.parent, 0.0) + s.duration
    return [
        f"{spans[i].name} span {i}: children {total:.6f} s > span {spans[i].duration:.6f} s"
        for i, total in child_sum.items()
        if total > spans[i].duration
    ]


def layer_metrics(spans: list[Span], clicks_by_call: dict) -> dict[str, float]:
    """Per-layer totals over a list of spans (one pass of a workload).

    ``clicks_by_call`` maps a call id to the true click times (s) of its input,
    used to score detected transient events.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    n: dict[str, int] = defaultdict(int)
    c: dict[str, float] = defaultdict(int)  # summed counts, keyed "<span>.<count>"
    useful = 0
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] += s.duration
        own[s.name] += self_s
        n[s.name] += 1
        for key, value in s.counts.items():
            if isinstance(value, (int, float)):
                c[f"{s.name}.{key}"] += value
        if s.name == "transients.detect":
            clicks = clicks_by_call.get(s.call_id, ())
            for t in s.counts["onset_s"]:
                useful += any(abs(t - click) <= USEFUL_WITHIN_S for click in clicks)

    events = c["transients.detect.events"]
    peaks_calls = n["vocoder.find_peaks"]
    return {
        "core.median_time_s": total["core.median_time"],
        "core.median_freq_s": total["core.median_freq"],
        "core.median_cells": c["core.median_time.cells"] + c["core.median_freq.cells"],
        "core.stft.calls": n["core.stft"],
        "core.stft.frames": c["core.stft.frames"],
        "core.stft.self_s": own["core.stft"],
        "core.istft.calls": n["core.istft"],
        "core.istft.frames": c["core.istft.frames"],
        "core.istft.self_s": own["core.istft"],
        "stn.decompose_s": total["stn.decompose"],
        "stn.self_s": own["stn.decompose"],
        "vocoder.locked_s": total["vocoder.locked"],
        "vocoder.plain_s": total["vocoder.plain"],
        "vocoder.find_peaks_s": total["vocoder.find_peaks"],
        "vocoder.frames": c["vocoder.locked.frames"] + c["vocoder.plain.frames"],
        "vocoder.peaks_per_frame":
            c["vocoder.find_peaks.peaks"] / peaks_calls if peaks_calls else 0.0,
        "vocoder.self_s": own["vocoder.locked"] + own["vocoder.plain"],
        "transients.detect_s": total["transients.detect"],
        "transients.detect.calls": n["transients.detect"],
        "transients.events": events,
        "transients.useful_ratio": useful / events if events else 0.0,
        "transients.reposition_s": total["transients.reposition"],
        "noisemorph.stretch_s": total["noisemorph.stretch"],
        "noisemorph.excitation_s": total["noisemorph.excitation"],
        "noisemorph.self_s": own["noisemorph.stretch"],
        "pipeline.time_stretch_s": total["pipeline.time_stretch"],
        "pipeline.self_s": own["pipeline.time_stretch"] + own["pipeline.stretch_components"],
        "wavio.read_s": total["wavio.read"],
        "wavio.read_mb": c["wavio.read.bytes"] / 1e6,
        "wavio.write_s": total["wavio.write"],
        "wavio.write_mb": c["wavio.write.bytes"] / 1e6,
        "cli.run_s": total["cli.run"],
        "cli.self_s": own["cli.run"],
    }


def summarize(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """One value per metric over the traced passes of a run: the median of
    each time, and each count as it must be in every pass. Also returns the
    counts that differed between passes."""
    values, notes = {}, []
    for name, _ in PER_LAYER:
        if name == OVERHEAD:
            continue
        seen = [p[name] for p in passes]
        if name in EXACT_COUNTS:
            values[name] = seen[0] if seen else 0
            if len(set(seen)) > 1:
                notes.append(f"{name} differs between traced passes: {seen}")
        else:
            values[name] = statistics.median(seen) if seen else 0.0
    return values, notes
