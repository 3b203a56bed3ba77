"""Transient event detection and repositioning.

Detection runs on the transient STN component, which is already dominated by
impulsive energy, so a short-time RMS envelope with a relative threshold is
sufficient. Each detected event is extracted as a faded segment and, when
stretching, pasted back with its onset moved to round(alpha * onset); the
segments themselves are never time-stretched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import MAX_OUTPUT_SAMPLES, AudioBuffer, check_alpha
from .errors import ConfigurationError


@dataclass(frozen=True)
class TransientDetectParams:
    """All values in seconds except the unitless threshold settings."""

    frame_s: float = 0.010
    hop_s: float = 0.001
    rel_threshold: float = 4.0
    abs_floor: float = 1e-5
    pre_s: float = 0.005
    max_event_s: float = 0.100
    fade_s: float = 0.005
    min_gap_s: float = 0.020

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
            if f.name.endswith("_s") and value < 0:
                raise ConfigurationError(f"{f.name} must be non-negative, got {value}")
        for name in ("frame_s", "hop_s", "rel_threshold"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class TransientEvent:
    onset: int  # sample index in the input
    segment: np.ndarray  # windowed event samples, fades applied
    anchor: int  # offset of the onset within the segment


def _rms_envelope(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """RMS of the frames of x at starts 0, hop, ...; an x shorter than one
    frame gives one value, as if zero-padded, with no padded copy."""
    csum = np.concatenate([[0.0], np.cumsum(x**2)])
    starts = np.arange(0, max(len(x) - frame, 0) + 1, hop)
    ends = np.minimum(starts + frame, len(x))
    return np.sqrt((csum[ends] - csum[starts]) / frame)


def _raised_cosine_fades(segment: np.ndarray, fade_in: int, fade_out: int) -> np.ndarray:
    half = len(segment) // 2
    fade_in = min(fade_in, half)
    fade_out = min(fade_out, half)
    if fade_in > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade_in) / fade_in)
        segment[:fade_in] *= ramp
    if fade_out > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade_out) / fade_out)
        segment[-fade_out:] *= ramp[::-1]
    return segment


def detect_events(
    transient: AudioBuffer, params: TransientDetectParams | None = None
) -> list[TransientEvent]:
    """Find impulsive events via threshold crossings of the RMS envelope.

    An onset fires when the envelope rises above max(4 * median, floor) after
    having been below it; the event extends until the envelope drops below
    half the onset threshold or the maximum event length elapses. Segments
    start slightly before the onset, carry raised-cosine edge fades, and
    never overlap each other.
    """
    if params is None:
        params = TransientDetectParams()
    sr = transient.sample_rate
    x = transient.samples
    frame = max(1, round(params.frame_s * sr))
    hop = max(1, round(params.hop_s * sr))
    if len(x) == 0:
        return []
    env = _rms_envelope(x, frame, hop)
    th_on = max(params.rel_threshold * float(np.median(env)), params.abs_floor)
    th_off = th_on / 2.0
    fade = round(params.fade_s * sr)
    pre = round(params.pre_s * sr)
    min_gap = round(params.min_gap_s * sr)
    max_len = round(params.max_event_s * sr)

    events: list[TransientEvent] = []
    prev_end = 0
    armed = True
    i = 0
    while i < len(env):
        if env[i] <= th_on:
            armed = True
            i += 1
            continue
        if not armed:
            i += 1
            continue
        onset = i * hop
        j = i
        while j < len(env) and env[j] >= th_off and (j - i) * hop < max_len:
            j += 1
        end = min(len(x), (j - 1) * hop + frame if j > i else onset + frame)
        # the envelope crossing can lead the event body by many samples
        # (e.g. on the soft pre-ring of a masked transient), and any onset
        # bias gets multiplied by alpha when repositioning; snap the onset
        # to the first strong sample of the event span
        span = np.abs(x[onset:end])
        if span.size and span.max() > 0:
            onset += int(np.argmax(span >= 0.5 * span.max()))
        if events and onset - events[-1].onset < min_gap:
            i += 1
            continue
        start = max(prev_end, onset - pre)
        # never fade past the onset itself: an event at the very start of
        # the signal has no pre-roll and must keep its attack intact
        segment = _raised_cosine_fades(x[start:end].copy(), min(fade, onset - start), fade)
        if segment.size:
            events.append(TransientEvent(onset=onset, segment=segment, anchor=onset - start))
            prev_end = end
        armed = False
        i = max(j, i + 1)
    return events


def reposition_events(events: list[TransientEvent], alpha: float, out_length: int) -> np.ndarray:
    """Sum each event into out_length zero samples with its onset at
    round(alpha*onset); returns the samples.

    Segments whose tail would run past out_length are clipped; overlapping
    repositioned segments are summed (the edge fades keep that click-free).
    """
    check_alpha(alpha)
    if not 0 <= out_length <= MAX_OUTPUT_SAMPLES:
        raise ConfigurationError(
            f"out_length must be in [0, {MAX_OUTPUT_SAMPLES}], got {out_length}"
        )
    out = np.zeros(out_length)
    for ev in events:
        start = int(round(alpha * ev.onset)) - ev.anchor
        seg = ev.segment
        if start < 0:
            seg = seg[-start:]
            start = 0
        end = min(out_length, start + len(seg))
        if end > start:
            out[start:end] += seg[: end - start]
    return out


def onsets_csv_rows(events: list[TransientEvent], alpha: float):
    """(input_sample, output_sample) pairs for CSV export."""
    return [(ev.onset, int(round(alpha * ev.onset))) for ev in events]
