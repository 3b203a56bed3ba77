"""Phase-vocoder time stretching for the tonal component.

Synthesis frames are laid out at a fixed hop; each reads its analysis frame
from the input at position m*hop/alpha (rounded to the nearest sample, with
the actual inter-frame distance used in the frequency estimate, so rounding
does not bias the instantaneous frequencies). With phase locking enabled,
bins inside each spectral peak's region of influence are rotated rigidly
with the peak, preserving vertical phase coherence: the analysis spectrum is
turned by one rotation per peak region, so phases are taken only at peak
bins. Without locking every bin propagates independently (the plain vocoder
used as quality anchor). Frames are transformed, synthesized and
overlap-added in blocks of at most _FRAME_BLOCK values, a constant, not a
setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AudioBuffer, StftParams, check_alpha, n_frames_for, output_length, overlap_add
from .errors import ConfigurationError

_FRAME_BLOCK = 2**17  # values per block of analysis frames (32 frames at 4096)


@dataclass(frozen=True)
class PvParams:
    window_size: int = 4096
    synthesis_hop: int = 1024

    def __post_init__(self):
        if self.window_size <= 0 or self.synthesis_hop <= 0:
            raise ConfigurationError("window_size and synthesis_hop must be positive")
        if self.synthesis_hop > self.window_size // 2:
            raise ConfigurationError(
                f"synthesis_hop {self.synthesis_hop} exceeds half the window "
                f"({self.window_size // 2})"
            )


def find_peaks(mag_frame: np.ndarray) -> np.ndarray:
    """Spectral peaks and their regions of influence for one frame.

    A candidate bin (index 2 .. K-3) is a peak when strictly greater than
    every candidate within two bins of it. Regions partition [0, K) with
    boundaries at the magnitude minimum between adjacent peaks (first such
    minimum on ties). Returns an integer array of shape (P, 3), one row
    (peak_bin, region_start, region_end) per peak in ascending bin order;
    P = 0 means no locking should be applied. Raises ConfigurationError for
    fewer than 5 bins or a NaN between two peaks.
    """
    mag = np.asarray(mag_frame, dtype=np.float64)
    k = mag.size
    if k < 5:
        raise ConfigurationError(f"need at least 5 bins to find peaks, got {k}")
    cand = mag[2 : k - 2]
    ok = np.ones(cand.size, dtype=bool)
    for off in (1, 2):
        ok[off:] &= cand[off:] > cand[:-off]
        ok[:-off] &= cand[:-off] > cand[off:]
    peaks = np.flatnonzero(ok) + 2
    if peaks.size == 0:
        return np.empty((0, 3), dtype=peaks.dtype)
    # Peak p[i+1] is strictly greater than bin p[i+1] - 1, which lies in the
    # span, so the minimum of [p[i], p[i+1]] is never at p[i+1]: the
    # half-open reduceat spans [p[i], p[i+1]) give the same bounds.
    lo = peaks[0]
    span = mag[lo : peaks[-1]]
    starts = peaks[:-1] - lo
    mins = np.minimum.reduceat(span, starts)
    if np.isnan(mins).any():
        raise ConfigurationError("NaN magnitude between spectral peaks")
    at_min = span == np.repeat(mins, np.diff(peaks))
    # first bin at the span's minimum: the lowest bin wins ties
    first = np.where(at_min, np.arange(span.size), span.size)
    cuts = lo + np.minimum.reduceat(first, starts)
    bounds = np.concatenate(([0], cuts, [k]))
    return np.column_stack((peaks, bounds[:-1], bounds[1:]))


def _princarg(phi):
    return phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))


def _inst_freq(phase, prev_phase, omega, dt):
    """Instantaneous frequency (rad/sample) from two analysis phases dt apart."""
    return omega + _princarg(phase - prev_phase - omega * dt) / dt


def _pv_stretch(x: np.ndarray, alpha: float, window_size: int, synth_hop: int,
                locked: bool) -> np.ndarray:
    out_length = output_length(len(x), alpha)
    if out_length == 0 or len(x) == 0:
        return np.zeros(out_length)
    params = StftParams(window_size, synth_hop)
    win = params.window()
    omega = 2.0 * np.pi * np.arange(params.n_bins) / window_size  # phase advance per sample

    n_syn = n_frames_for(out_length, params)
    positions = np.rint(np.arange(n_syn) * synth_hop / alpha).astype(int)
    dts = np.maximum(np.diff(positions, prepend=positions[0]), 1)
    xp = np.zeros(max(positions[-1] + window_size, len(x)))
    xp[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(xp, window_size)

    out = np.zeros((n_syn - 1) * synth_hop + window_size)
    block = max(1, _FRAME_BLOCK // window_size)
    step = _locked_block if locked else _plain_block
    state = None
    for b0 in range(0, n_syn, block):
        b1 = min(b0 + block, n_syn)
        spec = np.fft.rfft(frames[positions[b0:b1]] * win, axis=1)
        synth, state = step(spec, dts[b0:b1], omega, synth_hop, state)
        overlap_add(np.fft.irfft(synth, n=window_size, axis=1) * win, synth_hop,
                    out=out[b0 * synth_hop : (b1 - 1) * synth_hop + window_size])

    wsum = overlap_add(np.broadcast_to(win**2, (n_syn, window_size)), synth_hop)
    # clamp to the full-overlap level so partially covered edge samples fade
    # out instead of being amplified by a tiny window sum
    out /= np.maximum(wsum, np.median(wsum))
    return out[:out_length]


def _plain_block(spec, dts, omega, synth_hop, state):
    """Synthesis spectra of a block of frames, every bin propagated on its own.

    state is (analysis phase, synthesis phase) of the frame before the block,
    None before the first frame, which keeps its analysis phase.
    """
    phase = np.angle(spec)
    prev_phase, psi = (phase[0], None) if state is None else state
    prev = np.concatenate((prev_phase[None], phase[:-1]))
    steps = synth_hop * _inst_freq(phase, prev, omega, dts[:, None])
    if psi is None:
        steps[0] = phase[0]
    else:
        steps[0] += psi
    psi = np.cumsum(steps, axis=0)  # sequential sums: each frame adds to the last
    return np.abs(spec) * np.exp(1j * psi), (phase[-1], psi[-1])


def _locked_block(spec, dts, omega, synth_hop, state):
    """Synthesis spectra of a block of frames with identity phase locking.

    A frame with peaks is its analysis spectrum turned by one rotation per
    peak region, rotation = psi_prev + hop * inst - phase at the peak bin,
    so phase and advance are computed only at peak bins. state is (previous
    spectrum, its per-bin rotation, its synthesis phase): the phase is given
    in full after a frame without peaks (or the first frame), and is None when
    it is the spectrum's phase plus the rotation. A frame without peaks
    propagates every bin on its own.
    """
    mag = np.abs(spec)
    synth = np.empty_like(spec)
    first = state is None  # the first frame keeps its analysis phase
    prev, rot, psi = (spec[0], None, np.angle(spec[0])) if first else state
    if first:
        synth[0] = mag[0] * np.exp(1j * psi)
    for i in range(int(first), len(spec)):
        regions = find_peaks(mag[i])
        if len(regions) == 0:
            phase, prev_phase = np.angle(spec[i]), np.angle(prev)
            if psi is None:
                psi = prev_phase + rot
            psi = psi + synth_hop * _inst_freq(phase, prev_phase, omega, dts[i])
            synth[i] = mag[i] * np.exp(1j * psi)
        else:
            peaks, starts, ends = regions.T
            phase, prev_phase = np.angle(spec[i, peaks]), np.angle(prev[peaks])
            psi_prev = prev_phase + rot[peaks] if psi is None else psi[peaks]
            inst = _inst_freq(phase, prev_phase, omega[peaks], dts[i])
            rotation = psi_prev + synth_hop * inst - phase
            counts = ends - starts
            rot, psi = np.repeat(rotation, counts), None
            synth[i] = spec[i] * np.repeat(np.exp(1j * rotation), counts)
        prev = spec[i]
    return synth, (prev, rot, psi)


def stretch_sines(sines: AudioBuffer, alpha: float, params: PvParams | None = None) -> AudioBuffer:
    """Time-stretch with identity phase locking; output len = round(alpha*N)."""
    if params is None:
        params = PvParams()
    check_alpha(alpha)
    out = _pv_stretch(sines.samples, alpha, params.window_size, params.synthesis_hop, True)
    return AudioBuffer(out, sines.sample_rate)


def stretch_plain(x: AudioBuffer, alpha: float, params: PvParams | None = None) -> AudioBuffer:
    """Plain phase vocoder (no phase locking); the listening-test anchor."""
    if params is None:
        params = PvParams()
    check_alpha(alpha)
    out = _pv_stretch(x.samples, alpha, params.window_size, params.synthesis_hop, False)
    return AudioBuffer(out, x.sample_rate)
