"""Phase-vocoder time stretching for the tonal component.

Synthesis frames are laid out at a fixed hop; each reads its analysis frame
from the input at position m*hop/alpha (rounded to the nearest sample, with
the actual inter-frame distance used in the frequency estimate, so rounding
does not bias the instantaneous frequencies). With phase locking enabled,
bins inside each spectral peak's region of influence are rotated rigidly
with the peak, preserving vertical phase coherence; without locking every
bin propagates independently (the plain vocoder used as quality anchor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AudioBuffer, StftParams, _window_overlap_sum, check_alpha, output_length
from .errors import ConfigurationError


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


def find_peaks(mag_frame: np.ndarray):
    """Spectral peaks and their regions of influence for one frame.

    A candidate bin (index 2 .. K-3) is a peak when strictly greater than
    every candidate within two bins of it. Regions partition [0, K) with
    boundaries at the magnitude minimum between adjacent peaks (first such
    minimum on ties). Returns a list of (peak_bin, region_start, region_end);
    an empty list means no locking should be applied.
    """
    mag = np.asarray(mag_frame, dtype=np.float64)
    k = mag.size
    if k < 5:
        raise ConfigurationError(f"need at least 5 bins to find peaks, got {k}")
    cand = np.arange(2, k - 2)
    ok = np.ones(cand.size, dtype=bool)
    for off in (-2, -1, 1, 2):
        j = cand + off
        valid = (j >= 2) & (j <= k - 3)
        ok &= ~valid | (mag[cand] > mag[np.clip(j, 0, k - 1)])
    peaks = cand[ok]
    if peaks.size == 0:
        return []
    bounds = [0]
    for a, b in zip(peaks[:-1], peaks[1:]):
        bounds.append(int(a + np.argmin(mag[a : b + 1])))
    bounds.append(k)
    return [
        (int(p), int(bounds[i]), int(bounds[i + 1])) for i, p in enumerate(peaks)
    ]


def _princarg(phi):
    return phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))


def _pv_stretch(x: np.ndarray, alpha: float, window_size: int, synth_hop: int,
                locked: bool) -> np.ndarray:
    out_length = output_length(len(x), alpha)
    if out_length == 0 or len(x) == 0:
        return np.zeros(out_length)
    params = StftParams(window_size, synth_hop)
    win = params.window()
    k = params.n_bins
    omega = 2.0 * np.pi * np.arange(k) / window_size  # phase advance per sample

    n_syn = 1 + int(np.ceil(max(0, out_length - window_size) / synth_hop))
    positions = np.rint(np.arange(n_syn) * synth_hop / alpha).astype(int)
    xp = np.zeros(max(positions[-1] + window_size, len(x)))
    xp[: len(x)] = x

    out = np.zeros((n_syn - 1) * synth_hop + window_size)
    prev_phase = None
    psi = None
    for m in range(n_syn):
        frame = np.fft.rfft(win * xp[positions[m] : positions[m] + window_size])
        mag = np.abs(frame)
        phase = np.angle(frame)
        if m == 0:
            psi = phase.copy()
        else:
            dt = max(int(positions[m] - positions[m - 1]), 1)
            dphi = _princarg(phase - prev_phase - omega * dt)
            inst = omega + dphi / dt
            if locked:
                psi = _locked_phases(mag, phase, psi, inst, synth_hop)
            else:
                psi = psi + synth_hop * inst
        prev_phase = phase
        synth = np.fft.irfft(mag * np.exp(1j * psi), n=window_size) * win
        out[m * synth_hop : m * synth_hop + window_size] += synth

    wsum = _window_overlap_sum(win, n_syn, synth_hop, len(out))
    # clamp to the full-overlap level so partially covered edge samples fade
    # out instead of being amplified by a tiny window sum
    out /= np.maximum(wsum, np.median(wsum))
    return out[:out_length]


def _locked_phases(mag, phase, psi_prev, inst, synth_hop):
    regions = find_peaks(mag)
    if not regions:
        return psi_prev + synth_hop * inst
    peaks = np.array([r[0] for r in regions])
    lengths = np.array([r[2] - r[1] for r in regions])
    rotation = psi_prev[peaks] + synth_hop * inst[peaks] - phase[peaks]
    return phase + np.repeat(rotation, lengths)


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
