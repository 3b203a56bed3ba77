"""Objective measurement oracles backing the acceptance suite.

Everything here is implemented directly on numpy/scipy primitives, separate
from the processing code paths it judges, so a bug shared between the
pipeline and its checks cannot hide itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .core import AudioBuffer
from .errors import ConfigurationError


@dataclass
class MetricReport:
    case: str
    metric: str
    value: float
    target: float
    tolerance: float
    passed: bool
    note: str = ""

    def row(self):
        return (
            self.case,
            self.metric,
            f"{self.value:.6g}",
            f"{self.target:.6g}",
            f"{self.tolerance:.6g}",
            "pass" if self.passed else "FAIL",
        )


def dominant_frequency(buf: AudioBuffer) -> float:
    """Peak frequency via zero-padded FFT with parabolic interpolation."""
    x = buf.samples
    if x.size == 0:
        raise ConfigurationError("cannot measure an empty signal")
    w = np.hanning(len(x))
    n_fft = int(2 ** np.ceil(np.log2(len(x) * 8)))
    mag = np.abs(np.fft.rfft(x * w, n=n_fft))
    k = int(np.argmax(mag))
    if 0 < k < len(mag) - 1 and mag[k] > 0:
        la, lb, lc = np.log(np.maximum(mag[k - 1 : k + 2], 1e-300))
        denom = la - 2 * lb + lc
        if denom != 0:
            k = k + 0.5 * (la - lc) / denom
    return k * buf.sample_rate / n_fft


def _smoothed_power(x: np.ndarray, sample_rate: int, smooth_s: float) -> np.ndarray:
    box = max(1, round(smooth_s * sample_rate))
    return np.convolve(x**2, np.ones(box) / box, mode="same")


def onset_positions(buf: AudioBuffer, threshold_ratio: float = 0.25,
                    min_gap_s: float = 0.05) -> np.ndarray:
    """Times (s) where the smoothed power envelope first crosses a fraction
    of its maximum, with a refractory gap between detections."""
    env = _smoothed_power(buf.samples, buf.sample_rate, 0.002)
    if env.size == 0 or env.max() <= 0:
        return np.zeros(0)
    th = threshold_ratio * env.max()
    above = env > th
    crossings = np.flatnonzero(above & ~np.roll(above, 1))
    if above[0]:
        crossings = np.unique(np.concatenate([[0], crossings]))
    min_gap = round(min_gap_s * buf.sample_rate)
    kept = []
    for c in crossings:
        if not kept or c - kept[-1] >= min_gap:
            kept.append(int(c))
    return np.array(kept) / buf.sample_rate


def rise_time(buf: AudioBuffer, center_s: float, half_window_s: float = 0.05) -> float:
    """10-90% cumulative-energy span (s) around an expected event time."""
    sr = buf.sample_rate
    lo = max(0, round((center_s - half_window_s) * sr))
    hi = min(len(buf), round((center_s + half_window_s) * sr))
    if hi <= lo:
        raise ConfigurationError("measurement window is empty")
    power = _smoothed_power(buf.samples[lo:hi], sr, 0.0005)
    cum = np.cumsum(power)
    total = cum[-1]
    if total <= 0:
        return float(hi - lo) / sr
    t10 = np.searchsorted(cum, 0.10 * total)
    t90 = np.searchsorted(cum, 0.90 * total)
    return max(t90 - t10, 1) / sr


def octave_band_levels(buf: AudioBuffer, f_min: float = 125.0, f_max: float = 8000.0):
    """(centers, dB levels) of octave-band mean PSD from a Welch estimate."""
    freqs, psd = sps.welch(buf.samples, fs=buf.sample_rate, nperseg=4096)
    centers = []
    levels = []
    fc = f_min
    while fc <= f_max * (1 + 1e-9):
        band = (freqs >= fc / np.sqrt(2)) & (freqs < fc * np.sqrt(2))
        if np.any(band):
            centers.append(fc)
            levels.append(10.0 * np.log10(np.mean(psd[band]) + 1e-300))
        fc *= 2.0
    return np.array(centers), np.array(levels)


def oracle_magnitude_spectrogram(buf: AudioBuffer, window_size: int, hop_size: int):
    """Plain framed |rfft| with a periodic Hann window (frames x bins).

    Deliberately written against np.fft directly rather than the package's
    STFT so envelope comparisons do not share code with what they verify.
    """
    x = buf.samples
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window_size) / window_size)
    n_frames = 1 + max(0, (len(x) - window_size)) // hop_size
    mags = np.empty((n_frames, window_size // 2 + 1))
    for m in range(n_frames):
        seg = x[m * hop_size : m * hop_size + window_size]
        mags[m] = np.abs(np.fft.rfft(win * seg))
    return mags


def interpolate_rows(values: np.ndarray, alpha: float) -> np.ndarray:
    """Row-count interpolation by alpha using np.interp per column."""
    m = values.shape[0]
    m_out = int(round(alpha * m))
    pos = np.clip(np.arange(m_out) / alpha, 0, m - 1)
    return np.stack([np.interp(pos, np.arange(m), values[:, k])
                     for k in range(values.shape[1])], axis=1)

