"""STFT/ISTFT engine, window handling, and axis-wise median filtering.

All analysis uses one-sided spectra of real signals (K = window/2 + 1 bins)
and 64-bit floats internally. The ISTFT performs weighted overlap-add with
per-sample window-squared normalization, which reconstructs the input
exactly wherever at least one nonzero window value covers a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.signal import windows as _windows

from .errors import ConfigurationError

TIME_AXIS = "time"
FREQ_AXIS = "frequency"


@dataclass
class AudioBuffer:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigurationError("AudioBuffer requires a 1-D sample array")
        if self.sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("AudioBuffer samples must be finite")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass
class Spectrogram:
    """M x K grid (frames x bins) with the framing metadata that produced it.

    ``values`` may be complex (full spectrogram), non-negative real
    (magnitudes), or real in dB (log magnitudes); the operations below state
    which they expect.
    """

    values: np.ndarray
    window_size: int
    hop_size: int
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def copy_with(self, values: np.ndarray) -> "Spectrogram":
        return Spectrogram(values, self.window_size, self.hop_size, self.sample_rate)


@dataclass
class StftParams:
    """Analysis/synthesis framing: window length, hop, and window kind."""

    window_size: int
    hop_size: int
    window_kind: str = "hann"

    def __post_init__(self):
        if self.window_size <= 0:
            raise ConfigurationError(f"window_size must be positive, got {self.window_size}")
        if self.hop_size <= 0:
            raise ConfigurationError(f"hop_size must be positive, got {self.hop_size}")
        if self.hop_size > self.window_size:
            raise ConfigurationError(
                f"hop_size {self.hop_size} exceeds window_size {self.window_size}"
            )
        if self.window_kind not in ("hann", "rect"):
            raise ConfigurationError(f"unsupported window kind {self.window_kind!r}")

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1

    def window(self) -> np.ndarray:
        if self.window_kind == "rect":
            return np.ones(self.window_size)
        # periodic Hann, so sum(w^2) = 3L/8 exactly
        return _windows.hann(self.window_size, sym=False)


def output_length(input_length: int, alpha: float) -> int:
    """Length of a signal of input_length samples stretched by alpha:
    round(alpha * input_length), the length every stretch method returns."""
    return int(round(alpha * input_length))


def n_frames_for(length: int, params: StftParams) -> int:
    """Frame count for a signal of `length` samples (tail zero-padded)."""
    if length == 0:
        return 0
    return 1 + math.ceil(max(0, length - params.window_size) / params.hop_size)


def stft(signal: AudioBuffer, params: StftParams) -> Spectrogram:
    """Short-time Fourier transform with tail zero-padding.

    Frame m covers samples [m*hop, m*hop + window); the final partial frame
    is zero-padded. An empty signal yields a 0-frame spectrogram.
    """
    x = signal.samples
    w, h = params.window_size, params.hop_size
    m = n_frames_for(len(x), params)
    if m == 0:
        return Spectrogram(
            np.zeros((0, params.n_bins), dtype=np.complex128), w, h, signal.sample_rate
        )
    padded_len = (m - 1) * h + w
    xp = np.zeros(padded_len)
    xp[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(xp, w)[::h]
    values = np.fft.rfft(frames * params.window(), axis=1)
    return Spectrogram(values, w, h, signal.sample_rate)


def _window_overlap_sum(window: np.ndarray, n_frames: int, hop: int, length: int) -> np.ndarray:
    wsq = window**2
    acc = np.zeros(length)
    w = len(window)
    for m in range(n_frames):
        acc[m * hop : m * hop + w] += wsq
    return acc


def istft(spec: Spectrogram, params: StftParams, target_length="auto") -> AudioBuffer:
    """Weighted overlap-add inverse STFT with window-sum normalization.

    With target_length="auto" the output spans (M-1)*hop + window samples;
    otherwise the result is trimmed or zero-padded to the requested length.
    Round-trips istft(stft(x)) exactly wherever the accumulated squared
    window is nonzero.
    """
    if spec.window_size != params.window_size or spec.hop_size != params.hop_size:
        raise ConfigurationError(
            f"spectrogram framing ({spec.window_size}/{spec.hop_size}) does not match "
            f"params ({params.window_size}/{params.hop_size})"
        )
    w, h = params.window_size, params.hop_size
    m = spec.n_frames
    full_len = (m - 1) * h + w if m else 0
    out = np.zeros(full_len)
    if m:
        win = params.window()
        frames = np.fft.irfft(spec.values, n=w, axis=1) * win
        for i in range(m):
            out[i * h : i * h + w] += frames[i]
        wsum = _window_overlap_sum(win, m, h, full_len)
        covered = wsum > 0.0
        out[covered] /= wsum[covered]
        out[~covered] = 0.0
    if target_length == "auto":
        target_length = full_len
    if target_length < 0:
        raise ConfigurationError("target_length must be non-negative")
    if target_length <= full_len:
        out = out[:target_length]
    else:
        out = np.pad(out, (0, target_length - full_len))
    return AudioBuffer(out, spec.sample_rate)


def _truncated_median_edges(values, out, axis, length):
    """Recompute edge positions with medians over the available neighbors."""
    half = length // 2
    n = values.shape[axis]
    idx = set(range(min(half, n))) | set(range(max(0, n - half), n))
    for i in sorted(idx):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        sl = [slice(None), slice(None)]
        sl[axis] = slice(lo, hi)
        med = np.median(values[tuple(sl)], axis=axis)
        dst = [slice(None), slice(None)]
        dst[axis] = i
        out[tuple(dst)] = med
    return out


def median_filter_axis(mag: Spectrogram, axis: str, length: int) -> Spectrogram:
    """Sliding median along the time or frequency axis of a magnitude grid.

    Edges use truncated windows (median over the neighbors that exist), so
    no padding values are invented. length must be odd and positive.
    """
    if length < 1 or length % 2 == 0:
        raise ConfigurationError(f"median length must be odd and positive, got {length}")
    values = np.asarray(mag.values, dtype=np.float64)
    if length == 1 or values.size == 0:
        return mag.copy_with(values.copy())
    ax = {TIME_AXIS: 0, FREQ_AXIS: 1}.get(axis)
    if ax is None:
        raise ConfigurationError(f"axis must be 'time' or 'frequency', got {axis!r}")
    size = (length, 1) if ax == 0 else (1, length)
    # interior is exact under any boundary mode; edges fixed up below
    out = ndimage.median_filter(values, size=size, mode="nearest")
    out = _truncated_median_edges(values, out, ax, length)
    return mag.copy_with(out)


def window_energy(params: StftParams) -> float:
    """sqrt(sum(w^2)): dividing a white-noise STFT by this makes its
    expected per-bin magnitude response one."""
    w = params.window()
    return float(np.sqrt(np.sum(w**2)))
