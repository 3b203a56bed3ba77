"""STFT/ISTFT engine, window handling, and axis-wise median filtering.

All analysis uses one-sided spectra of real signals (K = window/2 + 1 bins)
and 64-bit floats internally. One overlap-add, `overlap_add`, sums
frames for the ISTFT, its window-squared normalization and the vocoder's.
The ISTFT's per-sample normalization reconstructs the input exactly wherever
at least one nonzero window value covers a sample. The truncated-edge median
is computed in one pass, edges and interior alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TIME_AXIS = "time"
FREQ_AXIS = "frequency"

_MEDIAN_BLOCK = 1 << 20  # values per sorted median chunk (8 MB)
# peak |sample| accepted from a caller; every stage stays finite far above it
MAX_AMPLITUDE = 1e100
# longest output, just above what a 32-bit RIFF size field allows as float32
MAX_OUTPUT_SAMPLES = 2**30


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
    """Analysis/synthesis framing: window length and hop."""

    window_size: int
    hop_size: int

    def __post_init__(self):
        if self.window_size <= 0:
            raise ConfigurationError(f"window_size must be positive, got {self.window_size}")
        if self.hop_size <= 0:
            raise ConfigurationError(f"hop_size must be positive, got {self.hop_size}")
        if self.hop_size > self.window_size:
            raise ConfigurationError(
                f"hop_size {self.hop_size} exceeds window_size {self.window_size}"
            )

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1

    def window(self) -> np.ndarray:
        """Periodic Hann, so sum(w^2) = 3L/8 exactly; a single 1 for L = 1."""
        n = self.window_size
        return np.ones(1) if n == 1 else 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def check_alpha(alpha: float) -> None:
    """Reject a stretch factor that is not positive and finite."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigurationError(f"alpha must be positive and finite, got {alpha}")


def check_seed(seed: int) -> None:
    """Reject a seed the PCG64 generator cannot take."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")


def check_amplitude(x: AudioBuffer) -> None:
    """Reject an input whose peak magnitude exceeds MAX_AMPLITUDE."""
    peak = float(np.max(np.abs(x.samples))) if len(x) else 0.0
    if peak > MAX_AMPLITUDE:
        raise ConfigurationError(
            f"input peak amplitude {peak:g} exceeds the limit {MAX_AMPLITUDE:g}"
        )


def output_length(input_length: int, alpha: float) -> int:
    """Length of a signal of input_length samples stretched by alpha:
    round(alpha * input_length), the length every stretch method returns.
    Raises ConfigurationError when alpha * input_length exceeds
    MAX_OUTPUT_SAMPLES, before anything of that size is allocated."""
    scaled = alpha * input_length
    if not scaled <= MAX_OUTPUT_SAMPLES:
        raise ConfigurationError(
            f"output of {scaled:g} samples (alpha {alpha:g} x {input_length}) "
            f"exceeds the limit of {MAX_OUTPUT_SAMPLES} samples"
        )
    return int(round(scaled))


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


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum M frames of width W laid hop apart into (M-1)*hop + W samples
    (none for M = 0).

    Works on hop-wide column blocks, last block first, so every sample adds
    its frames in frame order: bit-identical to a frame-by-frame loop.
    """
    m, w = frames.shape
    if m == 0:
        return np.zeros(0)
    out = np.zeros(m * hop + w)
    for start in range((w - 1) // hop * hop, -1, -hop):
        width = min(hop, w - start)
        out[start : start + m * hop].reshape(m, hop)[:, :width] += frames[:, start : start + width]
    return out[: (m - 1) * hop + w]


def istft(spec: Spectrogram) -> AudioBuffer:
    """Weighted overlap-add inverse STFT with window-sum normalization.

    The spectrogram's window size and hop are the framing, and the output
    spans the (M-1)*hop + window samples its frames cover. Round-trips
    istft(stft(x)) exactly wherever the accumulated squared window is nonzero.
    """
    w, h = spec.window_size, spec.hop_size
    win = StftParams(w, h).window()
    frames = np.fft.irfft(spec.values, n=w, axis=1) * win
    out = overlap_add(frames, h)
    wsum = overlap_add(np.broadcast_to(win**2, frames.shape), h)
    covered = wsum > 0.0
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    return AudioBuffer(out, spec.sample_rate)


def median_filter_axis(mag: Spectrogram, axis: str, length: int) -> Spectrogram:
    """Sliding median along the time or frequency axis of a magnitude grid.

    Each position takes the median over its neighbors within length // 2
    that exist, so edges use truncated windows and no padding values are
    invented. length must be odd and positive; values must be finite.
    """
    if length < 1 or length % 2 == 0:
        raise ConfigurationError(f"median length must be odd and positive, got {length}")
    ax = {TIME_AXIS: 0, FREQ_AXIS: 1}.get(axis)
    if ax is None:
        raise ConfigurationError(f"axis must be 'time' or 'frequency', got {axis!r}")
    values = np.asarray(mag.values, dtype=np.float64)
    if values.size == 0:
        return mag.copy_with(values.copy())
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("median filter input must be finite")
    half = length // 2
    # NaN pads sort last: the first `count` sorted values are the real ones
    padded = np.pad(np.moveaxis(values, ax, 0), ((half, half), (0, 0)), constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, length, axis=0)
    n, cols = windows.shape[:2]
    count = length - np.isnan(windows[:, 0]).sum(axis=1)
    lo, hi = (count - 1) // 2, count // 2
    out = np.empty_like(values)
    rows = max(1, _MEDIAN_BLOCK // (cols * length))
    for r in (slice(start, start + rows) for start in range(0, n, rows)):
        block = windows[r].copy()
        block.sort(axis=2)
        a, b = (np.take_along_axis(block, k[r, None, None], axis=2)[..., 0] for k in (lo, hi))
        # an odd count keeps its middle value, like np.median, even if a + a overflows
        with np.errstate(over="ignore"):
            np.moveaxis(out, ax, 0)[r] = np.where((lo == hi)[r, None], a, (a + b) / 2)
    return mag.copy_with(out)


def window_energy(params: StftParams) -> float:
    """sqrt(sum(w^2)): dividing a white-noise STFT by this makes its
    expected per-bin magnitude response one."""
    w = params.window()
    return float(np.sqrt(np.sum(w**2)))
