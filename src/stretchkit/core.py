"""STFT/ISTFT engine, window handling, and axis-wise median filtering.

All analysis uses one-sided spectra of real signals (K = window/2 + 1 bins)
and 64-bit floats internally. One overlap-add, `overlap_add`, sums
frames for the ISTFT, its window-squared normalization and the vocoder's,
which adds block after block into one output buffer.
The ISTFT's per-sample normalization reconstructs the input exactly wherever
at least one nonzero window value covers a sample. The truncated-edge median
sorts each window on its own in bounded blocks, on up to one thread per CPU
in the process's affinity; its output is bit-identical for any thread count,
and no setting changes the count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

TIME_AXIS = "time"
FREQ_AXIS = "frequency"

_MEDIAN_BLOCK = 1 << 16  # values per sorted median block (512 KB)
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


def overlap_add(frames: np.ndarray, hop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum M frames of width W laid hop apart into (M-1)*hop + W samples
    (none for M = 0), added into `out` (a contiguous array of that length)
    if given, else into zeros; returns the sums.

    Works on hop-wide column blocks, last block first, so every sample adds
    its frames in frame order: bit-identical to a frame-by-frame loop.
    """
    m, w = frames.shape
    if out is None:
        out = np.zeros((m - 1) * hop + w if m else 0)
    if m == 0:
        return out
    last = (m - 1) * hop
    for start in range((w - 1) // hop * hop, -1, -hop):
        width = min(hop, w - start)
        cols = frames[:, start : start + width]
        out[start : start + last].reshape(m - 1, hop)[:, :width] += cols[:-1]
        out[start + last : start + last + width] += cols[-1]
    return out


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

    The windows are sorted in blocks of at most _MEDIAN_BLOCK values; blocks
    of full windows are shared among one thread per CPU the process may use.
    Each window is sorted on its own, so the output is bit-identical for any
    thread count.
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
    result = np.empty_like(values)
    out = np.moveaxis(result, ax, 1)  # lines x positions, a view of result
    lines, n = out.shape
    # each line contiguous; NaN pads sort last, so the first `count` sorted
    # values of a truncated window are its real ones
    padded = np.full((lines, n + 2 * half), np.nan)
    padded[:, half : half + n] = np.moveaxis(values, ax, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)
    full = _median_blocks(lines, half, n - half, length)
    edges = _median_blocks(lines, 0, min(half, n), length)
    edges += _median_blocks(lines, max(half, n - half), n, length)
    # sort buffers come from this thread, so pool threads allocate nothing
    buf_size = min(max(1, _MEDIAN_BLOCK // length), lines * n) * length
    workers = min(len(full), _cpu_count())
    if workers > 1:
        pool = _median_pool()
        tasks = [
            pool.submit(_full_medians, windows, out, full[i::workers], np.empty(buf_size))
            for i in range(workers)
        ]
    else:
        tasks = []
        _full_medians(windows, out, full, np.empty(buf_size))
    buf = np.empty(buf_size)
    for r, p in edges:
        block = _sorted_block(windows[r, p], buf)
        pos = np.arange(p.start, p.stop)
        count = np.minimum(pos + half, n - 1) - np.maximum(pos - half, 0) + 1
        lo, hi = (count - 1) // 2, count // 2
        a, b = (np.take_along_axis(block, k[None, :, None], axis=2)[..., 0] for k in (lo, hi))
        # an odd count keeps its middle value, like np.median, even if a + a overflows
        with np.errstate(over="ignore"):
            out[r, p] = np.where(lo == hi, a, (a + b) / 2)
    for task in tasks:
        task.result()
    return mag.copy_with(result)


def _median_blocks(lines: int, start: int, stop: int, length: int) -> list:
    """(line slice, position slice) pairs tiling lines x [start, stop), each
    with at most _MEDIAN_BLOCK window values (one window if it is longer)."""
    if stop <= start:
        return []
    per_block = max(1, _MEDIAN_BLOCK // length)
    step = min(stop - start, per_block)
    rows = max(1, per_block // step)
    return [
        (slice(r, r + rows), slice(p, min(p + step, stop)))
        for r in range(0, lines, rows)
        for p in range(start, stop, step)
    ]


def _sorted_block(windows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Copy windows into the front of buf and sort each window in place."""
    block = buf[: windows.size].reshape(windows.shape)
    np.copyto(block, windows)
    block.sort(axis=2)
    return block


def _full_medians(windows: np.ndarray, out: np.ndarray, blocks: list, buf: np.ndarray) -> None:
    """Write the median of every full window in blocks into out."""
    half = windows.shape[2] // 2
    for r, p in blocks:
        out[r, p] = _sorted_block(windows[r, p], buf)[..., half]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None
_pool_lock = threading.Lock()


def _median_pool() -> ThreadPoolExecutor:
    """The module's thread pool, one thread per CPU, built on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpu_count(), thread_name_prefix="stretchkit-median")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of the parent's pool threads: build a new pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def window_energy(params: StftParams) -> float:
    """sqrt(sum(w^2)): dividing a white-noise STFT by this makes its
    expected per-bin magnitude response one."""
    w = params.window()
    return float(np.sqrt(np.sum(w**2)))
