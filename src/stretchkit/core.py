"""STFT/ISTFT engine, window handling, and axis-wise median filtering.

All analysis uses one-sided spectra of real signals (K = window/2 + 1 bins)
and 64-bit floats internally. One overlap-add, `overlap_add`, sums
frames for the ISTFT, its window-squared normalization, the vocoder's and
the noise morph's, which add block after block of at most FRAME_BLOCK values
(`frame_blocks`) into one output buffer. One normalization,
`divide_window_sum`, serves the ISTFT and the noise morph: it reconstructs
the input exactly wherever at least one nonzero window value covers a sample.

One thread rule serves the transforms, the median and the frame blocks
(`dealer`, and `_parallel` on it): work on independent rows or blocks is
dealt out to the calling thread and to worker threads, at most one per CPU
in the process's affinity, started for the call and joined before it
returns. The STFT's window multiply and rfft (in sub-blocks of at most
FRAME_BLOCK values) and the ISTFT's irfft and window multiply run so on
consecutive slices of frame rows once a transform reaches _THREADED_MIN
values (smaller ones run inline). The median sorts each full window on its
own in bounded blocks on the worker threads while the calling thread sorts
the truncated edge windows one position at a time. The vocoder and the
noise morph deal their frame blocks in turn to the calling thread and the
workers. Every overlap-add and every step that carries state from one frame
to the next stays on the calling thread, in frame order, and every row is
computed on its own, so all outputs are bit-identical for any thread count,
and no setting changes the count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .errors import ConfigurationError

TIME_AXIS = "time"
FREQ_AXIS = "frequency"

_MEDIAN_BLOCK = 1 << 16  # values per sorted median block (512 KB)
# values per block of frames that the vocoder and the noise morph transform at
# once, and that an STFT task windows at once (32 frames at 4096), so their
# memory does not grow with the output
FRAME_BLOCK = 1 << 17
# frame values from which a transform runs on worker threads: a smaller one
# takes a few milliseconds, and starting and joining a thread (up to about
# 1 ms) would eat much of what the thread saves
_THREADED_MIN = 1 << 20
# peak |sample| accepted from a caller; every stage stays finite far above it
MAX_AMPLITUDE = 1e100
# longest output, just above what a 32-bit RIFF size field allows as float32
MAX_OUTPUT_SAMPLES = 2**30
# longest analysis window, far above the 144000 that for_rate gives at 768 kHz
MAX_WINDOW = 2**20


@dataclass
class AudioBuffer:
    """Mono sample sequence plus its sample rate, a positive integer in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigurationError("AudioBuffer requires a 1-D sample array")
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ConfigurationError(f"sample_rate must be a positive integer, got {rate!r}")
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
        if not 0 < self.window_size <= MAX_WINDOW:
            raise ConfigurationError(
                f"window_size must be positive and at most {MAX_WINDOW}, got {self.window_size}"
            )
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
    values = np.empty((m, params.n_bins), dtype=np.complex128)
    if m == 0:
        return Spectrogram(values, w, h, signal.sample_rate)
    padded_len = (m - 1) * h + w
    xp = np.zeros(padded_len)
    xp[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(xp, w)[::h]
    win = params.window()
    block = max(1, FRAME_BLOCK // w)

    def transform(rows, windowed):
        for r0 in range(rows.start, rows.stop, block):
            r1 = min(r0 + block, rows.stop)
            np.multiply(frames[r0:r1], win, out=windowed[: r1 - r0])
            np.fft.rfft(windowed[: r1 - r0], axis=1, out=values[r0:r1])

    _parallel([partial(transform, rows, np.empty((min(block, rows.stop - rows.start), w)))
               for rows in _row_slices(m, w)])
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
    frames = np.empty((spec.n_frames, w))

    def transform(rows):
        np.fft.irfft(spec.values[rows], n=w, axis=1, out=frames[rows])
        frames[rows] *= win

    _parallel([partial(transform, rows) for rows in _row_slices(spec.n_frames, w)])
    out = divide_window_sum(overlap_add(frames, h), spec.n_frames, win, h)
    return AudioBuffer(out, spec.sample_rate)


def divide_window_sum(out: np.ndarray, n_frames: int, win: np.ndarray, hop: int) -> np.ndarray:
    """Normalize `out`, the overlap-add of n_frames frames windowed by win and
    laid hop apart, in place: divide each sample by the overlap-added squared
    window where that sum is positive, and zero the samples it leaves
    uncovered. Returns out."""
    wsum = overlap_add(np.broadcast_to(win**2, (n_frames, len(win))), hop)
    covered = wsum > 0.0
    np.divide(out, wsum, out=out, where=covered)
    np.copyto(out, 0.0, where=~covered)
    return out


def frame_blocks(n_frames: int, width: int) -> list:
    """[0, n_frames) in consecutive (start, stop) blocks of at most
    FRAME_BLOCK values of that width, at least one frame each."""
    step = max(1, FRAME_BLOCK // width)
    return [(b0, min(b0 + step, n_frames)) for b0 in range(0, n_frames, step)]


def median_filter_axis(mag: Spectrogram, axis: str, length: int) -> Spectrogram:
    """Sliding median along the time or frequency axis of a magnitude grid.

    Each position takes the median over its neighbors within length // 2
    that exist, so edges use truncated windows and no padding values are
    invented. length must be odd and positive; values must be finite.

    Full windows are sorted in blocks of at most _MEDIAN_BLOCK values, shared
    among the worker threads of _parallel, while the calling thread sorts the
    truncated windows, one edge position at a time. Each window is sorted on
    its own, so the output is bit-identical for any thread count.
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
    data = np.ascontiguousarray(np.moveaxis(values, ax, 1))  # each line contiguous

    def edges():
        for i in [*range(min(half, n)), *range(max(half, n - half), n)]:
            window = np.sort(data[:, max(0, i - half) : i + half + 1], axis=1)
            mid = window.shape[1] // 2
            if window.shape[1] % 2:
                out[:, i] = window[:, mid]
            else:
                with np.errstate(over="ignore"):
                    out[:, i] = (window[:, mid - 1] + window[:, mid]) / 2

    full = _median_blocks(lines, n - 2 * half, length)
    workers = min(len(full), _cpu_count())
    buf_size = min(max(1, _MEDIAN_BLOCK // length), lines * n) * length
    _parallel([edges, *(
        partial(_full_medians, data, length, out[:, half : n - half], full[i::workers],
                np.empty(buf_size))
        for i in range(workers)
    )])
    return mag.copy_with(result)


def _median_blocks(lines: int, positions: int, length: int) -> list:
    """(line slice, position slice) pairs tiling lines x [0, positions), each
    with at most _MEDIAN_BLOCK window values (one window if it is longer)."""
    if positions <= 0:
        return []
    per_block = max(1, _MEDIAN_BLOCK // length)
    step = min(positions, per_block)
    rows = max(1, per_block // step)
    return [
        (slice(r, r + rows), slice(p, min(p + step, positions)))
        for r in range(0, lines, rows)
        for p in range(0, positions, step)
    ]


def _full_medians(data: np.ndarray, length: int, out: np.ndarray, blocks: list,
                  buf: np.ndarray) -> None:
    """Write the median of each full window of data's lines in blocks into
    out, sorting every block in the front of buf."""
    windows = np.lib.stride_tricks.sliding_window_view(data, length, axis=1)
    for r, p in blocks:
        window = windows[r, p]
        block = buf[: window.size].reshape(window.shape)
        np.copyto(block, window)
        block.sort(axis=2)
        out[r, p] = block[..., length // 2]


def _row_slices(rows: int, width: int) -> list:
    """[0, rows) in consecutive slices, one per task, each transformed in one
    FFT call: a single slice below _THREADED_MIN values of that width, else
    one per CPU, at most one per row."""
    tasks = 1 if rows * width < _THREADED_MIN else min(rows, _cpu_count())
    return [slice(rows * i // tasks, rows * (i + 1) // tasks) for i in range(tasks)]


def _parallel(tasks: list) -> None:
    """Run each task (a callable taking no arguments): the first on the
    calling thread, each other one on a worker thread started for this call
    and joined before it returns. Re-raises the first error. Tasks must write
    disjoint outputs; buffers they need come from the caller."""
    with dealer(len(tasks) - 1) as deal:
        for _ in deal(lambda task: task(), tasks):
            pass


@contextmanager
def dealer(workers: int | None = None):
    """A pool of worker threads for one call, joined when the block exits,
    also when its body raises (items not yet started are then dropped).
    There are `workers` of them, by default one per CPU beyond the calling
    thread's (_cpu_count() - 1); threads start only when an item is dealt.

    Yields deal(fn, items), a generator of fn(item) for each item, in item
    order. Items are dealt in rounds to the calling thread and to each
    worker in turn: a round submits the workers' items before the calling
    thread computes its own. With no workers deal is map. fn must not touch
    what other items write; what needs the previous item's result belongs
    to the consumer, which runs on the calling thread.
    """
    if workers is None:
        workers = _cpu_count() - 1
    if workers < 1:
        yield map
        return
    pool = ThreadPoolExecutor(workers, thread_name_prefix="stretchkit-worker")

    def deal(fn, items):
        items = iter(items)
        for item in items:
            futures = [pool.submit(fn, other) for other in islice(items, workers)]
            yield fn(item)
            for future in futures:
                yield future.result()

    try:
        yield deal
    finally:
        pool.shutdown(cancel_futures=True)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def window_energy(params: StftParams) -> float:
    """sqrt(sum(w^2)): dividing a white-noise STFT by this makes its
    expected per-bin magnitude response one."""
    w = params.window()
    return float(np.sqrt(np.sum(w**2)))
