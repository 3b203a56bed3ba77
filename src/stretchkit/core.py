"""STFT/ISTFT engine, window handling, and axis-wise median filtering.

Spectra are one-sided (K = window/2 + 1 bins), in 64-bit floats. Every stage
frames by one rule and synthesizes by one function. `frames_at` windows the
frames that start at given sample positions, reading zeros outside the
signal, with no padded copy; a stage's array of starts is its time map.
`synthesize` serves the ISTFT, the vocoder and the noise morph: it inverts
and windows blocks of at most FRAME_BLOCK values (`frame_blocks`), sums them
in frame order into one buffer (`overlap_add`), and divides the sum by the
overlap-added squared window, built from one hop (`divide_window_sum`).

Threads start only in `dealer`: one worker per CPU in the process's affinity
beyond the calling thread's, joined before the call returns. The STFT, the
ISTFT, the vocoder and the noise morph deal their frame blocks through it,
and the rank median its line tasks; the network median's short passes
measured no faster dealt, so it runs on the calling thread. The median's
three rules are plain functions of lines that own their scratch, so they
need no dealer. Rows and blocks are computed on their own, and every
overlap-add and every step that carries state from frame to frame stays on
the calling thread in frame order, so all outputs are bit-identical for any
thread count; no setting changes the count.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice

import numpy as np

from .errors import ConfigurationError

TIME_AXIS = "time"
FREQ_AXIS = "frequency"

_MEDIAN_BLOCK = 1 << 16  # values per median chunk of whole lines; a rank sort block holds 4x
_NETWORK_MAX = 7  # longest median window a comparator network selects from
# values per block of frames that every transform windows or inverts at once
# (32 frames at 4096), so its memory does not grow with the output
FRAME_BLOCK = 1 << 17
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
        if not _is_integer(rate) or rate <= 0:
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
        check_fields(self)
        if not 0 < self.window_size <= MAX_WINDOW:
            raise ConfigurationError(
                f"window_size must be positive and at most {MAX_WINDOW}, got {self.window_size}"
            )
        if not 0 < self.hop_size <= self.window_size:
            raise ConfigurationError(
                f"hop_size must be from 1 to window_size {self.window_size}, got {self.hop_size}"
            )

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1

    def window(self) -> np.ndarray:
        """Periodic Hann, so sum(w^2) = 3L/8 exactly; a single 1 for L = 1."""
        n = self.window_size
        return np.ones(1) if n == 1 else 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def _is_integer(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real: a finite float or numpy float, or an integer as
    _is_integer takes it whose magnitude a float holds."""
    return (isinstance(value, (float, np.floating)) and math.isfinite(value)
            or _is_integer(value) and abs(value) <= sys.float_info.max)


# what a config field of each declared type takes, as a ConfigurationError names it
_FIELD_RULES = {
    "int": (_is_integer, "an integer"),
    "float": (_is_real, "a finite real"),
    "str": (lambda value: isinstance(value, str), "a str"),
}


def check_fields(section) -> None:
    """Check every field of a config dataclass by the type it declares (the
    annotation string, as each config module imports annotations from
    __future__): int, float and str by _FIELD_RULES, any other name as an
    instance of that class in the section's module. Then build StftParams
    for each (window, hop) pair of field names in the class's FRAMINGS, if it
    has one. Raises ConfigurationError naming the field or the pair. Each
    section's __post_init__ calls this, then checks its own ranges."""
    names = vars(sys.modules[type(section).__module__])
    for f in fields(section):
        value = getattr(section, f.name)
        rule, kind = _FIELD_RULES.get(f.type) or (None, f"a {f.type}")
        if not (rule(value) if rule else isinstance(value, names[f.type])):
            raise ConfigurationError(f"{f.name} must be {kind}, got {value!r}")
    for window, hop in getattr(section, "FRAMINGS", ()):
        try:
            StftParams(getattr(section, window), getattr(section, hop))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{window}/{hop}: {exc}") from None


def check_alpha(alpha: float) -> None:
    """Reject a stretch factor that is not a positive, finite real, and a bool."""
    if not (_is_real(alpha) and alpha > 0):
        raise ConfigurationError(f"alpha must be positive and finite, got {alpha!r}")


def check_seed(seed: int) -> None:
    """Reject a seed the PCG64 generator cannot take, and a bool."""
    if not _is_integer(seed) or seed < 0:
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
    MAX_OUTPUT_SAMPLES, before anything of that size is allocated, and for
    an alpha that check_alpha rejects."""
    check_alpha(alpha)
    scaled = alpha * input_length
    if not scaled <= MAX_OUTPUT_SAMPLES:
        # an integer alpha's exact product may pass the float range: show inf
        raise ConfigurationError(
            f"output of {float(alpha) * input_length:g} samples (alpha {alpha:g} x "
            f"{input_length}) exceeds the limit of {MAX_OUTPUT_SAMPLES} samples"
        )
    return int(round(scaled))


def n_frames_for(length: int, params: StftParams) -> int:
    """Frame count for a signal of `length` samples (tail zero-padded)."""
    if length == 0:
        return 0
    return 1 + math.ceil(max(0, length - params.window_size) / params.hop_size)


def stft(signal: AudioBuffer, params: StftParams, pad: int = 0) -> Spectrogram:
    """Short-time Fourier transform: frame m is frames_at's frame at start
    m*hop - pad, for the n_frames_for(len + 2*pad) frames that cover the
    signal with `pad` zeros on each side (none for an empty signal, pad 0).
    pad must be a non-negative integer."""
    if not _is_integer(pad) or pad < 0:
        raise ConfigurationError(f"pad must be a non-negative integer, got {pad!r}")
    x = signal.samples
    w, h = params.window_size, params.hop_size
    m = n_frames_for(len(x) + 2 * pad, params)
    values = np.empty((m, params.n_bins), dtype=np.complex128)
    starts = np.arange(m) * h - pad
    win = params.window()

    def transform(block):  # on a dealt thread
        b0, b1 = block
        np.fft.rfft(frames_at(x, starts[b0:b1], win, np.empty((b1 - b0, w))), axis=1,
                    out=values[b0:b1])

    with dealer() as deal:
        for _ in deal(transform, frame_blocks(m, w)):
            pass
    return Spectrogram(values, w, h, signal.sample_rate)


def frames_at(x: np.ndarray, starts: np.ndarray, win: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write win * x[s : s + W] into out[i] for each start s = starts[i]
    (nondecreasing, any of them outside x), reading +0.0 outside x; returns
    out. Frames inside x are read through a strided view of x, sliced where
    their starts are evenly spaced; a frame crossing an end is filled alone."""
    n, w = len(x), len(win)
    first, stop = np.searchsorted(starts, [0, n - w + 1])  # the frames inside x
    inner = starts[first:stop]
    if inner.size:
        frames = np.lib.stride_tricks.sliding_window_view(x, w)
        step = (inner[-1] - inner[0]) // max(inner.size - 1, 1)
        even = step > 0 and np.all(np.diff(inner) == step)
        np.multiply(frames[inner[0] : inner[-1] + 1 : step] if even else frames[inner], win,
                    out=out[first:stop])
    for i in (*range(first), *range(max(first, stop), len(starts))):
        s = starts[i]
        lo, hi = min(max(-s, 0), w), max(min(n - s, w), 0)  # the part inside x
        out[i] = 0.0
        np.multiply(x[s + lo : s + hi], win[lo:hi], out=out[i, lo:hi])
    return out


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
    w, h, m = spec.window_size, spec.hop_size, spec.n_frames
    with dealer() as deal:
        out = synthesize(deal, lambda block: spec.values[block[0] : block[1]],
                         frame_blocks(m, w), m, StftParams(w, h).window(), h)
    return AudioBuffer(out, spec.sample_rate)


def synthesize(deal, spectrum, items, n_frames: int, win: np.ndarray, hop: int,
               floor: float = 0.0) -> np.ndarray:
    """n_frames one-sided spectra inverted, windowed by win (W values), laid
    hop apart, overlap-added and divided by divide_window_sum with floor: the
    (n_frames-1)*hop + W samples, none for no frames. Item i of items is for
    block i of frame_blocks(n_frames, W): on a thread a dealer's deal deals
    it to, spectrum(item) gives the block's spectra, inverted and windowed
    there; the calling thread adds the blocks in frame order."""
    w = len(win)
    out = np.zeros((n_frames - 1) * hop + w if n_frames else 0)

    def invert(item):  # on a dealt thread
        frames = np.fft.irfft(spectrum(item), n=w, axis=1)
        frames *= win
        return frames

    for (b0, b1), frames in zip(frame_blocks(n_frames, w), deal(invert, items)):
        overlap_add(frames, hop, out=out[b0 * hop : (b1 - 1) * hop + w])
    return divide_window_sum(out, n_frames, win, hop, floor)


def divide_window_sum(out: np.ndarray, n_frames: int, win: np.ndarray, hop: int,
                      floor: float = 0.0) -> np.ndarray:
    """Divide `out` (contiguous), the overlap-add of n_frames frames windowed
    by win and laid hop apart, in place by max(wsum, floor) where that is
    positive, wsum the overlap-added squared window, and zero it elsewhere;
    returns out. wsum adds each sample's frames in frame order, so between
    the ends it repeats every hop, and its first and last k*hop samples,
    k = ceil(W / hop), are a 2k-frame sum's: the ends and one hop of that
    sum divide bit for bit as wsum would, and wsum is never built whole."""
    k = -(-len(win) // hop)
    ends = overlap_add(np.broadcast_to(win**2, (min(n_frames, 2 * k), len(win))), hop)
    pieces = [(out, ends)]
    if n_frames > 2 * k:
        edge = k * hop
        stop = edge + (len(out) - 2 * edge) // hop * hop  # the middle's whole hops
        pieces = [(out[:edge], ends[:edge]),
                  (out[edge:stop].reshape(-1, hop), ends[edge : edge + hop]),
                  (out[stop:], ends[stop - len(out) :])]
    for part, wsum in pieces:
        divisor = np.maximum(wsum, floor)
        covered = divisor > 0.0
        if covered.all():
            np.divide(part, divisor, out=part)
        else:  # samples no frame covers: at the ends, or where the hop is the window
            np.divide(part, divisor, out=part, where=covered)
            np.copyto(part, 0.0, where=~covered)
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
    invented. length must be an odd positive integer; values must be finite.

    Full windows take one of two exact rules, chosen from length, on chunks
    of whole lines of about _MEDIAN_BLOCK values. The network runs as one
    task; dealer deals the ranks in at most one task per CPU, task i taking
    chunks i, i + tasks, .... Task 0, on the calling thread, first runs the
    third rule, _edge_medians, on the truncated edge windows. This function
    only validates, lays out the lines, picks a rule, chunks and deals:

    - length <= _NETWORK_MAX: the comparator network of _median_network,
      applied with np.minimum/np.maximum to the length shifted slices of a
      chunk. It only moves values, so its middle output is the median.
    - longer: each line's values are replaced by their ranks in the line,
      np.argsort's order inverted, and the line's value of a window's middle
      rank is its median. Ranks keep the line's order exactly, equal values
      included, so this is the k-th order statistic a float sort of the
      window takes. Three adjacent windows share one sort, of the union of
      their length + 2 ranks, in blocks of about 4 * _MEDIAN_BLOCK ranks:
      an int16 row sorts in about the same time at any length from 65 to
      128. Window j of the group leaves out two union ranks lo < hi (j = 0
      the last two, j = 1 the first and the last, j = 2 the first two), and
      its middle rank is S[half + (lo <= S[half]) + (hi <= S[half + 1])]
      of the sorted union S, half = length // 2. This is exact: leaving out
      sorted positions s0 < s1 moves the k-th survivor to
      S[k + #{i : s_i - i <= k}], lo <= S[half] holds exactly when
      s0 <= half and hi <= S[half + 1] when s1 - 1 <= half, and ranks are
      distinct. Each line's ranks are followed by the ranks n and n + 1,
      above all of its own and in no window inside the line, so every line
      ends in a whole group, whose windows past the line are computed but
      not written. Ranks are int16 while n + 2 <= 2**15, else int32.

    So the output is bit-identical to sorting each window, for any thread
    count. The one exception is a median that ties -0.0 with +0.0, where
    either zero may come back; magnitudes from np.abs hold no -0.0.
    """
    if not _is_integer(length) or length < 1 or length % 2 == 0:
        raise ConfigurationError(f"median length must be an odd positive integer, got {length!r}")
    ax = {TIME_AXIS: 0, FREQ_AXIS: 1}.get(axis)
    if ax is None:
        raise ConfigurationError(f"axis must be 'time' or 'frequency', got {axis!r}")
    values = np.asarray(mag.values, dtype=np.float64)
    if values.size == 0:
        return mag.copy_with(values.copy())
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("median filter input must be finite")
    result = np.empty_like(values)
    out = np.moveaxis(result, ax, 1)  # lines x positions, a view of result
    lines, n = out.shape
    length = min(length, 2 * n - 1)  # a longer window covers the line at every position too
    half = length // 2
    data = np.ascontiguousarray(np.moveaxis(values, ax, 1))  # each line contiguous

    full = n - 2 * half  # positions with a full window
    network = length <= _NETWORK_MAX
    # a chunk is whole lines of about _MEDIAN_BLOCK values; the network holds
    # up to length + 2 arrays of its chunk's size, so its chunks are shorter
    rows = min(lines, max(1, _MEDIAN_BLOCK // (n * (length + 1 if network else 1))))
    chunks = [slice(r, min(r + rows, lines)) for r in range(0, lines, rows)] if full > 0 else []
    tasks = min(len(chunks), 1 if network else _cpu_count())
    rule = partial(_network_medians, _median_network(length)) if network else _rank_medians

    def work(i):  # task i; task 0 on the calling thread, also with no chunks
        if i == 0:
            _edge_medians(data, out, half)
        if i < tasks:
            rule(data, out[:, half : n - half], chunks[i::tasks])

    with dealer() as deal:
        for _ in deal(work, range(max(tasks, 1))):
            pass
    return mag.copy_with(result)


def _edge_medians(data: np.ndarray, out: np.ndarray, half: int) -> None:
    """Write into out the median of each truncated window of data's lines,
    the positions within half of a line's ends: one sort per position,
    except that the positions whose window covers the whole line share one
    sort of the lines."""
    n = data.shape[1]
    whole = None  # the sorted lines, for the positions whose window covers them
    for i in [*range(min(half, n)), *range(max(half, n - half), n)]:
        if i <= half and i + half + 1 >= n:
            window = whole = np.sort(data, axis=1) if whole is None else whole
        else:
            window = np.sort(data[:, max(0, i - half) : i + half + 1], axis=1)
        mid = window.shape[1] // 2
        if window.shape[1] % 2:
            out[:, i] = window[:, mid]
        else:
            with np.errstate(over="ignore"):
                out[:, i] = (window[:, mid - 1] + window[:, mid]) / 2


def _median_network(length: int) -> list:
    """Batcher's odd-even merge sorting network for length inputs, pruned to
    the comparators the middle output depends on: (lo, hi, keep_lo, keep_hi)
    in order, where comparator (lo, hi) puts the lower of its two inputs on
    wire lo and the higher on wire hi, and keep_lo/keep_hi say which of the
    two a later comparator or the middle output reads. Comparators that
    would touch a wire at or above length (the network for the next power of
    two, padded with +inf) are dropped, which leaves a sorting network."""
    pairs = []
    p = 1
    while p < length:
        k = p
        while k >= 1:
            for j in range(k % p, length - k, 2 * k):
                for i in range(j, j + min(k, length - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    needed = {length // 2}
    network = []
    for lo, hi in reversed(pairs):
        if lo in needed or hi in needed:
            network.append((lo, hi, lo in needed, hi in needed))
            needed |= {lo, hi}
    return network[::-1]


def _network_medians(network: list, data: np.ndarray, out: np.ndarray, chunks: list) -> None:
    """Write the median of each full window of data's lines in chunks into
    out: network's comparators applied to the window's shifted slices of
    the chunk, each output a comparator keeps a fresh np.minimum or
    np.maximum. At most length + 2 chunk-sized arrays are alive at once:
    one per wire, and a comparator's two inputs until it has written both
    outputs."""
    length = data.shape[1] - out.shape[1] + 1
    full = out.shape[1]
    for rows in chunks:
        wires = [data[rows, i : i + full] for i in range(length)]
        for lo, hi, keep_lo, keep_hi in network:
            a, b = wires[lo], wires[hi]
            if keep_lo:
                wires[lo] = np.minimum(a, b)
            if keep_hi:
                wires[hi] = np.maximum(a, b)
        out[rows] = wires[length // 2]


def _rank_medians(data: np.ndarray, out: np.ndarray, chunks: list) -> None:
    """Write the median of each full window of data's lines in chunks (not
    empty) into out, by median_filter_axis's group rule, in scratch that
    each call allocates once, for its longest chunk."""
    n, full = data.shape[1], out.shape[1]
    length = n - full + 1
    half = length // 2
    rows = max(c.stop - c.start for c in chunks)
    rank_type = np.int16 if n + 2 <= 1 << 15 else np.int32
    groups = -(-full // 3)
    # a block sorts groups of three windows, the same number on each line,
    # at least one: at most about 4 * _MEDIAN_BLOCK union ranks and
    # _MEDIAN_BLOCK / 4 windows, so its selection buffers stay smaller
    block_groups = min(4 * _MEDIAN_BLOCK // (length + 2), _MEDIAN_BLOCK // 12)
    step = min(max(1, block_groups // rows), groups)
    positions = np.arange(n, dtype=rank_type)[None, :]
    # flat positions of each line's start and each group's middle union rank
    offsets = np.arange(rows)[:, None] * n
    centers = (np.arange(rows * step) * (length + 2) + half).reshape(rows, step)
    windows = rows * step * 3
    ranks, union = np.empty((rows, n + 2), rank_type), np.empty((rows, step, length + 2), rank_type)
    ranks[:, n:] = (n, n + 1)  # above every rank of the line
    ends, left_out = np.empty((4, rows * step), rank_type), np.empty((2, windows), rank_type)
    flags, indices = np.empty(windows, bool), np.empty((2, windows), np.intp)
    middles, values = np.empty(windows, rank_type), np.empty(windows)
    # each position's next length + 2 ranks, the union of its group's windows
    unions = np.lib.stride_tricks.sliding_window_view(ranks, length + 2, axis=1)
    for rows in chunks:
        line = data[rows]
        k = len(line)
        order = np.argsort(line, axis=1)
        np.put_along_axis(ranks[:k, :n], order, positions, axis=1)
        order += offsets[:k]  # flat positions in line
        for p in range(0, 3 * groups, 3 * step):
            count = min(step, groups - p // 3)
            spans = unions[:k, p : p + 3 * count : 3]  # the groups' unions
            shape = (3, k, count)  # window j of each group in plane j
            cells = 3 * k * count
            # window j leaves out the union ranks last[j : j + 2]: the
            # union's last 2 - j ranks, then its first j
            last = ends[:, : k * count].reshape(4, k, count)
            np.copyto(last[:2], spans[..., length:].transpose(2, 0, 1))
            np.copyto(last[2:], spans[..., :2].transpose(2, 0, 1))
            left = [part[:cells].reshape(shape) for part in left_out]
            np.minimum(last[:3], last[1:], out=left[0])
            np.maximum(last[:3], last[1:], out=left[1])
            sorted_ = union[:k, :count]
            np.copyto(sorted_, spans)
            sorted_.sort(axis=2)
            at_middle, at_value = (part[:cells].reshape(shape) for part in indices)
            np.copyto(at_middle, centers[:k, :count])
            below = flags[:cells].reshape(shape)
            for i, rank_left in enumerate(left):  # + (lo <= S[half]) + (hi <= S[half + 1])
                np.less_equal(rank_left, sorted_[..., half + i], out=below)
                np.add(at_middle, below, out=at_middle)
            middle = middles[:cells].reshape(shape)
            np.take(union, at_middle, out=middle, mode="clip")
            np.add(middle, offsets[:k], out=at_middle)
            np.take(order, at_middle, out=at_value, mode="clip")
            got = values[:cells].reshape(shape)
            np.take(line, at_value, out=got, mode="clip")
            for j in range(3):  # the windows before full
                out[rows, p + j : p + 3 * count : 3] = got[j, :, : (full - p - j + 2) // 3]
        del order  # before the next chunk's argsort


@contextmanager
def dealer():
    """A pool of worker threads for one call, joined when the block exits,
    also when its body raises (items not yet started are then dropped).
    There is one per CPU beyond the calling thread's (_cpu_count() - 1);
    threads start only when an item is dealt.

    Yields deal(fn, items), a generator of fn(item) for each item, in item
    order. Items are dealt in rounds to the calling thread and to each
    worker in turn: a round submits the workers' items before the calling
    thread computes its own. With no workers deal is map. fn must not touch
    what other items write; what needs the previous item's result belongs
    to the consumer, which runs on the calling thread.
    """
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
