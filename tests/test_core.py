import hashlib
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit import core
from stretchkit.core import (
    MAX_OUTPUT_SAMPLES,
    AudioBuffer,
    Spectrogram,
    StftParams,
    divide_window_sum,
    frames_at,
    istft,
    median_filter_axis,
    output_length,
    overlap_add,
    stft,
    window_energy,
)
from stretchkit.errors import ConfigurationError
from stretchkit.noisemorph import stretch_noise
from stretchkit.pipeline import StretchConfig, stretch
from stretchkit.signals import gen_signal
from stretchkit.vocoder import stretch_plain

SR = 44100


def white(n, seed=0):
    return AudioBuffer(np.random.default_rng(seed).standard_normal(n), SR)


def test_stft_zero_signal_is_zero():
    p = StftParams(1024, 256)
    spec = stft(AudioBuffer(np.zeros(5000), SR), p)
    assert spec.n_frames == 1 + int(np.ceil((5000 - 1024) / 256))
    assert np.all(spec.values == 0)


def test_stft_empty_signal_gives_zero_frames():
    spec = stft(AudioBuffer(np.zeros(0), SR), StftParams(1024, 256))
    assert spec.n_frames == 0
    assert spec.n_bins == 513


def test_stft_impulse_flat_spectrum():
    p = StftParams(2048, 1024)
    x = np.zeros(4096)
    x[0] = 1.0
    spec = stft(AudioBuffer(x, SR), p)
    w0 = p.window()[0]
    assert np.allclose(np.abs(spec.values[0]), abs(w0), atol=1e-12)


def test_stft_sinusoid_peak_bin():
    p = StftParams(2048, 1024)
    t = np.arange(SR) / SR
    spec = stft(AudioBuffer(np.sin(2 * np.pi * 440 * t), SR), p)
    expected_bin = round(440 * 2048 / SR)
    for m in range(2, spec.n_frames - 2):
        assert np.argmax(np.abs(spec.values[m])) == expected_bin


def test_stft_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        StftParams(1024, 2048)
    with pytest.raises(ConfigurationError):
        StftParams(0, 1)
    with pytest.raises(ConfigurationError):
        StftParams(1024, 0)


def test_roundtrip_white_noise_interior():
    x = white(SR)
    p = StftParams(2048, 1024)
    y = istft(stft(x, p)).samples[: len(x)]
    i = slice(2048, len(x) - 2048)
    err = np.max(np.abs(y[i] - x.samples[i])) / np.max(np.abs(x.samples))
    assert err < 1e-6


def test_istft_zero_spectrogram():
    spec = Spectrogram(np.zeros((10, 513), dtype=complex), 1024, 256, SR)
    y = istft(spec)
    assert len(y) == 9 * 256 + 1024
    assert np.all(y.samples == 0)


def test_istft_single_frame_is_normalized_windowed_frame():
    # one analysis frame w * frame: overlap-add reduces to w^2 * frame / w^2,
    # which is the frame where w > 0 and 0 at the uncovered sample w == 0
    w = StftParams(64, 32).window()
    frame = np.random.default_rng(1).standard_normal(64)
    spec = Spectrogram(np.fft.rfft(w * frame)[None, :], 64, 32, SR)
    y = istft(spec).samples
    assert len(y) == 64
    assert np.allclose(y[w > 0], frame[w > 0], atol=1e-12)
    assert np.array_equal(y[w == 0], [0.0])


@pytest.mark.parametrize("n,window,hop", [(10000, 1024, 256), (1, 64, 32), (4097, 4096, 1024)])
def test_istft_length_is_full_frame_span(n, window, hop):
    spec = stft(white(n), StftParams(window, hop))
    assert len(istft(spec)) == (spec.n_frames - 1) * hop + window


def test_istft_of_no_frames_is_empty():
    assert len(istft(Spectrogram(np.zeros((0, 33), dtype=complex), 64, 16, SR))) == 0


def frame_loop_overlap_add(frames, hop):
    m, w = frames.shape
    out = np.zeros((m - 1) * hop + w if m else 0)
    for i in range(m):
        out[i * hop : i * hop + w] += frames[i]
    return out


OLA_SHAPES = [
    (1, 64, 32), (3450, 558, 140), (220, 8916, 2230), (1725, 2048, 1024),
    (100, 4458, 1115), (5, 7, 3), (10, 5, 5), (3, 1, 1), (4, 8, 3), (0, 16, 4),
]


@pytest.mark.parametrize("m,w,hop", OLA_SHAPES)
def test_overlap_add_equals_frame_loop(m, w, hop):
    rng = np.random.default_rng(m * 31 + w)
    frames = rng.standard_normal((m, w))
    assert np.array_equal(overlap_add(frames, hop), frame_loop_overlap_add(frames, hop))
    wsq = StftParams(w, hop).window() ** 2
    tiled = np.broadcast_to(wsq, (m, w))
    assert np.array_equal(overlap_add(tiled, hop), frame_loop_overlap_add(tiled, hop))


@pytest.mark.parametrize("m,w,hop", OLA_SHAPES)
def test_overlap_add_into_buffer_equals_frame_loop(m, w, hop):
    """Frames added into a non-zero buffer land after its values, in frame
    order, as when the vocoder adds block after block."""
    rng = np.random.default_rng(m * 17 + hop)
    frames = rng.standard_normal((m, w))
    base = rng.standard_normal((m - 1) * hop + w if m else 0)
    expected = base.copy()
    for i in range(m):
        expected[i * hop : i * hop + w] += frames[i]
    out = base.copy()
    assert overlap_add(frames, hop, out=out) is out
    assert np.array_equal(out, expected)


def stft_reference(x, params):
    """Every frame windowed and transformed in one whole-array call."""
    w, h = params.window_size, params.hop_size
    m = core.n_frames_for(len(x), params)
    xp = np.zeros((m - 1) * h + w)
    xp[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(xp, w)[::h]
    return np.fft.rfft(frames * params.window(), axis=1)


def istft_reference(values, params):
    """Whole-array irfft and window multiply, then a frame-loop overlap-add."""
    win = params.window()
    frames = np.fft.irfft(values, n=params.window_size, axis=1) * win
    out = frame_loop_overlap_add(frames, params.hop_size)
    wsum = frame_loop_overlap_add(np.broadcast_to(win**2, frames.shape), params.hop_size)
    covered = wsum > 0.0
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    return out


def padded_frames(x, starts, win):
    """The padded-copy rule: frames read from a copy of x with zeros before
    its first sample and after its last, far enough for every start."""
    w = len(win)
    lead = max(0, -min(starts))
    xp = np.zeros(lead + max(len(x), max(starts) + w))
    xp[lead : lead + len(x)] = x
    return np.array([xp[lead + s : lead + s + w] for s in starts]).reshape(-1, w) * win


def frames_at_cases():
    """(x, starts, win): evenly spaced, uneven and repeated starts, starts
    before 0, past the end and wholly outside, inputs shorter than the
    window and empty, and windows of 1 and 2 samples."""
    rng = np.random.default_rng(11)
    for n, w, starts in [
        (100, 16, range(-40, 130, 4)),  # wholly outside at both ends
        (100, 16, range(0, 85, 7)),  # inside only
        (10, 16, range(-20, 30, 3)),  # shorter than the window
        (0, 8, range(-10, 10, 4)),
        (50, 1, range(-3, 55, 1)),
        (50, 2, range(-4, 56, 3)),
        (5, 2, [-2, -1, 0, 3, 4, 5, 6]),
        (64, 8, [-9, -8, -1, 0, 0, 0, 3, 4, 9, 25, 56, 57, 64, 70]),  # uneven, repeated
        (64, 8, [5]),
    ]:
        yield rng.standard_normal(n), np.asarray(starts), StftParams(w, w).window()
    for _ in range(40):
        n, w = int(rng.integers(0, 300)), int(rng.integers(1, 70))
        starts = np.sort(rng.integers(-2 * w, n + w, int(rng.integers(1, 40))))
        if rng.random() < 0.5:  # evenly spaced
            starts = starts[0] + np.arange(len(starts)) * int(rng.integers(1, w + 1))
        yield rng.standard_normal(n), starts, StftParams(w, w).window()


def test_frames_at_equals_padded_copy_rule():
    for x, starts, win in frames_at_cases():
        out = np.full((len(starts), len(win)), np.nan)  # stale values would show
        assert frames_at(x, starts, win, out) is out
        assert out.tobytes() == padded_frames(x, starts, win).tobytes(), (len(x), list(starts))


def test_frames_at_zeros_outside_are_positive():
    """Samples read before 0 or past the end are +0.0, also under a window
    with negative values, where the padded-copy rule gives -0.0."""
    for x, starts, win in frames_at_cases():
        win = -1.0 - np.arange(len(win))
        out = frames_at(x, starts, win, np.full((len(starts), len(win)), -0.0))
        positions = starts[:, None] + np.arange(len(win))
        outside = (positions < 0) | (positions >= len(x))
        assert np.all(out[outside] == 0.0) and not np.signbit(out[outside]).any()
        assert out[~outside].tobytes() == (x[positions[~outside]] * np.broadcast_to(
            win, out.shape)[~outside]).tobytes()


# every (window, hop) StretchConfig.for_rate gives from 8 to 192 kHz: 34 pairs
FOR_RATE_FRAMINGS = sorted({
    pair
    for rate in (8000, 11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000, 176400, 192000)
    for config in [StretchConfig().for_rate(rate)]
    for pair in ((config.stn.long_window, config.stn.long_hop),
                 (config.stn.short_window, config.stn.short_hop),
                 (config.noise.window_size, config.noise.hop_size),
                 (config.pv.window_size, config.pv.synthesis_hop))
})


def random_framings(count, seed):
    """(window, hop) pairs with hop at least a sixth of the window, most of
    them with a hop that does not divide the window."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        w = int(rng.integers(1, 3000))
        pairs.append((w, int(rng.integers(-(-w // 6), w + 1))))
    return pairs


@pytest.mark.parametrize("window,hop", FOR_RATE_FRAMINGS + random_framings(40, 3)
                         + [(1, 1), (2, 1), (2, 2)])
def test_divide_window_sum_equals_whole_sum_division(window, hop):
    """Frame counts 1 .. 3k + 1 and 50k + 3, k = ceil(window / hop), floor 0
    and a positive floor: the division by the ends and one hop of a 2k-frame
    sum equals the division by the whole overlap-added squared window, bit
    for bit."""
    win = StftParams(window, hop).window()
    k = -(-window // hop)
    rng = np.random.default_rng(window * 7 + hop)
    for n in [*range(1, 3 * k + 2), 50 * k + 3]:
        wsum = overlap_add(np.broadcast_to(win**2, (n, window)), hop)
        out = rng.standard_normal(len(wsum))
        for floor in (0.0, 0.5 * wsum.max()):
            divisor = np.maximum(wsum, floor)
            expected = np.zeros_like(out)
            np.divide(out, divisor, out=expected, where=divisor > 0.0)
            result = divide_window_sum(out.copy(), n, win, hop, floor)
            assert result.tobytes() == expected.tobytes(), (n, floor)


@pytest.mark.parametrize("window,hop", [(64, 16), (37, 11), (48, 48), (5, 5), (1, 1)])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_synthesize_equals_frame_loop_and_whole_sum_division(monkeypatch, window, hop, cpus):
    """Blocks of 3 frames dealt to 1-3 threads, 0, 1 and more than a block
    of random spectra, floor 0 and a positive floor: the bytes of a frame
    loop's overlap-add of every windowed inverse, divided by the whole
    overlap-added squared window where that is positive."""
    monkeypatch.setattr(core, "FRAME_BLOCK", 3 * window)
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    win = StftParams(window, hop).window()
    rng = np.random.default_rng(window * 3 + hop)
    for n in (0, 1, 2, 3, 4, 11):
        spectra = rng.standard_normal((n, window // 2 + 1, 2)) @ [1.0, 1j]
        summed = frame_loop_overlap_add(np.fft.irfft(spectra, n=window, axis=1) * win, hop)
        wsum = frame_loop_overlap_add(np.broadcast_to(win**2, (n, window)), hop)
        for floor in (0.0, 0.5 * wsum.max(initial=1.0)):
            divisor = np.maximum(wsum, floor)
            expected = np.zeros_like(summed)
            np.divide(summed, divisor, out=expected, where=divisor > 0.0)
            blocks = core.frame_blocks(n, window)
            with core.dealer() as deal:
                got = core.synthesize(deal, lambda rows: rows,
                                      (spectra[b0:b1] for b0, b1 in blocks), n, win, hop, floor)
            assert got.tobytes() == expected.tobytes(), (n, floor)
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]


# (samples, window, hop): one frame block and several, two shapes either side
# of 2^20 frame values (1023 and 1024 frames of 1024), and the four 48 kHz
# sizes of StretchConfig.for_rate, two with odd hops
TRANSFORM_SHAPES = [
    (20000, 512, 128), (100000, 8916, 2230), (1023 * 1024, 1024, 1024),
    (1024 * 1024, 1024, 1024), (300000, 4096, 1024), (480000, 558, 140),
    (480000, 4500, 1125), (480000, 2250, 1125), (100000, 9000, 2250), (480000, 540, 135),
]


@pytest.mark.parametrize("n,window,hop", TRANSFORM_SHAPES)
def test_transforms_same_bytes_for_any_thread_count(monkeypatch, n, window, hop):
    params = StftParams(window, hop)
    x = white(n, seed=n)
    expected = stft_reference(x.samples, params)
    expected_out = istft_reference(expected, params)
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        spec = stft(x, params)
        assert spec.values.tobytes() == expected.tobytes(), cpus
        assert istft(spec).samples.tobytes() == expected_out.tobytes(), cpus
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]


def test_transforms_concurrent_callers_same_bytes(monkeypatch):
    # every call dealt in many blocks, to more workers than CPUs
    monkeypatch.setattr(core, "FRAME_BLOCK", 8 * 512)
    monkeypatch.setattr(core, "_cpu_count", lambda: 3)
    params = StftParams(512, 128)
    x = white(40000, seed=9)
    expected = stft_reference(x.samples, params)
    expected_out = istft_reference(expected, params)
    results = []

    def call():
        for _ in range(3):
            spec = stft(x, params)
            results.append(spec.values.tobytes() == expected.tobytes()
                           and istft(spec).samples.tobytes() == expected_out.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 12
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]


def test_output_length_bound():
    assert output_length(MAX_OUTPUT_SAMPLES, 1.0) == MAX_OUTPUT_SAMPLES
    for n, alpha in ((1, 2.0**31), (100, 1e12), (MAX_OUTPUT_SAMPLES + 1, 1.0), (10, 1e308)):
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            output_length(n, alpha)


def test_stft_linearity():
    p = StftParams(1024, 256)
    x, y = white(8000, 1), white(8000, 2)
    mix = AudioBuffer(2.0 * x.samples - 0.5 * y.samples, SR)
    lhs = stft(mix, p).values
    rhs = 2.0 * stft(x, p).values - 0.5 * stft(y, p).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_parseval_consistency():
    # hann^2 is COLA at hop = window/4; with a window of zero padding on
    # each side every sample has full coverage and the compensated energy
    # identity is exact
    p = StftParams(1024, 256)
    x = white(SR)
    padded = AudioBuffer(np.pad(x.samples, (1024, 1024)), SR)
    spec = stft(padded, p)
    v = np.abs(spec.values) ** 2
    v[:, 1:-1] *= 2.0  # one-sided doubling
    spec_energy = np.sum(v) / p.window_size * p.hop_size / np.sum(p.window() ** 2)
    sig_energy = np.sum(x.samples**2)
    assert abs(spec_energy - sig_energy) / sig_energy < 1e-3


def test_window_energy_values():
    assert window_energy(StftParams(2048, 1024)) == pytest.approx(np.sqrt(3 * 2048 / 8))


def mag_spec(values):
    v = np.asarray(values, dtype=float)
    return Spectrogram(v, 8, 4, SR)


def test_median_filter_length_one_is_identity():
    m = mag_spec(np.random.default_rng(0).random((6, 7)))
    out = median_filter_axis(m, "time", 1)
    assert np.array_equal(out.values, m.values)


def test_median_filter_constant_unchanged():
    m = mag_spec(np.full((5, 9), 3.25))
    for axis in ("time", "frequency"):
        assert np.array_equal(median_filter_axis(m, axis, 3).values, m.values)


def test_median_filter_removes_isolated_spike():
    m = mag_spec(np.array([[0.0], [0.0], [9.0], [0.0], [0.0]]))
    out = median_filter_axis(m, "time", 3)
    assert np.array_equal(out.values, np.zeros((5, 1)))


def test_median_filter_truncated_edges():
    m = mag_spec(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    out = median_filter_axis(m, "frequency", 3)
    # edge medians over the two available neighbors
    assert np.array_equal(out.values[0], [1.5, 2.0, 3.0, 4.0, 4.5])


def test_median_filter_rejects_even_length():
    m = mag_spec(np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        median_filter_axis(m, "time", 4)
    with pytest.raises(ConfigurationError):
        median_filter_axis(m, "time", -1)


def test_median_filter_order_preserving_on_monotone():
    m = mag_spec(np.arange(20.0)[:, None])
    out = median_filter_axis(m, "time", 5)
    assert np.all(np.diff(out.values[:, 0]) >= 0)


def truncated_median(values, axis, length):
    """np.median over the neighbors within length // 2 that exist."""
    x = np.moveaxis(values, axis, 0)
    half = length // 2
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        out[i] = np.median(x[max(0, i - half) : i + half + 1], axis=0)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (6, 7), (13, 4), (2, 2)])
@pytest.mark.parametrize("axis", ["time", "frequency"])
@pytest.mark.parametrize("kind", ["float", "ties", "huge"])
def test_median_filter_matches_truncated_np_median(shape, axis, kind):
    rng = np.random.default_rng(sum(shape))
    if kind == "float":
        values = rng.random(shape)
    elif kind == "ties":
        values = rng.integers(0, 3, shape).astype(float)
    else:  # two huge values sum to inf; a median of an odd count must not
        values = rng.uniform(1e307, np.finfo(float).max, shape)
    ax = 0 if axis == "time" else 1
    for length in range(1, 2 * shape[ax] + 6, 2):
        got = median_filter_axis(mag_spec(values), axis, length).values
        with np.errstate(over="ignore"):
            expected = truncated_median(values, ax, length)
        assert np.array_equal(got, expected), length


def test_median_filter_window_far_longer_than_the_line():
    """A window of 10**18 + 1 covers the whole line at every position: each
    output is its line's median, with no setup sized by the window."""
    values = np.random.default_rng(6).random((40, 257))
    for ax, axis in enumerate(("time", "frequency")):
        got = median_filter_axis(mag_spec(values), axis, 10**18 + 1).values
        assert np.array_equal(got, truncated_median(values, ax, 2 * values.shape[ax] - 1)), axis


@pytest.mark.parametrize("axis", ["time", "frequency"])
def test_median_filter_whole_line_windows_take_one_sort(monkeypatch, axis):
    """Every window of at least 2n - 1 positions covers its whole line, n
    positions long (odd along time, even along frequency): one np.sort per
    call serves all n positions, with the bytes of one sort per position."""
    values = np.random.default_rng(26).random((9, 12))
    ax = 0 if axis == "time" else 1
    n = values.shape[ax]
    line_sorted = np.sort(values, axis=ax)
    mid = (np.take(line_sorted, [(n - 1) // 2], ax) + np.take(line_sorted, [n // 2], ax)) / 2
    expected = np.broadcast_to(mid, values.shape)
    calls = []
    sort = np.sort
    monkeypatch.setattr(np, "sort", lambda *args, **kwargs: calls.append(1) or sort(*args, **kwargs))
    for length in (2 * n - 1, 2 * n + 1, 10**18 + 1):
        calls.clear()
        got = median_filter_axis(mag_spec(values), axis, length).values
        assert len(calls) == 1, (length, len(calls))
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), length


@pytest.mark.parametrize("shape", [(300, 7), (7, 300), (40, 33)])
@pytest.mark.parametrize("axis", ["time", "frequency"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_median_filter_small_blocks_match_truncated_np_median(monkeypatch, shape, axis, cpus):
    # 64-value blocks: many blocks per line, edge-only blocks, windows longer
    # than a block, and the full blocks split among several workers
    monkeypatch.setattr(core, "_MEDIAN_BLOCK", 64)
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    rng = np.random.default_rng(sum(shape))
    values = rng.integers(0, 5, shape) + rng.random(shape).round(1)
    ax = 0 if axis == "time" else 1
    n = shape[ax]
    switch = core._NETWORK_MAX + 2  # the shortest window the ranks serve
    # n - 1 - r: 2 + r full windows, so lines whose count is 0, 1 and 2 mod 3
    lengths = [1, 3, 5, 7, 9, 63, 65, n, n + 2, 2 * n + 1, 2 * n + 5,
               switch - 2, switch, switch + 2, *(n - 1 - r for r in range(6))]
    for length in sorted({k | 1 for k in lengths if k > 0}):
        got = median_filter_axis(mag_spec(values), axis, length).values
        assert np.array_equal(got, truncated_median(values, ax, length)), length


@pytest.mark.parametrize("length,comparators", [(1, 0), (3, 3), (5, 8), (7, 14)])
def test_median_network_selects_median_of_every_0_1_input(length, comparators):
    """By the 0-1 principle, a comparator network selects the median of every
    input once it does so for every input of zeros and ones: here, each of
    the 2**length lines' one full window."""
    assert core._NETWORK_MAX == 7
    assert len(core._median_network(length)) == comparators
    bits = (np.arange(2**length)[:, None] >> np.arange(length)) & 1
    got = median_filter_axis(mag_spec(bits), "frequency", length).values[:, length // 2]
    assert np.array_equal(got, np.sort(bits, axis=1)[:, length // 2])


@pytest.mark.parametrize("length", [9, 69, 95, 121])
def test_rank_median_group_rule_every_left_out_position(length):
    """Lines of one group of windows: three over length + 2 values and two
    over length + 1. Window j of three leaves out the last two union
    positions (j = 0), the first and the last (j = 1) or the first two
    (j = 2); window j of two the last (j = 0) or the first (j = 1). For each
    window j, the ranks it leaves out take every set of sorted positions, in
    every order, the other ranks a random order: each window's median is
    its sorted middle, a complete check of the group rule at this length."""
    rng = np.random.default_rng(length)
    half = length // 2
    for size in (3, 2):
        width = length + size - 1
        for j in range(size):
            left = [*range(j), *range(length + j, width)]
            kept = [i for i in range(width) if i not in left]
            sets = np.array(list(itertools.combinations(range(width), size - 1)))
            sets = np.concatenate([sets, sets[:, ::-1]]) if size == 3 else sets
            rest = np.ones((len(sets), width), bool)
            rest[np.arange(len(sets))[:, None], sets] = False
            values = np.empty((len(sets), width))
            values[:, left] = sets
            values[:, kept] = rng.permuted(np.nonzero(rest)[1].reshape(len(sets), -1), axis=1)
            got = median_filter_axis(mag_spec(values), "frequency", length).values
            for i in range(size):
                expected = np.sort(values[:, i : i + length], axis=1)[:, half]
                assert np.array_equal(got[:, half + i], expected), (size, j, i)


@pytest.mark.parametrize("n", [2**15 - 2, 2**15 - 1, 2**15, 2**15 + 1])
def test_median_filter_long_lines_rank_exactly(n):
    """Two lines of 2**15 - 2 positions, the longest ranked in int16 (two
    sentinel ranks follow each line, so its ranks reach 2**15 - 1), and of
    one to three more, ranked in int32."""
    rng = np.random.default_rng(n)
    values = rng.integers(0, 50, (n, 2)) + rng.random((n, 2)).round(2)
    length, half = 69, 34
    expected = np.empty_like(values)
    windows = np.lib.stride_tricks.sliding_window_view(values, length, axis=0)
    expected[half : n - half] = np.median(windows, axis=-1)
    expected[:half] = truncated_median(values[: 3 * half], 0, length)[:half]
    expected[n - half :] = truncated_median(values[-3 * half :], 0, length)[-half:]
    assert np.array_equal(median_filter_axis(mag_spec(values), "time", length).values, expected)


@pytest.mark.parametrize("axis,length", [("frequency", 7), ("time", 71)])
def test_median_filter_peak_is_result_copy_and_per_task_buffers(monkeypatch, axis, length):
    """Beyond its result and the line-major copy of its input, a median holds
    per-task buffers of a few chunks, not anything the size of the grid: the
    48 kHz 10 s stage-2 grid, by the network and by the ranks."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    values = np.random.default_rng(2).random((3561, 271))
    tracemalloc.start()
    try:
        median_filter_axis(mag_spec(values), axis, length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    line_major_copy = values.nbytes if axis == "time" else 0
    per_task = 4 * core._MEDIAN_BLOCK * 8
    assert peak <= values.nbytes + line_major_copy + 2 * per_task


# (axis, length) of median_grid's medians: the ranks along time, the network
# along frequency
MEDIAN_GRID_CASES = ((0, 69), (1, 7))


def median_grid():
    """A grid of several default-sized chunks, its medians for each of
    MEDIAN_GRID_CASES and one sha256 digest of them all."""
    values = np.random.default_rng(7).random((695, 257))
    outs = [median_filter_axis(mag_spec(values), ("time", "frequency")[ax], length).values
            for ax, length in MEDIAN_GRID_CASES]
    return values, outs, hashlib.sha256(b"".join(out.tobytes() for out in outs)).hexdigest()


def assert_median_grid(values, outs):
    for (ax, length), out in zip(MEDIAN_GRID_CASES, outs):
        assert np.array_equal(out, truncated_median(values, ax, length)), (ax, length)


def transform_digest():
    """sha256 of a threaded-size 48 kHz STFT and its ISTFT."""
    spec = stft(white(500000, seed=5), StftParams(4458, 1115))
    return hashlib.sha256(spec.values.tobytes() + istft(spec).samples.tobytes()).hexdigest()


def block_pipeline_digest():
    """sha256 of 10 s an and nd outputs at alpha 4: the vocoder's and the
    noise morph's frame blocks, dealt between threads when there are CPUs."""
    x = gen_signal("click_plus_hiss", 10.0)
    outs = [stretch(x, StretchConfig(alpha=4.0, mode=mode))[0] for mode in ("an", "nd")]
    return hashlib.sha256(b"".join(out.samples.tobytes() for out in outs)).hexdigest()


def one_cpu_stdout(expr):
    """Words printed by a child process pinned to one CPU: its CPU count and
    expr, evaluated after `import test_core`."""
    src = str(Path(core.__file__).resolve().parent.parent)
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        f"import test_core; print(len(os.sched_getaffinity(0)), {expr})"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
    )
    return result.stdout.split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_median_filter_one_cpu_subprocess_same_bytes():
    values, outs, digest = median_grid()
    assert_median_grid(values, outs)
    assert one_cpu_stdout("test_core.median_grid()[2]") == ["1", digest]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_transforms_one_cpu_subprocess_same_bytes():
    assert one_cpu_stdout("test_core.transform_digest()") == ["1", transform_digest()]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_block_pipeline_one_cpu_subprocess_same_bytes():
    assert one_cpu_stdout("test_core.block_pipeline_digest()") == ["1", block_pipeline_digest()]


@pytest.mark.parametrize("window,hop", [(2048, 1024), (4096, 1024)])
def test_stft_peak_is_spectrum_plus_sub_blocks(monkeypatch, window, hop):
    """Each dealt block windows at most FRAME_BLOCK values (1 MiB), read from
    the input in place: no copy the size of the spectrogram's real part and
    no padded copy of the input, with two blocks in flight."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    x = white(441000)
    tracemalloc.start()
    try:
        spec = stft(x, StftParams(window, hop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= spec.values.nbytes + 3 * 2**20


def test_istft_peak_is_output_plus_blocks(monkeypatch):
    """The 10 s 44.1 kHz stage-2 grid (3451 x 257) inverts block by block
    into the output: no frame array the size of the grid, just the blocks
    in flight (the caller's, the worker's and the one being added)."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    rng = np.random.default_rng(4)
    spec = Spectrogram(rng.standard_normal((3451, 257)) + 1j * rng.standard_normal((3451, 257)),
                       512, 128, SR)
    tracemalloc.start()
    try:
        out = istft(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 3450 * 128 + 512
    assert peak <= out.samples.nbytes + 4 * core.FRAME_BLOCK * 8


def test_threads_only_where_a_second_cpu_pays(monkeypatch):
    """With two CPUs, the network medians run on the calling thread and
    submit nothing to a worker, while the STFT, the ISTFT, the rank medians,
    the plain vocoder and the noise morph deal."""
    submitted = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(None)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)

    def submits(call):
        submitted.clear()
        call()
        return len(submitted)

    x = white(2 * SR)
    params = StftParams(512, 128)
    spec = stft(x, params)
    assert len(core.frame_blocks(spec.n_frames, 512)) == 3
    assert submits(lambda: stft(x, params)) > 0
    assert submits(lambda: istft(spec)) > 0
    # 695 x 257: at least 17 network chunks along either axis, 3 rank chunks
    grid = mag_spec(np.random.default_rng(7).random((695, 257)))
    for axis in ("time", "frequency"):
        for length in (5, 7):
            assert submits(lambda: median_filter_axis(grid, axis, length)) == 0, (axis, length)
    assert submits(lambda: median_filter_axis(grid, "time", 69)) > 0
    assert submits(lambda: stretch_plain(x, 4.0)) > 0
    assert submits(lambda: stretch_noise(x, 4.0)) > 0
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]


def _median_digest_into(queue):
    queue.put(median_grid()[2])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_median_filter_in_forked_child_after_pool_use(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    values, outs, digest = median_grid()  # the parent has run worker threads
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_median_digest_into, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert got == digest
    assert not child.is_alive() and child.exitcode == 0
    assert_median_grid(values, outs)


def test_median_filter_concurrent_callers_same_bytes(monkeypatch):
    monkeypatch.setattr(core, "_MEDIAN_BLOCK", 256)
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    values = np.random.default_rng(3).random((120, 90))
    expected = {a: truncated_median(values, ax, 15) for ax, a in enumerate(("time", "frequency"))}
    results = []

    def call():
        for axis in ("time", "frequency") * 3:
            results.append((axis, median_filter_axis(mag_spec(values), axis, 15).values))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]
    assert len(results) == 4 * 6
    assert all(np.array_equal(got, expected[axis]) for axis, got in results)


@pytest.mark.parametrize("length", [5, 7, 9, 69])
def test_median_rules_run_on_two_threads_without_a_dealer(length):
    """Each median rule is a plain function of (data, out, chunks) with its
    own scratch: called directly from two threads at once, on disjoint
    chunk lists of one grid (chunks of 3 lines, the last of 2), it writes
    truncated_median's full-window columns."""
    values = np.random.default_rng(length).random((44, 300))
    half = length // 2
    out = np.zeros((44, 300 - 2 * half))
    if length <= core._NETWORK_MAX:
        rule = partial(core._network_medians, core._median_network(length))
    else:
        rule = core._rank_medians
    chunks = [slice(r, min(r + 3, 44)) for r in range(0, 44, 3)]
    threads = [threading.Thread(target=rule, args=(values, out, chunks[i::2])) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert np.array_equal(out, truncated_median(values, 1, length)[:, half : 300 - half])


@pytest.mark.parametrize("length", [5, 69, 2 * 300 - 1])
def test_edge_medians_run_on_two_threads_without_a_dealer(length):
    """The edge rule is a plain function of (data, out, half): called
    directly from two threads at once, on the two halves of one grid's
    lines, it writes truncated_median's edge columns, also where every
    window covers the whole line and one sort of it serves each position."""
    values = np.random.default_rng(length).random((44, 300))
    half = length // 2
    out = np.zeros_like(values)
    threads = [threading.Thread(target=core._edge_medians, args=(values[rows], out[rows], half))
               for rows in (slice(0, 22), slice(22, 44))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    edges = [*range(min(half, 300)), *range(max(half, 300 - half), 300)]
    assert np.array_equal(out[:, edges], truncated_median(values, 1, length)[:, edges])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_median_filter_rejects_nonfinite(bad):
    values = np.ones((4, 5))
    values[2, 3] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        median_filter_axis(mag_spec(values), "time", 3)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 512, 556, 2048, 2229, 4096, 4458, 8192, 8916])
def test_window_is_scipy_periodic_hann(n):
    from scipy.signal import windows

    assert StftParams(n, 1).window().tobytes() == windows.hann(n, sym=False).tobytes()


def test_import_loads_no_scipy_signal_or_ndimage():
    import stretchkit

    src = str(Path(stretchkit.__file__).resolve().parent.parent)
    code = (
        "import stretchkit, sys; stretchkit.StretchConfig(alpha=2.0); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def test_audio_buffer_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        AudioBuffer(np.array([0.0, np.nan]), SR)
    with pytest.raises(ConfigurationError):
        AudioBuffer(np.zeros(4), 0)


@pytest.mark.parametrize("rate", [44100.5, 44100.0, True, "44100"])
def test_audio_buffer_rate_is_a_positive_integer(rate):
    with pytest.raises(ConfigurationError, match="sample_rate must be a positive integer"):
        AudioBuffer(np.zeros(4), rate)
    assert AudioBuffer(np.zeros(4), np.int64(44100)).duration == 4 / 44100


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1500, max_value=6000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(n, seed):
    x = AudioBuffer(np.random.default_rng(seed).standard_normal(n), SR)
    p = StftParams(512, 128)
    y = istft(stft(x, p)).samples[: len(x)]
    i = slice(512, max(513, n - 512))
    assert np.allclose(y[i], x.samples[i], atol=1e-9)
