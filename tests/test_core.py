import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
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
    istft,
    median_filter_axis,
    output_length,
    overlap_add,
    stft,
    window_energy,
)
from stretchkit.errors import ConfigurationError

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


# (samples, window, hop): inline and threaded shapes, two of them either side
# of _THREADED_MIN = 2^20 frame values (1023 and 1024 frames of 1024), and the
# four 48 kHz sizes of StretchConfig.for_rate, two with odd hops
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
    m = core.n_frames_for(n, params)
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        threaded = m * window >= core._THREADED_MIN and cpus > 1
        assert (len(core._row_slices(m, window)) > 1) == threaded
        spec = stft(x, params)
        assert spec.values.tobytes() == expected.tobytes(), cpus
        assert istft(spec).samples.tobytes() == expected_out.tobytes(), cpus
    assert not [t for t in threading.enumerate() if t.name.startswith("stretchkit-")]


def test_transforms_concurrent_callers_same_bytes(monkeypatch):
    # every call threaded, by more workers than CPUs
    monkeypatch.setattr(core, "_THREADED_MIN", 1)
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
    lengths = [1, 3, 5, 7, 9, 63, 65, n - 2, n, n + 2, 2 * n + 1, 2 * n + 5]
    for length in sorted({k | 1 for k in lengths if k > 0}):
        got = median_filter_axis(mag_spec(values), axis, length).values
        assert np.array_equal(got, truncated_median(values, ax, length)), length


def median_grid():
    """A grid of many default-sized blocks, its length-69 time median and its
    sha256 digest."""
    values = np.random.default_rng(7).random((695, 257))
    out = median_filter_axis(mag_spec(values), "time", 69).values
    return values, out, hashlib.sha256(out.tobytes()).hexdigest()


def transform_digest():
    """sha256 of a threaded-size 48 kHz STFT and its ISTFT."""
    spec = stft(white(500000, seed=5), StftParams(4458, 1115))
    return hashlib.sha256(spec.values.tobytes() + istft(spec).samples.tobytes()).hexdigest()


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
    values, out, digest = median_grid()
    assert np.array_equal(out, truncated_median(values, 0, 69))
    assert one_cpu_stdout("test_core.median_grid()[2]") == ["1", digest]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_transforms_one_cpu_subprocess_same_bytes():
    assert one_cpu_stdout("test_core.transform_digest()") == ["1", transform_digest()]


def _median_digest_into(queue):
    queue.put(median_grid()[2])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_median_filter_in_forked_child_after_pool_use(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    values, out, digest = median_grid()  # the parent has run worker threads
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
    assert np.array_equal(out, truncated_median(values, 0, 69))


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
