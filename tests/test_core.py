import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.core import (
    AudioBuffer,
    Spectrogram,
    StftParams,
    istft,
    median_filter_axis,
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
    y = istft(stft(x, p), len(x))
    i = slice(2048, len(x) - 2048)
    err = np.max(np.abs(y.samples[i] - x.samples[i])) / np.max(np.abs(x.samples))
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


def test_istft_target_length_trims_and_pads():
    x = white(10000)
    p = StftParams(1024, 256)
    spec = stft(x, p)
    assert len(istft(spec, 4000)) == 4000
    assert len(istft(spec, 20000)) == 20000


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
        "import stretchkit, sys; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.ndimage') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def test_audio_buffer_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        AudioBuffer(np.array([0.0, np.nan]), SR)
    with pytest.raises(ConfigurationError):
        AudioBuffer(np.zeros(4), 0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1500, max_value=6000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(n, seed):
    x = AudioBuffer(np.random.default_rng(seed).standard_normal(n), SR)
    p = StftParams(512, 128)
    y = istft(stft(x, p), len(x))
    i = slice(512, max(513, n - 512))
    assert np.allclose(y.samples[i], x.samples[i], atol=1e-9)
