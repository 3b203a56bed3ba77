import numpy as np
import pytest

from stretchkit.core import AudioBuffer
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import (
    MetricReport,
    dominant_frequency,
    interpolate_rows,
    octave_band_levels,
    onset_positions,
    oracle_magnitude_spectrogram,
    rise_time,
)
from stretchkit.signals import click_times, gen_signal, shaped_noise, sine

SR = 44100


def test_sine_zero_crossings():
    x = gen_signal("sine", 1.0)  # 440 Hz for one second
    signs = np.sign(x.samples)
    crossings = np.count_nonzero(np.diff(signs[signs != 0]))
    assert crossings == pytest.approx(880, abs=2)


def test_sine_rejects_bad_freq():
    with pytest.raises(ConfigurationError):
        sine(0.0, 1.0, SR)
    with pytest.raises(ConfigurationError):
        sine(30000.0, 1.0, SR)


def test_click_train_count_and_times():
    x = gen_signal("click_train", 2.0)
    truth = click_times(2.0, 0.25)
    assert len(truth) == 8
    found = onset_positions(x)
    assert len(found) == 8
    assert np.max(np.abs(found - truth)) <= 0.002


def test_shaped_noise_slope_and_rms():
    x = gen_signal("shaped_noise", 4.0, slope_db_per_octave=-6.0)
    assert np.sqrt(np.mean(x.samples**2)) == pytest.approx(0.1, rel=1e-9)
    centers, levels = octave_band_levels(x, 125.0, 8000.0)
    slopes = np.diff(levels) / np.diff(np.log2(centers))
    assert np.all(np.abs(slopes + 6.0) <= 1.0)


def test_click_plus_hiss_components():
    x = gen_signal("click_plus_hiss", 2.0)
    found = onset_positions(x)
    truth = click_times(2.0, 0.25, start=0.25)
    assert len(found) == len(truth) == 7
    assert np.max(np.abs(found - truth)) <= 0.002


def test_gen_signal_deterministic_and_validated():
    a = gen_signal("shaped_noise", 0.5, seed=9)
    b = gen_signal("shaped_noise", 0.5, seed=9)
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(ConfigurationError):
        gen_signal("chirp", 1.0)
    with pytest.raises(ConfigurationError):
        gen_signal("sine", 0.0)


def test_dominant_frequency_accuracy():
    for freq in (100.0, 440.0, 5000.0, 441.3):
        assert dominant_frequency(sine(freq, 1.0, SR)) == pytest.approx(freq, abs=0.5)


def test_rise_time_click_vs_ramp():
    x = gen_signal("click_train", 1.0)
    sharp = rise_time(x, 0.25)
    n = SR
    t = np.arange(n) / SR
    ramp = np.zeros(n)
    region = (t > 0.23) & (t < 0.27)
    ramp[region] = np.sin(np.pi * (t[region] - 0.23) / 0.04)
    slow = rise_time(AudioBuffer(ramp, SR), 0.25)
    assert sharp < 0.005
    assert slow > 4 * sharp


def test_oracle_spectrogram_matches_tone_bin():
    x = sine(440.0, 0.5, SR)
    mags = oracle_magnitude_spectrogram(x, 2048, 1024)
    assert mags.shape[1] == 1025
    expected_bin = round(440 * 2048 / SR)
    assert np.all(np.argmax(mags[1:-1], axis=1) == expected_bin)


def test_interpolate_rows_examples():
    v = np.array([[0.0], [10.0]])
    out = interpolate_rows(v, 2.0)
    assert np.allclose(out[:, 0], [0.0, 5.0, 10.0, 10.0])
    same = np.random.default_rng(0).random((6, 4))
    assert np.allclose(interpolate_rows(same, 1.0), same)


def test_measure_dominant_freq():
    value = dominant_frequency(sine(440.0, 1.0, SR))
    assert value == pytest.approx(440.0, abs=0.5)
    assert abs(dominant_frequency(sine(500.0, 1.0, SR)) - 440.0) > 1.0


def test_measure_onsets():
    x = gen_signal("click_train", 1.0)
    found = onset_positions(x)
    expected = click_times(1.0, 0.25)
    assert len(found) == len(expected)
    assert np.max(np.abs(found - expected)) <= 0.010


def test_measure_errors():
    with pytest.raises(ConfigurationError):
        dominant_frequency(AudioBuffer(np.zeros(0), SR))


def test_report_row_format():
    value = dominant_frequency(sine(440.0, 0.5, SR))
    row = MetricReport("measure", "dominant_freq", value, 440.0, 1.0,
                       abs(value - 440.0) <= 1.0).row()
    assert row[:2] == ("measure", "dominant_freq")
    assert row[-1] == "pass"
    assert MetricReport("c", "m", 1.0, 2.0, 0.0, False).row() == (
        "c", "m", "1", "2", "0", "FAIL")
