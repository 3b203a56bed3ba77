import numpy as np
import pytest

from stretchkit.errors import ConfigurationError
from stretchkit.metrics import dominant_frequency
from stretchkit.signals import gen_signal, sine, two_tone
from stretchkit.vocoder import PvParams, find_peaks, stretch_plain, stretch_sines

SR = 44100


def test_find_peaks_monotone_increasing():
    frame = np.arange(20.0)
    regions = find_peaks(frame)
    assert len(regions) == 1
    peak, start, end = regions[0]
    assert peak == 17  # last interior candidate
    assert (start, end) == (0, 20)


def test_find_peaks_isolated_spike():
    frame = np.zeros(64)
    frame[20] = 5.0
    regions = find_peaks(frame)
    assert regions == [(20, 0, 64)]


def test_find_peaks_two_equal_spikes():
    frame = np.zeros(64)
    frame[10] = 3.0
    frame[30] = 3.0
    regions = find_peaks(frame)
    assert [r[0] for r in regions] == [10, 30]
    # boundary at the first minimum between them (tie broken to lower bin)
    assert regions[0][2] == 11
    assert regions[1] == (30, 11, 64)
    # regions partition the spectrum
    assert regions[0][1] == 0 and regions[-1][2] == 64


def test_find_peaks_flat_frame_has_none():
    assert find_peaks(np.ones(32)) == []


def test_find_peaks_needs_five_bins():
    with pytest.raises(ConfigurationError):
        find_peaks(np.ones(4))


def test_no_stretch_is_identity_interior():
    x = gen_signal("sine", 1.0)
    y = stretch_sines(x, 1.0)
    assert len(y) == len(x)
    i = slice(4096, len(x) - 4096)
    rel = np.sqrt(np.mean((y.samples[i] - x.samples[i]) ** 2) / np.mean(x.samples[i] ** 2))
    assert rel < 1e-3


@pytest.mark.parametrize("alpha", [2.0, 4.0, 8.0])
@pytest.mark.parametrize("freq", [100.0, 440.0, 5000.0])
def test_pitch_preserved(freq, alpha):
    x = sine(freq, 1.0, SR)
    y = stretch_sines(x, alpha)
    assert len(y) == round(alpha * len(x))
    assert dominant_frequency(y) == pytest.approx(freq, abs=1.0)


def test_two_tone_peaks_preserved():
    x = two_tone(440.0, 660.0, 1.0, SR)
    y = stretch_sines(x, 4.0)
    n_fft = 2**18
    w = np.hanning(len(y))
    mag = np.abs(np.fft.rfft(y.samples * w, n=n_fft))
    freqs = np.arange(len(mag)) * SR / n_fft

    def peak_near(f0):
        band = (freqs > f0 - 30) & (freqs < f0 + 30)
        k = np.flatnonzero(band)[np.argmax(mag[band])]
        return freqs[k], mag[k]

    f1, m1 = peak_near(440.0)
    f2, m2 = peak_near(660.0)
    assert f1 == pytest.approx(440.0, abs=1.0)
    assert f2 == pytest.approx(660.0, abs=1.0)
    assert abs(20 * np.log10(m1 / m2)) <= 1.0


def test_amplitude_stability():
    x = sine(440.0, 1.0, SR)
    for alpha in (2.0, 4.0):
        y = stretch_sines(x, alpha)
        i_in = slice(4096, len(x) - 4096)
        i_out = slice(4096, len(y) - 4096)
        gain_db = 20 * np.log10(
            np.std(y.samples[i_out]) / np.std(x.samples[i_in])
        )
        assert abs(gain_db) <= 1.0


def test_anchor_identity_and_pitch():
    x = sine(440.0, 1.0, SR)
    y = stretch_plain(x, 1.0)
    i = slice(4096, len(x) - 4096)
    rel = np.sqrt(np.mean((y.samples[i] - x.samples[i]) ** 2) / np.mean(x.samples[i] ** 2))
    assert rel < 1e-3
    z = stretch_plain(x, 2.0)
    assert len(z) == 2 * len(x)
    assert dominant_frequency(z) == pytest.approx(440.0, abs=1.0)


def test_invalid_params():
    with pytest.raises(ConfigurationError):
        PvParams(window_size=1024, synthesis_hop=1024)
    with pytest.raises(ConfigurationError):
        stretch_sines(sine(440.0, 0.1, SR), 0.0)
    with pytest.raises(ConfigurationError):
        stretch_plain(sine(440.0, 0.1, SR), -2.0)
