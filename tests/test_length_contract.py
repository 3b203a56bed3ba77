"""Length contract: every stretch path returns exactly output_length(N, alpha)
finite samples, for input lengths from one sample to several STN windows,
any alpha in [1e-3, 16], peak amplitudes from 1e-300 to MAX_AMPLITUDE,
silence, DC, and sample rates from 8 to 96 kHz."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretchkit.cli import scale_for_rate
from stretchkit.core import MAX_AMPLITUDE, AudioBuffer
from stretchkit.noisemorph import stretch_noise
from stretchkit.pipeline import MODES, StretchConfig, output_length, time_stretch
from stretchkit.stn import StnConfig
from stretchkit.transients import detect_events, reposition_events
from stretchkit.vocoder import stretch_plain, stretch_sines

SR = 44100

lengths = st.integers(min_value=1, max_value=3 * StnConfig().long_window)
alphas = st.floats(min_value=1e-3, max_value=16.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hiss_with_clicks(n: int, seed: int, rate: int = SR) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    x = 0.05 * rng.standard_normal(n)
    x[rng.integers(0, n, size=1 + n // 8192)] += 0.9
    return AudioBuffer(x, rate)


def assert_contract(y: AudioBuffer, n: int, alpha: float):
    assert len(y) == output_length(n, alpha)
    assert np.all(np.isfinite(y.samples))


@settings(max_examples=15, deadline=None)
@given(n=lengths, alpha=alphas, seed=seeds)
def test_branch_lengths(n, alpha, seed):
    x = hiss_with_clicks(n, seed)
    assert_contract(stretch_sines(x, alpha), n, alpha)
    assert_contract(stretch_plain(x, alpha), n, alpha)
    events = detect_events(x)
    assert_contract(reposition_events(events, alpha, output_length(n, alpha), SR), n, alpha)
    assert_contract(stretch_noise(x, alpha), n, alpha)


@pytest.mark.filterwarnings("ignore:input shorter than the stage-1 analysis window")
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=8, deadline=None)
@given(n=lengths, alpha=alphas, seed=seeds)
def test_time_stretch_length(mode, n, alpha, seed):
    x = hiss_with_clicks(n, seed)
    assert_contract(time_stretch(x, StretchConfig(alpha=alpha, mode=mode)), n, alpha)


log_peaks = st.floats(min_value=-300.0, max_value=float(np.log10(MAX_AMPLITUDE)))
short_lengths = st.integers(min_value=1, max_value=StnConfig().long_window + 5000)


@pytest.mark.filterwarnings("ignore:input shorter than the stage-1 analysis window")
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=6, deadline=None)
@given(n=short_lengths, alpha=alphas, log_peak=log_peaks, seed=seeds)
@example(n=6000, alpha=2.0, log_peak=-300.0, seed=0)
@example(n=6000, alpha=2.0, log_peak=100.0, seed=0)
def test_amplitude_range(mode, n, alpha, log_peak, seed):
    x = hiss_with_clicks(n, seed).samples
    x = AudioBuffer(min(10.0**log_peak, MAX_AMPLITUDE) * x / np.max(np.abs(x)), SR)
    assert_contract(time_stretch(x, StretchConfig(alpha=alpha, mode=mode)), n, alpha)


@pytest.mark.filterwarnings("ignore:input shorter than the stage-1 analysis window")
@pytest.mark.parametrize("level", [0.0, 0.5, -1.0], ids=["silence", "dc", "negative-dc"])
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=3, deadline=None)
@given(n=short_lengths, alpha=alphas)
def test_silence_and_dc(mode, level, n, alpha):
    x = AudioBuffer(np.full(n, level), SR)
    assert_contract(time_stretch(x, StretchConfig(alpha=alpha, mode=mode)), n, alpha)


@pytest.mark.filterwarnings("ignore:input shorter than the stage-1 analysis window")
@pytest.mark.parametrize("rate", [8000, 16000, 22050, 96000])
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=3, deadline=None)
@given(seconds=st.floats(min_value=1e-4, max_value=0.4), alpha=alphas, seed=seeds)
def test_sample_rates(mode, rate, seconds, alpha, seed):
    n = max(1, int(seconds * rate))
    config = scale_for_rate(StretchConfig(alpha=alpha, mode=mode), rate)
    y = time_stretch(hiss_with_clicks(n, seed, rate), config)
    assert_contract(y, n, alpha)
    assert y.sample_rate == rate
