"""Length contract: every stretch path returns exactly output_length(N, alpha)
finite samples, for input lengths from one sample to several STN windows and
any alpha in [1e-3, 16]."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.core import AudioBuffer
from stretchkit.noisemorph import stretch_noise
from stretchkit.pipeline import MODES, StretchConfig, output_length, time_stretch
from stretchkit.stn import StnConfig
from stretchkit.transients import detect_events, reposition_events
from stretchkit.vocoder import stretch_plain, stretch_sines

SR = 44100

lengths = st.integers(min_value=1, max_value=3 * StnConfig().long_window)
alphas = st.floats(min_value=1e-3, max_value=16.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def hiss_with_clicks(n: int, seed: int) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    x = 0.05 * rng.standard_normal(n)
    x[rng.integers(0, n, size=1 + n // 8192)] += 0.9
    return AudioBuffer(x, SR)


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
