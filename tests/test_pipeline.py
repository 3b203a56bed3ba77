import math

import numpy as np
import pytest

from stretchkit.core import MAX_AMPLITUDE, AudioBuffer, Spectrogram
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import dominant_frequency, onset_positions
from stretchkit.noisemorph import NoiseMorphParams, lerp_frames, stretch_noise
from stretchkit.pipeline import (
    MODES,
    StretchConfig,
    output_length,
    stretch_components,
    time_stretch,
)
from stretchkit.signals import click_times, gen_signal
from stretchkit.stn import StnConfig, stn_decompose
from stretchkit.transients import TransientDetectParams, reposition_events
from stretchkit.vocoder import stretch_plain, stretch_sines

SR = 44100


def test_output_length_rounding():
    assert output_length(100, 2.0) == 200
    assert output_length(3, 0.5) == 2
    assert output_length(44100, 1.37) == round(1.37 * 44100)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha", [0.001, 0.003, 0.01, 0.02, 0.05, 0.8, 1.0, 2.3])
def test_length_contract_all_modes(mode, alpha):
    # alpha <= 0.01 leaves the noise morph under half a target frame, which
    # must still yield a full-length output rather than an indexing error
    x = gen_signal("click_plus_hiss", 0.8, seed=3)
    y = time_stretch(x, StretchConfig(alpha=alpha, mode=mode))
    assert len(y) == output_length(len(x), alpha)
    assert np.all(np.isfinite(y.samples))
    assert y.sample_rate == SR


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        StretchConfig(alpha=2.0, mode="xy")
    with pytest.raises(ConfigurationError):
        StretchConfig(alpha=0.0)
    with pytest.raises(ConfigurationError):
        time_stretch(AudioBuffer(np.zeros(0), SR), StretchConfig())


@pytest.mark.parametrize("mode", MODES)
def test_amplitude_bound(mode):
    x = gen_signal("click_plus_hiss", 0.5, seed=2).samples
    x = x / np.max(np.abs(x))
    config = StretchConfig(alpha=2.0, mode=mode)
    y = time_stretch(AudioBuffer(MAX_AMPLITUDE * x, SR), config)
    assert len(y) == output_length(len(x), 2.0)
    assert np.all(np.isfinite(y.samples))
    for peak in (1e101, 1e200, 1e304):
        with pytest.raises(ConfigurationError, match="peak amplitude"):
            time_stretch(AudioBuffer(peak * x, SR), config)


@pytest.mark.parametrize("mode", MODES)
def test_output_length_bound_before_allocating(mode):
    with pytest.raises(ConfigurationError, match="exceeds the limit"):
        time_stretch(AudioBuffer(0.1 * np.ones(100), SR), StretchConfig(alpha=1e12, mode=mode))
    with pytest.raises(ConfigurationError, match="out_length"):
        reposition_events([], 2.0, 2**40)


def test_mode_is_case_insensitive():
    assert StretchConfig(mode="NM").mode == "nm"


_BUF = AudioBuffer(np.zeros(64), SR)
ALPHA_USERS = {
    "StretchConfig": lambda a: StretchConfig(alpha=a),
    "stretch_sines": lambda a: stretch_sines(_BUF, a),
    "stretch_plain": lambda a: stretch_plain(_BUF, a),
    "stretch_noise": lambda a: stretch_noise(_BUF, a),
    "lerp_frames": lambda a: lerp_frames(Spectrogram(np.zeros((2, 3)), 4, 2, SR), a),
    "reposition_events": lambda a: reposition_events([], a, 10),
}


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("user", sorted(ALPHA_USERS))
def test_every_alpha_user_rejects_bad_alpha(user, alpha):
    with pytest.raises(ConfigurationError, match="alpha must be positive and finite"):
        ALPHA_USERS[user](alpha)


SECTION_CHECKS = [
    (StretchConfig, "seed", -1),
    (StnConfig, "time_median_span_s", math.inf),
    (StnConfig, "freq_median_span_hz", math.nan),
    (StnConfig, "freq_median_span_hz", 0.0),
    (StnConfig, "short_window", 64),  # below the default short_hop 128
    (NoiseMorphParams, "floor_db", -math.inf),
    (NoiseMorphParams, "window_size", 512),  # below the default hop_size 1024
    (TransientDetectParams, "hop_s", math.nan),
    (TransientDetectParams, "frame_s", 0.0),
    (TransientDetectParams, "rel_threshold", 0.0),
    (TransientDetectParams, "fade_s", -0.001),
    (TransientDetectParams, "abs_floor", math.inf),
]


@pytest.mark.parametrize("section,name,value", SECTION_CHECKS,
                         ids=[f"{s.__name__}.{n}={v}" for s, n, v in SECTION_CHECKS])
def test_section_checks(section, name, value):
    with pytest.raises(ConfigurationError, match=name):
        section(**{name: value})


@pytest.mark.parametrize("mode", ["nm", "ni", "an"])
def test_pitch_preserved(mode):
    x = gen_signal("sine", 1.0)
    y = time_stretch(x, StretchConfig(alpha=2.0, mode=mode))
    assert dominant_frequency(y) == pytest.approx(440.0, abs=1.0)


def test_nm_repositions_clicks():
    alpha = 2.0
    x = gen_signal("click_train", 2.0)
    y = time_stretch(x, StretchConfig(alpha=alpha, mode="nm"))
    expected = alpha * click_times(2.0, 0.25)
    got = onset_positions(y)
    assert len(got) == len(expected)
    assert np.max(np.abs(got - expected)) <= 0.010


def test_deterministic_given_seed():
    x = gen_signal("click_plus_hiss", 0.8, seed=5)
    cfg = StretchConfig(alpha=2.0, mode="nm", seed=42)
    a = time_stretch(x, cfg)
    b = time_stretch(x, cfg)
    assert np.array_equal(a.samples, b.samples)
    c = time_stretch(x, StretchConfig(alpha=2.0, mode="nm", seed=43))
    assert not np.array_equal(a.samples, c.samples)


def test_nm_and_ni_differ():
    x = gen_signal("click_plus_hiss", 0.8, seed=5)
    a = time_stretch(x, StretchConfig(alpha=2.0, mode="nm", seed=0))
    b = time_stretch(x, StretchConfig(alpha=2.0, mode="ni", seed=0))
    assert not np.array_equal(a.samples, b.samples)


def test_branch_outputs_sum_to_result():
    x = gen_signal("click_plus_hiss", 0.8, seed=5)
    cfg = StretchConfig(alpha=1.5, mode="nm", seed=1)
    comps = stn_decompose(x, cfg.stn)
    out, branches = stretch_components(comps, cfg)
    total = branches.sines.samples + branches.transients.samples + branches.noise.samples
    assert np.array_equal(out.samples, total)
    assert len(branches.noise) == len(out)


def test_stretch_components_matches_time_stretch():
    x = gen_signal("click_plus_hiss", 0.8, seed=5)
    cfg = StretchConfig(alpha=2.0, mode="ni", seed=7)
    via_pipeline = time_stretch(x, cfg)
    via_parts, _ = stretch_components(stn_decompose(x, cfg.stn), cfg)
    assert np.array_equal(via_pipeline.samples, via_parts.samples)


def test_level_roughly_preserved():
    x = gen_signal("shaped_noise", 1.5, seed=9)
    for mode in ("nm", "nd"):
        y = time_stretch(x, StretchConfig(alpha=2.0, mode=mode, seed=0))
        i_in = slice(4096, len(x) - 4096)
        i_out = slice(4096, len(y) - 4096)
        gain_db = 20 * np.log10(np.std(y.samples[i_out]) / np.std(x.samples[i_in]))
        assert abs(gain_db) <= 3.0
