import numpy as np
import pytest

from stretchkit.core import AudioBuffer
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import dominant_frequency, onset_positions
from stretchkit.pipeline import (
    MODES,
    StretchConfig,
    output_length,
    stretch_components,
    time_stretch,
)
from stretchkit.signals import click_times, gen_signal
from stretchkit.stn import stn_decompose

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


def test_mode_is_case_insensitive():
    assert StretchConfig(mode="NM").mode == "nm"


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
