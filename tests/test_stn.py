import numpy as np
import pytest

from stretchkit import stn
from stretchkit.core import MAX_AMPLITUDE, AudioBuffer, Spectrogram
from stretchkit.errors import ConfigurationError
from stretchkit.signals import gen_signal
from stretchkit.stn import (
    STAGE1_THRESHOLDS,
    STAGE2_THRESHOLDS,
    StnConfig,
    StnThresholds,
    compute_masks,
    saturating_mask,
    stn_decompose,
    stn_decompose_with_masks,
    tonalness_transientness,
)

SR = 44100


def energy(buf):
    return float(np.sum(buf.samples**2))


def test_saturating_mask_branches():
    thr = STAGE2_THRESHOLDS  # 0.85 / 0.75
    assert saturating_mask(0.95, thr) == 1.0
    assert saturating_mask(thr.beta_l, thr) == 0.0
    assert saturating_mask((thr.beta_u + thr.beta_l) / 2, thr) == pytest.approx(0.5)
    assert saturating_mask(0.0, thr) == 0.0
    assert saturating_mask(thr.beta_u, thr) == 1.0


def test_saturating_mask_monotone_grid():
    for thr in (STAGE1_THRESHOLDS, STAGE2_THRESHOLDS):
        grid = saturating_mask(np.linspace(0, 1, 1000), thr)
        assert np.all(np.diff(grid) >= 0)
        assert grid.min() == 0.0 and grid.max() == 1.0


def test_thresholds_validation():
    with pytest.raises(ConfigurationError):
        StnThresholds(beta_u=0.7, beta_l=0.8)
    with pytest.raises(ConfigurationError):
        StnThresholds(beta_u=1.5, beta_l=0.5)


def mag(values):
    v = np.asarray(values, dtype=float)
    return Spectrogram(v, 8, 4, SR)


def test_tonalness_sinusoid_ridge():
    x = gen_signal("sine", 2.0)
    from stretchkit.core import StftParams, stft

    spec = stft(x, StftParams(2048, 1024))
    m = spec.copy_with(np.abs(spec.values))
    r_s, r_t = tonalness_transientness(m, 5, 93)
    peak_bin = round(440 * 2048 / SR)
    assert np.all(r_s.values[5:-5, peak_bin] > 0.95)
    assert np.allclose(r_s.values + r_t.values, 1.0)


def test_transientness_click():
    x = AudioBuffer(np.zeros(44100), SR)
    x.samples[22050] = 1.0
    from stretchkit.core import StftParams, stft

    spec = stft(x, StftParams(512, 128))
    m = spec.copy_with(np.abs(spec.values))
    r_s, r_t = tonalness_transientness(m, 69, 7)
    click_frame = 22050 // 128
    assert np.median(r_t.values[click_frame, 10:-10]) > 0.9


def test_tonalness_zero_magnitude_convention():
    m = mag(np.zeros((9, 9)))
    r_s, r_t = tonalness_transientness(m, 3, 3)
    assert np.all(r_s.values == 0.5)
    assert np.all(r_t.values == 0.5)


def test_compute_masks_examples():
    thr = STAGE2_THRESHOLDS
    ms = compute_masks(mag([[0.9]]), mag([[0.1]]), thr)
    assert (ms.sines[0, 0], ms.transients[0, 0], ms.noise[0, 0]) == (1.0, 0.0, 0.0)
    ms = compute_masks(mag([[0.5]]), mag([[0.5]]), thr)
    assert (ms.sines[0, 0], ms.transients[0, 0], ms.noise[0, 0]) == (0.0, 0.0, 1.0)
    ms = compute_masks(mag([[0.8]]), mag([[0.2]]), thr)
    assert ms.sines[0, 0] == pytest.approx(0.5)
    assert ms.transients[0, 0] == 0.0
    assert ms.noise[0, 0] == pytest.approx(0.5)


def test_decompose_tone_energy_in_sines():
    comps = stn_decompose(gen_signal("sine", 2.0))
    total = energy(comps.sines) + energy(comps.transients) + energy(comps.noise)
    assert energy(comps.sines) / total >= 0.95


def test_decompose_impulse_energy_in_transients():
    x = AudioBuffer(np.zeros(88200), SR)
    x.samples[44100] = 1.0
    comps = stn_decompose(x)
    total = energy(comps.sines) + energy(comps.transients) + energy(comps.noise)
    assert energy(comps.transients) / total >= 0.90


def test_decompose_noise_energy_in_noise():
    comps = stn_decompose(gen_signal("shaped_noise", 2.0, slope_db_per_octave=0.0))
    assert energy(comps.noise) > energy(comps.sines)
    assert energy(comps.noise) > energy(comps.transients)


@pytest.mark.parametrize("kind", ["sine", "click_train", "shaped_noise", "click_plus_hiss"])
def test_perfect_reconstruction(kind):
    x = gen_signal(kind, 1.0)
    comps = stn_decompose(x)
    recon = comps.sines.samples + comps.transients.samples + comps.noise.samples
    assert len(recon) == len(x)
    assert np.max(np.abs(recon - x.samples)) <= 1e-12 * np.max(np.abs(x.samples))


def test_each_stage_inverts_only_its_kept_part(monkeypatch):
    calls = []
    real_istft = stn.istft

    def counting_istft(*args, **kwargs):
        calls.append(args[0].window_size)
        return real_istft(*args, **kwargs)

    monkeypatch.setattr(stn, "istft", counting_istft)
    stn_decompose(gen_signal("click_plus_hiss", 0.5))
    config = StnConfig()
    assert calls == [config.long_window, config.short_window]


@pytest.mark.parametrize("kind", ["click_plus_hiss", "two_tone"])
def test_decompose_with_and_without_masks_identical(kind):
    """stn_decompose builds only the kept masks; its components are the very
    bits of the path that builds every mask."""
    x = gen_signal(kind, 1.0)
    lean = stn_decompose(x)
    full, (m1, m2) = stn_decompose_with_masks(x)
    for name in ("sines", "transients", "noise"):
        assert np.array_equal(getattr(lean, name).samples, getattr(full, name).samples)
    assert m1.sines.shape[1] == 8192 // 2 + 1 and m2.sines.shape[1] == 512 // 2 + 1


def test_mask_partition_and_range():
    _, (m1, m2) = stn_decompose_with_masks(gen_signal("click_plus_hiss", 1.0))
    for ms in (m1, m2):
        assert np.max(np.abs(ms.sines + ms.transients + ms.noise - 1.0)) <= 1e-12
        for m in (ms.sines, ms.transients, ms.noise):
            assert m.min() >= 0.0 and m.max() <= 1.0


def test_scaling_equivariance():
    x = gen_signal("click_plus_hiss", 1.0)
    comps = stn_decompose(x)
    scaled = stn_decompose(AudioBuffer(3.0 * x.samples, SR))
    for a, b in [(comps.sines, scaled.sines), (comps.noise, scaled.noise)]:
        assert np.allclose(3.0 * a.samples, b.samples, atol=1e-9)


def test_time_reversal_symmetry():
    x = gen_signal("shaped_noise", 1.0)
    fwd = stn_decompose(x)
    rev = stn_decompose(AudioBuffer(x.samples[::-1].copy(), SR))
    i = slice(8192, len(x) - 8192)
    fwd_noise = fwd.noise.samples[i]
    rev_noise = rev.noise.samples[::-1][i]
    # median filters and masks commute with reversal up to edge effects
    corr = np.corrcoef(fwd_noise, rev_noise)[0, 1]
    assert corr > 0.99


def test_short_input_warns_not_errors():
    x = AudioBuffer(np.random.default_rng(0).standard_normal(4000), SR)
    with pytest.warns(UserWarning):
        comps = stn_decompose(x)
    assert len(comps.sines) == len(x)


def test_empty_input_rejected():
    with pytest.raises(ConfigurationError):
        stn_decompose(AudioBuffer(np.zeros(0), SR))


def test_amplitude_above_bound_rejected():
    x = gen_signal("click_plus_hiss", 0.5).samples
    x = x / np.max(np.abs(x))
    comps, _ = stn_decompose_with_masks(AudioBuffer(MAX_AMPLITUDE * x, SR))
    assert np.all(np.isfinite(comps.noise.samples))
    with pytest.raises(ConfigurationError, match="peak amplitude"):
        stn_decompose_with_masks(AudioBuffer(1e101 * x, SR))
