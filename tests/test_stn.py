import tracemalloc

import numpy as np
import pytest

from stretchkit import core, stn
from stretchkit.core import (
    MAX_AMPLITUDE,
    AudioBuffer,
    Spectrogram,
    StftParams,
    median_filter_axis,
    overlap_add,
    stft,
)
from stretchkit.errors import ConfigurationError
from stretchkit.pipeline import StretchConfig
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


def whole_grid_saturating_mask(a, thresholds):
    """The mask with the sine computed over every value, not only in band."""
    a = np.asarray(a, dtype=np.float64)
    bu, bl = thresholds.beta_u, thresholds.beta_l
    t = (a - bl) / (bu - bl)
    mid = np.sin(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2
    return np.where(a >= bu, 1.0, np.where(a >= bl, mid, 0.0))


def test_saturating_mask_equals_whole_grid_formula():
    """300 random threshold pairs and the stage defaults, on random ratios
    and on values at and next to both thresholds: the same bytes as the
    sine over the whole grid. A scalar gives a float, the value an array
    holding it gets (numpy's scalar ** 2 can round the square differently)."""
    rng = np.random.default_rng(3)
    pairs = [np.sort(rng.uniform(0.0, 1.0, 2)) for _ in range(300)]
    pairs = [StnThresholds(bu, bl) for bl, bu in pairs if 0.0 < bu and bl < bu]
    for thr in (STAGE1_THRESHOLDS, STAGE2_THRESHOLDS, *pairs):
        edges = [np.nextafter(b, to) for b in (thr.beta_l, thr.beta_u) for to in (0.0, 2.0)]
        a = np.concatenate([rng.uniform(0.0, 1.0, 2000), [thr.beta_l, thr.beta_u, 0.0, 1.0],
                            edges])
        got = saturating_mask(a.reshape(-1, 4), thr)
        assert got.tobytes() == whole_grid_saturating_mask(a.reshape(-1, 4), thr).tobytes()
        for x in (thr.beta_l, thr.beta_u, *edges, 0.5 * (thr.beta_l + thr.beta_u)):
            value = saturating_mask(x, thr)
            assert type(value) is float
            assert value == whole_grid_saturating_mask(np.array([x]), thr)[0]


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
    assert np.all(r_s[5:-5, peak_bin] > 0.95)
    assert np.allclose(r_s + r_t, 1.0)


def test_transientness_click():
    x = AudioBuffer(np.zeros(44100), SR)
    x.samples[22050] = 1.0
    from stretchkit.core import StftParams, stft

    spec = stft(x, StftParams(512, 128))
    m = spec.copy_with(np.abs(spec.values))
    r_s, r_t = tonalness_transientness(m, 69, 7)
    click_frame = 22050 // 128
    assert np.median(r_t[click_frame, 10:-10]) > 0.9


def test_tonalness_zero_magnitude_convention():
    m = mag(np.zeros((9, 9)))
    r_s, r_t = tonalness_transientness(m, 3, 3)
    assert np.all(r_s == 0.5)
    assert np.all(r_t == 0.5)


@pytest.mark.parametrize("shape,t_len,f_len", [((40, 33), 3, 3), ((70, 129), 69, 7),
                                               ((12, 257), 5, 93), ((3, 9), 3, 5)])
def test_scores_bytes_equal_written_out_formula(shape, t_len, f_len):
    """R_s is M_time / (M_time + M_freq), 0.5 where that sum is 0, and R_t is
    1 - R_s, byte for byte, on grids with zero cells, all-zero lines,
    subnormal values and values near 1e100."""
    rng = np.random.default_rng(sum(shape) + t_len)
    values = rng.random(shape)
    values[rng.random(shape) < 0.3] = 0.0
    subnormal = rng.random(shape) < 0.1
    values[subnormal] = 5e-324 * rng.integers(1, 1 << 20, subnormal.sum())
    values[rng.random(shape) < 0.1] *= 1e100
    values[shape[0] // 2] = 0.0
    values[:, shape[1] // 3] = 0.0
    values[: shape[0] // 3, : shape[1] // 3] = 0.0  # a block whose medians are both 0
    m = mag(values)
    mt = median_filter_axis(m, "time", t_len).values
    mf = median_filter_axis(m, "frequency", f_len).values
    d = mt + mf
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = np.where(d > 0, mt / np.where(d > 0, d, 1), 0.5)
    assert (d == 0).any() and (d > 0).any()
    r_s, r_t = tonalness_transientness(m, t_len, f_len)
    assert r_s.tobytes() == expected.tobytes()
    assert r_t.tobytes() == (1.0 - expected).tobytes()


def test_compute_masks_examples():
    thr = STAGE2_THRESHOLDS
    ms = compute_masks(np.array([[0.9]]), np.array([[0.1]]), thr)
    assert (ms.sines[0, 0], ms.transients[0, 0], ms.noise[0, 0]) == (1.0, 0.0, 0.0)
    ms = compute_masks(np.array([[0.5]]), np.array([[0.5]]), thr)
    assert (ms.sines[0, 0], ms.transients[0, 0], ms.noise[0, 0]) == (0.0, 0.0, 1.0)
    ms = compute_masks(np.array([[0.8]]), np.array([[0.2]]), thr)
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


def stage_reference(x, rate, params, thresholds, config, keep):
    """One stage as (kept, x - kept) from a copy of x padded by a window on
    each side with np.pad, its whole stft, and an inverse that divides by the
    overlap-added squared window of every frame."""
    pad = w = params.window_size
    spec = stft(AudioBuffer(np.pad(x, (pad, pad)), rate), params)
    t_len, f_len = stn.median_lengths(params, rate, config)
    r_s, r_t = tonalness_transientness(spec.copy_with(np.abs(spec.values)), t_len, f_len)
    mask = saturating_mask(r_s if keep == "sines" else r_t, thresholds)
    win = params.window()
    out = overlap_add(np.fft.irfft(spec.values * mask, n=w, axis=1) * win, params.hop_size)
    wsum = overlap_add(np.broadcast_to(win**2, (spec.n_frames, w)), params.hop_size)
    covered = wsum > 0.0
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    kept = out[pad : pad + len(x)]
    return kept, x - kept


@pytest.mark.parametrize("rate", [44100, 48000])
@pytest.mark.parametrize("kind", ["click_plus_hiss", "two_tone"])
def test_stages_equal_padded_copy_reference(kind, rate):
    """Each stage frames its input from a window before its first sample,
    with no padded copy, and divides by the window sum taken from one hop:
    the components are the reference's bytes."""
    config = StretchConfig().for_rate(rate).stn
    x = gen_signal(kind, 1.0, rate).samples
    long, short = (StftParams(config.long_window, config.long_hop),
                   StftParams(config.short_window, config.short_hop))
    sines, residual = stage_reference(x, rate, long, config.stage1, config, "sines")
    transients, noise = stage_reference(residual, rate, short, config.stage2, config,
                                        "transients")
    comps = stn_decompose(AudioBuffer(x, rate), config)
    assert comps.sines.samples.tobytes() == sines.tobytes()
    assert comps.transients.samples.tobytes() == transients.tobytes()
    assert comps.noise.samples.tobytes() == noise.tobytes()


def block_mask(mag, t_len, f_len, thresholds, keep, frames):
    """The kept mask of a magnitude grid built from blocks of `frames`
    frames, each widened by half the time-median span (clipped at the grid's
    ends), scored and masked alone, and cut back to its own frames."""
    m, half = mag.n_frames, t_len // 2
    mask = np.empty(mag.values.shape)
    for b0 in range(0, m, frames):
        b1 = min(b0 + frames, m)
        lo, hi = max(b0 - half, 0), min(b1 + half, m)
        r_s, r_t = tonalness_transientness(mag.copy_with(mag.values[lo:hi]), t_len, f_len)
        block = saturating_mask(r_s if keep == "sines" else r_t, thresholds)
        mask[b0:b1] = block[b0 - lo : b1 - lo]
    return mask


@pytest.mark.parametrize("rate", [44100, 48000])
@pytest.mark.parametrize("kind", ["click_plus_hiss", "two_tone"])
def test_stage_masks_built_in_frame_blocks_keep_their_bytes(kind, rate):
    """Each stage's kept mask, built from blocks of 5 and of 97 frames,
    has the whole grid's bytes, and the kept signals it gives are
    stn_decompose's components: the frequency median stays within a frame,
    and a frame's time median needs only half a span of frames each side."""
    config = StretchConfig().for_rate(rate).stn
    x = gen_signal(kind, 2.0, rate).samples
    comps = stn_decompose(AudioBuffer(x, rate), config)
    stages = ((StftParams(config.long_window, config.long_hop), config.stage1, "sines"),
              (StftParams(config.short_window, config.short_hop), config.stage2, "transients"))
    for (params, thresholds, keep), component in zip(stages, (comps.sines, comps.transients)):
        pad = params.window_size
        spec = stft(AudioBuffer(x, rate), params, pad)
        mag = spec.copy_with(np.abs(spec.values))
        t_len, f_len = stn.median_lengths(params, rate, config)
        r_s, r_t = tonalness_transientness(mag, t_len, f_len)
        whole = saturating_mask(r_s if keep == "sines" else r_t, thresholds)
        for frames in (5, 97):
            mask = block_mask(mag, t_len, f_len, thresholds, keep, frames)
            assert mask.tobytes() == whole.tobytes(), (keep, frames)
            kept = core.istft(spec.copy_with(spec.values * mask)).samples[pad : pad + len(x)]
            assert kept.tobytes() == component.samples.tobytes(), (keep, frames)
        x = x - kept
    assert x.tobytes() == comps.noise.samples.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_decompose_memory_per_input_second(monkeypatch, cpus):
    """stn_decompose's traced peak on 10 s at 44.1 kHz stays within 5.5 MiB per
    input second: the scores are written over the two median results. (At
    2 s the per-task median buffers dominate the peak, so 10 s is used.)"""
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    x = gen_signal("click_plus_hiss", 10.0, SR)
    tracemalloc.start()
    try:
        stn_decompose(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20 * 10, peak / 2**20


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
