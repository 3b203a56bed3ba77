import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretchkit import noisemorph
from stretchkit.core import AudioBuffer, Spectrogram, stft
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import oracle_magnitude_spectrogram
from stretchkit.noisemorph import (
    MAX_FLOOR_DB,
    NoiseMorphParams,
    generate_excitation,
    lerp_frames,
    log_magnitude,
    morph,
    morph_replace,
    stretch_noise,
)
from stretchkit.signals import shaped_noise

SR = 44100


def spec(values, complex_=False):
    v = np.asarray(values, dtype=complex if complex_ else float)
    return Spectrogram(v, 2048, 1024, SR)


def test_log_magnitude_values():
    s = spec([[1.0, 10.0, 0.0]], complex_=True)
    out = log_magnitude(s, floor_db=-120.0)
    assert out.values[0, 0] == pytest.approx(0.0)
    assert out.values[0, 1] == pytest.approx(10.0)
    assert out.values[0, 2] == pytest.approx(-120.0)
    assert np.all(np.isfinite(out.values))


@settings(max_examples=200, deadline=None)
@given(
    mags=st.lists(st.floats(min_value=0.0, max_value=1e100), min_size=1, max_size=40),
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
    floor_db=st.floats(min_value=-1e4, max_value=0.0),
)
@example(mags=[0.0, 1e-300, 1e100], phase=0.0, floor_db=-120.0)
@example(mags=[0.0], phase=0.0, floor_db=-4000.0)
def test_log_magnitude_floor_property(mags, phase, floor_db):
    values = np.array(mags)[None, :] * np.exp(1j * phase)
    out = log_magnitude(spec(values, complex_=True), floor_db=floor_db).values
    assert np.all(np.isfinite(out))
    assert np.all(out >= floor_db)


def test_lerp_identity_at_alpha_one():
    s = spec(np.random.default_rng(0).random((7, 5)))
    out = lerp_frames(s, np.arange(7) / 1.0)
    assert np.array_equal(out.values, s.values)


def test_lerp_two_frames_alpha_two():
    s = spec([[0.0], [10.0]])
    out = lerp_frames(s, np.arange(4) / 2.0)
    assert np.allclose(out.values[:, 0], [0.0, 5.0, 10.0, 10.0])


def test_lerp_constant_any_alpha():
    s = spec(np.full((6, 3), 2.5))
    for alpha in (0.3, 1.5, 3.0, 7.0):
        positions = (np.arange(round(alpha * 6) + 4) - 2) / alpha
        out = lerp_frames(s, positions)
        assert out.n_frames == len(positions)
        assert np.allclose(out.values, 2.5)


def test_lerp_empty():
    with pytest.raises(ConfigurationError, match="no frames"):
        lerp_frames(spec(np.zeros((0, 4))), np.arange(3) / 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lerp_rejects_nonfinite_positions(bad):
    with pytest.raises(ConfigurationError, match="frame positions must be finite"):
        lerp_frames(spec(np.zeros((2, 3))), np.array([0.0, bad, 1.0]))


def test_stretch_noise_tail_reads_last_input_frame(monkeypatch):
    # 10 input frames at alpha 0.5: a target of round(0.5 * 10) = 5 frames
    # would end at input frame (5 - 1) / 0.5 = 8, short of the last frame 9
    params = NoiseMorphParams()
    noise = AudioBuffer(np.random.default_rng(1).standard_normal(9 * 1024 + 2048), SR)
    logmag = log_magnitude(stft(noise, params.stft_params()), params.floor_db).values
    assert len(logmag) == 10
    targets = []

    def capture(interp, excitation_spec):
        targets.append(interp.values)
        return morph(interp, excitation_spec)

    monkeypatch.setattr(noisemorph, "morph", capture)
    stretch_noise(noise, 0.5, params, seed=0)
    (target,) = targets
    lead = -(-params.window_size // params.hop_size)
    tail = target[(np.arange(len(target)) - lead) / 0.5 >= len(logmag) - 1]
    assert len(tail) >= 1
    assert np.array_equal(tail, np.broadcast_to(logmag[-1], tail.shape))


def test_excitation_deterministic():
    a = generate_excitation(10000, seed=7)
    b = generate_excitation(10000, seed=7)
    assert np.array_equal(a.samples, b.samples)
    c = generate_excitation(10000, seed=8)
    assert not np.array_equal(a.samples, c.samples)
    assert len(generate_excitation(0, seed=1)) == 0


@pytest.mark.parametrize("call", [
    lambda: generate_excitation(10, -1),
    lambda: stretch_noise(AudioBuffer(np.zeros(100), SR), 2.0, seed=-1),
    lambda: generate_excitation(10, 1.5),
], ids=["excitation_negative", "stretch_noise_negative", "excitation_float"])
def test_bad_seed_is_configuration_error(call):
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        call()


def test_excitation_statistics():
    eps = generate_excitation(10**6, seed=123)
    assert abs(np.mean(eps.samples)) <= 0.005
    assert abs(np.var(eps.samples) - 1.0) <= 0.01


def test_morph_unit_target_returns_excitation():
    exc = spec(np.random.default_rng(0).standard_normal((4, 3))
               + 1j * np.random.default_rng(1).standard_normal((4, 3)), complex_=True)
    target = spec(np.zeros((4, 3)))
    out = morph(target, exc)
    assert np.allclose(out.values, exc.values)


def test_morph_gain():
    exc = spec([[1.0 + 0j]], complex_=True)
    target = spec([[20.0]])
    assert abs(morph(target, exc).values[0, 0]) == pytest.approx(100.0)


def test_morph_shape_mismatch():
    with pytest.raises(ConfigurationError):
        morph(spec(np.zeros((2, 3))), spec(np.zeros((3, 3)), complex_=True))


def test_morph_replace_magnitude_exact():
    rng = np.random.default_rng(3)
    exc = spec(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)), complex_=True)
    target = spec(rng.uniform(-30, 10, (5, 4)))
    out = morph_replace(target, exc)
    assert np.allclose(np.abs(out.values), 10.0 ** (target.values / 10.0), rtol=1e-12)
    assert np.allclose(np.angle(out.values), np.angle(exc.values))


def test_morph_replace_zero_bin_phase_convention():
    exc = spec([[0.0 + 0.0j]], complex_=True)
    target = spec([[20.0]])
    assert morph_replace(target, exc).values[0, 0] == pytest.approx(100.0 + 0.0j)


def test_stretch_noise_length_contract():
    n = shaped_noise(-3.0, 1.0, seed=2)
    for alpha in (0.5, 1.0, 2.0, 3.7):
        out = stretch_noise(n, alpha, seed=0)
        assert len(out) == round(alpha * len(n))
        assert out.sample_rate == SR


def test_stretch_noise_highest_floor_stays_finite():
    assert MAX_FLOOR_DB == 1000.0
    n = shaped_noise(-3.0, 0.5, seed=2)
    out = stretch_noise(n, 2.0, NoiseMorphParams(floor_db=MAX_FLOOR_DB), seed=0)
    assert len(out) == 2 * len(n)
    assert np.all(np.isfinite(out.samples))


def test_stretch_noise_silence_stays_quiet():
    silent = AudioBuffer(np.zeros(SR), SR)
    out = stretch_noise(silent, 2.0, seed=0)
    assert len(out) == 2 * SR
    assert np.sqrt(np.mean(out.samples**2)) <= 1e-5


def test_stretch_noise_deterministic():
    n = shaped_noise(-3.0, 1.0, seed=2)
    a = stretch_noise(n, 2.0, seed=4)
    b = stretch_noise(n, 2.0, seed=4)
    assert np.array_equal(a.samples, b.samples)


def test_variants_differ_same_seed():
    n = shaped_noise(-3.0, 1.0, seed=2)
    a = stretch_noise(n, 2.0, variant="multiply", seed=4)
    b = stretch_noise(n, 2.0, variant="replace", seed=4)
    assert len(a) == len(b)
    assert not np.array_equal(a.samples, b.samples)


def test_unknown_variant_rejected():
    n = shaped_noise(-3.0, 0.2, seed=2)
    with pytest.raises(ConfigurationError):
        stretch_noise(n, 2.0, variant="zap", seed=0)
    with pytest.raises(ConfigurationError):
        stretch_noise(n, -1.0, seed=0)


def test_envelope_match_alpha_one_seed_averaged():
    # over many seeds the excitation magnitude averages to a constant, so
    # the seed-mean output envelope must track the input envelope
    n = shaped_noise(-6.0, 1.5, seed=5)
    target = 10 * np.log10(np.maximum(oracle_magnitude_spectrogram(n, 2048, 1024), 1e-12))
    acc = None
    for seed in range(20):
        y = stretch_noise(n, 1.0, seed=seed)
        m = oracle_magnitude_spectrogram(y, 2048, 1024)
        acc = m if acc is None else acc + m
    env = 10 * np.log10(np.maximum(acc / 20, 1e-12))
    interior = slice(3, target.shape[0] - 3)
    strong = target[interior] > target.max() - 60
    dev = np.abs(env - target)[interior][strong]
    assert dev.mean() <= 1.5


def test_no_hop_rate_modulation():
    n = shaped_noise(0.0, 2.0, seed=3)
    out = stretch_noise(n, 2.0, seed=9)
    frame, hop = 256, 64
    csum = np.concatenate([[0.0], np.cumsum(out.samples**2)])
    starts = np.arange(0, len(out) - frame + 1, hop)
    env = np.sqrt((csum[starts + frame] - csum[starts]) / frame)[8:-8]
    spectrum = np.abs(np.fft.rfft(env))
    k = round(SR / 1024 / (SR / hop) * len(env))
    rel_db = 20 * np.log10(spectrum[max(1, k - 1) : k + 2].max() / spectrum[0])
    assert rel_db <= -40.0
