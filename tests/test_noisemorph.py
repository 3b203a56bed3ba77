import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretchkit import core, noisemorph
from stretchkit.core import (
    AudioBuffer,
    istft,
    n_frames_for,
    stft,
    window_energy,
)
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import oracle_magnitude_spectrogram
from stretchkit.noisemorph import (
    MAX_FLOOR_DB,
    NoiseMorphParams,
    generate_excitation,
    lerp_frames,
    log_magnitude,
    morph,
    VARIANT_MULTIPLY,
    VARIANT_REPLACE,
    morph_replace,
    stretch_noise,
)
from stretchkit.signals import shaped_noise

SR = 44100


def spec(values, complex_=False):
    return np.asarray(values, dtype=complex if complex_ else float)


def test_log_magnitude_values():
    s = spec([[1.0, 10.0, 0.0]], complex_=True)
    out = log_magnitude(s, floor_db=-120.0)
    assert out[0, 0] == pytest.approx(0.0)
    assert out[0, 1] == pytest.approx(10.0)
    assert out[0, 2] == pytest.approx(-120.0)
    assert np.all(np.isfinite(out))


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
    out = log_magnitude(spec(values, complex_=True), floor_db=floor_db)
    assert np.all(np.isfinite(out))
    assert np.all(out >= floor_db)


@pytest.mark.parametrize("floor_db", [-300.0, -120.0, 0.0])
def test_log_magnitude_in_one_real_grid(floor_db):
    """The log, the scale and the floor are taken in the np.abs array: the
    peak is one real grid (plus 1 MiB), and the bytes are those of the
    plain expression, zero bins included."""
    rng = np.random.default_rng(8)
    values = rng.standard_normal((600, 1025)) + 1j * rng.standard_normal((600, 1025))
    values[::7, ::5] = 0.0
    tracemalloc.start()
    try:
        out = log_magnitude(spec(values, complex_=True), floor_db=floor_db)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**20
    with np.errstate(divide="ignore"):
        expected = np.maximum(10.0 * np.log10(np.abs(values)), floor_db)
    assert out.tobytes() == expected.tobytes()


def test_lerp_identity_at_alpha_one():
    s = spec(np.random.default_rng(0).random((7, 5)))
    out = lerp_frames(s, np.arange(7) / 1.0)
    assert np.array_equal(out, s)


def test_lerp_two_frames_alpha_two():
    s = spec([[0.0], [10.0]])
    out = lerp_frames(s, np.arange(4) / 2.0)
    assert np.allclose(out[:, 0], [0.0, 5.0, 10.0, 10.0])


def test_lerp_constant_any_alpha():
    s = spec(np.full((6, 3), 2.5))
    for alpha in (0.3, 1.5, 3.0, 7.0):
        positions = (np.arange(round(alpha * 6) + 4) - 2) / alpha
        out = lerp_frames(s, positions)
        assert len(out) == len(positions)
        assert np.allclose(out, 2.5)


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
    logmag = log_magnitude(stft(noise, params.stft_params()).values, params.floor_db)
    assert len(logmag) == 10
    targets = []

    def capture(interp, excitation_spec):
        targets.append(interp)
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
    assert np.array_equal(a, b)
    c = generate_excitation(10000, seed=8)
    assert not np.array_equal(a, c)
    assert len(generate_excitation(0, seed=1)) == 0


@pytest.mark.parametrize("call", [
    lambda: generate_excitation(10, -1),
    lambda: stretch_noise(AudioBuffer(np.zeros(100), SR), 2.0, seed=-1),
    lambda: generate_excitation(10, 1.5),
    lambda: generate_excitation(10, True),
    lambda: stretch_noise(AudioBuffer(np.zeros(100), SR), 2.0, seed=False),
], ids=["excitation_negative", "stretch_noise_negative", "excitation_float", "excitation_bool",
        "stretch_noise_bool"])
def test_bad_seed_is_configuration_error(call):
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        call()


def test_excitation_generator_continues_its_stream():
    """A Generator passed as the seed continues its PCG64 stream: chunks of
    any size drawn in turn equal one draw of their total from the int seed."""
    sizes = (0, 1, 3, 999, 131072, 0, 7)
    rng = np.random.Generator(np.random.PCG64(11))
    chunks = [generate_excitation(n, rng) for n in sizes]
    whole = generate_excitation(sum(sizes), 11)
    assert np.concatenate(chunks).tobytes() == whole.tobytes()


def test_excitation_statistics():
    eps = generate_excitation(10**6, seed=123)
    assert abs(np.mean(eps)) <= 0.005
    assert abs(np.var(eps) - 1.0) <= 0.01


def test_morph_unit_target_returns_excitation():
    exc = spec(np.random.default_rng(0).standard_normal((4, 3))
               + 1j * np.random.default_rng(1).standard_normal((4, 3)), complex_=True)
    target = spec(np.zeros((4, 3)))
    out = morph(target, exc)
    assert np.allclose(out, exc)


def test_morph_gain():
    exc = spec([[1.0 + 0j]], complex_=True)
    target = spec([[20.0]])
    assert abs(morph(target, exc)[0, 0]) == pytest.approx(100.0)


def test_morph_shape_mismatch():
    with pytest.raises(ConfigurationError):
        morph(spec(np.zeros((2, 3))), spec(np.zeros((3, 3)), complex_=True))


def test_morph_replace_magnitude_exact():
    rng = np.random.default_rng(3)
    exc = spec(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)), complex_=True)
    target = spec(rng.uniform(-30, 10, (5, 4)))
    out = morph_replace(target, exc)
    assert np.allclose(np.abs(out), 10.0 ** (target / 10.0), rtol=1e-12)
    assert np.allclose(np.angle(out), np.angle(exc))


def test_morph_replace_zero_bin_phase_convention():
    exc = spec([[0.0 + 0.0j]], complex_=True)
    target = spec([[20.0]])
    assert morph_replace(target, exc)[0, 0] == pytest.approx(100.0 + 0.0j)


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


def whole_grid_noise(noise, alpha, params, variant, seed):
    """stretch_noise from whole grids: the excitation's full STFT, one
    interpolation, one morph and one istft."""
    sp = params.stft_params()
    lead = -(-sp.window_size // sp.hop_size)
    pad = lead * sp.hop_size
    n = round(alpha * len(noise))
    excitation = AudioBuffer(np.pad(generate_excitation(n, seed), (pad, pad)), noise.sample_rate)
    exc_spec = stft(excitation, sp)
    positions = (np.arange(exc_spec.n_frames) - lead) / alpha
    target = lerp_frames(log_magnitude(stft(noise, sp).values, params.floor_db), positions)
    shape = morph if variant == VARIANT_MULTIPLY else morph_replace
    morphed = shape(target, exc_spec.values / window_energy(sp))
    return istft(exc_spec.copy_with(morphed)).samples[pad : pad + n]


SMALL_NM = NoiseMorphParams(window_size=256, hop_size=64)
NM_BLOCK = 4  # frames per block while FRAME_BLOCK is patched to 4 windows


def excitation_frames(length, alpha, params):
    sp = params.stft_params()
    pad = -(-sp.window_size // sp.hop_size) * sp.hop_size
    return n_frames_for(round(alpha * length) + 2 * pad, sp)


# what each case below covers, checked before it runs
NM_CASES = {
    "mid_block": lambda alpha, n: excitation_frames(n, alpha, SMALL_NM) % NM_BLOCK != 0,
    "block_end": lambda alpha, n: excitation_frames(n, alpha, SMALL_NM) % NM_BLOCK == 0,
    "one_sample_output": lambda alpha, n: round(alpha * n) == 1,
    "one_frame_input": lambda alpha, n: n <= SMALL_NM.window_size,
}


@pytest.mark.parametrize("variant", [VARIANT_MULTIPLY, VARIANT_REPLACE])
@pytest.mark.parametrize("alpha, length, case", [
    (0.25, 3000, "mid_block"),
    (1.0, 1000, "mid_block"),
    (2.5, 700, "mid_block"),
    (8.0, 300, "mid_block"),
    (2.0, 720, "block_end"),
    (0.25, 4, "one_sample_output"),
    (3.0, 100, "one_frame_input"),
])
def test_blocked_stretch_noise_matches_whole_grid(monkeypatch, variant, alpha, length, case):
    monkeypatch.setattr(core, "FRAME_BLOCK", NM_BLOCK * SMALL_NM.window_size)
    assert excitation_frames(length, alpha, SMALL_NM) > NM_BLOCK
    assert NM_CASES[case](alpha, length)
    noise = shaped_noise(-3.0, length / SR, seed=length)
    assert len(noise) == length
    out = stretch_noise(noise, alpha, SMALL_NM, variant, seed=5).samples
    assert out.tobytes() == whole_grid_noise(noise, alpha, SMALL_NM, variant, 5).tobytes()


def test_default_blocks_match_whole_grid():
    # 1 s at alpha 2: 90 excitation frames, over one full block of 64 at the defaults
    noise = shaped_noise(-3.0, 1.0, seed=2)
    params = NoiseMorphParams()
    assert excitation_frames(len(noise), 2.0, params) > core.FRAME_BLOCK // params.window_size
    out = stretch_noise(noise, 2.0, params, seed=4).samples
    assert out.tobytes() == whole_grid_noise(noise, 2.0, params, VARIANT_MULTIPLY, 4).tobytes()


def test_stretch_noise_memory_is_bounded(monkeypatch):
    # the excitation's spectrogram never exists whole: at alpha 16 the whole
    # grids took about 89 bytes per output sample. What is left is the
    # excitation and the output, 16 bytes, and the blocks in flight: with the
    # padded excitation copy and the output-sized window sum it took 23.4.
    # Two CPUs: one worker's blocks.
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    noise = shaped_noise(-3.0, 2.0, seed=2)
    tracemalloc.start()
    try:
        out = stretch_noise(noise, 16.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 23 * len(out)


def test_stretch_noise_holds_no_whole_excitation(monkeypatch):
    # the excitation is drawn block by block, so what is left is the output,
    # 8 bytes per sample, and the blocks in flight; the whole excitation
    # drawn up front took 22.0. Two CPUs: one worker's blocks.
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    noise = shaped_noise(-3.0, 2.0, seed=2)
    tracemalloc.start()
    try:
        out = stretch_noise(noise, 16.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(out)


@pytest.mark.parametrize("alpha, length", [
    (0.01, 3000),  # a 30-sample output
    (1.0, 100),  # an output shorter than one window
    (2.5, 700),
    (8.0, 300),
])
def test_stretch_noise_draws_each_excitation_sample_once(monkeypatch, alpha, length):
    """Blocks of 1, 2, 3 and 5 frames, so a block edge falls inside the
    W - h samples a block shares with the one before: the same bytes as the
    whole grid, with round(alpha * length) samples drawn in all, none of
    them twice, and no draw longer than its block's frames cover."""
    noise = shaped_noise(-3.0, length / SR, seed=length)
    expected = whole_grid_noise(noise, alpha, SMALL_NM, VARIANT_MULTIPLY, 5).tobytes()
    drawn = []

    def recording(n, seed):
        drawn.append(n)
        return generate_excitation(n, seed)

    monkeypatch.setattr(noisemorph, "generate_excitation", recording)
    w, h = SMALL_NM.window_size, SMALL_NM.hop_size
    for frames in (1, 2, 3, 5):
        monkeypatch.setattr(core, "FRAME_BLOCK", frames * w)
        drawn.clear()
        out = stretch_noise(noise, alpha, SMALL_NM, seed=5).samples
        assert out.tobytes() == expected
        assert sum(drawn) == round(alpha * length)
        assert max(drawn) <= (frames - 1) * h + w


@pytest.mark.parametrize("variant", [VARIANT_MULTIPLY, VARIANT_REPLACE])
@pytest.mark.parametrize("alpha, length, block", [
    (0.25, 300, 4 * NM_BLOCK),  # one block
    (1.0, 1000, NM_BLOCK),  # the rest end mid-block
    (2.5, 700, NM_BLOCK),
    (8.0, 300, NM_BLOCK),
])
def test_same_bytes_under_stressed_thread_schedule(monkeypatch, variant, alpha, length, block):
    """More workers than CPUs and a thread switch every microsecond: the
    dealt blocks still overlap-add to the one-CPU bytes."""
    monkeypatch.setattr(core, "FRAME_BLOCK", block * SMALL_NM.window_size)
    frames = excitation_frames(length, alpha, SMALL_NM)
    assert frames <= block if block > NM_BLOCK else frames % block != 0
    noise = shaped_noise(-3.0, length / SR, seed=length)
    results = {}
    interval = sys.getswitchinterval()
    try:
        for cpus in (1, 4):
            monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
            sys.setswitchinterval(1e-6 if cpus > 1 else interval)
            results[cpus] = stretch_noise(noise, alpha, SMALL_NM, variant, seed=5).samples.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert results[4] == results[1]
