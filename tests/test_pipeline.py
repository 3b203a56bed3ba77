import dataclasses
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stretchkit import core, noisemorph, vocoder
from stretchkit.core import MAX_AMPLITUDE, MAX_WINDOW, AudioBuffer
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import dominant_frequency, octave_band_levels, onset_positions
from stretchkit.noisemorph import NoiseMorphParams, stretch_noise
from stretchkit.pipeline import (
    MODES,
    RATE_SCALED_FIELDS,
    StretchConfig,
    _fast_length,
    output_length,
    stretch,
    stretch_components,
    time_stretch,
)
from stretchkit.signals import click_times, gen_signal
from stretchkit.stn import StnConfig, stn_decompose
from stretchkit.transients import TransientDetectParams, reposition_events
from stretchkit.vocoder import PvParams, stretch_plain, stretch_sines

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
    (NoiseMorphParams, "floor_db", 1000.5),  # above 10 * log10(MAX_AMPLITUDE)
    (NoiseMorphParams, "floor_db", 4000.0),  # 10 ** (4000 / 10) is inf
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


TYPE_CHECKS = [
    (StnConfig, "long_window", 8192.0),
    (StnConfig, "short_hop", np.float64(128)),
    (NoiseMorphParams, "hop_size", True),
    (NoiseMorphParams, "window_size", "2048"),
    (PvParams, "window_size", np.float64(4096)),
    (StretchConfig, "alpha", "2"),
    (StretchConfig, "alpha", None),
    (StretchConfig, "alpha", True),
    (StretchConfig, "alpha", np.bool_(True)),
    (StretchConfig, "mode", None),
]


@pytest.mark.parametrize("section,name,value", TYPE_CHECKS,
                         ids=[f"{s.__name__}.{n}={v!r}" for s, n, v in TYPE_CHECKS])
def test_wrong_types_are_configuration_errors(section, name, value):
    """Sizes are integers (numpy integers too, not bool), alpha is a real
    that is not a bool, and the mode is a str: anything else raises
    ConfigurationError when the section is built, not a TypeError or an
    AttributeError once a stretch runs."""
    with pytest.raises(ConfigurationError, match=name):
        section(**{name: value})


def test_numpy_sizes_and_alphas_stretch_as_python_numbers():
    """nm reads every section's sizes: numpy ones give the same bytes."""
    x = gen_signal("click_plus_hiss", 0.3)
    plain = StretchConfig(alpha=2.0, stn=StnConfig(long_window=2048, long_hop=512),
                          noise=NoiseMorphParams(256, 64), pv=PvParams(512, 128))
    numpy = StretchConfig(alpha=np.float64(2.0),
                          stn=StnConfig(long_window=np.int32(2048), long_hop=np.int64(512)),
                          noise=NoiseMorphParams(np.int32(256), np.int32(64)),
                          pv=PvParams(np.int64(512), np.int32(128)))
    assert time_stretch(x, numpy).samples.tobytes() == time_stretch(x, plain).samples.tobytes()


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


@pytest.mark.parametrize("mode", MODES)
def test_stretch_components_matches_time_stretch(mode):
    x = gen_signal("click_plus_hiss", 0.8, seed=5)
    cfg = StretchConfig(alpha=2.0, mode=mode, seed=7)
    out, branches = stretch(x, cfg)
    assert np.array_equal(out.samples, time_stretch(x, cfg).samples)
    if mode in ("nd", "an"):
        assert branches is None
        return
    components = stn_decompose(x, cfg.stn)
    for name in ("sines", "transients", "noise"):
        assert np.array_equal(getattr(branches.components, name).samples,
                              getattr(components, name).samples)
    via_parts, _ = stretch_components(components, cfg)
    assert np.array_equal(out.samples, via_parts.samples)


def test_level_roughly_preserved():
    x = gen_signal("shaped_noise", 1.5, seed=9)
    for mode in ("nm", "nd"):
        y = time_stretch(x, StretchConfig(alpha=2.0, mode=mode, seed=0))
        i_in = slice(4096, len(x) - 4096)
        i_out = slice(4096, len(y) - 4096)
        gain_db = 20 * np.log10(np.std(y.samples[i_out]) / np.std(x.samples[i_in]))
        assert abs(gain_db) <= 3.0


def _even_5_smooth(n):
    if n < 2 or n % 2:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length():
    smooth = [m for m in range(2, 9000) if _even_5_smooth(m)]
    for n in range(1, 8000):
        assert _fast_length(n) == min(smooth, key=lambda m: (abs(m - n), m)), n
    # ties go to the shorter length: 14 lies between 12 and 16, 558 between 540 and 576
    assert [_fast_length(n) for n in (1, 2, 3, 14, 558)] == [2, 2, 2, 12, 540]
    assert [_fast_length(n) for n in (2230, 4458, 8916)] == [2250, 4500, 9000]
    for m in (*smooth, 2**16, 36000, 2 * 3**9 * 5**4, 2**11 * 5**8, 2**31):
        assert _fast_length(m) == m
    # large lengths, up to the STN window at a rate of 2**32 - 1 Hz: nothing lies nearer
    for n in (797161501, 10**9 + 7, 123456789):
        m = _fast_length(n)
        assert _even_5_smooth(m)
        assert not any(_even_5_smooth(k) for k in range(n - abs(m - n), n + abs(m - n)) if k != m)


SCALED_RATES = [8000, 11025, 16000, 22050, 32000, 48000, 88200, 96000, 192000]


@pytest.mark.parametrize("rate", SCALED_RATES)
@pytest.mark.parametrize("config", [StretchConfig(), StretchConfig(pv=PvParams(4096, 1000))],
                         ids=["default", "pv-4096-1000"])
def test_for_rate_gives_fast_lengths(config, rate):
    scaled = config.for_rate(rate)
    ratio = rate / 44100
    for section, pairs in RATE_SCALED_FIELDS.items():
        before, after = getattr(config, section), getattr(scaled, section)
        for window_name, hop_name in pairs:
            w0, h0 = getattr(before, window_name), getattr(before, hop_name)
            w, h = getattr(after, window_name), getattr(after, hop_name)
            assert _even_5_smooth(w), (section, window_name, w)
            assert abs(w - w0 * ratio) <= 0.1 * w0 * ratio, (section, window_name, w)
            # the section's own hop/window ratio, to within the hop's rounding
            assert h >= 1 and abs(h - w * h0 / w0) <= 0.5, (section, hop_name, h)
        dataclasses.replace(after)  # the section's checks pass
    assert (scaled.alpha, scaled.transient) == (config.alpha, config.transient)


def test_for_rate_48k_sizes():
    scaled = StretchConfig().for_rate(48000)
    stn = scaled.stn
    assert (stn.long_window, stn.long_hop, stn.short_window, stn.short_hop) == (9000, 2250, 540, 135)
    assert (scaled.noise.window_size, scaled.noise.hop_size) == (2250, 1125)
    assert (scaled.pv.window_size, scaled.pv.synthesis_hop) == (4500, 1125)
    assert StretchConfig(pv=PvParams(4096, 1000)).for_rate(48000).pv == PvParams(4500, 1099)


@pytest.mark.parametrize("rate,section", [(40, "pv"), (4294967295, "stn")])
def test_for_rate_rejects_unusable_rates(rate, section):
    # at 40 Hz the vocoder window (4) has too few bins to find peaks; at the
    # largest rate a WAV header can state, the STN windows exceed MAX_WINDOW
    with pytest.raises(ConfigurationError, match=f"sample rate {rate} Hz: {section}:"):
        StretchConfig().for_rate(rate)
    assert StretchConfig().for_rate(768000).stn.long_window == 144000 <= MAX_WINDOW


def test_for_rate_rejects_the_largest_rate_without_a_search():
    # the scaled STN window is about 8e8 samples; a step-by-step search for
    # the nearest fast length took about 0.6 s there
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="sample rate 4294967295 Hz: stn:"):
        StretchConfig().for_rate(2**32 - 1)
    assert time.perf_counter() - start < 0.1


ORACLE_PARTIALS = (440.0, 660.0)  # two_tone's defaults


@pytest.mark.parametrize("rate", [48000, 96000])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("kind", ["click_plus_hiss", "two_tone", "shaped_noise"])
def test_nm_oracles_at_scaled_rates(kind, alpha, rate):
    duration = 2.0
    x = gen_signal(kind, duration, rate, seed=1)
    y = time_stretch(x, StretchConfig(alpha=alpha).for_rate(rate))
    assert len(y) == output_length(len(x), alpha) and y.sample_rate == rate
    if kind == "click_plus_hiss":
        found = onset_positions(y)
        expected = alpha * click_times(duration, 0.25, 0.25)
        assert len(found) == len(expected)
        assert np.max(np.abs(found - expected)) <= 0.010
    elif kind == "two_tone":
        f = dominant_frequency(y)
        assert min(abs(f - p) for p in ORACLE_PARTIALS) <= 1.0
    else:
        _, level_in = octave_band_levels(x)
        _, level_out = octave_band_levels(y)
        assert np.max(np.abs(level_out - level_in)) <= 2.0


def live_workers():
    """stretchkit worker threads still alive after a join of up to 10 s each."""
    workers = [t for t in threading.enumerate() if t.name.startswith("stretchkit-worker")]
    for t in workers:
        t.join(timeout=10)
    return [t for t in workers if t.is_alive()]


def many_blocks(monkeypatch):
    """Four CPUs' worth of workers and blocks of four default-sized frames."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 4)
    monkeypatch.setattr(core, "FRAME_BLOCK", 4 * PvParams().window_size)


def test_traced_names_run_on_the_calling_thread(monkeypatch):
    """find_peaks and generate_excitation are wrapped by the benchmark's
    tracer, which keeps one open-span stack: they must not run on a worker,
    while the dealt lerp_frames does."""
    many_blocks(monkeypatch)
    threads = {"find_peaks": set(), "generate_excitation": set(), "lerp_frames": set()}

    def record(module, name):
        original = getattr(module, name)

        def recording(*args, **kwargs):
            threads[name].add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    record(vocoder, "find_peaks")
    record(noisemorph, "generate_excitation")
    record(noisemorph, "lerp_frames")
    out, _ = stretch(gen_signal("click_plus_hiss", 1.0), StretchConfig(alpha=2.0, mode="nm"))
    assert len(out) == 2 * SR
    caller = {threading.get_ident()}
    assert threads["find_peaks"] == threads["generate_excitation"] == caller
    assert len(threads["lerp_frames"] - caller) > 0
    assert not live_workers()


def test_nm_call_opens_at_most_one_worker_per_further_cpu(monkeypatch):
    """Every pool an nm call opens, for its transforms, medians, vocoder and
    noise morph, holds at most one worker per CPU beyond the calling
    thread's, for 2 and 3 CPUs."""
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
    x = gen_signal("click_plus_hiss", 2.0)
    for cpus in (2, 3):
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        sizes.clear()
        stretch(x, StretchConfig(alpha=2.0, mode="nm"))
        assert sizes and max(sizes) <= core._cpu_count() - 1, (cpus, sizes)
    assert not live_workers()


class BlockError(Exception):
    pass


def raise_on_third_call(monkeypatch, module, name):
    original, calls, lock = getattr(module, name), [], threading.Lock()

    def failing(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise BlockError(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize("module,name,mode", [
    (noisemorph, "lerp_frames", "nd"),  # raises on a worker or the calling thread
    (vocoder, "find_peaks", "nm"),  # raises on the calling thread, blocks in flight
])
def test_block_error_propagates_and_workers_are_joined(monkeypatch, module, name, mode):
    many_blocks(monkeypatch)
    raise_on_third_call(monkeypatch, module, name)
    with pytest.raises(BlockError, match=name):
        stretch(gen_signal("click_plus_hiss", 1.0), StretchConfig(alpha=2.0, mode=mode))
    assert not live_workers()
