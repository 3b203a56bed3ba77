import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretchkit import core, vocoder
from stretchkit.core import (
    MAX_WINDOW,
    AudioBuffer,
    StftParams,
    n_frames_for,
    output_length,
    overlap_add,
)
from stretchkit.errors import ConfigurationError
from stretchkit.metrics import dominant_frequency
from stretchkit.pipeline import StretchConfig
from stretchkit.signals import gen_signal, sine, two_tone
from stretchkit.vocoder import PvParams, find_peaks, stretch_plain, stretch_sines

SR = 44100


def find_peaks_loop(mag):
    """Reference: the per-pair loop find_peaks replaced (strict comparisons
    with candidates two bins either side, bound = first argmin between
    adjacent peaks)."""
    mag = np.asarray(mag, dtype=np.float64)
    k = mag.size
    cand = np.arange(2, k - 2)
    ok = np.ones(cand.size, dtype=bool)
    for off in (-2, -1, 1, 2):
        j = cand + off
        valid = (j >= 2) & (j <= k - 3)
        ok &= ~valid | (mag[cand] > mag[np.clip(j, 0, k - 1)])
    peaks = cand[ok]
    if peaks.size == 0:
        return []
    bounds = [0]
    for a, b in zip(peaks[:-1], peaks[1:]):
        bounds.append(int(a + np.argmin(mag[a : b + 1])))
    bounds.append(k)
    return [(int(p), bounds[i], bounds[i + 1]) for i, p in enumerate(peaks)]


def as_tuples(regions):
    return [tuple(int(v) for v in row) for row in regions]


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
    assert as_tuples(regions) == [(20, 0, 64)]


def test_find_peaks_two_equal_spikes():
    frame = np.zeros(64)
    frame[10] = 3.0
    frame[30] = 3.0
    regions = find_peaks(frame)
    assert list(regions[:, 0]) == [10, 30]
    # boundary at the first minimum between them (tie broken to lower bin)
    assert regions[0, 2] == 11
    assert as_tuples(regions[1:]) == [(30, 11, 64)]
    # regions partition the spectrum
    assert regions[0, 1] == 0 and regions[-1, 2] == 64


def test_find_peaks_flat_frame_has_none():
    assert find_peaks(np.ones(32)).shape == (0, 3)


def test_find_peaks_needs_five_bins():
    with pytest.raises(ConfigurationError):
        find_peaks(np.ones(4))


def test_find_peaks_rejects_nan_between_peaks():
    frame = np.zeros(64)
    frame[10] = frame[30] = 3.0
    frame[20] = np.nan
    with pytest.raises(ConfigurationError):
        find_peaks(frame)


magnitudes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
frames = st.one_of(
    st.lists(magnitudes, min_size=5, max_size=300),
    # integer-valued: many equal neighbours and tied minima
    st.lists(st.integers(0, 3).map(float), min_size=5, max_size=300),
    # constant frames
    st.builds(lambda k, v: [v] * k, st.integers(5, 300), magnitudes),
    # plateaus: runs of equal values
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 8)), min_size=1, max_size=60)
    .map(lambda runs: [float(v) for v, n in runs for _ in range(n)])
    .filter(lambda f: 5 <= len(f) <= 300),
)


@settings(max_examples=400, deadline=None)
@given(frame=frames)
@example(frame=[1.0] * 5)
@example(frame=[0.0, 0.0, 1.0, 0.0, 0.0])
def test_find_peaks_matches_loop_reference(frame):
    regions = find_peaks(np.array(frame))
    expected = find_peaks_loop(frame)
    assert regions.shape == (len(expected), 3)
    assert np.issubdtype(regions.dtype, np.integer)
    assert as_tuples(regions) == expected


special_frames = st.lists(
    st.one_of(magnitudes, st.sampled_from([np.nan, np.inf, -np.inf, -0.0])), min_size=5,
    max_size=80)


@settings(max_examples=300, deadline=None)
@given(frame=special_frames)
@example(frame=[0.0, 0.0, np.nan, 0.0, 0.0])
@example(frame=[1.0, 0.0, 5.0, np.nan, 1.0, 5.0, 0.0, 0.0])
def test_find_peaks_with_nan_and_inf_matches_loop_reference(frame):
    """With NaN and +-inf among the magnitudes, find_peaks gives the loop
    reference's rows, or raises where a NaN lies between two peaks."""
    expected = find_peaks_loop(frame)
    peaks = [p for p, _, _ in expected]
    if any(np.isnan(frame[a:b]).any() for a, b in zip(peaks[:-1], peaks[1:])):
        with pytest.raises(ConfigurationError):
            find_peaks(np.array(frame))
    else:
        assert as_tuples(find_peaks(np.array(frame))) == expected


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
    # under 8 samples the locked vocoder has fewer than the 5 bins find_peaks
    # needs; over MAX_WINDOW a window is rejected by StftParams
    for window, hop in [(1024, 1024), (6, 3), (4, 2), (4, 1), (MAX_WINDOW + 2, 1024)]:
        with pytest.raises(ConfigurationError):
            PvParams(window_size=window, synthesis_hop=hop)
    assert PvParams(8, 4).window_size == 8
    with pytest.raises(ConfigurationError):
        stretch_sines(sine(440.0, 0.1, SR), 0.0)
    with pytest.raises(ConfigurationError):
        stretch_plain(sine(440.0, 0.1, SR), -2.0)


def clamp_level(wsum, window_size, synth_hop):
    """The vocoder's lowest divisor: the lowest full-overlap window sum, or
    the median sum over the first 3k frames where that is lower."""
    k = -(-window_size // synth_hop)
    wsq = StftParams(window_size, synth_hop).window() ** 2
    full = overlap_add(np.broadcast_to(wsq, (k, window_size)), synth_hop)
    full = full[window_size - synth_hop : window_size]  # one hop of full overlap
    return min(np.median(wsum[: (3 * k - 1) * synth_hop + window_size]), full.min())


def pv_stretch_loop(x, alpha, window_size, synth_hop, locked, level=clamp_level):
    """Reference: the frame-by-frame vocoder the blocked one replaced (one
    rfft, angle and full-bin exp per frame, locking as phase + rotation),
    its window sum clamped below at level(wsum, window_size, synth_hop)."""
    out_length = output_length(len(x), alpha)
    params = StftParams(window_size, synth_hop)
    win = params.window()
    omega = 2.0 * np.pi * np.arange(params.n_bins) / window_size
    n_syn = n_frames_for(out_length, params)
    positions = np.rint(np.arange(n_syn) * synth_hop / alpha).astype(int)
    xp = np.zeros(max(positions[-1] + window_size, len(x)))
    xp[: len(x)] = x
    out = np.zeros((n_syn - 1) * synth_hop + window_size)
    for m in range(n_syn):
        frame = np.fft.rfft(win * xp[positions[m] : positions[m] + window_size])
        mag = np.abs(frame)
        phase = np.angle(frame)
        if m == 0:
            psi = phase.copy()
        else:
            dt = max(int(positions[m] - positions[m - 1]), 1)
            dphi = vocoder._princarg(phase - prev_phase - omega * dt)
            inst = omega + dphi / dt
            regions = find_peaks(mag) if locked else ()
            if len(regions) == 0:
                psi = psi + synth_hop * inst
            else:
                peaks, starts, ends = regions.T
                rotation = psi[peaks] + synth_hop * inst[peaks] - phase[peaks]
                psi = phase + np.repeat(rotation, ends - starts)
        prev_phase = phase
        out[m * synth_hop : m * synth_hop + window_size] += (
            np.fft.irfft(mag * np.exp(1j * psi), n=window_size) * win
        )
    wsum = overlap_add(np.broadcast_to(win**2, (n_syn, window_size)), synth_hop)
    out /= np.maximum(wsum, level(wsum, window_size, synth_hop))
    return out[:out_length]


def assert_near_reference(y, x, alpha, params):
    """Locked output within 1e-9 of the reference's peak: the rotation is
    applied to the analysis spectrum, not as exp(1j * (phase + rotation))."""
    ref = pv_stretch_loop(x, alpha, params.window_size, params.synthesis_hop, True)
    assert y.shape == ref.shape
    assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(ref))


SMALL_PV = PvParams(window_size=512, synthesis_hop=128)
SMALL_BLOCK = 4  # frames per block while FRAME_BLOCK is patched to 4 windows


@pytest.mark.parametrize("alpha", [0.01, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("frames", [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                                    2 * SMALL_BLOCK + 1])
def test_blocked_vocoder_matches_frame_loop(monkeypatch, frames, alpha):
    w, hop = SMALL_PV.window_size, SMALL_PV.synthesis_hop
    monkeypatch.setattr(core, "FRAME_BLOCK", SMALL_BLOCK * w)
    n = round((w + (frames - 1) * hop) / alpha)
    assert n_frames_for(output_length(n, alpha), StftParams(w, hop)) == frames
    x = AudioBuffer(np.random.default_rng(frames).standard_normal(n), SR)
    y = stretch_plain(x, alpha, SMALL_PV).samples
    assert np.array_equal(y, pv_stretch_loop(x.samples, alpha, w, hop, False))
    assert_near_reference(stretch_sines(x, alpha, SMALL_PV).samples, x.samples, alpha, SMALL_PV)


@pytest.mark.parametrize("kind", ["click_plus_hiss", "two_tone"])
def test_default_blocks_match_frame_loop(kind):
    # 1 s at alpha 2: 83 frames, over two full blocks of 32 at the defaults
    x = gen_signal(kind, 1.0)
    params = PvParams()
    w, hop = params.window_size, params.synthesis_hop
    y = stretch_plain(x, 2.0).samples
    assert np.array_equal(y, pv_stretch_loop(x.samples, 2.0, w, hop, False))
    assert_near_reference(stretch_sines(x, 2.0).samples, x.samples, 2.0, params)


def test_frames_without_peaks_fall_back_and_recover(monkeypatch):
    """Bursts between stretches of digital silence: silent frames have no
    peaks and propagate every bin, then locking resumes on the next burst."""
    burst = 0.1 * np.random.default_rng(3).standard_normal(round(0.25 * SR))
    burst += sine(440.0, 0.25, SR).samples
    silence = np.zeros(round(0.3 * SR))
    x = np.concatenate((burst, silence, burst, silence, burst))
    peak_counts = []

    def counting(mag):
        regions = find_peaks(mag)
        peak_counts.append(len(regions))
        return regions

    monkeypatch.setattr(vocoder, "find_peaks", counting)
    y = stretch_sines(AudioBuffer(x, SR), 2.0).samples
    has_peaks = np.array(peak_counts) > 0
    switches = np.flatnonzero(np.diff(has_peaks.astype(int)))
    assert has_peaks[0] and has_peaks[-1] and len(switches) >= 4
    assert_near_reference(y, x, 2.0, PvParams())


@pytest.mark.parametrize("window,hop", [(4096, 1024), (4458, 1115), (4096, 1000), (512, 128),
                                        (2230, 558), (4500, 1125), (2250, 1125), (9000, 2250),
                                        (540, 135)])
def test_median_window_sum_equals_np_median(window, hop):
    """The vocoder's clamp level is np.median(wsum) below k frames (no sample
    fully overlapped), the lower of that median and the lowest fully
    overlapped sum [W - h, n h) below 3k frames, and that lowest sum from 3k
    frames on."""
    win = StftParams(window, hop).window()
    k = -(-window // hop)
    for n in [*range(1, 65), 257, 1000, 1723]:
        wsum = overlap_add(np.broadcast_to(win**2, (n, window)), hop)
        level = vocoder._clamp_level(n, win, hop)
        if n < k:
            assert level == np.median(wsum), n
        elif n < 3 * k:
            assert level == min(np.median(wsum), wsum[window - hop : n * hop].min()), n
        else:
            assert level == wsum[window - hop : n * hop].min(), n


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("stretch", [stretch_sines, stretch_plain])
def test_half_overlap_sine_has_no_ripple(stretch, alpha):
    """At 50 % overlap the overlap-added squared Hann window is not flat: each
    fully overlapped sample must be divided by its own window sum, not by a
    level above it, or a sine dips every hop."""
    params = PvParams(4096, 2048)
    w = params.window_size
    y = stretch(sine(440.0, 1.0, SR), alpha, params).samples
    interior = y[w : len(y) - 3 * w]  # frames after it read past the input's end
    envelope = np.abs(interior[: len(interior) // 256 * 256]).reshape(-1, 256).max(axis=1)
    assert 20 * np.log10(envelope.min() / envelope.max()) > -0.05


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("stretch", [stretch_sines, stretch_plain])
def test_output_start_independent_of_length(stretch, alpha):
    """From 3k frames on the clamp depends on the window and hop alone, so
    the partially covered first window - hop samples do not change with
    the input's length."""
    params = PvParams(4096, 2048)
    framing = params.stft_params()
    w, hop = params.window_size, params.synthesis_hop
    x = gen_signal("two_tone", 1.0)
    short, long = (AudioBuffer(x.samples[:n], SR) for n in (round(0.4 * SR), len(x)))
    frames = [n_frames_for(output_length(len(s), alpha), framing) for s in (short, long)]
    assert min(frames) >= 3 * -(-w // hop)
    wsq = framing.window() ** 2
    medians = [np.median(overlap_add(np.broadcast_to(wsq, (m, w)), hop)) for m in frames]
    assert medians[0] != medians[1]  # a whole-output median clamp would differ
    a, b = stretch(short, alpha, params).samples, stretch(long, alpha, params).samples
    assert np.array_equal(a[: w - hop], b[: w - hop])


@pytest.mark.parametrize("window,hop", [(4096, 1024), (4096, 2048), (512, 128), (4096, 1000)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_short_outputs_keep_median_clamp(window, hop, alpha):
    """Outputs of fewer than k = ceil(window / hop) frames are divided by
    max(wsum, median(wsum)), bit for bit."""
    k = -(-window // hop)
    for frames in range(1, k):
        n = round((window + (frames - 1) * hop) / alpha)
        assert n_frames_for(output_length(n, alpha), StftParams(window, hop)) == frames
        x = AudioBuffer(np.random.default_rng(frames).standard_normal(n), SR)
        y = stretch_plain(x, alpha, PvParams(window, hop)).samples
        ref = pv_stretch_loop(x.samples, alpha, window, hop, False,
                              level=lambda wsum, w, h: np.median(wsum))
        assert np.array_equal(y, ref), frames


def test_stretch_sines_memory_is_bounded(monkeypatch):
    """At alpha 4 the vocoder holds its output, the blocks in flight and
    short window sums: frames are read from the input in place and the
    window sum is never output-sized (27 bytes per output sample when it
    was, with a padded copy of the input). Two CPUs: one worker's blocks."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    x = gen_signal("click_plus_hiss", 10.0)
    tracemalloc.start()
    try:
        out = stretch_sines(x, 4.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(out)


# (alpha, synthesis frames): one block, and outputs ending mid-block and at a block end
THREAD_CASES = [(0.25, SMALL_BLOCK - 1), (1.0, 4 * SMALL_BLOCK + 1), (2.5, 3 * SMALL_BLOCK + 2),
                (8.0, 4 * SMALL_BLOCK)]


@pytest.mark.parametrize("alpha,frames", THREAD_CASES)
def test_same_bytes_under_stressed_thread_schedule(monkeypatch, alpha, frames):
    """More workers than CPUs and a thread switch every microsecond: the
    dealt blocks still overlap-add to the one-CPU bytes."""
    w, hop = SMALL_PV.window_size, SMALL_PV.synthesis_hop
    monkeypatch.setattr(core, "FRAME_BLOCK", SMALL_BLOCK * w)
    n = round((w + (frames - 1) * hop) / alpha)
    assert n_frames_for(output_length(n, alpha), StftParams(w, hop)) == frames
    x = np.random.default_rng(frames).standard_normal(n)
    x[n // 3 : 2 * n // 3] = 0.0  # frames without peaks too
    x = AudioBuffer(x, SR)
    results = {}
    interval = sys.getswitchinterval()
    try:
        for cpus in (1, 4):
            monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
            sys.setswitchinterval(1e-6 if cpus > 1 else interval)
            results[cpus] = [f(x, alpha, SMALL_PV).samples.tobytes()
                             for f in (stretch_plain, stretch_sines)]
    finally:
        sys.setswitchinterval(interval)
    assert results[4] == results[1]


def locked_block_loop(spec, mag, dts, omega, synth_hop, state):
    """Reference: the frame-by-frame chain the block-form _locked_block
    replaced, as (synthesis spectra, state). Each frame with peaks turns its
    spectrum by rotation = psi_prev + hop * inst - phase per peak region;
    state is (previous spectrum, its per-bin rotation, its synthesis phase),
    the phase None when it is the spectrum's phase plus the rotation."""
    synth = np.empty_like(spec)
    first = state is None  # the first frame keeps its analysis phase
    prev, rot, psi = (spec[0], None, np.angle(spec[0])) if first else state
    if first:
        synth[0] = mag[0] * np.exp(1j * psi)
    for i in range(int(first), len(spec)):
        regions = find_peaks(mag[i])
        if len(regions) == 0:
            prev_phase = np.angle(prev)
            psi_prev = prev_phase + rot if psi is None else psi
            inst = vocoder._inst_freq(np.angle(spec[i]), prev_phase, omega, dts[i])
            psi = synth_hop * inst + psi_prev
            synth[i] = mag[i] * np.exp(1j * psi)
        else:
            peaks, starts, ends = regions.T
            phase, prev_phase = np.angle(spec[i, peaks]), np.angle(prev[peaks])
            psi_prev = prev_phase + rot[peaks] if psi is None else psi[peaks]
            inst = vocoder._inst_freq(phase, prev_phase, omega[peaks], dts[i])
            rotation = psi_prev + synth_hop * inst - phase
            counts = ends - starts
            rot, psi = np.repeat(rotation, counts), None
            synth[i] = spec[i] * np.repeat(np.exp(1j * rotation), counts)
        prev = spec[i]
    return synth, (prev, rot, psi)


def bursts_between_silence(rate):
    """Three 0.1 s bursts of a tone in noise, 0.15 s of digital silence
    between them: the silent frames have no peaks."""
    burst = 0.1 * np.random.default_rng(rate).standard_normal(round(0.1 * rate))
    burst += sine(440.0, 0.1, rate).samples
    silence = np.zeros(round(0.15 * rate))
    return AudioBuffer(np.concatenate((burst, silence, burst, silence, burst)), rate)


@pytest.mark.parametrize("rate", [8000, 44100, 48000])
def test_block_chain_is_the_frame_loop_bit_for_bit(monkeypatch, rate):
    """The block-form chain gives the frame-by-frame chain's bytes, across
    blocks of 4 frames, frames without peaks and the frames after them."""
    pv = StretchConfig().for_rate(rate).pv
    monkeypatch.setattr(core, "FRAME_BLOCK", SMALL_BLOCK * pv.window_size)
    x = bursts_between_silence(rate)
    alphas = [0.25, 1.0, 2.5, 4.0, 8.0]
    blocked = [stretch_sines(x, alpha, pv).samples for alpha in alphas]

    def frame_by_frame(*args):
        synth, state = locked_block_loop(*args)
        return (synth,), state

    monkeypatch.setattr(vocoder, "_locked_block", frame_by_frame)
    monkeypatch.setattr(vocoder, "_turn", lambda synth: synth)
    for alpha, y in zip(alphas, blocked):
        assert np.array_equal(y, stretch_sines(x, alpha, pv).samples), alpha

