"""Executable acceptance criteria.

Each criterion function returns a list of MetricReports; run_acceptance
executes them (optionally filtered by name), prints one pass/fail line per
criterion, and can dump the full report table as CSV. Everything is
deterministic given the seeds fixed here.

Decomposition results are cached per corpus signal: the decomposition is a
pure function of the input and is identical across the many mode/alpha
combinations exercised below, so recomputing it would only burn time.
"""

from __future__ import annotations

import csv
import functools

import numpy as np

from . import signals
from .core import AudioBuffer
from .metrics import (
    MetricReport,
    dominant_frequency,
    interpolate_rows,
    octave_band_levels,
    onset_positions,
    oracle_magnitude_spectrogram,
    rise_time,
)
from .noisemorph import (
    NoiseMorphParams,
    generate_excitation,
    log_magnitude,
    lerp_frames,
    morph,
    morph_replace,
    stretch_noise,
)
from .core import stft, window_energy
from .pipeline import MODES, StretchConfig, output_length, stretch_components, time_stretch
from .stn import STAGE1_THRESHOLDS, STAGE2_THRESHOLDS, saturating_mask, stn_decompose_with_masks

SAMPLE_RATE = 44100
DURATION = 2.0
CORPUS = ("sine", "two_tone", "click_train", "shaped_noise", "click_plus_hiss")
ALPHAS = (1.0, 2.0, 3.0, 4.0, 8.0)


@functools.lru_cache(maxsize=None)
def corpus_signal(kind: str) -> AudioBuffer:
    return signals.gen_signal(kind, DURATION, SAMPLE_RATE, seed=11)


@functools.lru_cache(maxsize=None)
def corpus_decomposition(kind: str):
    return stn_decompose_with_masks(corpus_signal(kind))


def _config(alpha: float, mode: str, seed: int = 0) -> StretchConfig:
    return StretchConfig(alpha=alpha, mode=mode, seed=seed)


def _stretch(kind: str, alpha: float, mode: str, seed: int = 0) -> AudioBuffer:
    config = _config(alpha, mode, seed)
    if mode in ("nm", "ni"):
        components, _ = corpus_decomposition(kind)
        out, _ = stretch_components(components, config)
        return out
    return time_stretch(corpus_signal(kind), config)


def criterion_perfect_reconstruction() -> list[MetricReport]:
    reports = []
    for kind in CORPUS:
        x = corpus_signal(kind)
        comps, _ = corpus_decomposition(kind)
        recon = comps.sines.samples + comps.transients.samples + comps.noise.samples
        err = float(np.max(np.abs(x.samples - recon)) / np.max(np.abs(x.samples)))
        reports.append(MetricReport(kind, "reconstruction_rel_inf_err", err, 0.0, 1e-4,
                                    err <= 1e-4))
    return reports


def criterion_mask_partition() -> list[MetricReport]:
    reports = []
    for kind in CORPUS:
        _, stage_masks = corpus_decomposition(kind)
        for stage, masks in enumerate(stage_masks, start=1):
            total = masks.sines + masks.transients + masks.noise
            dev = float(np.max(np.abs(total - 1.0)))
            in_range = all(
                float(m.min()) >= 0.0 and float(m.max()) <= 1.0
                for m in (masks.sines, masks.transients, masks.noise)
            )
            reports.append(MetricReport(f"{kind}/stage{stage}", "mask_partition_dev",
                                        dev, 0.0, 1e-12, dev <= 1e-12 and in_range))
    return reports


def criterion_saturating_function() -> list[MetricReport]:
    reports = []
    for name, thr in (("stage1", STAGE1_THRESHOLDS), ("stage2", STAGE2_THRESHOLDS)):
        mid = 0.5 * (thr.beta_u + thr.beta_l)
        grid = saturating_mask(np.linspace(0.0, 1.0, 1000), thr)
        checks = {
            "f(beta_l)": (float(saturating_mask(thr.beta_l, thr)), 0.0),
            "f(beta_u)": (float(saturating_mask(thr.beta_u, thr)), 1.0),
            "f(midpoint)": (float(saturating_mask(mid, thr)), 0.5),
            "monotone_grid_min_step": (float(np.min(np.diff(grid))), 0.0),
        }
        for label, (value, target) in checks.items():
            ok = value >= target if "monotone" in label else abs(value - target) <= 1e-12
            reports.append(MetricReport(name, label, value, target, 1e-12, ok))
    return reports


def criterion_length_contract() -> list[MetricReport]:
    reports = []
    for kind in CORPUS:
        n = len(corpus_signal(kind))
        for alpha in ALPHAS:
            for mode in MODES:
                out = _stretch(kind, alpha, mode, seed=0)
                expect = output_length(n, alpha)
                ok = len(out) == expect
                reports.append(MetricReport(f"{kind}/a{alpha:g}/{mode}", "output_length",
                                            float(len(out)), float(expect), 0.0, ok))
    return reports


def criterion_pitch_preservation() -> list[MetricReport]:
    reports = []
    for freq in (440.0, 1000.0):
        x = signals.sine(freq, DURATION, SAMPLE_RATE)
        for alpha in (2.0, 4.0, 8.0):
            out = time_stretch(x, _config(alpha, "nm"))
            value = dominant_frequency(out)
            reports.append(MetricReport(f"sine{freq:g}/a{alpha:g}", "dominant_freq_hz",
                                        value, freq, 1.0, abs(value - freq) <= 1.0))
    return reports


def criterion_transient_preservation() -> list[MetricReport]:
    alpha = 3.0
    x = corpus_signal("click_plus_hiss")
    true_times = signals.click_times(DURATION, 0.25, 0.25)
    outs = {mode: _stretch("click_plus_hiss", alpha, mode, seed=0)
            for mode in ("nm", "nd", "an")}
    reports = []

    found = onset_positions(outs["nm"])
    if len(found) != len(true_times):
        reports.append(MetricReport("click_plus_hiss/nm", "onset_count",
                                    float(len(found)), float(len(true_times)), 0.0, False))
    else:
        dev = float(np.max(np.abs(found - alpha * true_times)))
        reports.append(MetricReport("click_plus_hiss/nm", "onset_max_dev_s",
                                    dev, 0.0, 0.010, dev <= 0.010))

    for t in true_times:
        r_orig = rise_time(x, t)
        r_nm = rise_time(outs["nm"], alpha * t)
        r_nd = rise_time(outs["nd"], alpha * t)
        r_an = rise_time(outs["an"], alpha * t)
        case = f"click@{t:g}s"
        reports.append(MetricReport(case, "nm_rise_over_orig", r_nm / r_orig, 1.0, 1.0,
                                    r_nm <= 2.0 * r_orig, "one-sided: <= 2x"))
        reports.append(MetricReport(case, "nd_rise_over_nm", r_nd / r_nm, 2.0, np.inf,
                                    r_nd >= 2.0 * r_nm, "one-sided: >= 2x"))
        reports.append(MetricReport(case, "an_rise_over_nm", r_an / r_nm, 2.0, np.inf,
                                    r_an >= 2.0 * r_nm, "one-sided: >= 2x"))
    return reports


def criterion_noise_spectral_fidelity() -> list[MetricReport]:
    alpha = 4.0
    x = corpus_signal("shaped_noise")
    out = _stretch("shaped_noise", alpha, "nm", seed=0)
    _, level_in = octave_band_levels(x)
    _, level_out = octave_band_levels(out)
    band_dev = float(np.max(np.abs(level_out - level_in)))
    reports = [MetricReport("shaped_noise/a4/nm", "octave_band_dev_db",
                            band_dev, 0.0, 2.0, band_dev <= 2.0)]

    # 50-seed averaged frame envelopes vs the interpolated target shape
    params = NoiseMorphParams()
    target = 10.0 * np.log10(
        np.maximum(oracle_magnitude_spectrogram(x, params.window_size, params.hop_size), 1e-12)
    )
    target = interpolate_rows(target, alpha)
    acc = None
    for seed in range(50):
        y = stretch_noise(x, alpha, params, seed=seed)
        mag = oracle_magnitude_spectrogram(y, params.window_size, params.hop_size)
        acc = mag if acc is None else acc + mag
    mean_db = 10.0 * np.log10(np.maximum(acc / 50.0, 1e-12))
    interior = slice(3, target.shape[0] - 3)
    strong = target[interior] > target.max() - 60.0
    dev = (mean_db[interior] - target[interior])[strong]
    shape_dev = float(np.mean(np.abs(dev - np.median(dev))))
    reports.append(MetricReport("shaped_noise/a4/morph", "envelope_shape_dev_db",
                                shape_dev, 0.0, 1.0, shape_dev <= 1.0,
                                "50-seed average, level offset removed"))
    return reports


def criterion_frame_correlation() -> list[MetricReport]:
    x = signals.shaped_noise(0.0, DURATION, SAMPLE_RATE, seed=3)
    out = stretch_noise(x, 2.0, seed=9)
    sr = out.sample_rate
    frame, hop = 256, 64
    csum = np.concatenate([[0.0], np.cumsum(out.samples**2)])
    starts = np.arange(0, len(out) - frame + 1, hop)
    env = np.sqrt((csum[starts + frame] - csum[starts]) / frame)
    env = env[8:-8]
    spectrum = np.abs(np.fft.rfft(env))
    env_rate = sr / hop
    hop_rate = sr / NoiseMorphParams().hop_size
    k = int(round(hop_rate / env_rate * len(env)))
    peak = spectrum[max(1, k - 1) : k + 2].max()
    rel_db = float(20.0 * np.log10(peak / spectrum[0]))
    return [MetricReport("stationary_noise/a2", "hop_rate_modulation_db",
                         rel_db, -40.0, np.inf, rel_db <= -40.0, "one-sided: <= -40 dB")]


def criterion_ablation_separation() -> list[MetricReport]:
    comps, _ = corpus_decomposition("click_plus_hiss")
    noise = comps.noise
    params = NoiseMorphParams()
    out_nm = stretch_noise(noise, 2.0, params, "multiply", seed=5)
    out_ni = stretch_noise(noise, 2.0, params, "replace", seed=5)
    differs = not np.array_equal(out_nm.samples, out_ni.samples)
    reports = [MetricReport("noise/a2", "nm_ni_outputs_differ", float(differs), 1.0,
                            0.0, differs)]

    sp = params.stft_params()
    exc = AudioBuffer(generate_excitation(output_length(len(noise), 2.0), 5), SAMPLE_RATE)
    exc_spec = stft(exc, sp).values / window_energy(sp)
    target = lerp_frames(log_magnitude(stft(noise, sp).values, params.floor_db),
                         np.arange(len(exc_spec)) / 2.0)

    want = 10.0 ** (target / 10.0)
    got_ni = np.abs(morph_replace(target, exc_spec))
    ni_err = float(np.max(np.abs(got_ni - want) / np.maximum(want, 1e-300)))
    reports.append(MetricReport("noise/a2", "ni_magnitude_rel_err", ni_err, 0.0, 1e-9,
                                ni_err <= 1e-9))

    got_nm = np.abs(morph(target, exc_spec))
    ratio_var = float(np.var(got_nm / np.maximum(want, 1e-300)))
    reports.append(MetricReport("noise/a2", "nm_magnitude_ratio_var", ratio_var, 0.0,
                                np.inf, ratio_var > 1e-3, "one-sided: variance > 0"))
    return reports


def criterion_determinism() -> list[MetricReport]:
    reports = []
    x = corpus_signal("click_plus_hiss")
    for mode in MODES:
        config = _config(2.0, mode, seed=42)
        a = time_stretch(x, config)
        b = time_stretch(x, config)
        same = np.array_equal(a.samples, b.samples)
        reports.append(MetricReport(f"click_plus_hiss/{mode}", "bit_identical_reruns",
                                    float(same), 1.0, 0.0, same))
    return reports


def criterion_excitation_statistics() -> list[MetricReport]:
    eps = generate_excitation(10**6, seed=123)
    mean = float(np.mean(eps))
    var = float(np.var(eps))
    return [
        MetricReport("excitation/1e6", "mean", mean, 0.0, 0.005, abs(mean) <= 0.005),
        MetricReport("excitation/1e6", "variance", var, 1.0, 0.01, abs(var - 1.0) <= 0.01),
    ]


CRITERIA = [
    ("1_perfect_reconstruction", criterion_perfect_reconstruction),
    ("2_mask_partition", criterion_mask_partition),
    ("3_saturating_function", criterion_saturating_function),
    ("4_length_contract", criterion_length_contract),
    ("5_pitch_preservation", criterion_pitch_preservation),
    ("6_transient_preservation", criterion_transient_preservation),
    ("7_noise_spectral_fidelity", criterion_noise_spectral_fidelity),
    ("8_frame_correlation", criterion_frame_correlation),
    ("9_ablation_separation", criterion_ablation_separation),
    ("10_determinism", criterion_determinism),
    ("11_excitation_statistics", criterion_excitation_statistics),
]


def run_acceptance(name_filter: str | None = None, report_path=None, echo=print):
    """Run (a filtered subset of) the criteria; returns (all_passed, reports)."""
    all_reports = []
    all_passed = True
    for name, func in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        reports = func()
        ok = all(r.passed for r in reports)
        all_passed &= ok
        all_reports.extend((name, r) for r in reports)
        echo(f"{'PASS' if ok else 'FAIL'} {name} ({sum(r.passed for r in reports)}"
             f"/{len(reports)} checks)")
    if report_path is not None:
        with open(report_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["case", "metric", "value", "target", "tolerance", "pass"])
            for name, r in all_reports:
                writer.writerow([f"{name}:{r.case}", *r.row()[1:]])
    return all_passed, all_reports
