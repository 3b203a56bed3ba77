"""Two-stage fuzzy sines-transients-noise decomposition.

Stage 1 separates tonal content from the rest with a long analysis window;
stage 2 splits the residual into transients and noise with a short window.
Both stages median-filter the magnitude spectrogram along time and frequency,
convert the filtered ratios into soft masks through a saturating function,
and apply the masks to the complex spectrogram. Each stage inverts only the
part it keeps and takes the rest as input minus kept, so the components sum
back to the input by construction.

Between the transforms the grids are plain arrays: tonalness_transientness
takes the magnitude Spectrogram that median_filter_axis filters and returns
the score arrays (R_s, R_t), and compute_masks(r_s, r_t, thresholds) builds
a MaskSet of arrays from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FREQ_AXIS,
    TIME_AXIS,
    AudioBuffer,
    Spectrogram,
    StftParams,
    check_amplitude,
    check_fields,
    istft,
    median_filter_axis,
    stft,
)
from .errors import ConfigurationError


@dataclass(frozen=True)
class StnThresholds:
    """Upper/lower saturation thresholds for the soft-mask function."""

    beta_u: float
    beta_l: float

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.beta_l < self.beta_u <= 1.0:
            raise ConfigurationError(
                f"need 0 <= beta_l < beta_u <= 1, got beta_l {self.beta_l}, beta_u {self.beta_u}"
            )


STAGE1_THRESHOLDS = StnThresholds(beta_u=0.80, beta_l=0.70)
STAGE2_THRESHOLDS = StnThresholds(beta_u=0.85, beta_l=0.75)


@dataclass
class MaskSet:
    """Soft masks for sines, transients, and noise; elementwise S+T+N = 1."""

    sines: np.ndarray
    transients: np.ndarray
    noise: np.ndarray


@dataclass
class StnComponents:
    sines: AudioBuffer
    transients: AudioBuffer
    noise: AudioBuffer


@dataclass(frozen=True)
class StnConfig:
    """Window/hop per stage (samples at the processing rate), thresholds,
    and the median-filter spans in physical units."""

    long_window: int = 8192
    long_hop: int = 2048
    short_window: int = 512
    short_hop: int = 128
    stage1: StnThresholds = STAGE1_THRESHOLDS
    stage2: StnThresholds = STAGE2_THRESHOLDS
    time_median_span_s: float = 0.2
    freq_median_span_hz: float = 500.0
    FRAMINGS = (("long_window", "long_hop"), ("short_window", "short_hop"))

    def __post_init__(self):
        check_fields(self)
        for name in ("time_median_span_s", "freq_median_span_hz"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")


def saturating_mask(a, thresholds: StnThresholds):
    """Map a ratio in [0, 1] to a soft mask value.

    1 above beta_u, 0 below beta_l, and a raised-sine-squared transition in
    between. Accepts scalars or arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    bu, bl = thresholds.beta_u, thresholds.beta_l
    out = np.where(a >= bu, 1.0, 0.0)
    band = (a >= bl) & (a < bu)  # the only values the sine is computed for
    t = (a[band] - bl) / (bu - bl)  # in [0, 1], as rounding keeps order
    out[band] = np.sin(0.5 * np.pi * t) ** 2
    return out if out.ndim else float(out)


def _odd_span(x: float) -> int:
    n = max(1, int(round(x)))
    return n if n % 2 else n + 1


def median_lengths(params: StftParams, sample_rate: int, config: StnConfig):
    """Time/frequency median lengths (odd) for the configured spans."""
    t_len = _odd_span(config.time_median_span_s * sample_rate / params.hop_size)
    f_len = _odd_span(config.freq_median_span_hz * params.window_size / sample_rate)
    return t_len, f_len


def tonalness_transientness(mag: Spectrogram, time_median_len: int, freq_median_len: int):
    """Per-bin tonalness and transientness arrays (R_s, R_t) of a magnitude
    spectrogram, from axis-wise median filtering.

    The time-axis median preserves steady spectral ridges; the frequency-axis
    median preserves broadband vertical events. Their ratio scores each bin:
    R_s = M_time / (M_time + M_freq), R_t = 1 - R_s, with 0/0 defined as 0.5.
    R_s and R_t are the two median results, overwritten.
    """
    m_time = median_filter_axis(mag, TIME_AXIS, time_median_len).values
    m_freq = median_filter_axis(mag, FREQ_AXIS, freq_median_len).values
    total = np.add(m_time, m_freq, out=m_freq)
    with np.errstate(invalid="ignore", divide="ignore"):
        r_s = np.divide(m_time, total, out=m_time)
    r_s[total <= 0.0] = 0.5
    return r_s, np.subtract(1.0, r_s, out=total)


def compute_masks(r_s: np.ndarray, r_t: np.ndarray, thresholds: StnThresholds) -> MaskSet:
    """Soft masks from tonalness/transientness score arrays of one shape.

    The noise mask is the residual 1 - S - T, clamped at zero only to guard
    user-supplied thresholds below 0.5 (with the defaults S + T <= 1 always).
    """
    if r_s.shape != r_t.shape:
        raise ConfigurationError("R_s and R_t shapes differ")
    s = saturating_mask(r_s, thresholds)
    t = saturating_mask(r_t, thresholds)
    return MaskSet(sines=s, transients=t, noise=np.maximum(1.0 - s - t, 0.0))


def _stage_split(x: AudioBuffer, params: StftParams, thresholds, config: StnConfig,
                 keep: str, with_masks: bool):
    """One decomposition stage: mask the spectrogram, invert the kept part,
    and return (kept, rest = x - kept, masks).

    The frames reach a full window past each end of the signal (stft's pad),
    so every input sample has complete overlap coverage. `keep` selects which
    mask ('sines' or 'transients') extracts the kept component; the full
    MaskSet is built only when with_masks is set (else masks is None). The
    scores and the mask are dropped before the inverse transform.
    """
    pad = params.window_size
    spec = stft(x, params, pad)
    t_len, f_len = median_lengths(params, x.sample_rate, config)
    r_s, r_t = tonalness_transientness(spec.copy_with(np.abs(spec.values)), t_len, f_len)
    masks = compute_masks(r_s, r_t, thresholds) if with_masks else None
    spec.values *= saturating_mask(r_s if keep == "sines" else r_t, thresholds)
    del r_s, r_t
    kept = istft(spec).samples[pad : pad + len(x)]
    rate = x.sample_rate
    return AudioBuffer(kept, rate), AudioBuffer(x.samples - kept, rate), masks


def stn_decompose(x: AudioBuffer, config: StnConfig = StnConfig()) -> StnComponents:
    """Both decomposition stages, building only the masks they apply."""
    components, _ = _decompose(x, config, with_masks=False)
    return components


def stn_decompose_with_masks(x: AudioBuffer, config: StnConfig = StnConfig()):
    """Run both decomposition stages; also return the per-stage mask sets.

    Stage 1 keeps the sines via the tonalness mask and passes everything else
    on; stage 2 keeps the transients via the transientness mask, leaving the
    noise as the residual. All outputs have the input's length exactly.
    """
    return _decompose(x, config, with_masks=True)


def _decompose(x: AudioBuffer, config: StnConfig, with_masks: bool):
    if len(x) == 0:
        raise ConfigurationError("cannot decompose an empty signal")
    check_amplitude(x)
    if len(x) < config.long_window:
        warnings.warn(
            f"input shorter than the stage-1 analysis window ({len(x)} < "
            f"{config.long_window} samples); every stage-1 frame is partly zero padding",
            stacklevel=3,
        )

    p1 = StftParams(config.long_window, config.long_hop)
    sines, residual, masks1 = _stage_split(x, p1, config.stage1, config, "sines", with_masks)

    p2 = StftParams(config.short_window, config.short_hop)
    transients, noise, masks2 = _stage_split(
        residual, p2, config.stage2, config, "transients", with_masks
    )

    return StnComponents(sines, transients, noise), (masks1, masks2)
