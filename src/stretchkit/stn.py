"""Two-stage fuzzy sines-transients-noise decomposition.

Stage 1 separates tonal content from the rest with a long analysis window;
stage 2 splits the residual into transients and noise with a short window.
Both stages median-filter the magnitude spectrogram along time and frequency,
convert the filtered ratios into soft masks through a saturating function,
and apply the masks to the complex spectrogram. Each stage inverts only the
part it keeps and takes the rest as input minus kept, so the components sum
back to the input by construction.
"""

from __future__ import annotations

import math
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
        if not 0.0 < self.beta_u <= 1.0:
            raise ConfigurationError(f"beta_u must be in (0, 1], got {self.beta_u}")
        if not 0.0 <= self.beta_l < 1.0:
            raise ConfigurationError(f"beta_l must be in [0, 1), got {self.beta_l}")
        if self.beta_l >= self.beta_u:
            raise ConfigurationError(
                f"beta_l ({self.beta_l}) must be below beta_u ({self.beta_u})"
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

    def __post_init__(self):
        for name in ("time_median_span_s", "freq_median_span_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        for window, hop in (("long_window", "long_hop"), ("short_window", "short_hop")):
            try:
                StftParams(getattr(self, window), getattr(self, hop))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{window}/{hop}: {exc}") from None


def saturating_mask(a, thresholds: StnThresholds):
    """Map a ratio in [0, 1] to a soft mask value.

    1 above beta_u, 0 below beta_l, and a raised-sine-squared transition in
    between. Accepts scalars or arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    bu, bl = thresholds.beta_u, thresholds.beta_l
    t = (a - bl) / (bu - bl)
    mid = np.sin(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2
    out = np.where(a >= bu, 1.0, np.where(a >= bl, mid, 0.0))
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
    """Per-bin tonalness and transientness from axis-wise median filtering.

    The time-axis median preserves steady spectral ridges; the frequency-axis
    median preserves broadband vertical events. Their ratio scores each bin:
    R_s = M_time / (M_time + M_freq), R_t = 1 - R_s, with 0/0 defined as 0.5.
    """
    m_time = median_filter_axis(mag, TIME_AXIS, time_median_len).values
    m_freq = median_filter_axis(mag, FREQ_AXIS, freq_median_len).values
    denom = m_time + m_freq
    with np.errstate(invalid="ignore", divide="ignore"):
        r_s = np.where(denom > 0.0, m_time / np.where(denom > 0.0, denom, 1.0), 0.5)
    del m_time, m_freq, denom
    r_t = 1.0 - r_s
    return mag.copy_with(r_s), mag.copy_with(r_t)


def compute_masks(r_s: Spectrogram, r_t: Spectrogram, thresholds: StnThresholds) -> MaskSet:
    """Soft masks from tonalness/transientness scores.

    The noise mask is the residual 1 - S - T, clamped at zero only to guard
    user-supplied thresholds below 0.5 (with the defaults S + T <= 1 always).
    """
    if r_s.values.shape != r_t.values.shape:
        raise ConfigurationError("R_s and R_t shapes differ")
    s = saturating_mask(r_s.values, thresholds)
    t = saturating_mask(r_t.values, thresholds)
    n = np.maximum(1.0 - s - t, 0.0)
    return MaskSet(sines=s, transients=t, noise=n)


def _stage_split(x: AudioBuffer, params: StftParams, thresholds, config: StnConfig,
                 keep: str, with_masks: bool):
    """One decomposition stage: mask the spectrogram, invert the kept part,
    and return (kept, rest = x - kept, masks).

    The signal is zero-padded by a full window on each side so that every
    input sample has complete overlap coverage. `keep` selects which mask
    ('sines' or 'transients') extracts the kept component; the full MaskSet
    is built only when with_masks is set (else masks is None). The scores
    and the mask are dropped before the inverse transform.
    """
    pad = params.window_size
    xp = AudioBuffer(np.pad(x.samples, (pad, pad)), x.sample_rate)
    spec = stft(xp, params)
    t_len, f_len = median_lengths(params, x.sample_rate, config)
    r_s, r_t = tonalness_transientness(spec.copy_with(np.abs(spec.values)), t_len, f_len)
    mask = saturating_mask((r_s if keep == "sines" else r_t).values, thresholds)
    masks = compute_masks(r_s, r_t, thresholds) if with_masks else None
    del r_s, r_t
    spec.values *= mask
    del mask
    kept = istft(spec).samples[pad : pad + len(x)]
    return (
        AudioBuffer(kept, x.sample_rate),
        AudioBuffer(x.samples - kept, x.sample_rate),
        masks,
    )


def stn_decompose(x: AudioBuffer, config: StnConfig | None = None) -> StnComponents:
    """Both decomposition stages, building only the masks they apply."""
    components, _ = _decompose(x, config, with_masks=False)
    return components


def stn_decompose_with_masks(x: AudioBuffer, config: StnConfig | None = None):
    """Run both decomposition stages; also return the per-stage mask sets.

    Stage 1 keeps the sines via the tonalness mask and passes everything else
    on; stage 2 keeps the transients via the transientness mask, leaving the
    noise as the residual. All outputs have the input's length exactly.
    """
    return _decompose(x, config, with_masks=True)


def _decompose(x: AudioBuffer, config: StnConfig | None, with_masks: bool):
    if config is None:
        config = StnConfig()
    if len(x) == 0:
        raise ConfigurationError("cannot decompose an empty signal")
    check_amplitude(x)
    if len(x) < config.long_window:
        warnings.warn(
            "input shorter than the stage-1 analysis window; "
            "processing a single zero-padded frame",
            stacklevel=3,
        )

    p1 = StftParams(config.long_window, config.long_hop)
    sines, residual, masks1 = _stage_split(x, p1, config.stage1, config, "sines", with_masks)

    p2 = StftParams(config.short_window, config.short_hop)
    transients, noise, masks2 = _stage_split(
        residual, p2, config.stage2, config, "transients", with_masks
    )

    return StnComponents(sines, transients, noise), (masks1, masks2)
