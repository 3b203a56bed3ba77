"""Noise-component time stretching by spectral morphing.

The noise signal's log-magnitude spectrogram is linearly interpolated in
time to the stretched frame count, then used to modulate the spectrogram of
a freshly generated white-noise excitation of the output length. Because the
excitation is a single time-domain signal, overlapping synthesis frames stay
perfectly correlated and the result is free of frame-rate artifacts.

Two variants exist: 'multiply' scales the excitation bins by the target
magnitudes (keeping their stochastic magnitude variation), while 'replace'
discards the excitation magnitudes and keeps only their phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_AMPLITUDE,
    AudioBuffer,
    Spectrogram,
    StftParams,
    check_alpha,
    check_seed,
    istft,
    output_length,
    stft,
    window_energy,
)
from .errors import ConfigurationError

VARIANT_MULTIPLY = "multiply"
VARIANT_REPLACE = "replace"
# highest floor: the level of a bin at MAX_AMPLITUDE; far above it the morph's
# 10 ** (dB / 10) overflows to inf
MAX_FLOOR_DB = 10.0 * math.log10(MAX_AMPLITUDE)


@dataclass(frozen=True)
class NoiseMorphParams:
    window_size: int = 2048
    hop_size: int = 1024
    floor_db: float = -120.0

    def __post_init__(self):
        if not (math.isfinite(self.floor_db) and self.floor_db <= MAX_FLOOR_DB):
            raise ConfigurationError(
                f"floor_db must be finite and at most {MAX_FLOOR_DB:g}, got {self.floor_db}"
            )
        self.stft_params()

    def stft_params(self) -> StftParams:
        return StftParams(self.window_size, self.hop_size)


def log_magnitude(spec: Spectrogram, floor_db: float = -120.0) -> Spectrogram:
    """10*log10 of the bin magnitudes, floored at floor_db so every entry is
    finite and at least floor_db.

    The floor is absolute, not relative to the signal's level: every bin with
    magnitude below 10^(floor_db/10) reads floor_db. So noise morphing is not
    scale-equivariant for very quiet inputs. Noise at peak 1e-300 (or 1e-100)
    comes out of stretch_noise at the floor's level, about 1.7e-13 peak with
    the default -120.
    """
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.abs(spec.values))
    return spec.copy_with(np.maximum(db, floor_db))


def lerp_frames(logmag: Spectrogram, alpha: float) -> Spectrogram:
    """Time-interpolate a spectrogram to round(alpha*M) frames, and to at
    least one frame when M > 0, so a non-empty output always has a target.
    The count comes from output_length, which raises ConfigurationError
    when alpha*M exceeds MAX_OUTPUT_SAMPLES, before anything is allocated.

    Output frame m reads from continuous input position m/alpha (clamped to
    the valid range), blending the two neighboring frames per bin. alpha = 1
    is the exact identity.
    """
    check_alpha(alpha)
    m = logmag.n_frames
    if m == 0:
        return logmag.copy_with(np.zeros((0, logmag.values.shape[1])))
    m_out = max(1, output_length(m, alpha))
    pos = np.clip(np.arange(m_out) / alpha, 0.0, m - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, m - 1)
    frac = (pos - lo)[:, None]
    v = logmag.values
    return logmag.copy_with((1.0 - frac) * v[lo] + frac * v[hi])


def generate_excitation(length: int, seed: int, sample_rate: int = 44100) -> AudioBuffer:
    """Standard-Gaussian white noise; bit-reproducible for a given seed.

    Uses the PCG64 generator, whose stream is stable across platforms and
    numpy releases for a fixed seed.
    """
    if length < 0:
        raise ConfigurationError(f"length must be non-negative, got {length}")
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    return AudioBuffer(rng.standard_normal(length), sample_rate)


def _check_shapes(interp: Spectrogram, excitation_spec: Spectrogram):
    if interp.values.shape != excitation_spec.values.shape:
        raise ConfigurationError(
            f"interpolated spectrogram shape {interp.values.shape} does not match "
            f"excitation shape {excitation_spec.values.shape}"
        )


def morph(interp: Spectrogram, excitation_spec: Spectrogram) -> Spectrogram:
    """Modulate the (window-energy-normalized) excitation bins by the
    interpolated target magnitudes: E * 10^(N/10)."""
    _check_shapes(interp, excitation_spec)
    return excitation_spec.copy_with(
        excitation_spec.values * 10.0 ** (interp.values / 10.0)
    )


def morph_replace(interp: Spectrogram, excitation_spec: Spectrogram) -> Spectrogram:
    """Keep only the excitation phases; magnitudes become exactly the
    interpolated targets. Zero excitation bins are assigned phase 0."""
    _check_shapes(interp, excitation_spec)
    phase = np.angle(excitation_spec.values)
    return excitation_spec.copy_with(
        10.0 ** (interp.values / 10.0) * np.exp(1j * phase)
    )


def _pad_target_frames(target: Spectrogram, n_frames: int, lead_frames: int) -> Spectrogram:
    """Lay the target frames onto a longer frame grid, replicating the first
    and last frames over the lead-in/lead-out region."""
    idx = np.clip(np.arange(n_frames) - lead_frames, 0, target.n_frames - 1)
    return target.copy_with(target.values[idx])


def stretch_noise(
    noise: AudioBuffer,
    alpha: float,
    params: NoiseMorphParams | None = None,
    variant: str = VARIANT_MULTIPLY,
    seed: int = 0,
) -> AudioBuffer:
    """Full analysis/morph/synthesis chain for the noise component.

    Output length is exactly round(alpha * len(noise)). The same window and
    hop are used for analysis of the noise, analysis of the excitation, and
    the final overlap-add synthesis.
    """
    if params is None:
        params = NoiseMorphParams()
    if variant not in (VARIANT_MULTIPLY, VARIANT_REPLACE):
        raise ConfigurationError(f"unknown morph variant {variant!r}")
    check_alpha(alpha)
    sp = params.stft_params()
    out_length = output_length(len(noise), alpha)
    if out_length == 0:
        return AudioBuffer(np.zeros(0), noise.sample_rate)

    analysis = stft(noise, sp)
    target = lerp_frames(log_magnitude(analysis, params.floor_db), alpha)

    # The excitation is synthesized on a frame grid padded by a full window
    # on each side: the retained region then has complete overlap coverage,
    # so the overlap-add normalization never divides by a vanishing window
    # sum (morphed frames are not time-tapered the way analysis frames are).
    lead_frames = -(-params.window_size // params.hop_size)
    pad = lead_frames * params.hop_size
    excitation = generate_excitation(out_length, seed, noise.sample_rate)
    exc_padded = AudioBuffer(
        np.pad(excitation.samples, (pad, pad)), noise.sample_rate
    )
    # each signal is released once the next form of it exists, which lowers
    # the stage's peak memory
    del excitation
    exc_spec = stft(exc_padded, sp)
    del exc_padded
    exc_spec = exc_spec.copy_with(exc_spec.values / window_energy(sp))
    target = _pad_target_frames(target, exc_spec.n_frames, lead_frames)

    morphed = (morph if variant == VARIANT_MULTIPLY else morph_replace)(target, exc_spec)
    out = istft(morphed).samples[pad : pad + out_length]
    return AudioBuffer(out, noise.sample_rate)
