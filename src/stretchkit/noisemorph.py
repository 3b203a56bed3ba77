"""Noise-component time stretching by spectral morphing.

A white-noise excitation of the output length is analysed with the noise's
window and hop. Its frame m takes the noise's log-magnitude spectrogram at
input frame position m/alpha, linearly interpolated between frames, and
those magnitudes modulate its bins. Because the excitation is a single
time-domain signal, overlapping synthesis frames stay perfectly correlated
and the result is free of frame-rate artifacts.

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


def lerp_frames(logmag: Spectrogram, positions: np.ndarray) -> Spectrogram:
    """One output frame per entry of positions: the input read at that
    fractional frame position, clamped to [0, M - 1], blending the two
    neighbouring frames per bin. An integer position reads its frame exactly.
    Raises ConfigurationError for an empty spectrogram or a non-finite
    position.
    """
    m = logmag.n_frames
    if m == 0:
        raise ConfigurationError("cannot interpolate a spectrogram with no frames")
    positions = np.asarray(positions, dtype=np.float64)
    if not np.all(np.isfinite(positions)):
        raise ConfigurationError("frame positions must be finite")
    pos = np.clip(positions, 0.0, m - 1)
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


def stretch_noise(
    noise: AudioBuffer,
    alpha: float,
    params: NoiseMorphParams | None = None,
    variant: str = VARIANT_MULTIPLY,
    seed: int = 0,
) -> AudioBuffer:
    """Full analysis/morph/synthesis chain for the noise component.

    Output length is exactly round(alpha * len(noise)). One window and hop
    serve the noise analysis, the excitation analysis and the overlap-add
    synthesis. Excitation frame m, counted from the output's first sample,
    takes the noise's log magnitudes at input frame m/alpha, clamped to the
    noise's frames, so the input's last frames reach the output's end.
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

    # The excitation is synthesized on a frame grid padded by a full window
    # on each side: the retained region then has complete overlap coverage,
    # so the overlap-add normalization never divides by a vanishing window
    # sum (morphed frames are not time-tapered the way analysis frames are).
    lead_frames = -(-params.window_size // params.hop_size)
    pad = lead_frames * params.hop_size
    excitation = generate_excitation(out_length, seed, noise.sample_rate)
    exc_padded = AudioBuffer(np.pad(excitation.samples, (pad, pad)), noise.sample_rate)
    # each signal is released once the next form of it exists, which lowers
    # the stage's peak memory
    del excitation
    exc_spec = stft(exc_padded, sp)
    del exc_padded
    exc_spec = exc_spec.copy_with(exc_spec.values / window_energy(sp))
    positions = (np.arange(exc_spec.n_frames) - lead_frames) / alpha
    target = lerp_frames(log_magnitude(stft(noise, sp), params.floor_db), positions)

    morphed = (morph if variant == VARIANT_MULTIPLY else morph_replace)(target, exc_spec)
    out = istft(morphed).samples[pad : pad + out_length]
    return AudioBuffer(out, noise.sample_rate)
