"""Noise-component time stretching by spectral morphing.

A white-noise excitation of the output length is analysed with the noise's
window and hop. Its frame m takes the noise's log-magnitude spectrogram at
input frame position m/alpha, linearly interpolated between frames, and
those magnitudes modulate its bins; core.synthesize inverts, overlap-adds
and divides the morphed frames. Because the excitation is a single
time-domain signal, overlapping synthesis frames stay perfectly correlated
and the result is free of frame-rate artifacts. core.frames_at reads its
frames in place at starts (m - ceil(window/hop)) * hop, the time map. The
excitation is never whole: one PCG64 stream is drawn block by block, each
block carrying over the window - hop samples it shares with the one before,
and the draws equal one draw of the output length bit for bit.

Two variants exist: 'multiply' scales the excitation bins by the target
magnitudes (keeping their stochastic magnitude variation), while 'replace'
discards the excitation magnitudes and keeps only their phases.

Only stretch_noise takes and returns an AudioBuffer. Its steps are plain
arrays: log_magnitude(spec, floor_db), lerp_frames(logmag, positions),
morph(interp, excitation_spec) and morph_replace(interp, excitation_spec)
take and return frames x bins grids, and generate_excitation(length, seed)
returns the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_AMPLITUDE,
    AudioBuffer,
    StftParams,
    check_alpha,
    check_seed,
    dealer,
    frame_blocks,
    frames_at,
    n_frames_for,
    output_length,
    stft,
    synthesize,
    window_energy,
)
# Only the benchmark tracer (perfbench/spans.py) needs the next name here: it patches
# it in this module. ROADMAP items 1 and 2 delete it with that patching.
from .core import istft
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


def log_magnitude(spec: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """10*log10 of the magnitudes of a grid of bins, floored at floor_db so
    every entry is finite and at least floor_db.

    The floor is absolute, not relative to the signal's level: every bin with
    magnitude below 10^(floor_db/10) reads floor_db. So noise morphing is not
    scale-equivariant for very quiet inputs. Noise at peak 1e-300 (or 1e-100)
    comes out of stretch_noise at the floor's level, about 1.7e-13 peak with
    the default -120.
    """
    db = np.abs(spec)
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 10.0
    return np.maximum(db, floor_db, out=db)


def lerp_frames(logmag: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """One output frame per entry of positions: the M x K grid logmag read
    at that fractional frame position, clamped to [0, M - 1], blending the
    two neighbouring frames per bin. An integer position reads its frame
    exactly. Raises ConfigurationError for a grid of no frames or a
    non-finite position.
    """
    m = len(logmag)
    if m == 0:
        raise ConfigurationError("cannot interpolate a spectrogram with no frames")
    positions = np.asarray(positions, dtype=np.float64)
    if not np.all(np.isfinite(positions)):
        raise ConfigurationError("frame positions must be finite")
    pos = np.clip(positions, 0.0, m - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, m - 1)
    frac = (pos - lo)[:, None]
    return (1.0 - frac) * logmag[lo] + frac * logmag[hi]


def generate_excitation(length: int, seed: int | np.random.Generator) -> np.ndarray:
    """length samples of standard-Gaussian white noise; bit-reproducible for
    a given seed.

    Uses the PCG64 generator, whose stream is stable across platforms and
    numpy releases for a fixed seed. An int seed starts the stream; a
    numpy.random.Generator continues its own, so draws of n1, n2, ... samples
    from Generator(PCG64(seed)) equal one draw of n1 + n2 + ... from seed,
    bit for bit.
    """
    if length < 0:
        raise ConfigurationError(f"length must be non-negative, got {length}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        check_seed(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(length)


def _check_shapes(interp: np.ndarray, excitation_spec: np.ndarray):
    if interp.shape != excitation_spec.shape:
        raise ConfigurationError(
            f"interpolated spectrogram shape {interp.shape} does not match "
            f"excitation shape {excitation_spec.shape}"
        )


def morph(interp: np.ndarray, excitation_spec: np.ndarray) -> np.ndarray:
    """Modulate the (window-energy-normalized) excitation bins by the
    interpolated target log magnitudes, grids of one shape: E * 10^(N/10)."""
    _check_shapes(interp, excitation_spec)
    return excitation_spec * 10.0 ** (interp / 10.0)


def morph_replace(interp: np.ndarray, excitation_spec: np.ndarray) -> np.ndarray:
    """Keep only the excitation phases; magnitudes become exactly the
    interpolated targets. Zero excitation bins are assigned phase 0."""
    _check_shapes(interp, excitation_spec)
    return 10.0 ** (interp / 10.0) * np.exp(1j * np.angle(excitation_spec))


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

    The noise's log-magnitude grid is input-sized and computed whole. The
    excitation is drawn, its frames morphed and sent through core.synthesize
    in blocks of at most core.FRAME_BLOCK values, so the output's bits do
    not depend on the block size or the thread count, and the peak memory
    is the output and the blocks in flight. Each block draws on the calling
    thread, in block order, only the excitation samples its frames reach
    past the previous block's.
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

    # The excitation's frames start ceil(W / h) hops before its first sample
    # and run as far past its last: the retained region then has complete
    # overlap coverage, so the overlap-add normalization never divides by a
    # vanishing window sum (morphed frames are not time-tapered the way
    # analysis frames are).
    w, h = sp.window_size, sp.hop_size
    lead_frames = -(-w // h)
    pad = lead_frames * h
    n_frames = n_frames_for(out_length + 2 * pad, sp)
    logmag = log_magnitude(stft(noise, sp).values, params.floor_db)
    starts = (np.arange(n_frames) - lead_frames) * h
    positions = (np.arange(n_frames) - lead_frames) / alpha
    win, energy = sp.window(), window_energy(sp)
    shape = morph if variant == VARIANT_MULTIPLY else morph_replace
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))

    def excitation_blocks():  # pulled by deal on the calling thread, in block order
        # block (b0, b1) reads excitation samples [lo, hi): the first W - h
        # are the previous block's last, carried; the rest are drawn
        part, part_lo = np.zeros(0), 0
        for b0, b1 in frame_blocks(n_frames, w):
            lo = min(max(0, starts[b0]), out_length)
            hi = max(min(out_length, starts[b1 - 1] + w), lo)
            fresh = generate_excitation(hi - part_lo - len(part), rng)
            part, part_lo = np.concatenate((part[lo - part_lo :], fresh)), lo
            yield b0, b1, part, lo

    def spectrum(item):  # on a dealt thread, with its inverse: each thread holds a block
        b0, b1, part, lo = item
        spec = np.fft.rfft(frames_at(part, starts[b0:b1] - lo, win, np.empty((b1 - b0, w))),
                           axis=1)
        spec /= energy  # in place
        return shape(lerp_frames(logmag, positions[b0:b1]), spec)

    with dealer() as deal:
        out = synthesize(deal, spectrum, excitation_blocks(), n_frames, win, h)
    return AudioBuffer(out[pad : pad + out_length], noise.sample_rate)
