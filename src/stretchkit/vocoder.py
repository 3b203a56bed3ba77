"""Phase-vocoder time stretching for the tonal component.

Synthesis frame m, laid out at a fixed hop, reads its analysis frame at
start round(m*hop/alpha), the time map, through core.frames_at; the
frequency estimate uses the actual distance between starts, so rounding
does not bias it. Phase locking keeps vertical phase coherence: the analysis
spectrum is turned by one rotation per spectral peak's region of influence,
so phases are taken only at peak bins; without it every bin propagates on
its own (the plain vocoder, the quality anchor). core.synthesize inverts,
overlap-adds and divides the synthesis spectra, floored at _clamp_level.

Frames run in blocks of at most core.FRAME_BLOCK values (a constant, not a
setting). Analysis and synthesis run on the threads core.dealer deals blocks
to; the phase chain from frame to frame (peak picking and rotation, or the
plain running sum) and synthesize's overlap-add run on the calling thread
in block order, so the output is bit-identical for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AudioBuffer,
    StftParams,
    check_alpha,
    check_fields,
    dealer,
    frame_blocks,
    frames_at,
    n_frames_for,
    output_length,
    overlap_add,
    synthesize,
)
from .errors import ConfigurationError


@dataclass(frozen=True)
class PvParams:
    window_size: int = 4096
    synthesis_hop: int = 1024
    FRAMINGS = (("window_size", "synthesis_hop"),)

    def __post_init__(self):
        check_fields(self)
        if self.window_size < 8:  # the 5 bins find_peaks needs
            raise ConfigurationError(f"window_size must be at least 8, got {self.window_size}")
        if self.synthesis_hop > self.window_size // 2:
            raise ConfigurationError(
                f"synthesis_hop {self.synthesis_hop} exceeds half the window "
                f"({self.window_size // 2})"
            )

    def stft_params(self) -> StftParams:
        return StftParams(self.window_size, self.synthesis_hop)


def find_peaks(mag_frame: np.ndarray) -> np.ndarray:
    """Spectral peaks and their regions of influence for one frame.

    A candidate bin (index 2 .. K-3) is a peak when strictly greater than
    every candidate within two bins of it. Regions partition [0, K) with
    boundaries at the magnitude minimum between adjacent peaks (first such
    minimum on ties). Returns an integer array of shape (P, 3), one row
    (peak_bin, region_start, region_end) per peak in ascending bin order;
    P = 0 means no locking should be applied. Raises ConfigurationError for
    fewer than 5 bins or a NaN between two peaks.
    """
    mag = np.asarray(mag_frame, dtype=np.float64)
    k = mag.size
    if k < 5:
        raise ConfigurationError(f"need at least 5 bins to find peaks, got {k}")
    cand = mag[2 : k - 2]
    ok = np.ones(cand.size, dtype=bool)
    for off in (1, 2):
        ok[off:] &= cand[off:] > cand[:-off]
        ok[:-off] &= cand[:-off] > cand[off:]
    peaks = np.flatnonzero(ok) + 2
    if peaks.size == 0:
        return np.empty((0, 3), dtype=peaks.dtype)
    # Peak p[i+1] is strictly greater than bin p[i+1] - 1, which lies in the
    # span, so the minimum of [p[i], p[i+1]] is never at p[i+1]: the
    # half-open reduceat spans [p[i], p[i+1]) give the same bounds.
    lo = peaks[0]
    span = mag[lo : peaks[-1]]
    starts = peaks[:-1] - lo
    mins = np.minimum.reduceat(span, starts)
    if np.isnan(mins).any():
        raise ConfigurationError("NaN magnitude between spectral peaks")
    at_min = span == np.repeat(mins, np.diff(peaks))
    # first bin at the span's minimum: the lowest bin wins ties
    first = np.where(at_min, np.arange(span.size), span.size)
    cuts = lo + np.minimum.reduceat(first, starts)
    bounds = np.concatenate(([0], cuts, [k]))
    return np.column_stack((peaks, bounds[:-1], bounds[1:]))


def _princarg(phi):
    return phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))


def _inst_freq(phase, prev_phase, omega, dt):
    """Instantaneous frequency (rad/sample) from two analysis phases dt apart."""
    return omega + _princarg(phase - prev_phase - omega * dt) / dt


def _pv_stretch(signal: AudioBuffer, alpha: float, pv: PvParams, locked: bool) -> AudioBuffer:
    """The body of stretch_sines (locked) and stretch_plain."""
    check_alpha(alpha)
    x = signal.samples
    params = pv.stft_params()
    out_length = output_length(len(x), alpha)
    if out_length == 0 or len(x) == 0:
        return AudioBuffer(np.zeros(out_length), signal.sample_rate)
    window_size, synth_hop = params.window_size, params.hop_size
    win = params.window()
    omega = 2.0 * np.pi * np.arange(params.n_bins) / window_size  # phase advance per sample

    n_syn = n_frames_for(out_length, params)
    starts = np.rint(np.arange(n_syn) * synth_hop / alpha).astype(int)
    dts = np.maximum(np.diff(starts, prepend=starts[0]), 1)

    blocks = frame_blocks(n_syn, window_size)

    def analyse(block):  # on a dealt thread
        b0, b1 = block
        spec = np.fft.rfft(frames_at(x, starts[b0:b1], win, np.empty((b1 - b0, window_size))),
                           axis=1)
        if locked:
            return spec, np.abs(spec)
        return _plain_analyse(spec, dts[b0:b1], omega, synth_hop)

    def chain(analysed):  # on the calling thread, in block order
        state = None
        for (b0, b1), parts in zip(blocks, analysed):
            synth, state = (_locked_block if locked else _plain_chain)(
                *parts, dts[b0:b1], omega, synth_hop, state)
            yield synth

    spectrum = (lambda synth: synth) if locked else (lambda synth: _polar(*synth))
    with dealer() as deal:
        out = synthesize(deal, spectrum, chain(deal(analyse, blocks)), n_syn, win, synth_hop,
                         _clamp_level(n_syn, win, synth_hop))
    return AudioBuffer(out[:out_length], signal.sample_rate)


def _clamp_level(n_frames, win, synth_hop):
    """The lowest full-overlap window sum (one hop of a k-frame sum), or where lower the
    median sum over the first 3k frames (of at most 4k), as in short outputs: from 3k
    frames on every fully overlapped sample is divided by its own sum, as in istft."""
    w, k = len(win), -(-len(win) // synth_hop)
    wsum = overlap_add(np.broadcast_to(win**2, (min(n_frames, 4 * k), w)), synth_hop)
    full = overlap_add(np.broadcast_to(win**2, (k, w)), synth_hop)[w - synth_hop : w]
    return min(np.median(wsum[: (3 * k - 1) * synth_hop + w]), full.min())


def _plain_analyse(spec, dts, omega, synth_hop):
    """(magnitudes, phases, steps) of a block of frames for the plain rule,
    every bin propagated on its own: step i is frame i's phase advance from
    frame i - 1, hop times their instantaneous frequency. Row 0's step needs
    the frame before the block, so _plain_chain writes it."""
    phase = np.angle(spec)
    steps = np.empty_like(phase)
    steps[1:] = synth_hop * _inst_freq(phase[1:], phase[:-1], omega, dts[1:, None])
    return np.abs(spec), phase, steps


def _plain_chain(mag, phase, steps, dts, omega, synth_hop, state):
    """Synthesis phases of a block analysed by _plain_analyse, as
    ((magnitudes, phases), state after the block).

    state is (analysis phase, synthesis phase) of the frame before the block,
    None before the first frame, which keeps its analysis phase.
    """
    if state is None:
        steps[0] = phase[0]
    else:
        prev_phase, psi = state
        steps[0] = synth_hop * _inst_freq(phase[0], prev_phase, omega, dts[0]) + psi
    psi = np.cumsum(steps, axis=0)  # sequential sums: each frame adds to the last
    return (mag, psi), (phase[-1], psi[-1])


def _polar(mag, psi):
    return mag * np.exp(1j * psi)


def _locked_block(spec, mag, dts, omega, synth_hop, state):
    """Synthesis spectra of a block of frames (spectra and their magnitudes)
    with identity phase locking.

    A frame with peaks is its analysis spectrum turned by one rotation per
    peak region, rotation = psi_prev + hop * inst - phase at the peak bin,
    so phase and advance are computed only at peak bins. state is (previous
    spectrum, its per-bin rotation, its synthesis phase): the phase is given
    in full after a frame without peaks (or the first frame), and is None when
    it is the spectrum's phase plus the rotation. A frame without peaks
    takes the plain rule: every bin propagates on its own.
    """
    synth = np.empty_like(spec)
    first = state is None  # the first frame keeps its analysis phase
    prev, rot, psi = (spec[0], None, np.angle(spec[0])) if first else state
    if first:
        synth[0] = _polar(mag[0], psi)
    for i in range(int(first), len(spec)):
        regions = find_peaks(mag[i])
        if len(regions) == 0:
            prev_phase = np.angle(prev)
            psi_prev = prev_phase + rot if psi is None else psi
            psi = synth_hop * _inst_freq(np.angle(spec[i]), prev_phase, omega, dts[i]) + psi_prev
            synth[i] = _polar(mag[i], psi)
        else:
            peaks, starts, ends = regions.T
            phase, prev_phase = np.angle(spec[i, peaks]), np.angle(prev[peaks])
            psi_prev = prev_phase + rot[peaks] if psi is None else psi[peaks]
            inst = _inst_freq(phase, prev_phase, omega[peaks], dts[i])
            rotation = psi_prev + synth_hop * inst - phase
            counts = ends - starts
            rot, psi = np.repeat(rotation, counts), None
            synth[i] = spec[i] * np.repeat(np.exp(1j * rotation), counts)
        prev = spec[i]
    return synth, (prev, rot, psi)


def stretch_sines(sines: AudioBuffer, alpha: float, params: PvParams = PvParams()) -> AudioBuffer:
    """Time-stretch with identity phase locking; output len = round(alpha*N)."""
    return _pv_stretch(sines, alpha, params, True)


def stretch_plain(x: AudioBuffer, alpha: float, params: PvParams = PvParams()) -> AudioBuffer:
    """Plain phase vocoder (no phase locking); the listening-test anchor."""
    return _pv_stretch(x, alpha, params, False)
