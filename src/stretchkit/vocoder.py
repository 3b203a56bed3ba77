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
to; the phase chain from frame to frame and synthesize's overlap-add run on
the calling thread in block order, so the output is bit-identical for any
thread count. For the locked rule the chain is find_peaks on each frame and
a three-op rotation recurrence over its peaks, the rest of its phase work
done for the whole block at once; for the plain rule it is a running sum.
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
    ok = np.empty(cand.size, dtype=bool)
    ok[-1] = True  # the last candidate has no candidate after it to beat
    np.greater(cand[:-1], cand[1:], out=ok[:-1])
    ok[1:] &= cand[1:] > cand[:-1]
    ok[:-2] &= cand[:-2] > cand[2:]
    ok[2:] &= cand[2:] > cand[:-2]
    peaks = np.flatnonzero(ok)
    peaks += 2
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
    # the bins at their span's minimum; the first in each span wins ties
    at_min = np.flatnonzero(span == np.repeat(mins, peaks[1:] - peaks[:-1]))
    regions = np.empty((peaks.size, 3), dtype=peaks.dtype)
    regions[:, 0] = peaks
    regions[0, 1] = 0
    np.add(at_min[np.searchsorted(at_min, starts)], lo, out=regions[1:, 1])
    regions[:-1, 2] = regions[1:, 1]
    regions[-1, 2] = k
    return regions


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

    def spectrum(parts):  # on a dealt thread
        return (_turn if locked else _polar)(*parts)

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
    """Identity phase locking of a block of frames (spectra and their
    magnitudes), as (the block's turns, the state after the block); _turn
    builds the block's synthesis spectra from its turns.

    A frame with peaks is its analysis spectrum turned by one rotation per
    peak region, rotation = psi_prev + hop * inst - phase at the peak bin,
    so phase and advance are computed only at peak bins. state is (previous
    spectrum, its per-bin rotation, its synthesis phase): the phase is given
    in full after a frame without peaks (or the first frame), and is None when
    it is the spectrum's phase plus the rotation. A frame without peaks
    takes the plain rule: every bin propagates on its own.

    find_peaks runs once per frame; the phases at the peak bins and their
    advances are then computed for the whole block, so per frame only the
    rotation, three operations in the rule's order, and its spread over the
    bins run, which give the bits of a frame-by-frame loop.
    """
    n, k = spec.shape
    first = state is None  # the first frame keeps its analysis phase
    prev, rot, psi = (spec[0], None, np.angle(spec[0])) if first else state
    found = [find_peaks(mag[i]) for i in range(int(first), n)]
    # one table row per peak region; a frame without peaks gets one
    # placeholder region [0, k), whose rotation stays 0
    whole = np.array([[0, 0, k]])
    rows = [whole] * first + [r if len(r) else whole for r in found]
    sizes = [len(r) for r in rows]
    peaks, starts, ends = np.concatenate(rows).T
    frame = np.repeat(np.arange(n), sizes)
    phase = np.angle(spec[frame, peaks])
    prev_bins = spec[frame - 1, peaks]
    prev_bins[: sizes[0]] = prev[peaks[: sizes[0]]]
    prev_phase = np.angle(prev_bins)
    advance = synth_hop * _inst_freq(phase, prev_phase, omega[peaks], dts[frame])
    counts = ends - starts
    rotation = np.zeros(len(peaks))
    edges = np.concatenate(([0], np.cumsum(sizes))).tolist()
    full = [(0, psi)] if first else []  # (frame, synthesis phase) of frames without peaks
    for i in range(int(first), n):
        lo, hi = edges[i], edges[i + 1]
        if len(found[i - first]) == 0:
            prev_all = np.angle(spec[i - 1] if i else prev)
            psi_prev = prev_all + rot if psi is None else psi
            psi = synth_hop * _inst_freq(np.angle(spec[i]), prev_all, omega, dts[i]) + psi_prev
            full.append((i, psi))
            continue
        out = rotation[lo:hi]
        if psi is None:
            np.add(prev_phase[lo:hi], rot[peaks[lo:hi]], out=out)
            out += advance[lo:hi]
        else:
            np.add(psi[peaks[lo:hi]], advance[lo:hi], out=out)
        out -= phase[lo:hi]
        rot, psi = np.repeat(out, counts[lo:hi]), None
    return (spec, mag, rotation, counts, full), (spec[-1], rot, psi)


def _turn(spec, mag, rot, counts, full):
    """A block's synthesis spectra from _locked_block's result: each frame's
    analysis spectrum turned by its regions' rotations (counts bins each,
    the regions in frame order), then the frames in full, (frame, phase)
    pairs, built from their magnitudes and phases."""
    synth = spec * np.repeat(np.exp(1j * rot), counts).reshape(spec.shape)
    for i, psi in full:
        synth[i] = _polar(mag[i], psi)
    return synth


def stretch_sines(sines: AudioBuffer, alpha: float, params: PvParams = PvParams()) -> AudioBuffer:
    """Time-stretch with identity phase locking; output len = round(alpha*N)."""
    return _pv_stretch(sines, alpha, params, True)


def stretch_plain(x: AudioBuffer, alpha: float, params: PvParams = PvParams()) -> AudioBuffer:
    """Plain phase vocoder (no phase locking); the listening-test anchor."""
    return _pv_stretch(x, alpha, params, False)
