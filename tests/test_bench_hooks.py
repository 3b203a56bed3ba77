"""The benchmark tracer wraps package functions by module attribute; every
name it patches must still resolve, or `perfbench/run.py --trace 1` breaks."""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from stretchkit import cli, transients

    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # AttributeError if a wrapped name is gone
    finally:
        tracer.uninstall()
    assert cli.detect_events is transients.detect_events


def test_traced_peak_count_is_peaks_per_frame(monkeypatch):
    """`vocoder.peaks_per_frame` is the mean of each find_peaks span's count,
    taken as len() of the result; it must be the number of peaks P. The input
    is hiss, not a pure two-tone, whose frames hold about 2 peaks: as many as
    len() of a pair of arrays would report."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from stretchkit import vocoder
    from stretchkit.signals import gen_signal

    find_peaks = vocoder.find_peaks
    frames = []

    def recording(mag):
        frames.append(np.array(mag))
        return find_peaks(mag)

    monkeypatch.setattr(vocoder, "find_peaks", recording)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        vocoder.stretch_sines(gen_signal("click_plus_hiss", 0.5), 2.0)
    finally:
        tracer.uninstall()
    counts = [s.counts["peaks"] for s in tracer.spans if s.name == "vocoder.find_peaks"]
    assert len(counts) == len(frames) > 0
    for mag, count in zip(frames, counts):
        assert count == find_peaks(mag).shape[0] > 3
