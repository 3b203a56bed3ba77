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


def test_traced_calls_keep_the_span_contract(monkeypatch, tmp_path):
    """With the tracer installed, time_stretch in all four modes and one CLI
    call with stems and onsets run, no span's children outlast it, and
    layer_metrics gives every per-layer metric. A traced function whose
    result lost what a span count reads (n_frames, values, len) fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from stretchkit import cli, pipeline
    from stretchkit.signals import gen_signal
    from stretchkit.wavio import write_wav

    x = gen_signal("click_plus_hiss", 0.5, seed=3)
    inp = tmp_path / "in.wav"
    write_wav(x, inp)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for mode in pipeline.MODES:
            pipeline.time_stretch(x, pipeline.StretchConfig(alpha=2.0, mode=mode))
        assert cli.main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2",
                         "--stems", str(tmp_path / "stems"),
                         "--onsets", str(tmp_path / "onsets.csv")]) == 0
    finally:
        tracer.uninstall()
    assert spans.child_sum_violations(tracer.spans) == []
    metrics = spans.layer_metrics(tracer.spans, {})
    assert set(metrics) == {name for name, _ in spans.PER_LAYER if name != spans.OVERHEAD}
    called = {s.name for s in tracer.spans}
    assert {"core.stft", "core.istft", "core.median_time", "core.median_freq",
            "noisemorph.excitation", "transients.reposition", "wavio.write", "cli.run"} <= called
