import tracemalloc

import numpy as np
import pytest

from stretchkit.core import AudioBuffer
from stretchkit.errors import ConfigurationError
from stretchkit.signals import click_times, gen_signal
from stretchkit.transients import (
    TransientDetectParams,
    _rms_envelope,
    detect_events,
    onsets_csv_rows,
    reposition_events,
)

SR = 44100


def test_silence_gives_no_events():
    assert detect_events(AudioBuffer(np.zeros(SR), SR)) == []
    assert detect_events(AudioBuffer(np.zeros(0), SR)) == []


def test_frame_longer_than_input():
    """One envelope value, the zero-padded frame's, from the input's own
    cumulative sum: a frame of 1e9 s (4.4e13 samples) allocates nothing of
    its length."""
    x = gen_signal("click_train", 1.0)
    padded = np.pad(x.samples[:100], (0, 50))
    expected = np.sqrt(np.cumsum(padded**2)[-1:] / 150)
    assert _rms_envelope(x.samples[:100], 150, 10).tobytes() == expected.tobytes()
    tracemalloc.start()
    try:
        events = detect_events(x, TransientDetectParams(frame_s=1e9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events == []
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("name", ["frame_s", "hop_s"])
@pytest.mark.parametrize("seconds", [1e300, 1.7e308])
def test_frame_or_hop_past_any_input(name, seconds):
    """A frame or hop of 1e300 s passes the int64 range in samples, and
    1.7e308 s the float range: each reads as the input's length, so the
    envelope has one value and no onset fires."""
    x = gen_signal("click_train", 1.0)
    assert detect_events(x, TransientDetectParams(**{name: seconds})) == []


def test_single_impulse_detected():
    x = np.zeros(2 * SR)
    x[SR] = 1.0
    events = detect_events(AudioBuffer(x, SR))
    assert len(events) == 1
    frame = round(TransientDetectParams().frame_s * SR)
    assert abs(events[0].onset - SR) <= frame


def test_click_train_onsets():
    x = gen_signal("click_train", 2.0)
    events = detect_events(x)
    truth = click_times(2.0, 0.25)
    assert len(events) == len(truth) == 8
    dev = np.abs(np.array([e.onset for e in events]) / SR - truth)
    assert np.max(dev) <= 0.005


def test_segments_do_not_overlap():
    x = gen_signal("click_train", 2.0, period=0.05)
    events = detect_events(x)
    assert len(events) > 1
    for a, b in zip(events, events[1:]):
        a_end = a.onset - a.anchor + len(a.segment)
        assert b.onset - b.anchor >= a_end


def test_reposition_empty_is_zero():
    out = reposition_events([], 2.0, 1000)
    assert np.array_equal(out, np.zeros(1000))


def test_reposition_scales_onset():
    x = np.zeros(SR)
    x[1000] = 1.0
    events = detect_events(AudioBuffer(x, SR))
    assert len(events) == 1
    out = reposition_events(events, 3.0, SR)
    assert np.argmax(np.abs(out)) == 3000


def test_reposition_overlapping_segments_sum():
    seg = np.ones(100)
    from stretchkit.transients import TransientEvent

    events = [
        TransientEvent(onset=1000, segment=seg.copy(), anchor=0),
        TransientEvent(onset=1050, segment=seg.copy(), anchor=0),
    ]
    out = reposition_events(events, 1.0, 2000)
    assert np.all(out[1050:1100] == 2.0)
    assert np.all(out[1000:1050] == 1.0)


def test_event_energy_preserved_by_repositioning():
    x = gen_signal("click_train", 2.0)
    events = detect_events(x)
    out = reposition_events(events, 4.0, 4 * len(x))
    seg_energy = sum(float(np.sum(e.segment**2)) for e in events)
    assert float(np.sum(out**2)) == pytest.approx(seg_energy, rel=1e-12)


def test_reposition_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        reposition_events([], 0.0, 100)
    with pytest.raises(ConfigurationError):
        reposition_events([], 1.0, -5)


def test_onsets_csv_rows():
    from stretchkit.transients import TransientEvent

    events = [TransientEvent(onset=100, segment=np.ones(10), anchor=5)]
    assert onsets_csv_rows(events, 2.5) == [(100, 250)]
