"""The benchmark tracer wraps package functions by module attribute; every
name it patches must still resolve, or `perfbench/run.py --trace 1` breaks."""

from pathlib import Path

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
