import csv
import dataclasses
import wave

import numpy as np
import pytest
from scipy.io import wavfile

from stretchkit import cli, pipeline
from stretchkit.cli import apply_config_values, main, parse_config_file, scale_for_rate
from stretchkit.core import AudioBuffer
from stretchkit.errors import AudioIOError, ConfigurationError
from stretchkit.pipeline import StretchConfig
from stretchkit.signals import gen_signal
from stretchkit.wavio import read_wav, write_wav

SR = 44100


def make_buf(n=5000, seed=0):
    x = 0.5 * np.random.default_rng(seed).uniform(-1, 1, n)
    return AudioBuffer(x, SR)


@pytest.mark.parametrize("depth,tol", [("16", 1 / 32768), ("24", 1 / 8388608), ("float32", 1e-7)])
def test_write_read_roundtrip(tmp_path, depth, tol):
    buf = make_buf()
    path = tmp_path / "x.wav"
    write_wav(buf, path, depth)
    back = read_wav(path)
    assert back.sample_rate == SR
    assert len(back) == len(buf)
    assert np.max(np.abs(back.samples - buf.samples)) <= tol


def test_pcm24_bytes_match_per_sample_packing(tmp_path):
    x = np.concatenate([make_buf(1000).samples, [-1.0, 1.0, 0.0, -1e-7, 1e-7]])
    path = tmp_path / "x.wav"
    write_wav(AudioBuffer(x, SR), path, "24")
    raw = np.round(x * 8388607.0).astype("<i4").tobytes()
    expected = b"".join(raw[i : i + 3] for i in range(0, len(raw), 4))
    with wave.open(str(path), "rb") as f:
        assert f.readframes(f.getnframes()) == expected


def test_write_clips_out_of_range(tmp_path):
    buf = AudioBuffer(np.array([0.0, 2.0, -3.0]), SR)
    path = tmp_path / "clip.wav"
    write_wav(buf, path, "16")
    back = read_wav(path)
    assert np.max(back.samples) <= 1.0
    assert np.min(back.samples) >= -1.0


def test_stereo_downmix(tmp_path):
    left = np.full(100, 0.5, dtype=np.float32)
    right = np.full(100, -0.25, dtype=np.float32)
    path = tmp_path / "st.wav"
    wavfile.write(path, SR, np.stack([left, right], axis=1))
    buf = read_wav(path)
    assert buf.samples == pytest.approx(np.full(100, 0.125), abs=1e-6)


def test_read_missing_and_garbage(tmp_path):
    with pytest.raises(AudioIOError):
        read_wav(tmp_path / "nope.wav")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a riff file at all")
    with pytest.raises(AudioIOError):
        read_wav(bad)


def test_nonfinite_float_wav_is_io_error(tmp_path, capsys):
    data = np.zeros(1000, dtype=np.float32)
    data[500] = np.nan
    path = tmp_path / "nan.wav"
    wavfile.write(path, SR, data)
    with pytest.raises(AudioIOError, match="nan.wav"):
        read_wav(path)
    capsys.readouterr()
    assert main([str(path), str(tmp_path / "out.wav"), "--alpha", "2"]) == 1
    assert "I/O error:" in capsys.readouterr().err


def test_write_rejects_bad_depth(tmp_path):
    with pytest.raises(AudioIOError):
        write_wav(make_buf(10), tmp_path / "x.wav", "8")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nalpha = 4\nmode = ni  # trailing\n\nnoise.window_size=1024\n")
    values = parse_config_file(cfg)
    assert values == {"alpha": "4", "mode": "ni", "noise.window_size": "1024"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha 4\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(bad)


def test_apply_config_values():
    config = apply_config_values(
        StretchConfig(), {"alpha": "4", "mode": "ni", "noise.window_size": "1024"}
    )
    assert config.alpha == 4.0
    assert config.mode == "ni"
    assert config.noise.window_size == 1024
    with pytest.raises(ConfigurationError):
        apply_config_values(StretchConfig(), {"bogus.key": "1"})
    with pytest.raises(ConfigurationError):
        apply_config_values(StretchConfig(), {"alpha": "fast"})
    # a section is rebuilt once from all of its keys, in either order
    for values in ({"stn.stage1.beta_l": "0.85", "stn.stage1.beta_u": "0.95"},
                   {"stn.stage1.beta_u": "0.95", "stn.stage1.beta_l": "0.85"}):
        stage1 = apply_config_values(StretchConfig(), values).stn.stage1
        assert (stage1.beta_u, stage1.beta_l) == (0.95, 0.85)


def test_threshold_override_is_per_config():
    apply_config_values(StretchConfig(), {"stn.stage1.beta_u": "0.95"})
    fresh = StretchConfig().stn.stage1
    assert (fresh.beta_u, fresh.beta_l) == (0.80, 0.70)


def test_scale_for_rate():
    config = scale_for_rate(StretchConfig(), 22050)
    assert config.noise.window_size == 1024
    assert config.stn.long_window == 4096
    # values applied after scaling keep their value
    kept = apply_config_values(scale_for_rate(StretchConfig(), 22050),
                               {"noise.window_size": "2048"})
    assert kept.noise.window_size == 2048
    assert kept.noise.hop_size == 512
    same = scale_for_rate(StretchConfig(), 44100)
    assert same.noise.window_size == 2048


def sections_and_leaves(config, prefix=""):
    """(sections, {dotted key: default}) found by walking dataclasses.fields."""
    sections, leaves = [config], {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            more, more_leaves = sections_and_leaves(value, f"{prefix}{f.name}.")
            sections += more
            leaves.update(more_leaves)
        else:
            leaves[prefix + f.name] = value
    return sections, leaves


def test_settable_keys_and_frozen_sections():
    default = StretchConfig()
    sections, leaves = sections_and_leaves(default)
    assert len(leaves) == 26
    text = {key: str(value) for key, value in leaves.items()}
    assert apply_config_values(default, text) == default
    assert len(sections) == 7  # config, stn, stage1, stage2, noise, pv, transient
    for section in sections:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(section, dataclasses.fields(section)[0].name, 1)


def write_input(tmp_path, kind="click_plus_hiss", duration=0.6, sample_rate=SR):
    path = tmp_path / "in.wav"
    write_wav(gen_signal(kind, duration, sample_rate, seed=3), path, "float32")
    return path


def test_cli_basic_run(tmp_path, capsys):
    inp = write_input(tmp_path)
    out = tmp_path / "out.wav"
    code = main([str(inp), str(out), "--alpha", "2", "--mode", "nd"])
    assert code == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("RESULT:")]
    assert len(line) == 1
    assert "alpha=2" in line[0] and "mode=nd" in line[0]
    y = read_wav(out)
    assert len(y) == 2 * len(read_wav(inp))


def test_cli_reruns_byte_identical(tmp_path):
    inp = write_input(tmp_path)
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    assert main([str(inp), str(a), "--alpha", "2", "--seed", "5"]) == 0
    assert main([str(inp), str(b), "--alpha", "2", "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    inp = write_input(tmp_path)
    out = tmp_path / "out.wav"
    assert main([str(inp), str(out)]) == 2  # missing alpha
    assert main([str(inp), str(out), "--alpha", "-1"]) == 2
    assert main([str(tmp_path / "missing.wav"), str(out), "--alpha", "2"]) == 1
    cfg = tmp_path / "c.cfg"
    for line in [
        "stn.stage1.beta_l = 0.99",  # above beta_u
        "pv.synthesis_hop = 3000",  # above half the window
        "noise.seed = 1",  # the seed is the top-level key only
        "pv.alpha = 2",  # alpha is the top-level key only
        "stn.stage1 = 3",  # names a section
        "noise.stft_params = 1",  # names a method
        "stn.time_median_span_s = inf",
        "stn.freq_median_span_hz = nan",
        "transient.hop_s = nan",
        "seed = -1",
        "stn.short_window = 64",  # below stn.short_hop
    ]:
        cfg.write_text(line + "\n")
        capsys.readouterr()
        assert main([str(inp), str(out), "--alpha", "2", "--config", str(cfg)]) == 2, line
        err = capsys.readouterr().err
        assert "configuration error:" in err, line
        # the message names the field it rejects
        assert line.split("=")[0].strip().split(".")[-1] in err, err


@pytest.mark.parametrize("mode", ["nm", "an"])
def test_cli_unbounded_output_exits_2(tmp_path, capsys, mode):
    inp = write_input(tmp_path)
    code = main([str(inp), str(tmp_path / "out.wav"), "--alpha", "1e12", "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "exceeds the limit" in err


def test_cli_validates_scaled_config(tmp_path):
    out = tmp_path / "out.wav"
    cfg = tmp_path / "c.cfg"
    # the scaled synthesis hop (2230) exceeds half the literal 4096 window
    cfg.write_text("pv.window_size = 4096\n")
    inp = write_input(tmp_path, "sine", 0.2, 96000)
    assert main([str(inp), str(out), "--alpha", "2", "--mode", "an",
                 "--config", str(cfg)]) == 2
    # the unscaled hop (1024) would exceed half of 512, the scaled one (186) does not
    cfg.write_text("pv.window_size = 512\n")
    inp = write_input(tmp_path, "sine", 0.2, 8000)
    assert main([str(inp), str(out), "--alpha", "2", "--mode", "an",
                 "--config", str(cfg)]) == 0
    assert len(read_wav(out)) == 2 * len(read_wav(inp))


@pytest.mark.parametrize("lines", [
    "stn.stage1.beta_l = 0.85\nstn.stage1.beta_u = 0.95\n",
    "stn.stage1.beta_u = 0.95\nstn.stage1.beta_l = 0.85\n",
])
def test_cli_threshold_keys_in_any_order(tmp_path, lines):
    inp = write_input(tmp_path, duration=0.3)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines)
    assert main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2",
                 "--config", str(cfg)]) == 0


def test_cli_config_file_and_override(tmp_path, capsys):
    inp = write_input(tmp_path)
    out = tmp_path / "out.wav"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha = 3\nmode = an\n")
    assert main([str(inp), str(out), "--config", str(cfg)]) == 0
    assert "alpha=3" in capsys.readouterr().out
    assert main([str(inp), str(out), "--config", str(cfg), "--alpha", "2"]) == 0
    assert "alpha=2" in capsys.readouterr().out


def test_cli_stems_and_onsets(tmp_path):
    inp = write_input(tmp_path, "click_train", 1.0)
    out = tmp_path / "out.wav"
    stems = tmp_path / "stems"
    onsets = tmp_path / "onsets.csv"
    code = main([str(inp), str(out), "--alpha", "2", "--mode", "nm",
                 "--stems", str(stems), "--onsets", str(onsets)])
    assert code == 0
    names = {p.name for p in stems.iterdir()}
    assert names == {
        "sines.wav", "transients.wav", "noise.wav",
        "sines_stretched.wav", "transients_stretched.wav", "noise_stretched.wav",
    }
    n_in = len(read_wav(inp))
    assert len(read_wav(stems / "noise.wav")) == n_in
    assert len(read_wav(stems / "noise_stretched.wav")) == 2 * n_in
    with open(onsets) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["input_sample", "output_sample"]
    assert len(rows) > 1
    for inp_s, out_s in rows[1:]:
        assert int(out_s) == round(2 * int(inp_s))


def test_cli_detects_events_once(tmp_path, monkeypatch):
    calls = []

    def counted(original):
        def detect(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return detect

    for module in (pipeline, cli):
        monkeypatch.setattr(module, "detect_events", counted(module.detect_events))
    inp = write_input(tmp_path, "click_train", 1.0)
    assert main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2", "--mode", "nm",
                 "--onsets", str(tmp_path / "onsets.csv")]) == 0
    assert len(calls) == 1


def test_cli_bit_depth_option(tmp_path):
    inp = write_input(tmp_path)
    out = tmp_path / "out.wav"
    assert main([str(inp), str(out), "--alpha", "1.5", "--mode", "an",
                 "--bit-depth", "24"]) == 0
    assert read_wav(out).sample_rate == SR
