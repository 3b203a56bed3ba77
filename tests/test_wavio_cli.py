import csv
import dataclasses
import os
import struct
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from stretchkit import cli, pipeline
from stretchkit.cli import apply_config_values, main, parse_config_file
from stretchkit.core import AudioBuffer
from stretchkit.errors import AudioIOError, ConfigurationError
from stretchkit.pipeline import StretchConfig, stretch
from stretchkit.signals import gen_signal
from stretchkit.transients import onsets_csv_rows
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


def fmt_chunk(tag, channels, bits, extensible=False):
    align = channels * bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, SR, SR * align,
                       align, bits)
    if not extensible:
        return head
    # cbSize, valid bits, channel mask, then the sub-format GUID with tag as Data1
    guid = struct.pack("<IHH", tag, 0, 0x10) + bytes.fromhex("800000aa00389b71")
    return head + struct.pack("<HHI", 22, bits, 0) + guid


def riff(fmt, data, before=(), data_size=None):
    """A RIFF/WAVE file: fmt chunk, the (id, body) chunks in before, each
    padded to an even size, then a data chunk declaring data_size bytes."""
    body = b"WAVE"
    for cid, payload in ((b"fmt ", fmt), *before):
        body += struct.pack("<4sI", cid, len(payload)) + payload + b"\0" * (len(payload) % 2)
    size = len(data) if data_size is None else data_size
    body += struct.pack("<4sI", b"data", size) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def scipy_normalized(path):
    """scipy's reading of path, scaled to nominal +-1 and averaged to mono."""
    rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        x = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "i":
        x = data / float(2 ** (8 * data.dtype.itemsize - 1))
    else:
        x = data.astype(np.float64)
    return rate, (0.5 * (x[:, 0] + x[:, 1]) if x.ndim == 2 else x)


_RNG = np.random.default_rng(11)
_INTS = _RNG.integers(0, 256, 3 * 1001, dtype=np.uint8).tobytes()  # any bytes are PCM
_FLOATS32 = _RNG.uniform(-1, 1, 1001).astype("<f4").tobytes()
READER_CASES = {
    "pcm8": (fmt_chunk(1, 1, 8), _INTS[:1001], ()),
    "pcm16_stereo": (fmt_chunk(1, 2, 16), _INTS[:3000], ()),
    "pcm24_extensible": (fmt_chunk(1, 1, 24, True), _INTS[:3000], ()),
    "pcm24_odd_count": (fmt_chunk(1, 1, 24), _INTS[:3003], ()),
    "pcm32": (fmt_chunk(1, 1, 32), _INTS[:3000], ()),
    "float32_extensible": (fmt_chunk(3, 1, 32, True), _FLOATS32, ()),
    "float64": (fmt_chunk(3, 1, 64), _RNG.uniform(-1, 1, 500).astype("<f8").tobytes(), ()),
    "list_before_data": (fmt_chunk(1, 1, 16), _INTS[:2000],
                         ((b"LIST", b"INFOISFT\x0e\x00\x00\x00stretchkit 1\x00\x00"),)),
    "odd_chunk_before_data": (fmt_chunk(3, 1, 32), _FLOATS32, ((b"LIST", b"INFO!"),)),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_scipy(tmp_path, case):
    fmt, data, before = READER_CASES[case]
    path = tmp_path / "x.wav"
    path.write_bytes(riff(fmt, data, before))
    rate, expected = scipy_normalized(path)
    got = read_wav(path)
    assert got.sample_rate == rate == SR
    assert got.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", ["data", "LIST"])
def test_truncated_chunk_is_io_error(tmp_path, capsys, chunk):
    path = tmp_path / "short.wav"
    if chunk == "data":
        path.write_bytes(riff(fmt_chunk(1, 1, 16), _INTS[:400], data_size=1000))
    else:  # a size near 4 GiB is refused before anything of that size is read
        data = riff(fmt_chunk(1, 1, 16), b"", ((b"LIST", b"INFO"),))
        path.write_bytes(data.replace(struct.pack("<4sI", b"LIST", 4),
                                      struct.pack("<4sI", b"LIST", 0xFFFFFFF0)))
    with pytest.raises(AudioIOError, match=f"truncated {chunk} chunk"):
        read_wav(path)
    assert main([str(path), str(tmp_path / "out.wav"), "--alpha", "2"]) == 1
    assert "I/O error:" in capsys.readouterr().err


@pytest.mark.parametrize("depth,stored", [("16", np.int16), ("float32", np.float32)])
def test_write_bytes_match_scipy(tmp_path, depth, stored):
    x = np.concatenate([make_buf(999).samples, [-1.0, 1.0, 0.0]])
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(AudioBuffer(x, SR), ours, depth)
    wavfile.write(theirs, SR, np.round(x * 32767.0).astype(stored) if depth == "16"
                  else x.astype(stored))
    assert ours.read_bytes() == theirs.read_bytes()


def test_cli_run_imports_no_scipy(tmp_path):
    write_input(tmp_path, duration=0.3, sample_rate=48000)
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    code = (
        "import sys; from stretchkit.cli import main; d = sys.argv[1] + '/'; "
        "codes = [main([d + 'in.wav', d + 'nm.wav', '--alpha', '2', '--bit-depth', '24', "
        "'--stems', d + 'stems', '--onsets', d + 'on.csv'])] + "
        "[main([d + 'in.wav', d + depth + '.wav', '--alpha', '2', '--bit-depth', depth]) "
        "for depth in ('float32', '16')]; "
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] []", result.stderr
    assert len(list((tmp_path / "stems").glob("*.wav"))) == 6


def test_without_scipy_stretch_runs_and_harness_exits_1(tmp_path):
    write_input(tmp_path, duration=0.3)
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.modules['scipy'] = None; d = sys.argv[1] + '/'; "
        "from stretchkit import cli, harness_cli; "
        "print(cli.main([d + 'in.wav', d + 'out.wav', '--alpha', '2']), "
        "harness_cli.main(['run-acceptance']))"
    )
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.stdout.splitlines()[-1] == "0 1", result.stderr
    assert "pip install 'stretchkit[harness]'" in result.stderr
    assert read_wav(tmp_path / "out.wav").samples.size > 0


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
    config = StretchConfig().for_rate(22050)
    assert config.noise.window_size == 1024
    assert config.stn.long_window == 4096
    # values applied after scaling keep their value
    kept = apply_config_values(StretchConfig().for_rate(22050), {"noise.window_size": "2048"})
    assert kept.noise.window_size == 2048
    assert kept.noise.hop_size == 512
    default = StretchConfig()
    assert default.for_rate(44100) is default


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
    # written unclipped: click_plus_hiss peaks above 1.0, where write_wav would clip
    path = tmp_path / "in.wav"
    x = gen_signal(kind, duration, sample_rate, seed=3)
    wavfile.write(path, sample_rate, x.samples.astype(np.float32))
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


def test_cli_result_time_excludes_stem_writes(tmp_path, capsys, monkeypatch):
    real_write = cli.write_wav

    def slow_stem_write(buf, path, bit_depth):
        if path.parent.name == "stems":
            time.sleep(0.1)  # six stems: 0.6 s
        real_write(buf, path, bit_depth)

    monkeypatch.setattr(cli, "write_wav", slow_stem_write)
    inp = write_input(tmp_path, duration=0.3)
    stems = tmp_path / "stems"
    assert main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2", "--stems", str(stems)]) == 0
    assert len(list(stems.glob("*.wav"))) == 6
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("RESULT:")]
    assert float(line[0].split("time=")[1].rstrip("s")) < 0.5


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
        "noise.floor_db = 4000",  # the morph's 10 ** (dB / 10) overflows
        "stn.long_window = 2000000000",  # above MAX_WINDOW
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


def test_cli_rejects_rate_with_huge_windows(tmp_path, capsys):
    """A 100-sample float WAV whose header states 4294967295 Hz: for_rate
    would scale the STN window past MAX_WINDOW, so the CLI exits 2 before
    any stage allocates it."""
    path = tmp_path / "huge_rate.wav"
    fmt = struct.pack("<HHIIHH", 3, 1, 2**32 - 1, 0, 4, 32)
    path.write_bytes(riff(fmt, np.zeros(100, dtype="<f4").tobytes()))
    started = time.perf_counter()
    assert main([str(path), str(tmp_path / "out.wav"), "--alpha", "2"]) == 2
    assert time.perf_counter() - started < 10.0
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sample rate 4294967295 Hz:"), err


def test_cli_validates_scaled_config(tmp_path):
    out = tmp_path / "out.wav"
    cfg = tmp_path / "c.cfg"
    # the scaled synthesis hop (2250) exceeds half the literal 4096 window
    cfg.write_text("pv.window_size = 4096\n")
    inp = write_input(tmp_path, "sine", 0.2, 96000)
    assert main([str(inp), str(out), "--alpha", "2", "--mode", "an",
                 "--config", str(cfg)]) == 2
    # the unscaled hop (1024) would exceed half of 512, the scaled one (188) does not
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


def test_cli_writes_what_stretch_returns(tmp_path):
    """At 48 kHz the CLI's output, stems and onsets are those of one library
    stretch call on the rate-scaled config."""
    inp = write_input(tmp_path, duration=0.5, sample_rate=48000)
    out, stems, onsets = tmp_path / "out.wav", tmp_path / "stems", tmp_path / "onsets.csv"
    assert main([str(inp), str(out), "--alpha", "2", "--mode", "nm",
                 "--stems", str(stems), "--onsets", str(onsets)]) == 0
    y, branches = stretch(read_wav(inp), StretchConfig(alpha=2).for_rate(48000))

    def assert_written(path, buf):
        rate, data = wavfile.read(path)
        assert rate == 48000
        np.testing.assert_array_equal(data, buf.samples.astype(np.float32))

    assert_written(out, y)
    for name in ("sines", "transients", "noise"):
        assert_written(stems / f"{name}.wav", getattr(branches.components, name))
        assert_written(stems / f"{name}_stretched.wav", getattr(branches, name))
    with open(onsets) as f:
        rows = list(csv.reader(f))
    expected = [[str(v) for v in row] for row in onsets_csv_rows(branches.events, 2)]
    assert rows == [["input_sample", "output_sample"], *expected]
    assert len(expected) > 0


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
