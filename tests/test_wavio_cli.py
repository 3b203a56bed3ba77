import csv
import dataclasses
import json
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


@pytest.mark.parametrize("x", [
    np.random.default_rng(4).uniform(-1, 1, 1000),
    np.array([-1.0, 1.0, 1.0, -1.0]),
    np.array([2.0, -3.0, 0.5, 1.0 + 1e-12, -1e300]),  # clipped first
    np.random.default_rng(5).uniform(-1, 1, 999),
    np.zeros(0),
], ids=["random", "full_scale", "clipped", "odd_length", "empty"])
def test_pcm24_bytes_match_strided_int32_packing(tmp_path, x):
    """The 24-bit data chunk is the low three bytes of each little-endian
    int32, as a contiguous copy of the strided (n, 4) byte view gave them."""
    path = tmp_path / "x.wav"
    write_wav(AudioBuffer(x, SR), path, "24")
    ints = np.round(np.clip(x, -1.0, 1.0) * 8388607.0).astype("<i4")
    expected = np.ascontiguousarray(ints.view(np.uint8).reshape(-1, 4)[:, :3]).tobytes()
    data = path.read_bytes()[44:]  # after the RIFF, fmt and data chunk headers
    assert data == expected


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


# Run in a child process whose address space is capped at 2 GiB: reads every
# seeded mutation of the three formats write_wav writes and prints, as JSON,
# how many reads ended each way ("finite", an error class's name, or "other")
# and the first "other" errors.
MUTATION_CHILD = r"""
import json, resource, struct, sys
from collections import Counter
from pathlib import Path
import numpy as np
from stretchkit.core import AudioBuffer
from stretchkit.errors import AudioIOError, ConfigurationError
from stretchkit.wavio import read_wav, write_wav

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
directory, per_format = sys.argv[1], int(sys.argv[2])
rng = np.random.default_rng(22)
outcomes, others = Counter(), []
for depth in ("16", "24", "float32"):
    path = f"{directory}/{depth}.wav"
    write_wav(AudioBuffer(0.5 * rng.uniform(-1, 1, 101), 8000), path, depth)
    original = Path(path).read_bytes()
    # offsets of the 32-bit fields that size or count something: the RIFF
    # size, each chunk's size, the rate and byte rate, float's sample count
    fields, at = [4, 24, 28], 12
    while at + 8 <= len(original):
        name, size = struct.unpack_from("<4sI", original, at)
        fields.append(at + 4)
        if name == b"fact":
            fields.append(at + 8)
        at += 8 + size + size % 2
    for _ in range(per_format):
        data = bytearray(original)
        kind = rng.integers(3)
        if kind == 0:  # flip one to four bytes
            for i in rng.integers(0, len(data), rng.integers(1, 5)):
                data[i] ^= int(rng.integers(1, 256))
        elif kind == 1:  # a size field at an extreme
            value = (0, 1, 2**31 - 2, 2**32 - 1)[rng.integers(4)]
            struct.pack_into("<I", data, fields[rng.integers(len(fields))], value)
        else:  # truncated
            data = data[: rng.integers(0, len(data))]
        mutated = f"{directory}/mutated.wav"
        Path(mutated).write_bytes(bytes(data))
        try:
            samples = read_wav(mutated).samples
            outcome = "finite" if np.all(np.isfinite(samples)) else "not finite"
        except (AudioIOError, ConfigurationError) as exc:
            outcome = type(exc).__name__
        except Exception as exc:
            outcome = "other"
            others.append(f"{depth} {kind}: {exc!r}")
        outcomes[outcome] += 1
print(json.dumps({"outcomes": outcomes, "others": others[:5]}))
"""


def test_seeded_wav_mutations_read_or_raise_contract_errors(tmp_path):
    """Byte flips, size fields set to 0, 1, 2^31 - 2 or 2^32 - 1, and
    truncations of 16-bit, 24-bit and float32 files: each read returns
    finite samples or raises AudioIOError or ConfigurationError, under a
    2 GiB address-space limit, so nothing allocates what a size field
    claims before checking it."""
    pytest.importorskip("resource")
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", MUTATION_CHILD, str(tmp_path), "200"],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                            timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    counts = report["outcomes"]
    assert sum(counts.values()) == 600, report
    assert set(counts) <= {"finite", "AudioIOError", "ConfigurationError"}, report
    assert counts["finite"] > 0 and counts["AudioIOError"] > 0, report


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
    cfg.write_bytes("alpha = 2\n# d\u00e9j\u00e0 vu\n".encode("latin-1"))  # not UTF-8
    capsys.readouterr()
    assert main([str(inp), str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(cfg) in err, err
    # --stems at an existing file, --onsets in a missing directory
    for flag, path in (("--stems", inp), ("--onsets", tmp_path / "missing" / "onsets.csv")):
        capsys.readouterr()
        assert main([str(inp), str(out), "--alpha", "2", flag, str(path)]) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and str(path) in err, err


@pytest.mark.parametrize("mode", ["nm", "an"])
def test_cli_unbounded_output_exits_2(tmp_path, capsys, mode):
    inp = write_input(tmp_path)
    code = main([str(inp), str(tmp_path / "out.wav"), "--alpha", "1e12", "--mode", mode])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "exceeds the limit" in err


# Runs cli.main on argv[1:] under a 3 GiB address-space limit and exits with its code.
LIMITED_CLI_CHILD = r"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from stretchkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("config,flags", [
    ("stn.long_window = 1048576\nstn.long_hop = 1\n", ["--alpha", "2"]),  # an 8.18 TiB STFT
    ("", ["--alpha", "40000"]),  # 9.6e8 output samples, 7.15 GiB per output array
], ids=["long_window_hop_1", "alpha_40000"])
def test_cli_reports_memory_error_in_one_line(tmp_path, config, flags):
    """A valid call that asks for more memory than the process may have
    exits 1 with one stderr line, not a traceback. The 1048576-sample
    window also warns that the input is shorter than it; that warning is
    ignored, as the line under test is the error's."""
    pytest.importorskip("resource")
    inp = write_input(tmp_path, duration=0.5, sample_rate=48000)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "ignore::UserWarning", "-c", LIMITED_CLI_CHILD, str(inp),
         str(tmp_path / "out.wav"), "--config", str(cfg), *flags],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 1, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("out of memory: Unable to allocate"), result.stderr


def test_cli_interrupt_exits_130_in_one_line(tmp_path, capsys, monkeypatch):
    """Ctrl-C during the stretch ends in one stderr line and exit 130, not a
    traceback, and writes no output."""

    def interrupted(x, config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "stretch", interrupted)
    inp = write_input(tmp_path, duration=0.1)
    out = tmp_path / "out.wav"
    capsys.readouterr()
    assert main([str(inp), str(out), "--alpha", "2"]) == 130
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["interrupted"], captured.err
    assert "RESULT:" not in captured.out
    assert not out.exists()


# Runs cli.main on argv[1:], with a SIGINT sent to itself when the noise morph
# draws its first excitation block, and exits with its code.
SIGINT_CLI_CHILD = r"""
import os, signal, sys
from stretchkit import noisemorph
from stretchkit.cli import main
draw = noisemorph.generate_excitation
def interrupted(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGINT)
    return draw(*args, **kwargs)
noisemorph.generate_excitation = interrupted
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="no SIGINT to itself")
def test_cli_sigint_mid_call_exits_130_in_one_line(tmp_path):
    """A real SIGINT inside the noise morph's dealer: one stderr line, exit
    130 and no output file."""
    inp = write_input(tmp_path, duration=2.0)
    out = tmp_path / "out.wav"
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", SIGINT_CLI_CHILD, str(inp), str(out), "--alpha", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 130, result.stderr
    assert result.stderr.splitlines() == ["interrupted"], result.stderr
    assert not out.exists()


def test_cli_prints_library_warning_in_one_line(tmp_path):
    """An input shorter than stn.long_window makes the STN warn; the CLI
    prints that as one WARNING line on stderr, not Python's two."""
    inp = write_input(tmp_path, duration=0.1)
    assert len(read_wav(inp)) < pipeline.StnConfig().long_window
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "stretchkit.cli", str(inp), str(tmp_path / "out.wav"),
         "--alpha", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(
        "WARNING stretchkit: input shorter than the stage-1 analysis window"), result.stderr


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


def test_cli_transient_frame_longer_than_any_input(tmp_path):
    """transient.frame_s = 1e9 (4.4e13 samples): detection reads one
    envelope value, with no zero-padded copy of the frame's length."""
    inp = write_input(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("transient.frame_s = 1e9\n")
    stems = tmp_path / "stems"
    assert main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2", "--config", str(cfg),
                 "--stems", str(stems)]) == 0
    assert len(list(stems.glob("*.wav"))) == 6


@pytest.mark.parametrize("line", ["transient.frame_s = 1e300", "transient.hop_s = 1e300"])
def test_cli_transient_span_past_the_int64_range(tmp_path, capsys, line):
    """A transient frame or hop of 1e300 s runs like one longer than the
    input: exit 0, with every stem written and nothing on stderr."""
    inp = write_input(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    stems = tmp_path / "stems"
    assert main([str(inp), str(tmp_path / "out.wav"), "--alpha", "2", "--config", str(cfg),
                 "--stems", str(stems)]) == 0
    assert len(list(stems.glob("*.wav"))) == 6
    assert capsys.readouterr().err == ""


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
