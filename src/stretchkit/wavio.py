"""WAV reading and writing in numpy, with no scipy.

Reads RIFF/WAVE PCM 8/16/24/32-bit and 32/64-bit float, plain or
WAVE_FORMAT_EXTENSIBLE, mono or stereo (stereo is downmixed to mono by
averaging the normalized channels). Chunks before the data chunk (LIST, fact
and the like) are skipped, odd-sized ones with their pad byte. Writes mono
16-bit, 24-bit or float32: one fmt chunk, a fact chunk for float, then the
data. Samples are normalized to nominal +-1.0 in memory.
"""

from __future__ import annotations

import logging
import os
import struct

import numpy as np

from .core import AudioBuffer
from .errors import AudioIOError

log = logging.getLogger(__name__)

BIT_DEPTHS = ("16", "24", "float32")

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# (format, bits) -> (stored dtype, divisor to nominal +-1; None for float)
_SAMPLE_FORMATS = {
    (_PCM, 8): (np.uint8, 128.0),
    (_PCM, 16): (np.dtype("<i2"), 32768.0),
    (_PCM, 24): (np.dtype("<i4"), 2147483648.0),  # widened to the top 3 bytes of an int32
    (_PCM, 32): (np.dtype("<i4"), 2147483648.0),
    (_FLOAT, 32): (np.dtype("<f4"), None),
    (_FLOAT, 64): (np.dtype("<f8"), None),
}
_RIFF_MAX = 0xFFFFFFFF  # largest size a RIFF size field holds


def read_wav(path) -> AudioBuffer:
    """Load a WAV file as a normalized mono buffer at its native rate."""
    try:
        with open(path, "rb") as f:
            rate, tag, bits, channels, raw = _read_riff(f, path)
    except FileNotFoundError:
        raise AudioIOError(f"file not found: {path}")
    except OSError as exc:
        raise AudioIOError(f"cannot read {path}: {exc}")
    dtype, scale = _SAMPLE_FORMATS[tag, bits]
    if bits == 24:
        wide = np.zeros((raw.size // 3, 4), dtype=np.uint8)
        wide[:, 1:] = raw.reshape(-1, 3)
        data = wide.view(dtype)[:, 0]
    else:
        data = raw.view(dtype)
    if scale is None:
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise AudioIOError(f"{path}: samples must be finite")
    elif dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / scale
    else:
        samples = data / scale
    if channels == 2:
        log.warning("%s: stereo input downmixed to mono", path)
        samples = 0.5 * (samples[0::2] + samples[1::2])
    return AudioBuffer(samples, rate)


def _read_riff(f, path):
    """(rate, format, bits, channels, data bytes as uint8) of an open WAV
    file. Chunk sizes are checked against the file size before anything of
    that size is read."""
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise AudioIOError(f"{path}: not a RIFF/WAVE file")
    file_size = os.fstat(f.fileno()).st_size
    fmt = None
    while True:
        chunk = f.read(8)
        if len(chunk) < 8:
            raise AudioIOError(f"{path}: no data chunk")
        name, size = struct.unpack("<4sI", chunk)
        if name == b"data":
            break
        if size > file_size - f.tell():
            raise AudioIOError(f"{path}: truncated {name.decode('latin-1')} chunk")
        body = f.read(size + size % 2)[:size]
        if name == b"fmt ":
            fmt = _parse_fmt(body, path)
    if fmt is None:
        raise AudioIOError(f"{path}: data chunk before the fmt chunk")
    rate, tag, bits, channels = fmt
    frame = channels * bits // 8
    if size % frame:
        raise AudioIOError(f"{path}: data chunk of {size} bytes is not whole {frame}-byte frames")
    available = file_size - f.tell()
    if size > available:
        raise AudioIOError(f"{path}: truncated data chunk ({available} of {size} bytes)")
    return rate, tag, bits, channels, np.fromfile(f, dtype=np.uint8, count=size)


def _parse_fmt(body: bytes, path):
    """(rate, format, bits, channels) of a fmt chunk, checked."""
    if len(body) < 16:
        raise AudioIOError(f"{path}: fmt chunk of {len(body)} bytes is too short")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if tag == _EXTENSIBLE and len(body) >= 26:
        tag = struct.unpack("<H", body[24:26])[0]  # the sub-format GUID's first field
    if (tag, bits) not in _SAMPLE_FORMATS:
        raise AudioIOError(f"{path}: unsupported sample format (format {tag}, {bits} bits)")
    if channels not in (1, 2):
        raise AudioIOError(f"{path}: {channels} channels; only mono and stereo are supported")
    if block_align != channels * bits // 8:
        raise AudioIOError(f"{path}: block align {block_align} does not match "
                           f"{channels} channels of {bits} bits")
    if rate == 0:
        raise AudioIOError(f"{path}: sample rate 0")
    return rate, tag, bits, channels


def write_wav(buffer: AudioBuffer, path, bit_depth: str = "float32") -> None:
    """Write a mono buffer; values outside +-1 are clipped (and counted)."""
    bit_depth = str(bit_depth)
    if bit_depth not in BIT_DEPTHS:
        raise AudioIOError(f"unsupported bit depth {bit_depth!r}; use one of {BIT_DEPTHS}")
    x = buffer.samples
    clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    if clipped:
        log.warning("%s: clipped %d samples to +-1.0", path, clipped)
        x = np.clip(x, -1.0, 1.0)
    if bit_depth == "float32":
        tag, width, data = _FLOAT, 4, x.astype("<f4")
    elif bit_depth == "16":
        tag, width, data = _PCM, 2, np.round(x * 32767.0).astype("<i2")
    else:  # the low three bytes of each little-endian int32, one byte column at a time
        tag, width = _PCM, 3
        raw = np.round(x * 8388607.0).astype("<i4").view(np.uint8)
        data = np.empty((len(x), 3), np.uint8)
        for k in range(3):
            data[:, k] = raw[k::4]
    header = _header(tag, buffer.sample_rate, width, len(data), path)
    try:
        with open(path, "wb") as f:
            f.write(header)
            data.tofile(f)
    except OSError as exc:
        raise AudioIOError(f"cannot write {path}: {exc}")


def _header(tag: int, rate: int, width: int, n_samples: int, path) -> bytes:
    """RIFF header of a mono file of n_samples samples, width bytes each: a
    16-byte fmt chunk for PCM; for float an 18-byte one (cbSize 0) and a fact
    chunk. The data chunk follows it, with no pad byte after an odd size."""
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    fact = b""
    if tag == _FLOAT:
        fmt += b"\0\0"
        fact = struct.pack("<4sII", b"fact", 4, n_samples)
    n_bytes = n_samples * width
    body = b"WAVE" + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact
    size = len(body) + 8 + n_bytes
    if size > _RIFF_MAX or rate * width > _RIFF_MAX:
        raise AudioIOError(f"cannot write {path}: {n_samples} samples at {rate} Hz "
                           f"exceed what a RIFF file can hold")
    return b"RIFF" + struct.pack("<I", size) + body + struct.pack("<4sI", b"data", n_bytes)
