"""WAV reading and writing.

Reads RIFF/WAVE PCM 16/24-bit and 32-bit float, mono or stereo (stereo is
downmixed to mono by averaging). Writes mono 16-bit, 24-bit, or float32.
Samples are normalized to nominal +-1.0 in memory.
"""

from __future__ import annotations

import logging
import struct
import wave

import numpy as np

from .core import AudioBuffer
from .errors import AudioIOError

log = logging.getLogger(__name__)

BIT_DEPTHS = ("16", "24", "float32")


def read_wav(path) -> AudioBuffer:
    """Load a WAV file as a normalized mono buffer at its native rate."""
    from scipy.io import wavfile  # imported on use: `import stretchkit` loads no scipy

    try:
        sample_rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise AudioIOError(f"file not found: {path}")
    except Exception as exc:
        raise AudioIOError(f"cannot read {path}: {exc}")
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise AudioIOError(
                f"{path}: {data.shape[1]} channels; only mono and stereo are supported"
            )
        log.warning("%s: stereo input downmixed to mono", path)
        data = 0.5 * (data[:, 0].astype(np.float64) + data[:, 1].astype(np.float64))
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:  # scipy delivers 24-bit PCM as int32
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise AudioIOError(f"{path}: samples must be finite")
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioIOError(f"{path}: unsupported sample format {data.dtype}")
    return AudioBuffer(samples, int(sample_rate))


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
    from scipy.io import wavfile

    try:
        if bit_depth == "float32":
            wavfile.write(path, buffer.sample_rate, x.astype(np.float32))
        elif bit_depth == "16":
            wavfile.write(path, buffer.sample_rate, np.round(x * 32767.0).astype(np.int16))
        else:
            _write_pcm24(path, buffer.sample_rate, x)
    except AudioIOError:
        raise
    except Exception as exc:
        raise AudioIOError(f"cannot write {path}: {exc}")


def _write_pcm24(path, sample_rate: int, x: np.ndarray) -> None:
    ints = np.round(x * 8388607.0).astype(np.int32)
    # the low three bytes of each little-endian int32
    frames = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(3)
        f.setframerate(sample_rate)
        f.writeframes(frames)
