"""Audio time stretching with sines/transients/noise separation and
noise morphing resynthesis."""

from .core import AudioBuffer, Spectrogram, StftParams, istft, median_filter_axis, stft, window_energy
from .errors import AudioIOError, ConfigurationError
from .noisemorph import NoiseMorphParams, generate_excitation, stretch_noise
from .pipeline import StretchConfig, stretch_components, time_stretch
from .stn import StnConfig, StnThresholds, stn_decompose, stn_decompose_with_masks
from .transients import TransientDetectParams, detect_events, reposition_events
from .vocoder import PvParams, stretch_plain, stretch_sines
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "AudioIOError",
    "ConfigurationError",
    "NoiseMorphParams",
    "PvParams",
    "Spectrogram",
    "StftParams",
    "StnConfig",
    "StnThresholds",
    "StretchConfig",
    "TransientDetectParams",
    "detect_events",
    "generate_excitation",
    "istft",
    "median_filter_axis",
    "read_wav",
    "reposition_events",
    "stft",
    "stn_decompose",
    "stn_decompose_with_masks",
    "stretch_components",
    "stretch_noise",
    "stretch_plain",
    "stretch_sines",
    "time_stretch",
    "window_energy",
    "write_wav",
]
