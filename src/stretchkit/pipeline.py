"""Top-level time-stretching pipeline and its method variants.

Modes:
  nm - decompose, stretch each component with its own method, recombine
       (noise morphing with magnitude multiplication).
  ni - as nm, but the morphing replaces magnitudes instead of multiplying.
  nd - noise morphing applied to the whole mixture, no decomposition or
       transient handling.
  an - plain phase vocoder on the whole mixture (quality anchor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AudioBuffer, check_alpha, check_amplitude, check_seed, output_length
from .errors import ConfigurationError
from .noisemorph import (
    VARIANT_MULTIPLY,
    VARIANT_REPLACE,
    NoiseMorphParams,
    stretch_noise,
)
from .stn import StnComponents, StnConfig, stn_decompose
from .transients import TransientDetectParams, TransientEvent, detect_events, reposition_events
from .vocoder import PvParams, stretch_plain, stretch_sines

MODES = ("nm", "ni", "nd", "an")


@dataclass(frozen=True)
class StretchConfig:
    alpha: float = 1.0
    mode: str = "nm"
    seed: int = 0
    stn: StnConfig = field(default_factory=StnConfig)
    noise: NoiseMorphParams = field(default_factory=NoiseMorphParams)
    pv: PvParams = field(default_factory=PvParams)
    transient: TransientDetectParams = field(default_factory=TransientDetectParams)

    def __post_init__(self):
        object.__setattr__(self, "mode", self.mode.lower())
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_alpha(self.alpha)
        check_seed(self.seed)


@dataclass
class BranchOutputs:
    """Per-branch stretched signals, each output_length() samples long, and
    the transient events detected on the input's transient component."""

    sines: AudioBuffer
    transients: AudioBuffer
    noise: AudioBuffer
    events: list[TransientEvent]


def stretch_components(
    components: StnComponents, config: StretchConfig
) -> tuple[AudioBuffer, BranchOutputs]:
    """Stretch already-decomposed components and sum them (nm/ni modes)."""
    alpha = config.alpha
    rate = components.sines.sample_rate
    variant = VARIANT_REPLACE if config.mode == "ni" else VARIANT_MULTIPLY

    sines = stretch_sines(components.sines, alpha, config.pv)
    events = detect_events(components.transients, config.transient)
    transients = reposition_events(
        events, alpha, output_length(len(components.transients), alpha), rate
    )
    noise = stretch_noise(components.noise, alpha, config.noise, variant, seed=config.seed)
    out = AudioBuffer(sines.samples + transients.samples + noise.samples, rate)
    return out, BranchOutputs(sines, transients, noise, events)


def time_stretch(x: AudioBuffer, config: StretchConfig) -> AudioBuffer:
    """Stretch a mono signal by config.alpha with the configured mode.

    The output length is round(alpha * len(x)) exactly, and the result is a
    deterministic function of (x, config). An input louder than
    MAX_AMPLITUDE, or an output longer than MAX_OUTPUT_SAMPLES, raises
    ConfigurationError before any stage runs."""
    if len(x) == 0:
        raise ConfigurationError("cannot stretch an empty signal")
    check_amplitude(x)
    output_length(len(x), config.alpha)
    if config.mode in ("nm", "ni"):
        out, _ = stretch_components(stn_decompose(x, config.stn), config)
        return out
    if config.mode == "nd":
        return stretch_noise(x, config.alpha, config.noise, VARIANT_MULTIPLY, seed=config.seed)
    return stretch_plain(x, config.alpha, config.pv)
