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

import dataclasses
import math
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

# the sample-denominated (window, hop) pairs that for_rate rescales, per section
RATE_SCALED_FIELDS = {
    "stn": (("long_window", "long_hop"), ("short_window", "short_hop")),
    "noise": (("window_size", "hop_size"),),
    "pv": (("window_size", "synthesis_hop"),),
}


def _fast_length(n: int) -> int:
    """The even 5-smooth length 2^a * 3^b * 5^c (a >= 1) nearest n >= 1, the
    shorter one on a tie: a length the FFT transforms fast. A power of two
    lies in [n, 2n], so the lengths up to 2n hold the answer."""
    twos, threes, fives = ([p**k for k in range(int(math.log(2 * n, p)) + 2)] for p in (2, 3, 5))
    lengths = [a * b * c for a in twos[1:] for b in threes for c in fives if a * b * c <= 2 * n]
    return min(lengths, key=lambda m: (abs(m - n), m))


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

    def for_rate(self, sample_rate: int) -> StretchConfig:
        """A copy with the sample-denominated sizes rescaled from 44.1 kHz to
        sample_rate, and each scaled section rebuilt so its checks run; self
        at 44.1 kHz. Each window is scaled to the nearest even count of at
        least 2, then rounded to the nearest even 5-smooth length (the shorter
        on a tie), a length the FFT transforms fast. Its hop becomes
        round(new window * hop / window), at least 1, from the section's own
        unscaled hop and window. Settings in seconds are left alone. A rate
        whose scaled sizes fail their section's checks (a window over
        MAX_WINDOW, or a vocoder window under 8) raises ConfigurationError
        naming the rate. stretch never calls this."""
        if sample_rate == 44100:
            return self
        ratio = sample_rate / 44100.0
        scaled = {}
        for section, pairs in RATE_SCALED_FIELDS.items():
            target = getattr(self, section)
            sizes = {}
            for window_name, hop_name in pairs:
                window, hop = getattr(target, window_name), getattr(target, hop_name)
                sizes[window_name] = _fast_length(max(2, int(round(window * ratio / 2)) * 2))
                sizes[hop_name] = max(1, round(sizes[window_name] * hop / window))
            try:
                scaled[section] = dataclasses.replace(target, **sizes)
            except ConfigurationError as exc:
                raise ConfigurationError(f"sample rate {sample_rate} Hz: {section}: {exc}") from None
        return dataclasses.replace(self, **scaled)


@dataclass
class BranchOutputs:
    """The input's STN components, the per-branch stretched signals, each
    output_length() samples long, and the transient events detected on the
    input's transient component."""

    components: StnComponents
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
    return out, BranchOutputs(components, sines, transients, noise, events)


def stretch(x: AudioBuffer, config: StretchConfig) -> tuple[AudioBuffer, BranchOutputs | None]:
    """Stretch a mono signal by config.alpha with the configured mode; the
    branch outputs are returned for nm/ni, None for nd/an.

    The output length is round(alpha * len(x)) exactly, and the result is a
    deterministic function of (x, config). An input louder than MAX_AMPLITUDE,
    or an output longer than MAX_OUTPUT_SAMPLES, raises ConfigurationError
    before any stage runs. Sizes in config are used as given at any rate:
    stretch never calls config.for_rate."""
    if len(x) == 0:
        raise ConfigurationError("cannot stretch an empty signal")
    check_amplitude(x)
    output_length(len(x), config.alpha)
    if config.mode in ("nm", "ni"):
        return stretch_components(stn_decompose(x, config.stn), config)
    if config.mode == "nd":
        out = stretch_noise(x, config.alpha, config.noise, VARIANT_MULTIPLY, seed=config.seed)
        return out, None
    return stretch_plain(x, config.alpha, config.pv), None


def time_stretch(x: AudioBuffer, config: StretchConfig) -> AudioBuffer:
    """The output of stretch(x, config), without the branch outputs."""
    return stretch(x, config)[0]
