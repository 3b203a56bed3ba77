"""Command-line interface: stretch a WAV file.

    stretch <in> <out> --alpha <f> [--mode nm|ni|nd|an] [--seed <n>]
            [--config <path>] [--stems <dir>] [--onsets <csv>] [-v]

Exit codes: 0 success, 1 I/O error, 2 configuration error. A machine-readable
summary line prefixed RESULT: is printed on stdout.

The optional config file is flat `key = value` text (# comments allowed).
Keys are the StretchConfig fields, nested ones dotted, e.g.:

    alpha = 4
    mode = nm
    noise.window_size = 1024
    stn.long_window = 8192
    transient.fade_s = 0.005

Command-line flags override config-file values. Window and hop defaults are
rescaled for inputs not at 44.1 kHz; the file values and flags are applied
after that scaling, so they are taken literally, and the final config is
validated once. An unknown key exits 2, including a key that names a section
(stn.stage1) and noise.seed and pv.alpha (seed and alpha are top-level keys
only), and so does a value that fails validation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
import time
from pathlib import Path

from .core import output_length
from .errors import AudioIOError, ConfigurationError
from .pipeline import MODES, StretchConfig, stretch_components, time_stretch
from .stn import stn_decompose
# run() takes its events from stretch_components; detect_events stays
# importable here because the benchmark tracer (perfbench/spans.py) patches it
from .transients import detect_events, onsets_csv_rows
from .wavio import BIT_DEPTHS, read_wav, write_wav

log = logging.getLogger("stretchkit")

RATE_SCALED_FIELDS = {
    "stn": ("long_window", "long_hop", "short_window", "short_hop"),
    "noise": ("window_size", "hop_size"),
    "pv": ("window_size", "synthesis_hop"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stretch", description="Time-stretch a WAV file without changing its pitch."
    )
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--alpha", type=float, default=None, help="stretch factor (> 0)")
    p.add_argument("--mode", choices=MODES, default=None, help="method variant (default nm)")
    p.add_argument("--seed", type=int, default=None, help="excitation seed (default 0)")
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    p.add_argument("--stems", type=Path, default=None,
                   help="directory for decomposed and stretched component WAVs")
    p.add_argument("--onsets", type=Path, default=None,
                   help="CSV of detected transient onsets (input_sample,output_sample)")
    p.add_argument("--bit-depth", choices=BIT_DEPTHS, default="float32")
    p.add_argument("-v", "--verbose", action="count", default=0)
    return p


def parse_config_file(path: Path) -> dict:
    """Flat key=value lines into a {dotted key: string} dict."""
    values = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise AudioIOError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(current, text, key: str):
    kind = type(current)
    try:
        return kind(text)
    except ValueError:
        raise ConfigurationError(f"config key {key}: cannot parse {text!r} as {kind.__name__}")


def apply_config_values(config: StretchConfig, values: dict) -> StretchConfig:
    """A copy of config with the dotted keys in values set.

    Each touched section is rebuilt once with dataclasses.replace, so its
    checks run on all of its final values, whatever the order of the keys.
    """
    return _replace_keys(config, values, "")


def _replace_keys(section, values: dict, prefix: str):
    names = {f.name for f in dataclasses.fields(section)}
    changes, nested = {}, {}
    for key, text in values.items():
        head, dot, rest = key.partition(".")
        if head not in names or dataclasses.is_dataclass(getattr(section, head)) != bool(dot):
            raise ConfigurationError(f"unknown config key {prefix + key!r}")
        if dot:
            nested.setdefault(head, {})[rest] = text
        else:
            changes[head] = _coerce(getattr(section, head), text, prefix + key)
    for head, sub_values in nested.items():
        changes[head] = _replace_keys(getattr(section, head), sub_values, f"{prefix}{head}.")
    return dataclasses.replace(section, **changes)


def scale_for_rate(config: StretchConfig, sample_rate: int) -> StretchConfig:
    """Rescale the sample-denominated settings when the input is not 44.1 kHz.

    Time-denominated settings (median spans, fades) are already in seconds.
    The scaled sections are rebuilt, so their checks run on the new values.
    """
    if sample_rate == 44100:
        return config
    ratio = sample_rate / 44100.0
    scaled = {}
    for section, names in RATE_SCALED_FIELDS.items():
        target = getattr(config, section)
        scaled[section] = dataclasses.replace(target, **{
            name: max(2, int(round(getattr(target, name) * ratio / 2)) * 2) for name in names
        })
    return dataclasses.replace(config, **scaled)


def run(args) -> int:
    values = parse_config_file(args.config) if args.config is not None else {}
    flags = {"alpha": args.alpha, "mode": args.mode, "seed": args.seed}
    values.update((key, value) for key, value in flags.items() if value is not None)
    if "alpha" not in values:
        raise ConfigurationError("--alpha is required (or set alpha in --config)")
    x = read_wav(args.input)
    config = apply_config_values(scale_for_rate(StretchConfig(), x.sample_rate), values)
    output_length(len(x), config.alpha)  # an unbounded output exits 2 before any stage runs

    started = time.perf_counter()
    if config.mode in ("nm", "ni"):
        components = stn_decompose(x, config.stn)
        out, branches = stretch_components(components, config)
        if args.stems:
            args.stems.mkdir(parents=True, exist_ok=True)
            for name, buf in [
                ("sines", components.sines), ("transients", components.transients),
                ("noise", components.noise), ("sines_stretched", branches.sines),
                ("transients_stretched", branches.transients),
                ("noise_stretched", branches.noise),
            ]:
                write_wav(buf, args.stems / f"{name}.wav", args.bit_depth)
        if args.onsets:
            with open(args.onsets, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["input_sample", "output_sample"])
                writer.writerows(onsets_csv_rows(branches.events, config.alpha))
    else:
        if args.stems or args.onsets:
            log.warning("--stems/--onsets are only meaningful for nm/ni modes; ignored")
        out = time_stretch(x, config)
    elapsed = time.perf_counter() - started

    write_wav(out, args.output, args.bit_depth)
    print(
        f"RESULT: input={len(x)} alpha={config.alpha:g} output={len(out)} "
        f"mode={config.mode} seed={config.seed} time={elapsed:.2f}s"
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return run(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AudioIOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
