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

Command-line flags override config-file values. Both are applied to
StretchConfig().for_rate(input rate), so they are taken literally, and the
final config is validated once. for_rate rescales the window and hop
defaults for inputs not at 44.1 kHz: each window to the nearest even
5-smooth length, each hop in its section's hop/window ratio. An unknown key
exits 2, including a key that names a section (stn.stage1) and noise.seed
and pv.alpha (seed and alpha are top-level keys only), and so does a value
that fails validation. run() then makes one pipeline.stretch call and writes
the output, the nm/ni stems and onsets, and the RESULT: line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
import time
from pathlib import Path

from .errors import AudioIOError, ConfigurationError
from .pipeline import MODES, StretchConfig, stretch
# Only the benchmark tracer (perfbench/spans.py) needs the next four names here: it patches
# them in this module. ROADMAP items 1 and 2 delete them with that patching.
from .pipeline import stretch_components, time_stretch
from .stn import stn_decompose
from .transients import detect_events, onsets_csv_rows
from .wavio import BIT_DEPTHS, read_wav, write_wav

log = logging.getLogger("stretchkit")


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


def apply_config_values(section, values: dict, *, prefix: str = ""):
    """A copy of section (a StretchConfig, or a section of one) with the
    dotted keys in values set; prefix is section's own dotted path.

    Each touched section is rebuilt once with dataclasses.replace, so its
    checks run on all of its final values, whatever the order of the keys.
    """
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
    for head, sub in nested.items():
        changes[head] = apply_config_values(getattr(section, head), sub, prefix=f"{prefix}{head}.")
    return dataclasses.replace(section, **changes)


def run(args) -> int:
    values = parse_config_file(args.config) if args.config is not None else {}
    flags = {"alpha": args.alpha, "mode": args.mode, "seed": args.seed}
    values.update((key, value) for key, value in flags.items() if value is not None)
    if "alpha" not in values:
        raise ConfigurationError("--alpha is required (or set alpha in --config)")
    x = read_wav(args.input)
    config = apply_config_values(StretchConfig().for_rate(x.sample_rate), values)

    started = time.perf_counter()
    out, branches = stretch(x, config)
    elapsed = time.perf_counter() - started  # the stretch only, not the writes
    if branches is None and (args.stems or args.onsets):
        log.warning("--stems/--onsets are only meaningful for nm/ni modes; ignored")
    if branches is not None and args.stems:
        args.stems.mkdir(parents=True, exist_ok=True)
        for name in ("sines", "transients", "noise"):
            for stem, source in ((name, branches.components), (f"{name}_stretched", branches)):
                write_wav(getattr(source, name), args.stems / f"{stem}.wav", args.bit_depth)
    if branches is not None and args.onsets:
        with open(args.onsets, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["input_sample", "output_sample"])
            writer.writerows(onsets_csv_rows(branches.events, config.alpha))

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
