"""Command line entry point.

    potlab <subcommand> [--config cfg.json] [--out DIR] [--bits N] [--plot]

Subcommands: prop1, stahl-circle, stahl-segment, leja, capacity.
Flags override the JSON config; unknown config keys are rejected.
Exit code is 0 exactly when every asserted invariant of the run passed,
and 2 for a config error or a run that the working precision cannot
resolve.
"""

import argparse
import json
import os
import sys

from .capacity import DegenerateRegion, TracingFailure
from .experiments import ConfigError, ExperimentConfig, run
from .precision import PrecisionTooLow

_SUBCOMMANDS = {
    "prop1": "prop1",
    "stahl-circle": "stahl_circle",
    "stahl-segment": "stahl_segment",
    "leja": "leja_only",
    "capacity": "capacity_only",
}


def _parser():
    p = argparse.ArgumentParser(prog="potlab",
                                description="discrete-measure potential "
                                            "theory experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--bits", type=int, default=None,
                        help="binary precision for big-float stages")
        sp.add_argument("--plot", action="store_true", default=None,
                        help="emit SVG plots")
    return p


def _read_config(path):
    """The JSON object in the file at path."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} holds a {type(raw).__name__}, "
                          f"not a JSON object")
    return raw


def main(argv=None):
    args = _parser().parse_args(argv)
    experiment = _SUBCOMMANDS[args.command]
    try:
        raw = _read_config(args.config) if args.config else {}
        if raw.get("experiment", experiment) != experiment:
            raise ConfigError(f"config is for {raw['experiment']!r}, "
                              f"not {experiment!r}")
        raw["experiment"] = experiment
        cfg = ExperimentConfig.from_json(raw, out_dir=args.out,
                                         bits=args.bits, plot=args.plot)
        p = cfg.out_dir
        while p and not os.path.lexists(p):     # its nearest existing ancestor
            p = os.path.dirname(p)
        if p and not os.path.isdir(p):
            raise ConfigError(f"--out {cfg.out_dir}: {p} is not a directory")
        report = run(cfg)
    except (ConfigError, DegenerateRegion, TracingFailure,
            PrecisionTooLow) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "precision"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{experiment}: {status} (outputs in {cfg.out_dir})")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
