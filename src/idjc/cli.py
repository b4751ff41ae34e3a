"""Command-line front end.

    idjc run --config cfg.json
    idjc run --scenario purity-mixture --alpha 5 --tau-max 3.1416 \
             --tau-steps 600 --out out.csv

Flags override keys from the config file and are parsed like them: argparse
only maps each flag to its key (--tau-values splits its commas into a list),
so a bad value gives the same message either way.  Exit codes: 0 success,
2 invalid configuration, 3 numeric precondition or self-check failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, IdjcError
from .scenarios import (_SCENARIOS, GRID_FIELDS, SCENARIO_NAMES, ScenarioConfig,
                        config_from_mapping, run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _read_by(key: str) -> str:
    """The end of a scenario key's help: the scenarios whose table entry reads it."""
    return "; read by " + ", ".join(name for name, spec in _SCENARIOS.items() if key in spec.reads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idjc",
        description="Field dynamics of the intensity-dependent Jaynes-Cummings model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a named scenario and write its table(s)")
    run.add_argument("--config", type=Path,
                     help="JSON config file (flat document); flags override its keys")
    run.add_argument("--scenario", help=f"one of {', '.join(SCENARIO_NAMES)}")
    run.add_argument("--alpha", help="coherent amplitude (real, positive)")
    run.add_argument("--parity-r", dest="parity_r",
                     help="superposition parity: -1, 0 or 1" + _read_by("parity_r"))
    run.add_argument("--lambda", dest="lam",
                     help="coupling constant; sets the physical time scale only" + _read_by("lam"))
    run.add_argument("--tau-max", dest="tau_max", help="end of the tau sweep" + _read_by("tau_max"))
    run.add_argument("--tau-steps", dest="tau_steps", help="number of tau samples from 0 to "
                     "tau-max inclusive" + _read_by("tau_steps"))
    run.add_argument("--tau-values", dest="tau_values", type=lambda text: text.split(","),
                     help="comma-separated taus of the Q grids" + _read_by("tau_values"))
    run.add_argument("--dim", help='Fock truncation: "auto" or an integer')
    for name in GRID_FIELDS:
        run.add_argument(f"--{name.replace('_', '-')}", help=f"Q grid {name}" + _read_by(name))
    run.add_argument("--out", dest="output_path", help="output file path")
    run.add_argument("--format", dest="output_format", help="csv or json")
    run.add_argument("--self-check", action="store_true",
                     help="cross-check numeric output against closed forms before writing")
    run.add_argument("--jobs", type=int,
                     help="accepted for compatibility; has no effect")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError([f"config file {path}: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"config file {path}: must be a single flat JSON object"])
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_config_file(args.config) if args.config else {}
        for field in fields(ScenarioConfig):
            value = getattr(args, field.name, None)
            if value is not None:
                raw[field.name] = value
        config = config_from_mapping(raw)
        paths = run_scenario(config, self_check=args.self_check)
    except ConfigError as exc:
        for message in exc.field_errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IdjcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
