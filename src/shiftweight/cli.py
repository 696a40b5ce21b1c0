"""Command line entry point: run experiment configs, write CSV results."""

import argparse
import logging
import os
import sys

from .errors import ConfigError, ShiftWeightError
from .experiments import load_config, rows_to_csv, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

logger = logging.getLogger("shiftweight")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftweight",
        description="Label-shift importance weight estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment config file")
    run.add_argument("config", help="path to a flat key = value config file")
    run.add_argument("--out", help="CSV output path (overrides the config)")
    run.add_argument("--seeds", help="comma-separated seed list (overrides the config)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None):
    """Runs the parsed command with the shiftweight logger printing to stderr
    for its duration: progress lines at INFO, or only warnings with --quiet."""
    args = _build_parser().parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING if args.quiet else logging.INFO)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(handler.level)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _check_writable(path):
    """Raises ConfigError when the CSV could not be written to path: its
    directory is missing or not writable, or path is a directory or a file
    that is not writable.  Checked before the sweep, so a bad path costs no
    run."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(directory) \
            or not os.access(directory, os.W_OK) \
            or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"cannot write output {path!r}", field="out")


def _run(args):
    overrides = {key: text for key, text in (("seeds", args.seeds),
                                             ("out", args.out))
                 if text is not None}
    try:
        cfg = load_config(args.config, overrides)
        if cfg.out:
            _check_writable(cfg.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        rows = run_experiment(cfg)
    except ShiftWeightError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if cfg.out:
        logger.info("wrote %d rows to %s", len(rows), cfg.out)
    else:
        sys.stdout.write(rows_to_csv(rows))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
