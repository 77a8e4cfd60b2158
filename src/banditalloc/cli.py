"""Command-line entry point.

Three subcommands share the JSON config format documented in the README:

- ``run``: execute the config's mode (dra, cra, oracle-check or bounds).
- ``oracle-check``: validate the exact solver against enumeration on random
  small instances (works without a config; seed and instance count have
  defaults).
- ``bounds``: tabulate the regret bounds for the configured instance.

Exit codes: 0 on success, 1 for configuration problems (bad JSON, missing or
out-of-range fields), 2 for runtime failures (unwritable output directory,
failed validation run).
"""

from __future__ import annotations

import argparse
import sys

from .experiment import ConfigurationError, ExperimentConfig, run_experiment

_DEFAULT_CHECK_INSTANCES = 200


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditalloc",
        description="Budgeted allocation bandit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--seed", type=int, help="base seed (overrides the config)")
    run_p.add_argument(
        "--jobs", type=int, help="parallel replication workers (overrides the config)"
    )

    check_p = sub.add_parser(
        "oracle-check", help="exact solver vs enumeration on random instances"
    )
    check_p.add_argument("--config", help="optional JSON config")
    check_p.add_argument("--out", help="output directory")
    check_p.add_argument("--seed", type=int, help="base seed")
    check_p.add_argument(
        "--instances",
        type=int,
        help=f"number of random instances (default {_DEFAULT_CHECK_INSTANCES})",
    )

    bounds_p = sub.add_parser(
        "bounds", help="tabulate regret bounds for the configured instance"
    )
    bounds_p.add_argument("--config", required=True, help="path to a JSON config")
    bounds_p.add_argument("--out", help="output directory (overrides the config)")

    return parser


def _default_check_config() -> dict:
    # The instance battery is generated internally; the placeholder problem
    # and reward fields are never used by the oracle-check mode.
    return {
        "mode": "oracle-check",
        "seed": 0,
        "problem": {"resources": 1, "budget": 1.0, "levels": 2},
        "rewards": {"family": "table", "probs": [[0.5, 0.5]]},
        "replications": _DEFAULT_CHECK_INSTANCES,
    }


# Command-line overrides and the config fields they set.
_OVERRIDES = (
    ("out", "out"),
    ("seed", "seed"),
    ("jobs", "jobs"),
    ("instances", "replications"),
)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config with the subcommand's mode and the flags applied, parsed
    once, so an override meets the same rules as the field it replaces."""
    if getattr(args, "config", None):
        raw = ExperimentConfig.from_file(args.config).to_dict()
    elif args.command == "oracle-check":
        raw = _default_check_config()
    else:  # pragma: no cover - argparse enforces --config elsewhere
        raise ConfigurationError("--config is required")
    if args.command != "run":
        raw["mode"] = args.command
    for flag, key in _OVERRIDES:
        if getattr(args, flag, None) is not None:
            raw[key] = getattr(args, flag)
    return ExperimentConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        summary = run_experiment(config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary.lines:
        print(line)
    for path in summary.files:
        print(f"wrote {path}")
    if not summary.ok:
        print("validation failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
