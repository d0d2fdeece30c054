"""Command line interface: config ingestion, dispatch, report emission.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration (a command that needs off-diagonal couplings given diagonal
ones included), 3 a suite aborted (solver or construction failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    ConstructionError,
    ConvergenceError,
    DimensionError,
    ParameterError,
    PoleError,
)
from .harness import COMMANDS, RunConfig, check_command, run
from .precision import PRECISIONS

_INT_KEYS = ("sites", "seed", "draws")
_COMPLEX_KEYS = ("p", "q", "xi_plus", "xi_minus")


def _is_real(value) -> bool:
    """A JSON number; ``true``/``false`` are not read as 1/0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, key: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ParameterError(f"{key} must be a number or an [re, im] pair")


def _as_int(value, key: str) -> int:
    """An integer; booleans and non-integral numbers are refused, not rounded."""
    if not _is_real(value):
        raise ParameterError(f"{key} must be an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return int(value)


def load_config_file(path: str) -> dict:
    """Flat key-value JSON; complex values are [re, im] pairs.

    Recognized keys: sites, seed, draws (integers); precision
    ("double"/"extended"); p, q, xi_plus, xi_minus (complex); thetas
    ("random" or a list of complex); tolerance.<check-name> (float).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ParameterError("config file must hold a single flat object")
    fields: dict = {"tolerances": {}}
    for key, value in raw.items():
        if key in _INT_KEYS:
            fields[key] = _as_int(value, key)
        elif key == "precision":
            fields[key] = str(value)
        elif key in _COMPLEX_KEYS:
            fields[key] = _as_complex(value, key)
        elif key == "thetas":
            if value == "random":
                fields[key] = "random"
            elif isinstance(value, list):
                fields[key] = tuple(_as_complex(t, "thetas") for t in value)
            else:
                raise ParameterError("thetas must be 'random' or a list")
        elif key.startswith("tolerance."):
            if not _is_real(value):
                raise ParameterError(f"{key} must be a number")
            fields["tolerances"][key[len("tolerance.") :]] = float(value)
        else:
            raise ParameterError(f"unknown config key {key!r}")
    return fields


def build_config(args: argparse.Namespace) -> RunConfig:
    fields = (
        load_config_file(args.config) if args.config else {"tolerances": {}}
    )
    for name in ("sites", "seed", "draws", "precision"):
        flag = getattr(args, name)
        if flag is not None:
            fields[name] = flag
    return RunConfig(**fields)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segment-bethe",
        description=(
            "Verification suites for the open-chain modified Bethe "
            "ansatz toolkit."
        ),
    )
    summaries = {
        "check-algebra": "R- and K-matrix identity residuals",
        "exchange": "exchange relations and transfer consistency",
        "spectrum": "brute-force spectrum vs Bethe root sets",
        "offshell": "off-shell action, central relation, expansions",
        "slavnov": "determinant scalar product vs direct contraction",
        "norm": "Gaudin-Korepin norm vs direct self-product",
        "n1": "one-root closed-form identities",
        "all": "every suite in registry order",
    }
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="subcommand"
    )
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=summaries[name])
        cmd.add_argument("--sites", type=int, default=None, help="chain length")
        cmd.add_argument(
            "--seed", type=int, default=None, help="seed for the PCG64 streams"
        )
        cmd.add_argument(
            "--draws",
            type=int,
            default=None,
            help="random repetitions per check",
        )
        cmd.add_argument(
            "--precision",
            choices=PRECISIONS,
            default=None,
            help="formula arithmetic (default double)",
        )
        cmd.add_argument(
            "--config",
            default=None,
            help="flat JSON config file; flags override its values",
        )
        cmd.add_argument(
            "--out",
            default=None,
            help="also write the report here (.csv with spectrum writes "
            "the root table)",
        )
    return parser


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that the report could not be written to."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
        target, os.W_OK
    ):
        raise ParameterError(f"cannot write the report to {path!r}")


def _write_out(command: str, report, path: str) -> None:
    if command == "spectrum" and path.endswith(".csv"):
        text = report.details["csv"]
    else:
        text = report.to_json() + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        check_command(args.command, config)
        if args.out:
            _check_out(args.out)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(args.command, config)
    except DimensionError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, ConvergenceError, PoleError, ConstructionError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    print(report.to_json())
    if args.out:
        _write_out(args.command, report, args.out)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
