"""Command-line front end emitting plot-ready data and running the checks.

Subcommands::

    qnd figure <1-5> [--alpha M] [--phase R] [--out PATH] [--format csv|json]
    qnd sweep --dn-min A --dn-max B --dn-step S [...]
    qnd sample --dn X --count N --seed K [...]
    qnd verify [--only NAME]

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 I/O error.  Output files are byte-identical for identical arguments:
CSV uses ``#``-prefixed header lines and 12 significant digits; JSON is a
single object with ``config``, ``columns``, ``rows``, and ``version`` keys.
JSON rows are encoded by ``json.dumps`` and written 65 536 at a time (a
smaller table in one call); CSV rows take one ``%`` format each and are
written 4 096 at a time, so the per-value work runs in C and the text held
at once stays bounded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import contextmanager

from . import __version__, figures, verify
from .errors import QndError
from .figures import Table
from .fock import CoherentParams


# CSV rows per write: the text held at once stays small beside the table.
_CSV_CHUNK = 4096

# JSON rows per json.dumps call and write, for the same reason.
_JSON_CHUNK = 65536

# json.dumps(value, sort_keys=True, separators=(",", ":")): the tables' JSON layout.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Each subcommand's parser by name, as build_parser adds them.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}

# Arguments that start as a negative number does.  argparse (Python 3.11 among
# others) reads only -1 and -1.5 as numbers and takes -3e-05 or -inf for an option.
_NEGATIVE = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)


def _config_echo(config: dict) -> str:
    parts = []
    for key in sorted(config):
        value = config[key]
        parts.append(f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}")
    return " ".join(parts)


def write_csv(handle, table: Table, title: str) -> None:
    names = ",".join(table.columns)
    line = ",".join(["%.12g"] * len(table.columns)) + "\n"
    handle.write(
        f"# qnd {title}\n# version: {__version__}\n"
        f"# config: {_config_echo(table.config)}\n# columns: {names}\n{names}\n"
    )
    rows = table.rows
    for start in range(0, len(rows), _CSV_CHUNK):
        handle.write("".join([line % tuple(row) for row in rows[start : start + _CSV_CHUNK]]))


def write_json(handle, table: Table, title: str) -> None:
    """``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of the table, rows in slices."""
    config = {"command": title, **table.config}
    handle.write(f'{{"columns":{_dumps(table.columns)},"config":{_dumps(config)},"rows":[')
    rows = table.rows
    for start in range(0, len(rows), _JSON_CHUNK):
        text = _dumps(rows[start : start + _JSON_CHUNK])
        handle.write(f",{text[1:-1]}" if start else text[1:-1])
    handle.write(f'],"version":{_dumps(__version__)}}}\n')


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _emit(table: Table, title: str, out: str | None, fmt: str) -> None:
    with _open_out(out) as handle:
        if fmt == "json":
            write_json(handle, table, title)
        else:
            write_csv(handle, table, title)


def _float_option(parser: argparse.ArgumentParser, arg: str) -> bool:
    """Whether ``arg`` names an option of ``parser`` that takes a float.

    Names resolve as argparse resolves them: a full name stands for itself,
    and a prefix of one option's name (``--pha``) for that option; a prefix
    that starts several names is ambiguous and names none.
    """
    if not arg.startswith("--") or "=" in arg:
        return False
    actions = parser._option_string_actions
    if arg not in actions:
        names = [name for name in actions if name.startswith(arg)]
        if len(names) != 1:
            return False
        arg = names[0]
    return actions[arg].type is float


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each float option joined to its negative value: ``--phase=-3e-05``.

    The options are those of the subcommand, the first argument that is not an option.
    """
    command = _COMMANDS.get(next((arg for arg in argv if not arg.startswith("-")), ""))
    if command is None:
        return argv
    joined: list[str] = []
    for arg in argv:
        if joined and _NEGATIVE.match(arg) and _float_option(command, joined[-1]):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _add_field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=3.0,
                        help="coherent-field magnitude (default 3)")
    parser.add_argument("--phase", type=float, default=0.0,
                        help="coherent-field phase in radians (default 0)")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qnd`` argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qnd",
        description="Variable-resolution photon-number readout statistics",
    )
    parser.add_argument("--version", action="version", version=f"qnd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit one of the five standard data tables")
    fig.add_argument("id", type=int, choices=(1, 2, 3, 4, 5))
    _add_field_args(fig)
    fig.add_argument("--dn", type=float,
                     help="override the table's readout resolution (tables 1-4)")
    fig.add_argument("--grid-min", type=float,
                     help="profile grid start (default 0, or 10 below the mean "
                          "photon number for bright fields)")
    fig.add_argument("--grid-max", type=float, help="profile grid end (default grid start + 20)")
    fig.add_argument("--grid-step", type=float, default=0.02)
    fig.add_argument("--dn-min", type=float, default=0.1, help="table 5 sweep start")
    fig.add_argument("--dn-max", type=float, default=1.0, help="table 5 sweep end")
    fig.add_argument("--dn-step", type=float, default=0.002, help="table 5 sweep step")
    _add_output_args(fig)

    sweep = sub.add_parser("sweep", help="tabulate statistics over a resolution range")
    for name in ("--dn-min", "--dn-max", "--dn-step"):
        sweep.add_argument(name, type=float, required=True)
    _add_field_args(sweep)
    _add_output_args(sweep)

    sample = sub.add_parser("sample", help="draw sequential readout shots")
    sample.add_argument("--dn", type=float, required=True)
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    _add_field_args(sample)
    _add_output_args(sample)

    check = sub.add_parser("verify", help="run the acceptance checks")
    check.add_argument("--only", default=None,
                       help="run only the named criterion (see docs)")
    _COMMANDS.update(sub.choices)
    return parser


def _run_verify(only: str | None) -> int:
    rows = verify.run_acceptance(only=only)
    criteria: dict[str, bool] = {}
    for row in rows:
        print(verify.format_row(row))
        criteria[row.criterion] = criteria.get(row.criterion, True) and row.passed
    passed = sum(ok for ok in criteria.values())
    print(f"RESULT {passed}/{len(criteria)} criteria passed")
    return 0 if passed == len(criteria) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "verify":
            return _run_verify(args.only)
        params = CoherentParams(args.alpha, args.phase)
        if args.command == "figure":
            table = figures.figure_table(
                args.id, params, delta_n=args.dn,
                grid_min=args.grid_min, grid_max=args.grid_max,
                grid_step=args.grid_step,
                dn_min=args.dn_min, dn_max=args.dn_max, dn_step=args.dn_step,
            )
        elif args.command == "sweep":
            table = figures.sweep_table(params, args.dn_min, args.dn_max, args.dn_step)
        else:
            table = figures.sample_table(params, args.dn, args.count, args.seed)
        title = f"figure {args.id}" if args.command == "figure" else args.command
        _emit(table, title, args.out, args.format)
        return 0
    except QndError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
