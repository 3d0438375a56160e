"""Command-line surface: scenario runs, sweeps, CSV emission, verification.

Subcommands
-----------
qubit-rate   STR qubit rate for a node count and per-link error rate.
fig2-sweep   Rate-vs-link-error curves (conventional, STR-1, STR-2).
decoy-sweep  Rate-vs-loss curves for the weak-coherent model.
montecarlo   Protocol simulation; emits the basis-vector error table.
verify       Numerical verification suites for the module invariants.

Grids are start:stop:step strings, holding the points that do not pass
stop (see :func:`parse_grid`).  A JSON config file may provide any
defaults, each under its flag's name or the name a run prints it under, so
a printed config can be fed back as a config file; explicit flags take
precedence, and a file that names one option twice, under one key, under
both spellings of a key or under both names, is rejected.  Every run prints
its fully resolved configuration for reproducibility, after its input has
been checked.  This module only parses and renders: the subcommands' work
is done by the library modules, and
:func:`strqkd.acceptance_checks.run_verification` runs the verify suites.
Only fig2-sweep, decoy-sweep, montecarlo and verify load numpy: their
library code computes on arrays.  ``--version``, ``--help``, qubit-rate
and rejected arguments, config, fig2-sweep or decoy-sweep input run on
floats, without numpy's import, most of a fresh process's start-up time.
Neither cli nor keyrate loads dataclasses or inspect, only a config loads
json, and only a handler loads keyrate, so ``--version``, ``--help`` and
rejected arguments or config load no library module.
The parser is built once per process, each subcommand's options the first
time it is parsed, config values filling each run's namespace rather than
its defaults, and CSV rows are written with one
%-format per row type.  An existing CSV is rewritten in place, never
truncated to length 0, so a re-run skips the flush ext4 starts on closing a
file truncated to 0, and the file keeps its links and permissions.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import stat
import sys
from typing import TYPE_CHECKING, Any, Iterable, NoReturn, Sequence

# Each handler imports the library modules that it needs (keyrate; decoy,
# relay, acceptance_checks: numpy, and qubit's branch tables), and json is
# imported where a config is read or echoed, so that a run which needs none
# of them starts without them.
from . import __version__

if TYPE_CHECKING:
    from . import keyrate

__all__ = ["main", "emit_csv", "parse_grid"]


# Longest grid parse_grid builds; far above any sweep the paper draws.
MAX_GRID_POINTS = 1_000_000


def _fail(message: str) -> NoReturn:
    """Print a one-line error and exit with status 2 (bad input)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_grid(spec: str) -> list[float]:
    """Parse a start:stop:step grid string into the points ``start + i *
    step`` that do not pass ``stop``: a point within 1e-9 of a step past it
    counts as on it, so that rounding keeps a stop that lies on the grid.
    Exit with status 2 on a malformed, non-finite or too long grid."""
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        _fail(f"grid must be start:stop:step, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        _fail(f"invalid grid {spec!r}")
    # The last point's index up to the tolerance (inf when the quotient
    # overflows); below MAX_GRID_POINTS the quotient's rounding lies far
    # inside the tolerance.
    last = (stop - start) / step + 1e-9
    if last >= MAX_GRID_POINTS:
        _fail(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(last) + 1)]


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """The %-format of a CSV line whose values have ``types``: floats, float
    subclasses such as np.float64 included, take 12 significant digits;
    anything else, ints of any size and bools among them, its str()."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types) + "\n"


def emit_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write comma-separated rows: UTF-8, 12 significant digits, LF endings.

    An existing regular file is shrunk to one byte, which the header
    overwrites, before the first write, so a failed run leaves a prefix of
    the new CSV and no old rows; pipes and devices are written as they are."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > 1:
                os.ftruncate(fd, 1)
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(_row_format(tuple(map(type, row))) % tuple(row))
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


def _print_config(args: argparse.Namespace, **derived: Any) -> None:
    """Print the run's resolved config: each parsed option under its dest,
    the library's name where the flag's differs, and each ``derived`` value,
    sorted by key."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "config", "func")}
    print(f"strqkd {__version__} :: {args.command}")
    for key, value in sorted({**config, **derived}.items()):
        print(f"  {key} = {value}")


def _print_report(label: str, report: keyrate.KeyRateReport) -> None:
    print(
        f"{label}: rate={report.rate:.12g} "
        f"(entropy={report.entropy_term:.12g} leak={report.leak_term:.12g} "
        f"holevo={report.holevo_term:.12g} tagged={report.tagged_term:.12g})"
    )


def _load_config(path: str | None) -> dict[str, Any]:
    """The config file's top-level values, each under its key with dashes
    read as underscores; exit with status 2 when two keys read the same."""
    if path is None:
        return {}
    import json

    objects = []  # each object's key-value pairs, in the order objects close

    def keep_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        objects.append(pairs)
        return dict(pairs)

    # ValueError covers a file that is not UTF-8 or not JSON and an int too
    # long to convert; RecursionError, nesting too deep to decode.
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=keep_pairs)
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        _fail(f"config {path} must be a JSON object")
    config = {}
    for key, value in objects[-1]:  # the top-level object closes last
        dest = key.replace("-", "_")
        if dest in config:
            _fail(f"config {path} sets {dest} twice")
        config[dest] = value
    return config


# The string options that their handler parses, by (command, flag): the
# parse function, which raises ValueError, and what it accepts.  The config
# check parses a config value too, so that only a flag's can fail later.
_PARSED = {
    ("fig2-sweep", "--nodes"): (lambda text: [int(v) for v in text.split(",")],
                                "comma-separated integers"),
    ("decoy-sweep", "--mu"): (lambda text: None if text == "auto" else float(text),
                              "'auto' or a number"),
}


def _parsed(args: argparse.Namespace, flag: str) -> Any:
    """The parsed value of ``args.command``'s string option ``flag``; exit
    with status 2 when its parse function rejects it."""
    parse, kind = _PARSED[args.command, flag]
    text = getattr(args, flag[2:].replace("-", "_"))
    try:
        return parse(text)
    except ValueError:
        _fail(f"{flag} must be {kind}, got {text!r}")


def _cmd_qubit_rate(args: argparse.Namespace) -> int:
    from . import keyrate

    report = keyrate.uniform_str_rate(args.e_link, args.nodes, args.p_z, args.f_ec)
    e_end_to_end = keyrate.compound_error([args.e_link] * (args.nodes + 1))
    _print_config(args, e_end_to_end=e_end_to_end)
    _print_report(f"STR-{args.nodes}", report)
    return 0


def _cmd_fig2_sweep(args: argparse.Namespace) -> int:
    from . import keyrate

    grid = parse_grid(args.e_link)
    node_counts = _parsed(args, "--nodes")
    # Computed first, so that rejected input prints no config.
    rows = keyrate.fig2_curves(grid, node_counts=node_counts)
    _print_config(args)
    # parse_grid never returns an empty grid, so there is a first row.
    emit_csv(args.output, list(rows[0]), (row.values() for row in rows))
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_decoy_sweep(args: argparse.Namespace) -> int:
    from . import keyrate

    grid = parse_grid(args.loss_db)
    # Checked for both scenarios, although a conventional sweep of equal
    # links computes only one of them.
    if not 0 <= args.nodes <= keyrate.MAX_NODES:
        _fail(f"--nodes must lie in [0, {keyrate.MAX_NODES}], got {args.nodes}")
    num_links = 1 if args.scenario == "conventional" else args.nodes + 1
    mu_fixed = _parsed(args, "--mu")
    from . import decoy  # after the checks above, which need no numpy

    # The report's fields, in column order.
    terms = ["rate", "entropy_term", "leak_term", "holevo_term", "tagged_term"]
    # The rows are computed first, so that rejected input prints no config.
    chains = [
        [
            decoy.LinkPhysics(
                loss_db=loss,
                detector_efficiency=args.detector_efficiency,
                dark_count_prob=args.dark_count_prob,
                intrinsic_error=args.intrinsic_error,
                mu=mu_fixed if mu_fixed is not None else 0.5,
            )
        ]
        * num_links
        for loss in grid
    ]
    # A fixed intensity is the one-point bracket: no search, the same reports.
    results = decoy.optimize_intensities(
        chains,
        f_ec=args.f_ec,
        p_z=args.p_z,
        mu_bounds=decoy.MU_BOUNDS if mu_fixed is None else (mu_fixed, mu_fixed),
        mode=args.scenario,
        conservative=args.conservative,
    )
    values = operator.attrgetter(*terms)
    rows = [[loss, mu, *values(report)] for loss, (mu, report) in zip(grid, results)]
    _print_config(args)
    emit_csv(args.output, ["loss_db", "mu", *terms], rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from . import keyrate, relay

    cfg = relay.ChainConfig(
        num_nodes=args.nodes,
        rounds=args.rounds,
        flip_prob=args.flip_prob,
        detect_prob=args.detect_prob,
        p_z=args.p_z,
        seed=args.seed,
    )
    _print_config(args)
    table, survivors = relay.run_protocol(cfg)
    print(f"survivors per link: {survivors}")
    analytic = keyrate.compound_error([cfg.flip_prob] * cfg.num_links)
    header = ["basis_vector", "errors", "samples", "rate", "analytic_rate"]
    rows = []
    columns = (table.errors.tolist(), table.samples.tolist(), table.rates.tolist())
    for code, (errors, samples, rate) in enumerate(zip(*columns)):
        label = keyrate.basis_label(code, cfg.num_links)
        rows.append([label, errors, samples, rate, analytic])
        print(f"u={label}: {errors}/{samples} rate={rate:.6g} (analytic {analytic:.6g})")
    if args.output is not None:
        emit_csv(args.output, header, rows)
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance_checks import run_verification

    # Run first, so that a rejected --trials or --seed prints no config.
    results = run_verification(trials=args.trials, seed=args.seed)
    _print_config(args)
    failures = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failures += not passed
    print(f"{len(results) - failures}/{len(results)} suites passed")
    return 1 if failures else 0


# Each subcommand's handler, help line and options, the options as argparse
# keywords by flag.  The options feed the chosen subcommand's parser, the
# check of --config keys (a flag without its dashes, or the dest) and the
# printed config (the option's dest).  An option that sets a library field
# takes the field's name as its dest where the flag's differs.
_COMMANDS = {
    "qubit-rate": (_cmd_qubit_rate, "STR qubit rate for one scenario", {
        "--nodes": dict(type=int, default=1),
        "--e-link": dict(type=float, required=True),
        "--f-ec": dict(type=float, default=1.0),
        "--p-z": dict(type=float, default=0.5),
    }),
    "fig2-sweep": (_cmd_fig2_sweep, "rate vs per-link error rate curves", {
        "--e-link": dict(default="0:0.12:0.002", help="grid start:stop:step"),
        "--nodes": dict(default="0,1,2", help="comma-separated node counts"),
        "--output": dict(default="fig2.csv"),
    }),
    "decoy-sweep": (_cmd_decoy_sweep, "rate vs per-link loss curves", {
        "--loss-db": dict(default="0:40:0.5", help="grid start:stop:step"),
        "--nodes": dict(type=int, default=1),
        "--scenario": dict(choices=["str", "conventional"], default="str"),
        "--mu": dict(default="auto", help="'auto' (optimized) or a value"),
        "--f-ec": dict(type=float, default=1.2),
        "--p-z": dict(type=float, default=0.5),
        "--eta-det": dict(type=float, default=0.5, dest="detector_efficiency"),
        "--dark": dict(type=float, default=6e-6, dest="dark_count_prob"),
        "--e-det": dict(type=float, default=0.0185, dest="intrinsic_error"),
        "--conservative": dict(action="store_true", default=False),
        "--output": dict(default="decoy.csv"),
    }),
    "montecarlo": (_cmd_montecarlo, "protocol Monte Carlo simulation", {
        "--rounds": dict(type=int, default=100_000),
        "--seed": dict(type=int, default=0),
        "--flip": dict(type=float, default=0.0, dest="flip_prob"),
        "--detect": dict(type=float, default=1.0, dest="detect_prob"),
        "--nodes": dict(type=int, default=1),
        "--p-z": dict(type=float, default=0.5),
        "--output": dict(default=None),
    }),
    "verify": (_cmd_verify, "run numerical verification suites", {
        "--trials": dict(type=int, default=100),
        "--seed": dict(type=int, default=2024),
    }),
}


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: Any = None) -> None:
        # argparse ignores a failed write; help and version on a closed
        # stdout must raise instead, for main to report.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


# Finds --config and the command ahead of the full parser.  What follows the
# command is left to the full parser, so a --config there is never read: the
# full parser rejects it whatever the file holds.
_PRE_PARSER = argparse.ArgumentParser(add_help=False)
_PRE_PARSER.add_argument("--config")
_PRE_PARSER.add_argument("command", nargs="?")
_PRE_PARSER.add_argument("after_command", nargs=argparse.REMAINDER)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse ``argv`` into a namespace that holds each option of the chosen
    subcommand at its --config value, else at its table default; argparse
    sets only the flags given, so explicit flags win.  A config key is an
    option's flag without its dashes or its dest.  A value is read as if
    given as a flag: its option's type converts str(value).  A key that is
    not an option of the subcommand, one option under both its keys, a null
    for an option that needs a value, a value that the option's type or
    parse function rejects or outside its choices, or a switch's value other
    than true or false exits with status 2 and one error line, whatever the
    flags.  The config file is read and checked on every call."""
    argv = sys.argv[1:] if argv is None else argv
    known, _ = _PRE_PARSER.parse_known_args(argv)
    config = _load_config(known.config)
    command, values, supplied = known.command, {}, []
    if command in _COMMANDS:
        options = _COMMANDS[command][2]
        # An option's config keys: its flag without the dashes and its dest,
        # the name under which a run prints it.
        names = {}
        for flag, kwargs in options.items():
            name = flag[2:].replace("-", "_")
            dest = kwargs.get("dest", name)
            names[flag] = dict.fromkeys((name, dest))
            values[dest] = kwargs.get("default")
        unknown = sorted(set(config).difference(*names.values()))
        if unknown:
            _fail(f"{command} has no option {', '.join(unknown)}")
        for flag, kwargs in options.items():
            keys = [key for key in names[flag] if key in config]
            if len(keys) > 1:
                _fail(f"config {known.config} sets {keys[1]} twice")
            if keys:
                key = keys[0]
                value = config[key]
                if value is None:
                    # null means "no value", which only an option whose own
                    # default is None can take.
                    if "default" not in kwargs or kwargs["default"] is not None:
                        _fail(f"{command} option {key} needs a value, got null")
                elif kwargs.get("action") == "store_true":
                    if not isinstance(value, bool):
                        _reject_config_value(command, key, "true or false", value)
                else:
                    convert, choices = kwargs.get("type", str), kwargs.get("choices")
                    parse, kind = _PARSED.get((command, flag), (None, None))
                    try:
                        value = convert(str(value))  # read as if given as a flag
                        if parse:
                            parse(value)
                        if choices and value not in choices:
                            raise ValueError
                    except ValueError:
                        kind = kind or (f"one of {', '.join(choices)}" if choices
                                        else "an integer" if convert is int else "a number")
                        _reject_config_value(command, key, kind, config[key])
                *_, dest = names[flag]
                values[dest] = value
                if kwargs.get("required"):
                    supplied.append((command, flag))
    parser, optionless = _parser(tuple(supplied))
    if command in optionless:  # the first parse of command with this parser
        subparser = optionless.pop(command)
        for flag, kwargs in _COMMANDS[command][2].items():
            required = kwargs.get("required", False) and (command, flag) not in supplied
            subparser.add_argument(
                flag, **{**kwargs, "default": argparse.SUPPRESS, "required": required})
    return parser.parse_args(argv, argparse.Namespace(**values))


def _reject_config_value(command: str, key: str, kind: str, value: Any) -> NoReturn:
    """Exit with status 2: ``command``'s option ``key`` must be ``kind``, and
    the config gave ``value``, echoed as JSON."""
    import json

    _fail(f"{command} option {key} must be {kind}, got {json.dumps(value)}")


@functools.cache
def _parser(
    supplied: tuple[tuple[str, str], ...],
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser with every subcommand's parser, and those
    subcommand parsers by name that have no options yet.  _parse_args adds a
    subcommand's options the first time it parses that subcommand with this
    parser, with no defaults (it puts them in the namespace) and the
    required options ``supplied`` by (command, flag) made optional; argparse
    reads the help width when it formats."""
    parser = _ArgumentParser(
        prog="strqkd",
        description="Simplified trusted relay QKD simulation and key-rate toolkit",
    )
    parser.add_argument("--config", help="JSON config file with default values")
    parser.add_argument("--version", action="version", version=f"strqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text).set_defaults(func=run)
    return parser, dict(sub.choices)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv``: exit status 0 on success, 1 when a
    verify suite fails and 2 on bad input or output that cannot be written,
    a closed stdout included."""
    try:
        try:
            args = _parse_args(argv)
            return args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            # Output still buffered for a closed stdout fails here, not at exit.
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # Python's SIGPIPE recipe: stdout goes to devnull, so that the flush
        # at exit does not fail again.  A run that had already failed (on an
        # --output of /dev/stdout) has printed its error line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc.__context__, SystemExit) and exc.__context__.code:
            raise exc.__context__ from None
        _fail(f"cannot write stdout: {exc}")


if __name__ == "__main__":
    sys.exit(main())
