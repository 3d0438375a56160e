"""Tests for the command-line surface: subcommands, CSV emission, config
handling, determinism."""

import argparse
import ast
import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strqkd
from strqkd import cli

from goldens import DATA, GOLDENS, PRINTED_RUNS, numpy_note, printed_argv



def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestParseGrid:
    def test_basic(self):
        assert cli.parse_grid("0:1:0.25") == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point(self):
        assert cli.parse_grid("2:2:1") == [2.0]

    def test_rejects_malformed(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_grid("0-1-2")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.parse_grid("1:0:0.1")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec",
        # The last three would hold more than MAX_GRID_POINTS points; they are
        # rejected before any point is built.
        ["nan:1:1", "0:inf:1", "0:1:nan", "0:1e308:1e-308", "0:1:1e-300",
         f"0:{cli.MAX_GRID_POINTS}:1"],
    )
    def test_rejects_non_finite_and_oversized(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_grid(spec)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "spec,points",
        # A stop off the grid ends the grid at the point below it; these once
        # got the point above when the quotient rounded up.
        [("0:3.5:1", [0.0, 1.0, 2.0, 3.0]), ("0:2.5:1", [0.0, 1.0, 2.0]),
         ("0:1.1:0.2", [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0])],
    )
    def test_stop_off_the_grid_is_not_passed(self, spec, points):
        assert cli.parse_grid(spec) == points

    @pytest.mark.parametrize(
        "spec,count",
        # Stops on the grid that rounding puts just past or just before its
        # last point: the sweeps of the tests, CI and the benchmark.
        [("0:0.12:0.0005", 241), ("0:40:0.5", 81), ("0:0.6:0.1", 7),
         ("3:33:0.1", 301), ("0:0.5:0.005", 101), ("0:0.12:0.002", 61)],
    )
    def test_stop_on_the_grid_is_kept(self, spec, count):
        grid = cli.parse_grid(spec)
        assert len(grid) == count
        assert grid[-1] == pytest.approx(float(spec.split(":")[1]), rel=1e-12)

    def test_point_limit_counts_the_points_built(self):
        # MAX_GRID_POINTS points up to a stop half a step past the last one.
        grid = cli.parse_grid(f"0:{cli.MAX_GRID_POINTS - 0.5}:1")
        assert len(grid) == cli.MAX_GRID_POINTS

    @given(
        start=st.floats(-1e6, 1e6),
        step=st.floats(1e-6, 1e6),
        points=st.integers(0, 2000),
        fraction=st.sampled_from([0.0, 0.5, 0.999999]) | st.floats(0.0, 1.0),
    )
    @example(start=0.0, step=1.0, points=3, fraction=0.5)
    def test_no_point_past_stop_and_the_next_one_would_be(
        self, start, step, points, fraction
    ):
        # Checked in exact arithmetic on the parsed floats: the last point
        # lies at most a rounding tolerance past stop, the next one past it.
        stop = start + (points + fraction) * step
        grid = cli.parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert grid == [start + i * step for i in range(len(grid))]
        last = Fraction(start) + (len(grid) - 1) * Fraction(step)
        assert last <= Fraction(stop) + Fraction(2e-9) * Fraction(step)
        assert last + Fraction(step) > Fraction(stop)


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_csv(str(path), ["a", "b"], [])
        assert read_lines(path) == ["a,b"]

    def test_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        cli.emit_csv(str(path), ["x"], [[0.1]])
        assert read_lines(path) == ["x", "0.1"]

    def test_round_trip_precision(self, tmp_path):
        values = [0.12345678901234567, 1e-9, 0.0584, 2.0 / 3.0]
        path = tmp_path / "rt.csv"
        cli.emit_csv(str(path), ["v"], [[v] for v in values])
        parsed = [float(line) for line in read_lines(path)[1:]]
        for v, p in zip(values, parsed):
            assert abs(v - p) <= 1e-12 * max(1.0, abs(v))

    def test_value_formats(self, tmp_path):
        # Floats, np.float64 among them, take 12 significant digits; ints of
        # any size, numpy ints, bools and strings print as str().  Each row
        # is formatted by its own value types.
        row = [0.1, np.float64(2.0) / 3.0, 10**13, np.int64(-7), True, "u=XZ",
               math.nan, math.inf, -0.0]
        path = tmp_path / "formats.csv"
        cli.emit_csv(str(path), list("abcdefghi"), [row, row[::-1]])
        assert read_lines(path)[1:] == [
            "0.1,0.666666666667,10000000000000,-7,True,u=XZ,nan,inf,-0",
            "-0,inf,nan,u=XZ,True,-7,10000000000000,0.666666666667,0.1",
        ]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        cli.emit_csv(str(path), ["x"], [[1.0]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.emit_csv(str(tmp_path / "no" / "dir.csv"), ["x"], [])
        assert exc.value.code == 2

    # Rewriting an existing file: the new CSV replaces the old one whole,
    # through the same inode.

    def test_short_csv_over_long_file(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.emit_csv(str(path), ["i", "v"], [[i, i / 7] for i in range(1000)])
        cli.emit_csv(str(path), ["x"], [[0.5]])
        assert path.read_bytes() == b"x\n0.5\n"

    def test_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.emit_csv(str(path), ["x"], [[1.0], [2.0]])
        path.chmod(0o640)
        before = path.stat()
        cli.emit_csv(str(path), ["y"], [[3.0]])
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mode & 0o777 == 0o640
        assert read_lines(path) == ["y", "3"]

    def test_symlink_kept(self, tmp_path):
        target = tmp_path / "target.csv"
        cli.emit_csv(str(target), ["x"], [[i] for i in range(50)])
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        cli.emit_csv(str(link), ["y"], [[1]])
        assert link.is_symlink()
        assert read_lines(target) == ["y", "1"]

    def test_hard_link_sees_new_content(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.emit_csv(str(path), ["x"], [[i] for i in range(50)])
        other = tmp_path / "other.csv"
        os.link(path, other)
        cli.emit_csv(str(path), ["y"], [[1]])
        assert read_lines(other) == ["y", "1"]

    def test_failing_rows_leave_a_prefix(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.emit_csv(str(path), ["old"], [[i] for i in range(1000)])

        def rows():
            yield [1.0]
            yield [2.0]
            raise OSError("rows failed")

        with pytest.raises(SystemExit) as exc:
            cli.emit_csv(str(path), ["x"], rows())
        assert exc.value.code == 2
        assert path.read_bytes() == b"x\n1\n2\n"

    def test_devnull(self):
        cli.emit_csv(os.devnull, ["x"], [[1.0]])

    def test_never_truncates_to_zero(self, tmp_path, monkeypatch):
        # ext4 flushes a file truncated to length 0 when it is closed; the
        # rewrite opens without O_TRUNC and shrinks the file to one byte.
        path = tmp_path / "out.csv"
        cli.emit_csv(str(path), ["x"], [[i] for i in range(100)])
        flags, lengths = [], []
        real_open, real_ftruncate = os.open, os.ftruncate

        def recording_open(file, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        def recording_ftruncate(fd, length):
            lengths.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
        cli.emit_csv(str(path), ["y"], [[1]])
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC
        assert lengths == [1]
        assert read_lines(path) == ["y", "1"]


class TestQubitRate:
    def test_runs(self, capsys):
        assert cli.main(["qubit-rate", "--e-link", "0.03", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "rate=" in out
        assert "seed" not in out  # deterministic command, no RNG involved

    def test_single_link_end_to_end_error_is_the_link_error(self, capsys):
        assert cli.main(["qubit-rate", "--e-link", "0.05", "--nodes", "0"]) == 0
        assert "  e_end_to_end = 0.05\n" in capsys.readouterr().out

    def test_invalid_error_rate(self, capsys):
        assert cli.main(["qubit-rate", "--e-link", "0.9"]) == 2
        assert "error" in capsys.readouterr().err


class TestFig2Sweep:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = cli.main(
            ["fig2-sweep", "--e-link", "0:0.12:0.002", "--nodes", "0,1,2",
             "--output", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "e_link,rate_conventional,rate_str1,rate_str2"
        assert len(lines) == 62  # header + 61 grid points
        assert all(len(line.split(",")) == 4 for line in lines[1:])


class TestDecoySweep:
    def test_fixed_mu(self, tmp_path):
        out = tmp_path / "decoy.csv"
        code = cli.main(
            ["decoy-sweep", "--loss-db", "0:4:2", "--nodes", "1", "--mu", "0.3",
             "--output", str(out)]
        )
        assert code == 0
        lines = read_lines(out)
        assert len(lines) == 4
        assert lines[0].startswith("loss_db,mu,rate")

    @pytest.mark.parametrize("flags", [[], ["--scenario", "conventional"]])
    def test_fixed_mu_is_one_optimize_call(self, flags, monkeypatch):
        # A fixed intensity is the one-point bracket of the batched optimiser,
        # not one float rate call per loss point.
        from strqkd import decoy

        calls = []
        optimize = decoy.optimize_intensities

        def spy(chains, **kwargs):
            calls.append(kwargs["mu_bounds"])
            return optimize(chains, **kwargs)

        def float_rate(*args, **kwargs):
            calls.append("float rate")
            raise AssertionError("a sweep must not call the float rates")

        monkeypatch.setattr(decoy, "optimize_intensities", spy)
        monkeypatch.setattr(decoy, "decoy_rate", float_rate)
        monkeypatch.setattr(decoy, "conventional_decoy_rate", float_rate)
        argv = ["decoy-sweep", "--loss-db", "0:4:2", "--mu", "0.3", *flags,
                "--output", os.devnull]
        assert cli.main(argv) == 0
        assert calls == [(0.3, 0.3)]

    def test_optimized_conventional(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = cli.main(
            ["decoy-sweep", "--loss-db", "0:2:2", "--scenario", "conventional",
             "--output", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert float(rows[0][2]) > 0.0

    @pytest.mark.parametrize("mu", ["auto", "0.3"])
    def test_dark_count_free_link_far_out(self, mu, tmp_path):
        out = tmp_path / "decoy.csv"
        argv = ["decoy-sweep", "--loss-db", "300:400:100", "--dark", "0", "--mu", mu]
        assert cli.main(argv + ["--output", str(out)]) == 0
        rates = [float(line.split(",")[2]) for line in read_lines(out)[1:]]
        assert len(rates) == 2 and all(rate > 0.0 for rate in rates)

    @pytest.mark.parametrize(
        "flags", [[], ["--nodes", "2"], ["--scenario", "conventional"]]
    )
    def test_sweep_fails_on_first_dead_link(self, flags, capsys):
        # Without dark counts mu * eta underflows at the lowest scanned
        # intensity from 3200 dB on: the sweep names that point.
        argv = ["decoy-sweep", "--mu", "auto", "--loss-db", "3100:3300:50", "--dark", "0",
                *flags, "--output", os.devnull]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: link with loss 3200.0 dB has zero gain\n"

    def test_dark_counts_keep_a_link_past_transmittance_underflow(self, tmp_path):
        # eta = 0.5 * 10^(-loss/10) underflows to 0 between 3000 and 3500 dB;
        # dark counts still give such a link a gain, and the sweep rate 0.
        out = tmp_path / "decoy.csv"
        assert cli.main(["decoy-sweep", "--loss-db", "0:4000:500", "--output", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in read_lines(out)[1:]]
        assert [row[0] for row in rows] == [500.0 * i for i in range(9)]
        assert [row[2] for row in rows[7:]] == [0.0, 0.0]

    @pytest.mark.parametrize("mu", ["auto", "0.3"])
    def test_link_without_transmittance_or_dark_counts_names_its_loss(self, mu, capsys):
        argv = ["decoy-sweep", "--loss-db", "0:4000:500", "--dark", "0", "--mu", mu,
                "--output", os.devnull]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: link with loss 3500.0 dB has zero gain\n"


class TestMonteCarlo:
    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["montecarlo", "--rounds", "100000", "--seed", "42", "--flip",
                "0.05", "--nodes", "1"]
        assert cli.main(base + ["--output", str(out1)]) == 0
        assert cli.main(base + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_basis_vector_without_samples_has_nan_rate(self, capsys):
        assert cli.main(
            ["montecarlo", "--rounds", "1000", "--detect", "1e-9", "--nodes", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "u=0: 0/0 rate=nan" in out
        assert "u=1: 0/0 rate=nan" in out

    def test_no_survivors_at_max_rounds(self, capsys):
        # p_keep underflows to 0: one capped block per link, no survivor, and
        # nan rates without a RuntimeWarning (an error under this suite).
        argv = ["montecarlo", "--detect", "5e-324", "--rounds", "1000000000000"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "survivors per link: [0, 0]" in out
        assert out.count("0/0 rate=nan") == 4

    @pytest.mark.parametrize("from_config", [False, True])
    def test_empty_output_path_rejected(self, from_config, tmp_path, capsys):
        # An empty path cannot be written, as for the sweeps; montecarlo once
        # took it for no --output and exited 0 without a CSV.
        argv = ["montecarlo", "--rounds", "1000"]
        if from_config:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"output": ""}))
            argv = ["--config", str(config), *argv]
        else:
            argv += ["--output", ""]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write : ") and err.count("\n") == 1

    def test_summary_printed(self, capsys):
        assert cli.main(
            ["montecarlo", "--rounds", "20000", "--seed", "1", "--nodes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "survivors per link" in out
        assert "u=00" in out


class TestImports:
    # A fresh interpreter imports the CLI and runs argv, then prints its exit
    # status and the modules below that it loaded.  numpy's import is most of
    # a one-shot run's start-up; qubit builds its branch tables at import,
    # and only verify needs them, through acceptance_checks.  dataclasses
    # (with inspect) and json are the standard library's costliest imports
    # that a run on floats can do without, and only a handler needs keyrate.
    RUN_AND_LIST = """if True:
        import sys, strqkd.cli
        try:
            status = strqkd.cli.main(sys.argv[1:])
        except SystemExit as exc:
            status = exc.code
        modules = ("numpy", "strqkd.keyrate", "strqkd.decoy", "strqkd.relay", "strqkd.qubit",
                   "strqkd.acceptance_checks", "dataclasses", "inspect", "json")
        print(status, [m for m in modules if m in sys.modules])
    """

    FLOAT_RUNS = [  # (argv, exit status, the modules above loaded)
        (["--version"], 0, []),
        (["--help"], 0, []),
        (["qubit-rate", "--help"], 0, []),
        (["qubit-rate", "--e-link", "0.03", "--nodes", "2"], 0, ["strqkd.keyrate"]),
        (["montecarlo", "--rounds", "x"], 2, []),
        (["decoy-sweep", "--loss-db", "x"], 2, ["strqkd.keyrate"]),
        (["fig2-sweep", "--nodes", "17"], 2, ["strqkd.keyrate"]),
        (["fig2-sweep", "--e-link", "0:0.7:0.1"], 2, ["strqkd.keyrate"]),
        # Only a config needs json.
        (["--config", "missing.json", "qubit-rate", "--e-link", "0.03"], 2, ["json"]),
    ]

    @pytest.mark.parametrize("argv,status,loaded", FLOAT_RUNS,
                             ids=[" ".join(argv) for argv, *_ in FLOAT_RUNS])
    def test_cli_import_leaves_qubit_unloaded(self, argv, status, loaded, tmp_path):
        src = str(Path(strqkd.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", self.RUN_AND_LIST, *argv], capture_output=True,
            text=True, check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.splitlines()[-1] == f"{status} {loaded}"

    @pytest.mark.parametrize(
        "module", ["acceptance_checks", "cli", "decoy", "keyrate", "qubit", "relay"]
    )
    def test_every_public_name_resolves(self, module):
        mod = importlib.import_module(f"strqkd.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    @pytest.mark.parametrize(
        "path", sorted(Path(strqkd.__file__).parent.glob("*.py")), ids=lambda path: path.name
    )
    def test_no_private_name_of_another_module(self, path):
        # Imports of another strqkd module's underscore names, and attribute
        # reads of them through a strqkd module; dunders such as __version__
        # are public.
        def private(name):
            return name.startswith("_") and not name.endswith("__")

        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, used = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "strqkd"
            ):
                from_package = node.module in (None, "strqkd")
                for alias in node.names:
                    if from_package:
                        modules.add(alias.asname or alias.name)
                    elif private(alias.name):
                        used.append(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname and alias.name.startswith("strqkd."))
        used += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and private(node.attr)]
        assert used == []


OPTIONS = [(command, flag) for command, (_, _, options) in cli._COMMANDS.items()
           for flag in options]


class TestOptionTable:
    @pytest.mark.parametrize("command,flag", OPTIONS)
    def test_config_value_used_and_flag_wins(self, command, flag, tmp_path):
        options = cli._COMMANDS[command][2]
        kwargs, dest = options[flag], flag[2:].replace("-", "_")
        # Required options other than the one under test are given as flags.
        argv = [command] + [f"{f}=1" for f, kw in options.items()
                            if kw.get("required") and f != flag]
        # (config value, flag arguments, parsed value): first the config value
        # alone, then the config value overridden by the flag.  A switch can
        # only be turned on by its flag.
        if kwargs.get("action") == "store_true":
            cases = [(True, [], True), (False, [flag], True)]
        elif "choices" in kwargs:
            chosen, other = kwargs["choices"][-1], kwargs["choices"][0]
            cases = [(chosen, [], chosen), (chosen, [f"{flag}={other}"], other)]
        else:
            kind = kwargs.get("type", str)
            cases = [(kind("3"), [], kind("3")), (kind("3"), [f"{flag}=4"], kind("4"))]
        # The config may name the option by its flag or by its dest.
        for key in {dest, kwargs.get("dest", dest)}:
            for value, flags, expected in cases:
                config = tmp_path / "cfg.json"
                config.write_text(json.dumps({key: value}))
                args = cli._parse_args(["--config", str(config), *argv, *flags])
                assert getattr(args, kwargs.get("dest", dest)) == expected
        if not kwargs.get("required"):  # else parsing without the config exits
            assert getattr(cli._parse_args(argv), kwargs.get("dest", dest)) != cases[0][2]

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flag in OPTIONS
        if {"choices", "action", "type"} & set(cli._COMMANDS[command][2][flag])
    ])
    def test_config_value_outside_the_option_exits_2(self, command, flag, tmp_path, capsys):
        # argparse checks no default against choices and takes any default of
        # a switch as its value: "bogus" once ran as a scenario, and "false"
        # turned the switch on.  A typed default it rejected with its usage,
        # as an error of a flag never given.  The flag given as well does not
        # mend it.
        options = cli._COMMANDS[command][2]
        kwargs, dest = options[flag], flag[2:].replace("-", "_")
        argv = [command] + [f"{f}=1" for f, kw in options.items() if kw.get("required")]
        if kwargs.get("action") == "store_true":
            values, flags = ["false", 1, 0, "true"], [flag]
        elif "type" in kwargs:
            values, flags = ["x", True, [1], {"a": 1}], [f"{flag}=1"]
            if kwargs["type"] is int:
                values += [2.0, 1e3, "1.5"]
        else:
            values, flags = ["bogus", 1, kwargs["choices"][0].upper()], [
                f"{flag}={kwargs['choices'][0]}"]
        config = tmp_path / "cfg.json"
        for value, extra in [(v, f) for v in values for f in ([], flags)]:
            config.write_text(json.dumps({dest: value}))
            assert exit_code(["--config", str(config), *argv, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {command} option {dest} ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert [flag for flag in cli._COMMANDS[command][2] if flag not in out] == []


def reference_parse(argv):
    """The CLI's parser as built before a run of a known subcommand built only
    that subcommand's parser: all five subparsers, and the chosen one's
    options (no --config handling)."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs="?")
    command = pre.parse_known_args(argv)[0].command
    parser = argparse.ArgumentParser(
        prog="strqkd",
        description="Simplified trusted relay QKD simulation and key-rate toolkit",
    )
    parser.add_argument("--config", help="JSON config file with default values")
    parser.add_argument("--version", action="version", version=f"strqkd {strqkd.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, _) in cli._COMMANDS.items():
        sub.add_parser(name, help=help_text).set_defaults(func=run)
    if command in cli._COMMANDS:
        for flag, kwargs in cli._COMMANDS[command][2].items():
            sub.choices[command].add_argument(flag, **kwargs)
    return parser.parse_args(argv)


PARSER_ARGVS = [
    ["--help"], *([command, "--help"] for command in cli._COMMANDS), ["--version"],
    [], ["bogus"], ["mont"], ["--bogus", "montecarlo"], ["montecarlo", "--bogus"],
    ["montecarlo", "--rounds", "x"], ["qubit-rate"], ["montecarlo", "--roun", "10"],
    ["decoy-sweep", "--scenario", "x"], ["verify", "--seed", "3"],
    ["qubit-rate", "--e-link", "0.1", "extra"], ["--version", "fig2-sweep"],
    # A help flag or "--" before a known command: top-level help lists every
    # subcommand, and "--" is read as an invalid command.
    ["--help", "montecarlo"], ["-h", "verify"], ["--he", "qubit-rate"], ["-hx", "verify"],
    ["--", "montecarlo"], ["montecarlo", "--", "--rounds", "5"],
]


def run_printed(run, directory):
    # Each printed-config run starts in an empty directory, where a --config
    # run finds its config.json.
    assert cli.main(printed_argv(run, directory)) == 0


class TestGoldens:
    @pytest.mark.parametrize("golden", list(GOLDENS))
    def test_run_matches_golden(self, golden, tmp_path, capsys):
        out = tmp_path / golden
        csv = golden.endswith(".csv")
        assert cli.main(GOLDENS[golden] + ["--output", str(out)] * csv) == 0
        got = out.read_bytes() if csv else capsys.readouterr().out.encode("utf-8")
        assert got == (DATA / golden).read_bytes(), f"{golden} differs{numpy_note(golden)}"

    def test_every_data_file_is_listed(self):
        # Both runners read one list: a data file left off it would go
        # unchecked, and a listed golden without its file fails only here.
        names = sorted(path.name for path in DATA.iterdir())
        assert names == sorted([*GOLDENS, "printed_config.json"])


class TestPrintedConfig:
    @pytest.mark.parametrize(
        "run", PRINTED_RUNS,
        ids=lambda run: " ".join(run["argv"][:1] + ["--config"] * (run["config"] is not None)),
    )
    def test_stdout_matches_golden(self, run, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_printed(run, tmp_path)
        assert capsys.readouterr().out == run["stdout"]

    def test_replayed_in_one_process_forward_then_reverse(self, tmp_path, monkeypatch,
                                                          capsys):
        # Each run finds the parsers the runs before it left cached.
        for i, run in enumerate([*PRINTED_RUNS, *reversed(PRINTED_RUNS)]):
            directory = tmp_path / str(i)
            directory.mkdir()
            monkeypatch.chdir(directory)
            run_printed(run, directory)
            assert capsys.readouterr().out == run["stdout"], run["argv"]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_keys_are_the_option_dests(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_printed(next(run for run in PRINTED_RUNS if run["argv"][0] == command), tmp_path)
        out = capsys.readouterr().out
        keys = [line.split(" = ")[0].strip() for line in out.splitlines() if line.startswith("  ")]
        dests = [kwargs.get("dest", flag[2:].replace("-", "_"))
                 for flag, kwargs in cli._COMMANDS[command][2].items()]
        assert keys == sorted(dests + ["e_end_to_end"] * (command == "qubit-rate"))


def parse_outcomes(argv, capsys):
    """The namespace or exit code, stdout and stderr of the reference parser
    and of the CLI's, each parsing ``argv``.  The reference is built in this
    process, so both sides share the interpreter's argparse wording."""
    outcomes = []
    for parse in (reference_parse, cli._parse_args):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        outcomes.append((result, *capsys.readouterr()))
    return outcomes


class TestParser:
    @pytest.mark.parametrize("columns", ["60", "100"])
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_same_as_parser_with_every_subcommand(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        reference, parsed = parse_outcomes(argv, capsys)
        assert parsed == reference

    @pytest.mark.parametrize("columns", ["60", "100"])
    def test_same_as_parser_from_cold_and_warm_cache(self, columns, monkeypatch, capsys):
        # Every argv parsed by parsers built at one width, then by the stored
        # ones at both: help and usage take their width from COLUMNS at each
        # call.
        cli._parser.cache_clear()
        for width in [columns, "60", "100"]:
            monkeypatch.setenv("COLUMNS", width)
            for argv in PARSER_ARGVS:
                reference, parsed = parse_outcomes(argv, capsys)
                assert parsed == reference, argv

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser built from here on."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_one_parser_per_process(self, built, tmp_path, capsys):
        # From a cold cache, every subcommand run without and with a config
        # builds the top-level parser and the five subparsers once; a config
        # that sets the required --e-link builds one more set, and repeat
        # runs build none.
        cli._parser.cache_clear()
        runs = {
            "qubit-rate": (["--e-link", "0.01"], {"nodes": 2}),
            "fig2-sweep": (["--e-link", "0:0:1", "--output", os.devnull], {"nodes": "1"}),
            "decoy-sweep": (["--loss-db", "0:0:1", "--mu", "0.3", "--output", os.devnull],
                            {"nodes": 2}),
            "montecarlo": (["--rounds", "1000"], {"nodes": 2}),
            "verify": (["--trials", "1"], {"seed": 3}),
        }
        argvs = []
        for command, (flags, config) in runs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            argvs += [[command, *flags], ["--config", str(path), command, *flags]]
        e_link = tmp_path / "e_link.json"
        e_link.write_text(json.dumps({"e_link": 0.01}))
        one_set = ["strqkd", *(f"strqkd {command}" for command in cli._COMMANDS)]
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        assert built == one_set
        assert cli.main(["--config", str(e_link), "qubit-rate"]) == 0
        assert built == one_set * 2
        built.clear()
        for argv in [*argvs, ["--config", str(e_link), "qubit-rate"]]:
            assert cli.main(argv) == 0, argv
        assert built == []

    def test_repeat_run_builds_no_parser(self, built, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 2}))
        for argv in (["qubit-rate", "--e-link", "0.01"],
                     ["--config", str(config), "qubit-rate", "--e-link", "0.01"]):
            assert cli.main(argv) == 0
            built.clear()
            assert cli.main(argv) == 0
            assert built == [], argv

    @pytest.mark.parametrize("argv", [
        ["qubit-rate", "--e-link", "0.01"],
        ["fig2-sweep", "--output", os.devnull],
        ["decoy-sweep", "--loss-db", "0:2:1", "--output", os.devnull],
        ["montecarlo", "--rounds", "1000", "--nodes", "3"],
        ["verify", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_repeat_run_leaves_no_cyclic_garbage(self, argv, capsys):
        # argparse's help formatters form reference cycles, so a run that
        # builds a parser leaves cyclic garbage behind.
        assert cli.main(argv) == 0
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert cli.main(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 2, "e_link": 0.02}))
        code = cli.main(
            ["--config", str(config), "qubit-rate", "--e-link", "0.03"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes = 2" in out  # from config
        assert "e_link = 0.03" in out  # flag wins

    def test_explicit_flag_equal_to_default_wins(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 3}))
        code = cli.main(
            ["--config", str(config), "qubit-rate", "--e-link", "0.03", "--nodes", "1"]
        )
        assert code == 0
        assert "nodes = 1" in capsys.readouterr().out

    def test_config_satisfies_required_option(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"e_link": 0.02}))
        assert cli.main(["--config", str(config), "qubit-rate"]) == 0
        assert "e_link = 0.02" in capsys.readouterr().out

    def test_config_value_read_as_flag(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 1, "e_link": "0:0.1:0.05"}))
        out = tmp_path / "fig2.csv"
        code = cli.main(["--config", str(config), "fig2-sweep", "--output", str(out)])
        assert code == 0
        assert read_lines(out)[0] == "e_link,rate_str1"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodse": 2}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "qubit-rate", "--e-link", "0.03"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nodse" in err

    def test_removed_workers_option_rejected(self, tmp_path, capsys):
        # --workers had no effect on the run; a config that sets it is stale.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"workers": 1}))
        assert exit_code(["--config", str(config), "montecarlo", "--rounds", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: montecarlo has no option workers\n"

    @pytest.mark.parametrize("content", [{"bogus": 1}, {"nodes": 3}])
    def test_config_after_the_command_is_not_read(self, content, tmp_path, capsys):
        # --config is a top-level option: after the command argparse rejects
        # it, with the same error whatever the file holds.
        config = tmp_path / "c.json"
        config.write_text(json.dumps(content))
        assert exit_code(["qubit-rate", "--e-link", "0.01", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"strqkd: error: unrecognized arguments: --config {config}"
        )

    def test_bad_config_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "qubit-rate", "--e-link", "0.03"])
        assert exc.value.code == 2

    # Not UTF-8, an int too long to convert and nesting too deep to decode
    # once ended in tracebacks.
    @pytest.mark.parametrize("content", [
        None, b"[1, 2]", b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}",
        b"[" * 100_000 + b"]" * 100_000,
    ])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "fig2-sweep"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "values,argv,code",
        [
            # Null once reached the rate and the chain as None, a TypeError.
            ({"e_link": None}, ["qubit-rate"], 2),
            ({"nodes": None}, ["montecarlo", "--rounds", "1000"], 2),
            # --output defaults to None, so null is its own default.
            ({"output": None}, ["montecarlo", "--rounds", "1000"], 0),
        ],
    )
    def test_null_only_for_an_option_without_a_value(
        self, tmp_path, capsys, values, argv, code
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        assert exit_code(["--config", str(config), *argv]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "content,dest",
        # Each ran once with the value that came last in the file.
        [('{"nodes": 1, "nodes": 2, "e_link": 0.02}', "nodes"),
         ('{"e-link": 0.02, "e_link": 0.2}', "e_link"),
         ('{"e_link": 0.2, "e-link": 0.02}', "e_link")],
    )
    def test_option_named_twice_rejected(self, tmp_path, capsys, content, dest):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        assert exit_code(["--config", str(config), "qubit-rate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {config} sets {dest} twice\n"

    @pytest.mark.parametrize(
        "content,command,dest",
        [('{"eta_det": 0.4, "detector_efficiency": 0.3}', "decoy-sweep",
          "detector_efficiency"),
         ('{"dark_count_prob": 0, "dark": 1e-5}', "decoy-sweep", "dark_count_prob"),
         ('{"detect": 0.5, "detect-prob": 0.5}', "montecarlo", "detect_prob")],
    )
    def test_option_under_both_names_rejected(self, tmp_path, capsys, content, command, dest):
        # Under its flag's name and its dest, as under a repeated key.
        config = tmp_path / "cfg.json"
        config.write_text(content)
        assert exit_code(["--config", str(config), command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {config} sets {dest} twice\n"

    @pytest.mark.parametrize("argv", [
        ["decoy-sweep", "--loss-db", "0:10:5", "--nodes", "2", "--mu", "0.3", "--f-ec", "1.1",
         "--p-z", "0.6", "--eta-det", "0.4", "--dark", "1e-5", "--e-det", "0.02",
         "--conservative"],
        ["montecarlo", "--rounds", "20000", "--nodes", "2", "--flip", "0.05",
         "--detect", "0.5", "--p-z", "0.3", "--seed", "9"],
    ], ids=lambda argv: argv[0])
    def test_printed_config_fed_back_reproduces_the_run(self, argv, tmp_path, monkeypatch,
                                                        capsys):
        def run_in(directory, args):
            # Each run writes out.csv in its own directory.
            directory.mkdir()
            monkeypatch.chdir(directory)
            assert cli.main(args) == 0
            return capsys.readouterr().out, Path("out.csv").read_bytes()

        by_flags = run_in(tmp_path / "flags", [*argv, "--output", "out.csv"])
        # The printed values go back as JSON strings, read as flags are, the
        # switches' as booleans and None as null.
        printed = [line[2:].split(" = ", 1) for line in by_flags[0].splitlines()
                   if line.startswith("  ")]
        literals = {"True": True, "False": False, "None": None}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: literals.get(value, value) for key, value in printed}))
        assert run_in(tmp_path / "config", ["--config", str(config), argv[0]]) == by_flags

    def test_object_value_read_as_its_str(self, tmp_path, monkeypatch, capsys):
        # A value is read as if given as a flag, str(value): an object keeps
        # its key order, in the echo and in the file name.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text('{"output": {"z": 1, "a": 2}, "e_link": "0:0:1"}')
        assert cli.main(["--config", str(config), "fig2-sweep"]) == 0
        assert "output = {'z': 1, 'a': 2}" in capsys.readouterr().out
        assert (tmp_path / "{'z': 1, 'a': 2}").exists()

    def test_runs_in_one_process_leave_no_state(self, tmp_path, capsys):
        # A config run, a plain run, then both again: each resolves what it
        # resolved the first time.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": 3}))
        sweep = ["decoy-sweep", "--mu", "0.3", "--loss-db", "0:0:1", "--output", os.devnull]
        runs = [["--config", str(config), *sweep], sweep] * 2

        def resolved(argv):
            assert cli.main(argv) == 0
            return capsys.readouterr().out

        outs = [resolved(argv) for argv in runs]
        assert outs[2:] == outs[:2]
        assert "nodes = 3" in outs[0] and "nodes = 1" in outs[1]

    def test_config_reread_on_every_call(self, tmp_path, monkeypatch, capsys):
        # Same path, new content: the new value.
        monkeypatch.chdir(tmp_path)
        argv = ["--config", "config.json", "qubit-rate", "--e-link", "0.01"]
        for nodes in (3, 2):
            Path("config.json").write_text(json.dumps({"nodes": nodes}))
            assert cli.main(argv) == 0
            assert f"  nodes = {nodes}\n" in capsys.readouterr().out

    def test_equal_values_keep_their_own_sign(self, tmp_path, capsys):
        # 0.0 and -0.0 are equal, yet each run prints its own.
        config = tmp_path / "cfg.json"
        for flip in ["-0.0", "0.0", "-0.0"]:
            config.write_text(f'{{"flip": {flip}}}')
            assert cli.main(["--config", str(config), "montecarlo", "--rounds", "100"]) == 0
            assert f"  flip_prob = {flip}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("run", [run for run in PRINTED_RUNS if run["config"] is not None],
                             ids=lambda run: run["argv"][0])
    def test_run_without_config_after_one_prints_table_defaults(self, run, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_printed(run, tmp_path)
        capsys.readouterr()
        assert cli.main(run["argv"]) == 0
        printed = dict(line[2:].split(" = ", 1)
                       for line in capsys.readouterr().out.splitlines() if line.startswith("  "))
        command = run["argv"][0]
        for flag, kwargs in cli._COMMANDS[command][2].items():
            if flag not in run["argv"]:
                dest = kwargs.get("dest", flag[2:].replace("-", "_"))
                assert printed[dest] == str(kwargs.get("default", False)), flag


class TestClosedStdout:
    # Each subcommand with its output on stdout alone, a sweep that also
    # writes its CSV there, and help and version.
    ARGVS = {
        "qubit-rate": ["qubit-rate", "--e-link", "0.01"],
        "fig2-sweep": ["fig2-sweep", "--output", os.devnull],
        "decoy-sweep": ["decoy-sweep", "--loss-db", "0:2:1", "--output", os.devnull],
        "montecarlo": ["montecarlo", "--rounds", "1000", "--nodes", "3"],
        "verify": ["verify", "--trials", "1"],
        "fig2-sweep-csv": ["fig2-sweep", "--output", "/dev/stdout"],
        # argparse's own writes, which it once let fail silently unbuffered.
        "help": ["--help"],
        "montecarlo-help": ["montecarlo", "--help"],
        "version": ["--version"],
    }

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", list(ARGVS))
    def test_ends_in_one_error_line(self, case, buffered):
        # Once a BrokenPipeError traceback and exit 1 unbuffered, and
        # "Exception ignored" with exit 120 buffered.
        if case == "fig2-sweep-csv" and not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout")
        src = str(Path(strqkd.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, *([] if buffered else ["-u"]), "-m", "strqkd.cli"]
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([*argv, *self.ARGVS[case]], stdout=write,
                                    stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert result.returncode == 2
        # The CSV's own write may fail first, naming its path.
        target = "/dev/stdout" if case == "fig2-sweep-csv" and buffered else "stdout"
        assert result.stderr.startswith(f"error: cannot write {target}: ")
        assert result.stderr.count("\n") == 1


class TestVerify:
    def test_verify_passes(self, capsys):
        assert cli.main(["verify", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "suites passed" in out


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# Grids stay a few points long; every other value is any finite float, passed
# as --flag=value so that negative values reach the program.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def grids(start):
    return st.builds(
        lambda a, step, n: f"{a!r}:{a + n * step!r}:{step!r}",
        start,
        st.floats(min_value=1e-6, max_value=100.0),
        st.integers(min_value=0, max_value=2),
    )


class TestBoundary:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["fig2-sweep", "--nodes", "0,-1"], 2),
            (["decoy-sweep", "--loss-db", "300:400:100", "--dark", "0"], 0),
            (["decoy-sweep", "--loss-db", "3200:3200:1", "--dark", "0"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "800"], 0),
            (["decoy-sweep", "--loss-db", "0:2:2", "--mu", "0.3", "--e-det", "0.5"], 0),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--p-z", "5"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--p-z", "0"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--f-ec", "0.9"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--scenario", "conventional",
              "--f-ec", "0.9"], 2),
            (["fig2-sweep", "--e-link", "0:1e308:1e-308"], 2),
            (["fig2-sweep", "--e-link", "1:0:1"], 2),
            (["fig2-sweep", "--e-link", "0:1:1e-300"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "nan"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "inf"], 2),
            (["fig2-sweep", "--e-link", "0:0.1:0.1", "--nodes", "0,17"], 2),
            (["montecarlo", "--rounds", "1000", "--nodes", "17"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--nodes", "17"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "auto", "--nodes", "17"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--scenario",
              "conventional", "--nodes", "17"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "auto", "--scenario",
              "conventional", "--nodes", "-5"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--nodes", "-5"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--scenario",
              "conventional", "--nodes", "16"], 0),
            (["montecarlo", "--rounds", "1000", "--p-z", "0"], 2),
            (["montecarlo", "--rounds", "1000", "--p-z", "1"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "0.3", "--f-ec", "inf"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "auto", "--f-ec", "inf"], 2),
            (["fig2-sweep", "--e-link", "0:0.1:0.1", "--nodes", "1,1"], 2),
            (["fig2-sweep", "--nodes", "1,x"], 2),
            (["fig2-sweep", "--nodes", ""], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "abc"], 2),
            # Without MAX_ROUNDS this streams some 10^9 blocks, for days.
            (["montecarlo", "--rounds", "1000000000000000", "--detect", "1e-9"], 2),
        ],
    )
    def test_exit_code(self, argv, code, capsys):
        assert exit_code(argv + ["--output", os.devnull]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,error",
        [
            # Once the raw "invalid literal for int() with base 10: 'x'".
            (["--nodes", "1,x"], "--nodes must be comma-separated integers, got '1,x'"),
            (["--nodes", ""], "--nodes must be comma-separated integers, got ''"),
            # The grid is read first, the node counts next; then the first
            # grid point that fails, at its first failing node count.
            (["--nodes", "1,x", "--e-link", "1:0:1"], "invalid grid '1:0:1'"),
            (["--nodes", "1,1", "--e-link", "0:0.6:0.1"], "repeated node count in [1, 1]"),
            (["--e-link", "0:0.6:0.1"],
             "per-link error rate must lie in [0, 1/2], got 0.6000000000000001"),
            (["--nodes", "1,0", "--e-link", "0:0.6:0.1"],
             "e_link must lie in [0, 1/2], got 0.6000000000000001"),
            (["--nodes", "0,17"], "num_nodes must lie in [0, 16], got 17"),
            (["--nodes", "-1"], "num_nodes must lie in [0, 16], got -1"),
            (["--nodes", "2,17", "--e-link", "0:0.6:0.1"], "num_nodes must lie in [0, 16], got 17"),
            (["--nodes", "0,-1", "--e-link", "0.6:0.6:1"],
             "per-link error rate must lie in [0, 1/2], got 0.6"),
            # A bad node count first: the grid's first point is checked
            # before the count, and a later bad point never is.
            (["--nodes", "17,0", "--e-link", "0.6:0.6:1"],
             "e_link must lie in [0, 1/2], got 0.6"),
            (["--nodes", "17,0", "--e-link", "0:0.6:0.1"],
             "num_nodes must lie in [0, 16], got 17"),
        ],
    )
    def test_fig2_error_line(self, argv, error, capsys):
        assert exit_code(["fig2-sweep", *argv, "--output", os.devnull]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # Without the bound, leak = inf * h(0) printed as nan with exit 0.
            ["qubit-rate", "--e-link", "0", "--f-ec", "inf"],
            # Zero trials passed every suite vacuously; -5 and 10^9 failed
            # inside numpy, the latter with a memory error.
            ["verify", "--trials", "0"],
            ["verify", "--trials", "-5"],
            ["verify", "--trials", "1000000000"],
        ],
    )
    def test_rejected_without_output(self, argv, capsys):
        # Subcommands that take no --output, so not test_exit_code rows.
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2-sweep", "--e-link", "0:0.6:0.1"],
            ["fig2-sweep", "--nodes", "0,17"],
            ["decoy-sweep", "--loss-db", "0:0:1", "--mu", "nan"],
            ["decoy-sweep", "--loss-db", "0:0:1", "--p-z", "nan"],
            ["decoy-sweep", "--loss-db", "0:0:1", "--eta-det", "nan"],
            ["decoy-sweep", "--loss-db", "3200:3200:1", "--dark", "0"],
        ],
    )
    def test_rejected_sweep_prints_no_config(self, argv, capsys):
        # The rows are computed before the resolved config is printed.
        assert exit_code([*argv, "--output", os.devnull]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["montecarlo", "--rounds", "10"], ["verify", "--trials", "5"]]
    )
    def test_negative_seed_prints_no_config(self, argv, capsys):
        # numpy's "expected non-negative integer" once came after the config.
        assert exit_code([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    def test_decoy_mu_error_line(self, capsys):
        # Once the raw "could not convert string to float: 'abc'".
        argv = ["decoy-sweep", "--loss-db", "0:0:1", "--mu", "abc", "--output", os.devnull]
        assert exit_code(argv) == 2
        assert capsys.readouterr().err == "error: --mu must be 'auto' or a number, got 'abc'\n"

    def test_qubit_rate_node_count_bounded(self, capsys):
        # qubit-rate takes no --output, so it is not a test_exit_code row.
        assert exit_code(["qubit-rate", "--nodes", "17", "--e-link", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: num_nodes") and err.count("\n") == 1

    @given(nodes=st.integers(-3, 5), e_link=FINITE, f_ec=FINITE, p_z=FINITE)
    @settings(max_examples=60, deadline=None)
    def test_qubit_rate_exits_0_or_2(self, nodes, e_link, f_ec, p_z):
        argv = ["qubit-rate", f"--nodes={nodes}", f"--e-link={e_link!r}",
                f"--f-ec={f_ec!r}", f"--p-z={p_z!r}"]
        assert exit_code(argv) in (0, 2)

    @given(
        e_link=grids(st.floats(-1.0, 1.0)),
        nodes=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    )
    @example(e_link="0:0.12:0.04", nodes=[0, -1])
    @settings(max_examples=60, deadline=None)
    def test_fig2_sweep_exits_0_or_2(self, e_link, nodes):
        argv = ["fig2-sweep", f"--e-link={e_link}",
                "--nodes=" + ",".join(map(str, nodes)), f"--output={os.devnull}"]
        assert exit_code(argv) in (0, 2)

    @given(
        loss_db=grids(st.floats(-10.0, 400.0)),
        nodes=st.integers(-2, 4),
        scenario=st.sampled_from(["str", "conventional"]),
        mu=FINITE,
        f_ec=FINITE,
        p_z=FINITE,
        eta_det=FINITE,
        dark=FINITE,
        e_det=FINITE,
        conservative=st.booleans(),
    )
    @example(loss_db="0:10:5", nodes=1, scenario="str", mu=0.3, f_ec=1.2, p_z=0.5,
             eta_det=0.5, dark=6e-6, e_det=0.5, conservative=False)
    @settings(max_examples=100, deadline=None)
    def test_fixed_mu_decoy_sweep_exits_0_or_2(
        self, loss_db, nodes, scenario, mu, f_ec, p_z, eta_det, dark, e_det, conservative
    ):
        argv = ["decoy-sweep", f"--loss-db={loss_db}", f"--nodes={nodes}",
                f"--scenario={scenario}", f"--mu={mu!r}", f"--f-ec={f_ec!r}",
                f"--p-z={p_z!r}", f"--eta-det={eta_det!r}", f"--dark={dark!r}",
                f"--e-det={e_det!r}", f"--output={os.devnull}"]
        if conservative:
            argv.append("--conservative")
        assert exit_code(argv) in (0, 2)


# Per-flag values for the whole-CLI property: edge numbers and malformed
# strings half of the time, ordinary values otherwise.  --rounds and --trials
# take only small valid counts or counts rejected before anything is
# allocated, and node counts stay small, so that every example runs fast.
EDGE_FLOATS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e-320", "1e308", "x", "", "1e"]
FLOAT_FLAG = st.sampled_from(EDGE_FLOATS) | st.sampled_from(["0.03", "0.5", "1.2"])
INT_FLAG = st.sampled_from(["-1", "17", "1e3", "0.5", "x", ""]) | st.sampled_from(["0", "1", "2"])
SEED_FLAG = st.sampled_from(["-1", "1e3", "x"]) | st.sampled_from(["0", "7", str(2**64)])
GRID_FLAG = st.sampled_from([
    "-0:0:1", "1e-320:1e-320:1", "-5:5:5", "1e308:1e308:1", "nan:1:1", "0:inf:1",
    "0:1e308:1e-308", "1:0:1", "0:1:0", "0:1:-1", "a:b:c", "0:1", "",
]) | st.sampled_from(["0:0.1:0.05", "0:0:1", "300:400:100"])
CLI_FLAGS = {
    "qubit-rate": {"--nodes": INT_FLAG, "--e-link": FLOAT_FLAG, "--f-ec": FLOAT_FLAG,
                   "--p-z": FLOAT_FLAG},
    "fig2-sweep": {
        "--e-link": GRID_FLAG,
        "--nodes": st.sampled_from(["1,1", "-1", "17", "", "a", "1,,2"])
        | st.sampled_from(["0,1,2", "1", "2,0"]),
    },
    "decoy-sweep": {
        "--loss-db": GRID_FLAG, "--nodes": INT_FLAG,
        "--scenario": st.sampled_from(["str", "conventional", "x"]),
        "--mu": st.sampled_from(EDGE_FLOATS) | st.sampled_from(["auto", "0.3"]),
        "--f-ec": FLOAT_FLAG, "--p-z": FLOAT_FLAG, "--eta-det": FLOAT_FLAG,
        "--dark": FLOAT_FLAG, "--e-det": FLOAT_FLAG,
    },
    "montecarlo": {
        "--rounds": st.sampled_from(["-1", "0", "10000000000000", "1e3", "x"])
        | st.sampled_from(["1", "1000"]),
        "--seed": SEED_FLAG, "--flip": FLOAT_FLAG, "--detect": FLOAT_FLAG,
        "--nodes": INT_FLAG, "--p-z": FLOAT_FLAG,
        "--output": st.just(os.devnull),
    },
    "verify": {
        "--trials": st.sampled_from(["-1", "0", "1000000000", "1e3", "x"])
        | st.sampled_from(["1", "3"]),
        "--seed": SEED_FLAG,
    },
}


# --config values of every JSON type: ints and floats (edge ones included),
# the option's own flag strings or malformed ones, bools, null and lists.
CONFIG_VALUES = (
    st.integers(-1, 3) | st.sampled_from([17, 2**64])
    | st.sampled_from([0.5, 2.0, -0.0, 1e308, math.nan, math.inf])
    | st.sampled_from(["x", "", "true"]) | st.booleans() | st.none()
    | st.lists(st.integers(0, 2), max_size=2)
)


@st.composite
def cli_argvs(draw):
    """(argv, config): a config of None runs without --config; its keys are
    the subcommand's options, output excepted (it would name a file to write),
    and sometimes one that is not."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command]
    for flag, values in CLI_FLAGS[command].items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    if command == "decoy-sweep" and draw(st.booleans()):
        argv.append("--conservative")
    if command in ("fig2-sweep", "decoy-sweep"):
        argv.append(f"--output={os.devnull}")  # their default is a file here
    if not draw(st.booleans()):
        return argv, None
    keys = [flag[2:].replace("-", "_") for flag in cli._COMMANDS[command][2]]
    config = {}
    for key in draw(st.lists(st.sampled_from([*keys, "bogus"]), max_size=4, unique=True)):
        if key == "output":
            continue
        flag_values = CLI_FLAGS[command].get("--" + key.replace("_", "-"), st.nothing())
        config[key] = draw(CONFIG_VALUES | flag_values)
    return argv, config


def run_captured(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = exit_code(argv)
    return code, out.getvalue(), err.getvalue()


@given(run=cli_argvs())
# Both ended in exit 0 with a non-finite number printed before their bounds.
@example(run=(["qubit-rate", "--e-link=0", "--f-ec=inf"], None))
@example(run=(["verify", "--trials=0"], None))
# Config values that their option's type rejects once reached argparse as
# defaults, which it reported with its usage block as errors of the flag.
@example(run=(["decoy-sweep", "--mu=0.3", "--loss-db=0:0:1", f"--output={os.devnull}"],
              {"nodes": "x"}))
@example(run=(["montecarlo", "--rounds=10"], {"seed": 2.0}))
@example(run=(["montecarlo", "--rounds=10"], {"nodes": True}))
# Config values that their handler's parse rejected, once reported as errors
# of the flag.
@example(run=(["decoy-sweep", "--loss-db=0:0:1", f"--output={os.devnull}"], {"mu": True}))
@example(run=(["fig2-sweep", "--e-link=0:0:1", f"--output={os.devnull}"], {"nodes": [0, 1]}))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_every_subcommand_exits_0_or_2_with_one_error_line(run):
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", str(path), *argv]
        # Any other exception propagates and fails the test.
        code, out, err = run_captured(argv)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 0 and not errors or code == 2 and len(errors) == 1, (code, err)
    # Input is checked before the resolved config is printed.
    assert code == 0 or out == "", out
    if code == 0 and "montecarlo" not in argv:  # nan is its unobserved error rate
        assert not re.search(r"\b(nan|inf)\b", out), out
    # An error line names only flags given, but for the required one missing.
    for line in errors:
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert ("required" in line
                    or any(arg == flag or arg.startswith(flag + "=") for arg in argv)), err
    # A failure that the config alone brings about is one line on stderr.
    if code == 2 and config is not None and run_captured(argv[2:])[0] == 0:
        assert len(err.splitlines()) == 1, err
