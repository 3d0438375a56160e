"""Tests for the command-line surface: subcommands, CSV emission, config
handling, determinism."""

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strqkd import cli


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


class TestQubitRate:
    def test_runs(self, capsys):
        assert cli.main(["qubit-rate", "--e-link", "0.03", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "rate=" in out
        assert "seed" not in out  # deterministic command, no RNG involved

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

    def test_optimized_conventional(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = cli.main(
            ["decoy-sweep", "--loss-db", "0:2:2", "--scenario", "conventional",
             "--output", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert float(rows[0][2]) > 0.0


class TestMonteCarlo:
    def test_determinism_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["montecarlo", "--rounds", "100000", "--seed", "42", "--flip",
                "0.05", "--nodes", "1"]
        assert cli.main(base + ["--output", str(out1)]) == 0
        assert cli.main(base + ["--output", str(out2), "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_basis_vector_without_samples_has_nan_rate(self, capsys):
        assert cli.main(
            ["montecarlo", "--rounds", "1000", "--detect", "1e-9", "--nodes", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "u=0: 0/0 rate=nan" in out
        assert "u=1: 0/0 rate=nan" in out

    def test_summary_printed(self, capsys):
        assert cli.main(
            ["montecarlo", "--rounds", "20000", "--seed", "1", "--nodes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "survivors per link" in out
        assert "u=00" in out


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

    def test_bad_config_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "qubit-rate", "--e-link", "0.03"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [None, "[1, 2]"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        if content is not None:
            config.write_text(content)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "fig2-sweep"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
            (["decoy-sweep", "--loss-db", "300:400:100", "--dark", "0"], 2),
            (["decoy-sweep", "--loss-db", "0:0:1", "--mu", "800"], 0),
            (["decoy-sweep", "--loss-db", "0:2:2", "--mu", "0.3", "--e-det", "0.5"], 0),
            (["montecarlo", "--rounds", "1000", "--workers", "0"], 2),
            (["montecarlo", "--rounds", "1000", "--workers", "-3"], 2),
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
        ],
    )
    def test_exit_code(self, argv, code, capsys):
        assert exit_code(argv + ["--output", os.devnull]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1

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
