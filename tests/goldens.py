"""The golden runs: each file under ``tests/data`` and the CLI argv that writes it.

A ``.csv`` golden is the file a run writes to ``--output``, which its argv
leaves out; any other golden is the run's stdout.  ``printed_config.json``
pins the stdout, printed config included, of runs that may read a
``config.json`` from the directory they start in.

The test suite runs each golden inside the pytest process, where qubit's
tables are already built and every CLI run after the first finds its parser
cached.  Run as a script, this module reruns every golden in a fresh
``python -m strqkd.cli`` process, each in an empty temporary directory,
prints one line per mismatch and exits 1 if there is any::

    PYTHONPATH=src python tests/goldens.py
"""

import json
import os
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
# The runs start in another directory, so they find the package by an absolute path.
SRC = DATA.parent.parent / "src"
# The numpy whose Generator.binomial stream the Monte Carlo goldens were drawn with.
GOLDEN_NUMPY = "2.4.6"

_DECOY = ["decoy-sweep", "--loss-db", "0:40:0.5"]
_MONTECARLO = ["montecarlo", "--flip", "0.05", "--seed", "5"]

GOLDENS = {
    # verify's reference run: a change that moves one of its lines
    # regenerates the file and names the line.
    "verify_reference.txt": ["verify", "--trials", "200", "--seed", "2024"],
    # The Fig. 2 sweep of the rate-curves benchmark, and one over both ends of
    # the link error range, with unsorted node counts and the longest chain
    # (2^17 terms per point).
    "fig2.csv": ["fig2-sweep", "--e-link", "0:0.12:0.0005", "--nodes", "0,1,2"],
    "fig2_long.csv": ["fig2-sweep", "--e-link", "0:0.5:0.005", "--nodes", "3,0,16"],
    # The decoy sweeps of the rate-curves benchmark, at a fixed intensity
    # those of the public float rates, and one with biased bases, whose
    # sifting factor is not a power of two.
    "decoy_conventional.csv": [*_DECOY, "--mu", "auto", "--scenario", "conventional"],
    "decoy_str1.csv": [*_DECOY, "--mu", "auto", "--nodes", "1"],
    "decoy_str2.csv": [*_DECOY, "--mu", "auto", "--nodes", "2"],
    "decoy_fixed_str2.csv": [*_DECOY, "--mu", "0.3", "--nodes", "2"],
    "decoy_fixed_conventional.csv": [*_DECOY, "--mu", "0.3", "--scenario", "conventional"],
    "decoy_str2_pz03.csv": [*_DECOY, "--mu", "auto", "--nodes", "2", "--p-z", "0.3",
                            "--f-ec", "1.1"],
    # The Monte Carlo's random stream over three blocks per link, the last one
    # partial.  Each (link, block) substream holds the survivor count, the
    # basis and then the flip decisions, their tie bytes, and last the sent
    # bits, which run_protocol never draws.  The survivor counts come from
    # Generator.binomial, whose stream NEP 19 lets numpy change between
    # versions.
    # Three 2^26-round blocks per link, each paired: at detect 0.01 a block
    # holds about 3.4e5 survivors.
    "montecarlo.csv": [*_MONTECARLO, "--nodes", "2", "--detect", "0.01",
                       "--rounds", "150000000", "--p-z", "0.5"],
    # Three 2^20-round blocks that each pair and leave a carry, about 1.1 M rows.
    "montecarlo_dense.csv": [*_MONTECARLO, "--nodes", "2", "--detect", "1",
                             "--rounds", "2200000", "--p-z", "0.5"],
    # The same with 1 and 2 links, whose codes take 2 and 3 bits.
    "montecarlo_dense_nodes0.csv": [*_MONTECARLO, "--nodes", "0", "--detect", "1",
                                    "--rounds", "2200000", "--p-z", "0.5"],
    "montecarlo_dense_nodes1.csv": [*_MONTECARLO, "--nodes", "1", "--detect", "1",
                                    "--rounds", "2200000", "--p-z", "0.5"],
    # The same with 8 links, the shortest chain whose codes need uint16.
    "montecarlo_wide.csv": [*_MONTECARLO, "--nodes", "7", "--detect", "1",
                            "--rounds", "2200000", "--p-z", "0.5"],
    # The first two with biased bases, where the survival and X-basis
    # probabilities are not dyadic and their float forms round, and a basis
    # takes a byte of the stream, not one bit.
    "montecarlo_pz03.csv": [*_MONTECARLO, "--nodes", "2", "--detect", "0.01",
                            "--rounds", "150000000", "--p-z", "0.3"],
    "montecarlo_pz03_dense.csv": [*_MONTECARLO, "--nodes", "2", "--detect", "1",
                                  "--rounds", "2200000", "--p-z", "0.3"],
}

# Runs pinned with their stdout, their resolved config included, as the CLI
# printed them before the config was rendered from the parsed options.
PRINTED_RUNS = json.loads((DATA / "printed_config.json").read_text(encoding="utf-8"))


def printed_argv(run, directory):
    """The argv of a printed-config run started in ``directory``, after
    writing the run's ``config.json`` there if it has one."""
    if run["config"] is None:
        return run["argv"]
    (directory / "config.json").write_text(json.dumps(run["config"]), encoding="utf-8")
    return ["--config", "config.json", *run["argv"]]


def numpy_note(golden):
    """For a Monte Carlo golden, the numpy it was drawn with and the one
    installed; otherwise an empty string."""
    if GOLDENS[golden][0] != "montecarlo":
        return ""
    return f"; drawn with numpy {GOLDEN_NUMPY}, this run has numpy {metadata.version('numpy')}"


def _mismatch(argv, directory, expected, output=None):
    """Why the CLI run on ``argv`` in a fresh process started in ``directory``
    does not write ``expected`` to ``output`` (or stdout), or None if it does."""
    result = subprocess.run(
        [sys.executable, "-m", "strqkd.cli", *argv, *(["--output", output] if output else [])],
        cwd=directory, stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if result.returncode:
        return f"exit status {result.returncode}"
    got = (directory / output).read_bytes() if output else result.stdout
    return None if got == expected else "output differs"


def main():
    failed = False
    for golden, argv in GOLDENS.items():
        with tempfile.TemporaryDirectory() as tmp:
            output = golden if golden.endswith(".csv") else None
            why = _mismatch(argv, Path(tmp), (DATA / golden).read_bytes(), output)
        if why:
            print(f"{golden}: {why} ({' '.join(argv)}){numpy_note(golden)}", flush=True)
            failed = True
    for i, run in enumerate(PRINTED_RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            argv = printed_argv(run, Path(tmp))
            why = _mismatch(argv, Path(tmp), run["stdout"].encode("utf-8"))
        if why:
            print(f"printed_config.json run {i}: {why} ({' '.join(argv)})", flush=True)
            failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
