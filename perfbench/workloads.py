"""The benchmark's workloads: the argv of one pass and the checks on its output.

Every workload is a closed loop of batch passes: one pass is the list of CLI
invocations below, and the next pass starts when the previous one returns.
Sizes are fixed here so that one pass takes one to two seconds on a 2-core
machine; the seed only feeds the program's own ``--seed``.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MC_NODES = 2
MC_FLIP = 0.05
MC_P_Z = 0.5  # the CLI default, restated for the survivor-count check
MC_DENSE_ROUNDS = 6_000_000
MC_SPARSE_ROUNDS = 12_000_000
FIG2_GRID = "0:0.12:0.0005"
DECOY_GRID = "0:40:0.5"
CERTIFY_TRIALS = 200

# Zero crossings of the Fig. 2 curves and their tolerance (acceptance criterion 5).
FIG2_CROSSINGS = {"rate_conventional": 0.1100, "rate_str1": 0.0584, "rate_str2": 0.0398}
CROSSING_TOL = 0.0005
DECOY_SCENARIOS = (
    ("conventional", ["--scenario", "conventional"]),
    ("str1", ["--nodes", "1"]),
    ("str2", ["--nodes", "2"]),
)


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, output dir) -> argv of each CLI call of one pass
    commands: Callable[[int, Path], list[list[str]]]
    # (argv list, captured stdout list) -> failure messages
    check: Callable[[list[list[str]], list[str]], list[str]]
    # what one pass does, for the results file
    sizes: dict
    link_rounds: int = 0  # rounds x links per pass (Monte Carlo only)


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _montecarlo(detect: str, rounds: int) -> Callable:
    def commands(seed: int, out: Path) -> list[list[str]]:
        return [[
            "montecarlo", "--nodes", str(MC_NODES), "--flip", str(MC_FLIP),
            "--detect", detect, "--rounds", str(rounds), "--seed", str(seed),
            "--output", str(out / "montecarlo.csv"),
        ]]

    return commands


def check_montecarlo(argvs: list[list[str]], stdouts: list[str]) -> list[str]:
    argv, stdout = argvs[0], stdouts[0]
    rounds = int(_option(argv, "--rounds"))
    detect = float(_option(argv, "--detect"))
    links = MC_NODES + 1
    failures = []
    # Independent of relay.compound_error: odd number of per-link flips.
    expected = 0.5 * (1.0 - (1.0 - 2.0 * MC_FLIP) ** links)
    rows = _read_csv(_option(argv, "--output"))
    if len(rows) != 1 << links:
        failures.append(f"montecarlo: {len(rows)} basis vectors, expected {1 << links}")
    for row in rows:
        errors, samples = int(row["errors"]), int(row["samples"])
        if samples <= 0:
            failures.append(f"montecarlo: u={row['basis_vector']} has no samples")
            continue
        sigma = math.sqrt(expected * (1.0 - expected) / samples)
        z = abs(errors / samples - expected) / sigma
        if z > 4.0:
            failures.append(f"montecarlo: u={row['basis_vector']} rate off by {z:.2f} sigma")
    match = re.search(r"survivors per link: \[([\d, ]+)\]", stdout)
    if match is None:
        return failures + ["montecarlo: no survivor counts printed"]
    survivors = [int(v) for v in match.group(1).split(",")]
    p_keep = detect * (MC_P_Z**2 + (1.0 - MC_P_Z) ** 2)
    mean, sigma = rounds * p_keep, math.sqrt(rounds * p_keep * (1.0 - p_keep))
    for link, count in enumerate(survivors):
        if abs(count - mean) > 5.0 * sigma:
            failures.append(f"montecarlo: link {link} kept {count}, expected {mean:.0f}")
    paired = sum(int(row["samples"]) for row in rows)
    if len(survivors) != links or paired != min(survivors):
        failures.append(f"montecarlo: {paired} paired for survivors {survivors}")
    return failures


def _rate_curves(seed: int, out: Path) -> list[list[str]]:
    argvs = [["fig2-sweep", "--e-link", FIG2_GRID, "--nodes", "0,1,2",
              "--output", str(out / "fig2.csv")]]
    for label, flags in DECOY_SCENARIOS:
        argvs.append(["decoy-sweep", "--mu", "auto", "--loss-db", DECOY_GRID, *flags,
                      "--output", str(out / f"decoy_{label}.csv")])
    return argvs


def check_rate_curves(argvs: list[list[str]], stdouts: list[str]) -> list[str]:
    failures = []
    fig2 = _read_csv(_option(argvs[0], "--output"))
    e_link = [float(r["e_link"]) for r in fig2]
    curves = {col: [float(r[col]) for r in fig2] for col in FIG2_CROSSINGS}
    for col, crossing in FIG2_CROSSINGS.items():
        rates = curves[col]
        first_zero = next((i for i, r in enumerate(rates) if r <= 0.0), None)
        if first_zero in (None, 0) or any(r > 0.0 for r in rates[first_zero:]):
            failures.append(f"fig2: {col} has no single zero crossing")
            continue
        lo, hi = e_link[first_zero - 1], e_link[first_zero]
        if not lo - CROSSING_TOL <= crossing <= hi + CROSSING_TOL:
            failures.append(f"fig2: {col} crosses zero in [{lo}, {hi}], expected {crossing}")
    conv, str1, str2 = curves.values()
    if not all(c >= s1 - 1e-12 and s1 >= s2 - 1e-12 for c, s1, s2 in zip(conv, str1, str2)):
        failures.append("fig2: rates not ordered conventional >= STR-1 >= STR-2")
    # Decoy sweeps: the invariants of acceptance criterion 7.
    sweeps = [[float(r["rate"]) for r in _read_csv(_option(a, "--output"))] for a in argvs[1:]]
    for (label, _), rates in zip(DECOY_SCENARIOS, sweeps):
        if not rates or rates[0] <= 0.0:
            failures.append(f"decoy {label}: rate not positive at 0 dB")
        if any(rates[i + 1] > rates[i] + 1e-15 for i in range(len(rates) - 1)):
            failures.append(f"decoy {label}: rate increases with loss")
    conv, str1, str2 = sweeps
    if len({len(s) for s in sweeps}) != 1 or not all(
        c >= s1 - 1e-15 and s1 >= s2 - 1e-15 for c, s1, s2 in zip(conv, str1, str2)
    ):
        failures.append("decoy: rates not ordered conventional >= STR-1 >= STR-2")
    return failures


def rate_points(argvs: list[list[str]]) -> int:
    """Rate values in the CSVs of one rate-curves pass."""
    fig2 = _read_csv(_option(argvs[0], "--output"))
    points = len(fig2) * len(FIG2_CROSSINGS)
    return points + sum(len(_read_csv(_option(a, "--output"))) for a in argvs[1:])


def _certify(seed: int, out: Path) -> list[list[str]]:
    return [["verify", "--trials", str(CERTIFY_TRIALS), "--seed", str(seed)]]


def check_certify(argvs: list[list[str]], stdouts: list[str]) -> list[str]:
    match = re.search(r"^(\d+)/(\d+) suites passed$", stdouts[0], re.MULTILINE)
    if match is None or match.group(1) != match.group(2) or match.group(2) == "0":
        return ["verify: not every suite passed"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-dense",
            _montecarlo("1", MC_DENSE_ROUNDS),
            check_montecarlo,
            {"rounds": MC_DENSE_ROUNDS, "nodes": MC_NODES, "flip": MC_FLIP, "detect": 1.0},
            MC_DENSE_ROUNDS * (MC_NODES + 1),
        ),
        Workload(
            "mc-sparse",
            _montecarlo("1e-3", MC_SPARSE_ROUNDS),
            check_montecarlo,
            {"rounds": MC_SPARSE_ROUNDS, "nodes": MC_NODES, "flip": MC_FLIP, "detect": 1e-3},
            MC_SPARSE_ROUNDS * (MC_NODES + 1),
        ),
        Workload(
            "rate-curves",
            _rate_curves,
            check_rate_curves,
            {"fig2_e_link": FIG2_GRID, "fig2_nodes": "0,1,2", "decoy_loss_db": DECOY_GRID,
             "decoy_scenarios": [label for label, _ in DECOY_SCENARIOS], "mu": "auto"},
        ),
        Workload(
            "certify",
            _certify,
            check_certify,
            {"trials": CERTIFY_TRIALS},
        ),
    )
}
