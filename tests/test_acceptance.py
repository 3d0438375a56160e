"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import itertools
import time

import numpy as np

from strqkd import cli, decoy, keyrate, qubit, relay
from strqkd.acceptance_checks import (
    FIG2_TOLERANCE,
    fig2_crossing_deviation,
    fig2_zero_crossings,
    fraction_identity_residual,
    holevo_gap,
    montecarlo_max_z,
    poisson_oracle_deviation,
    twirl_deviations,
)
from strqkd.decoy import LinkPhysics

FIG3B = dict(detector_efficiency=0.5, dark_count_prob=6e-6, intrinsic_error=0.0185)
FIG3A = dict(detector_efficiency=0.5, dark_count_prob=0.0, intrinsic_error=0.0)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_twirl_diagonalization():
    start = time.monotonic()
    worst, _, _ = twirl_deviations(np.random.default_rng(101), 100)
    elapsed = time.monotonic() - start
    report(
        "1 twirl diagonalization",
        worst < 1e-12 and elapsed < 10.0,
        f"max off-diagonal {worst:.3g}, {elapsed:.2f} s for 100 states",
    )


def test_criterion_2_twirl_invariance():
    _, _, worst = twirl_deviations(np.random.default_rng(102), 100)
    report("2 twirl error-rate invariance", worst < 1e-10, f"max delta {worst:.3g}")


def test_criterion_3_holevo_bound():
    start = time.monotonic()
    worst_gap = holevo_gap(np.random.default_rng(103), 1000)
    # Rank-deficient family saturating the bound: weight w on a phase flip
    # in the first link, evaluated for the Z/Z basis combination.
    best_equality_gap = np.inf
    for w in (0.05, 0.1, 0.2):
        alpha = np.zeros((2, 2, 2, 2))
        alpha[0, 0, 0, 0] = 1.0 - w
        alpha[1, 0, 0, 0] = w
        flat = alpha.reshape(16)
        best_equality_gap = min(
            best_equality_gap,
            qubit.holevo_bound(flat, 0, 0) - qubit.holevo_oracle(flat, 0, 0),
        )
    elapsed = time.monotonic() - start
    passed = worst_gap < 1e-9 and best_equality_gap < 1e-3 and elapsed < 120.0
    report(
        "3 Holevo bound certification",
        passed,
        f"max chi - bound = {worst_gap:.3g} over 4000 cases, equality gap "
        f"{best_equality_gap:.3g}, {elapsed:.1f} s",
    )


def test_criterion_4_rotated_bell_basis():
    def primed(a, b):
        return np.kron(np.eye(2), qubit.HADAMARD) @ qubit.bell_vector(a, b)

    rows = {
        (0, 0): [qubit.bell_vector(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))],
        (0, 1): [primed(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))],
        (1, 0): [primed(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))],
        (1, 1): [qubit.bell_vector(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))],
    }
    worst = 0.0
    for (u1, u2), expected in rows.items():
        for got, want in zip(qubit.rotated_bell_basis(u1, u2), expected):
            worst = max(worst, 1.0 - abs(np.vdot(got, want)))
    report(
        "4 rotated Bell basis rows",
        worst < 1e-12,
        f"max deviation from explicit rows (up to phase) {worst:.3g}",
    )


def test_criterion_5_fig2_thresholds():
    crossings = fig2_zero_crossings()
    ok_cross = fig2_crossing_deviation(crossings) < FIG2_TOLERANCE
    grid = [0.002 * i for i in range(61)]
    ok_order = all(
        row["rate_conventional"] >= row["rate_str1"] - 1e-12
        and row["rate_str1"] >= row["rate_str2"] - 1e-12
        for row in keyrate.fig2_curves(grid)
    )
    report(
        "5 qubit-curve thresholds and ordering",
        ok_cross and ok_order,
        ", ".join(f"{k}={v:.4f}" for k, v in crossings.items())
        + f", ordering {'ok' if ok_order else 'violated'}",
    )


def test_criterion_6_monte_carlo_consistency():
    worst_z = montecarlo_max_z(
        itertools.product((1, 2), (0.01, 0.05)), rounds=1_000_000, seed=600
    )
    cfg0 = relay.ChainConfig(num_nodes=1, rounds=200_000, flip_prob=0.0, seed=606)
    paired = relay.pair_and_announce(relay.run_quantum_phase(cfg0))
    corrected = paired.bob_bits ^ paired.parities[:, 0]
    noiseless_ok = (corrected == paired.alice_bits).all()
    table0 = relay.correct_and_estimate(paired)
    report(
        "6 Monte Carlo vs analytic",
        worst_z < 3.0 and noiseless_ok and not table0.errors.any(),
        f"max |z| = {worst_z:.2f} (3 sigma limit), noiseless exact: "
        f"{bool(noiseless_ok)}",
    )


def _sweep(mode, num_links, params, f_ec):
    chains = [
        [LinkPhysics(loss_db=float(loss), **params)] * num_links
        for loss in np.arange(0.0, 40.01, 0.5)
    ]
    return [rep.rate for _, rep in decoy.optimize_intensities(chains, f_ec=f_ec, mode=mode)]


def decoy_cutoff_loss(mode: str, num_links: int) -> float:
    """Smallest per-link loss, on a 1 dB grid up to 80 dB, with zero optimized
    rate for the default link physics and f_EC = 1.2."""
    losses = [float(loss) for loss in range(81)]
    chains = [[decoy.LinkPhysics(loss_db=loss)] * num_links for loss in losses]
    results = decoy.optimize_intensities(chains, f_ec=1.2, mode=mode)
    return next(
        (loss for loss, (_, report) in zip(losses, results) if report.rate <= 0.0),
        float("inf"),
    )


def test_criterion_7_decoy_model():
    start = time.monotonic()
    scenarios = {}
    for label, params, f_ec in (("B", FIG3B, 1.2), ("A", FIG3A, 1.0)):
        conv = _sweep("conventional", 2, params, f_ec)
        str1 = _sweep("str", 2, params, f_ec)
        str2 = _sweep("str", 3, params, f_ec)
        positive0 = conv[0] > 0 and str1[0] > 0 and str2[0] > 0
        monotone = all(
            all(r[i + 1] <= r[i] + 1e-15 for i in range(len(r) - 1))
            for r in (conv, str1, str2)
        )
        ordered = all(
            c >= s1 - 1e-15 and s1 >= s2 - 1e-15
            for c, s1, s2 in zip(conv, str1, str2)
        )
        scenarios[label] = (positive0, monotone, ordered)
    cut_conv = decoy_cutoff_loss("conventional", 2)
    cut_str1 = decoy_cutoff_loss("str", 2)
    cut_str2 = decoy_cutoff_loss("str", 3)
    cutoffs_ok = cut_str1 < cut_conv and cut_str2 < cut_conv
    elapsed = time.monotonic() - start
    passed = (
        all(all(flags) for flags in scenarios.values())
        and cutoffs_ok
        and elapsed < 300.0
    )
    report(
        "7 decoy-model sweeps",
        passed,
        f"panel B {scenarios['B']}, panel A {scenarios['A']}, cutoffs "
        f"conv={cut_conv:.0f} dB > str1={cut_str1:.0f} dB, str2={cut_str2:.0f} dB; "
        f"{elapsed:.1f} s",
    )


def test_criterion_8_fraction_identities():
    links = [
        LinkPhysics(loss_db=loss, dark_count_prob=dark, mu=mu)
        for loss, mu, dark in itertools.product(
            (0.0, 10.0, 25.0), (0.05, 0.3, 1.0), (0.0, 6e-6, 1e-4)
        )
    ]
    worst = poisson_oracle_deviation(links)
    exact = fraction_identity_residual([phys, phys] for phys in links) == 0.0
    report(
        "8 fraction identities and Poisson oracle",
        exact and worst < 1e-9,
        f"identity exact: {exact}, max closed-form vs oracle delta {worst:.3g}",
    )


def test_criterion_9_determinism(tmp_path):
    base = ["montecarlo", "--rounds", "300000", "--seed", "4242", "--flip",
            "0.03", "--nodes", "2"]
    paths = []
    for i in range(3):
        out = tmp_path / f"run{i}.csv"
        assert cli.main(base + ["--output", str(out)]) == 0
        paths.append(out.read_bytes())
    identical = paths[0] == paths[1] == paths[2]
    report("9 determinism at one seed", identical, f"3 runs byte-identical: {identical}")
