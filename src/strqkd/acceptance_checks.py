"""Shared numerical checks used by the verify subcommand and the test suite.

Each returns its worst deviation; callers choose the samples and the bound.
The decoy oracles rebuild the link model from photon numbers and use only
the public names of :mod:`strqkd.decoy`.
:func:`run_verification` runs them all as the suites of ``verify``.
"""

from __future__ import annotations

from itertools import product
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import decoy, keyrate, qubit, relay

__all__ = [
    "FIG2_TARGETS", "FIG2_TOLERANCE", "twirl_deviations", "rotated_basis_deviation",
    "holevo_gap", "relabeling_deviation", "montecarlo_max_z", "fig2_zero_crossings",
    "fig2_crossing_deviation", "poisson_oracle_deviation", "tagging_oracle_deviation",
    "fraction_identity_residual", "MAX_TRIALS", "run_verification",
]

# Per-link error rates where the Fig. 2 qubit-model curves cross zero.
FIG2_TARGETS = {"conventional": 0.1100, "str1": 0.0584, "str2": 0.0398}
FIG2_TOLERANCE = 0.0005

BASIS_PAIRS = list(product((0, 1), repeat=2))

# Most trials run_verification accepts.  The Holevo suite holds every random
# state at once, about 0.9 KiB of numpy memory per trial at its peak: a few
# arrays of 16 floats per state, the weights, spectra and entropy terms of
# one basis pair.  On x86-64 with numpy 2.4 a run at this cap peaked at
# 127 MiB resident, against 39 MiB at one trial.
MAX_TRIALS = 100_000


def twirl_deviations(rng: np.random.Generator, samples: int) -> tuple[float, ...]:
    """Largest Bell-basis off-diagonal element, idempotence error and basis
    error-rate change of the twirl over random 16x16 states."""
    basis = qubit.tensored_bell_basis_matrix()
    rho = qubit.random_density_matrix(rng, size=samples)
    tw = qubit.twirl(rho)
    diag = basis.conj().T @ tw @ basis
    worst_off = np.abs(diag[..., ~np.eye(16, dtype=bool)]).max(initial=0.0)
    worst_idem = np.abs(qubit.twirl(tw) - tw).max(initial=0.0)
    pair = np.stack((rho, tw))
    worst_inv = 0.0
    for u1, u2 in BASIS_PAIRS:
        e_rho, e_tw = qubit.basis_error_rate(pair, u1, u2)
        worst_inv = max(worst_inv, np.abs(e_rho - e_tw).max(initial=0.0))
    return float(worst_off), float(worst_idem), float(worst_inv)


def rotated_basis_deviation() -> float:
    """Largest deviation of a rotated Bell basis from orthonormality."""
    bases = [np.column_stack(qubit.rotated_bell_basis(u1, u2)) for u1, u2 in BASIS_PAIRS]
    return max(float(np.abs(v.conj().T @ v - np.eye(4)).max()) for v in bases)


def holevo_gap(rng: np.random.Generator, samples: int) -> float:
    """Largest Holevo oracle minus entropic bound over random Bell-diagonal
    states and all basis pairs (-inf without samples)."""
    alphas = qubit.random_bell_diagonal(rng, size=samples)
    gaps = [
        qubit.holevo_oracle(alphas, u1, u2) - qubit.holevo_bound(alphas, u1, u2)
        for u1, u2 in BASIS_PAIRS
    ]
    return float(np.max(gaps, initial=-np.inf))


def relabeling_deviation(rng: np.random.Generator, samples: int) -> float:
    """Largest change of the conditioned end-user state under (u1, u2, a, b)
    -> (~u1, ~u2, b, a) over random Bell-diagonal states."""
    alphas = qubit.random_bell_diagonal(rng, size=samples)
    states = {
        key: qubit.conditional_end_user_state(alphas, *key)
        for key in product((0, 1), repeat=4)
    }
    worst = 0.0
    for (u1, u2, a, b), (p, rho) in states.items():
        p2, rho2 = states[u1 ^ 1, u2 ^ 1, b, a]
        worst = max(
            worst, np.abs(p - p2).max(initial=0.0), np.abs(rho - rho2).max(initial=0.0)
        )
    return float(worst)


def montecarlo_max_z(
    cases: Iterable[tuple[int, float]], rounds: int, seed: int
) -> float:
    """Largest |z| of a Monte Carlo basis-vector error rate against the
    compound error model; case (nodes, flip) runs at seed ``seed + nodes``.
    A basis vector without samples makes the result nan.  Against a
    noise-free model a rate has z 0 if it equals the expected one and inf
    otherwise."""
    worst = 0.0
    for nodes, flip in cases:
        cfg = relay.ChainConfig(nodes, rounds, flip_prob=flip, seed=seed + nodes)
        table, _ = relay.run_protocol(cfg)
        expected = keyrate.compound_error([flip] * cfg.num_links)
        variance = expected * (1 - expected)
        deviation = np.abs(table.rates - expected)
        if variance > 0:
            with np.errstate(divide="ignore"):
                z = deviation / (variance / table.samples) ** 0.5
        else:
            z = np.where(deviation > 0, np.inf, deviation)
        worst = np.max(z, initial=worst)
    return float(worst)


def _bisect_root(fn, lo: float, hi: float, tol: float = 1e-7) -> float:
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fig2_zero_crossings() -> dict[str, float]:
    """Per-link error rates where the qubit-model curves hit zero."""

    def conventional(e: float) -> float:
        return keyrate.conventional_relay_rate([e]).unclamped

    def str_rate(e_link: float, nodes: int) -> float:
        return keyrate.uniform_str_rate(e_link, nodes).unclamped

    return {
        "conventional": _bisect_root(conventional, 1e-6, 0.25),
        "str1": _bisect_root(lambda e: str_rate(e, 1), 1e-6, 0.25),
        "str2": _bisect_root(lambda e: str_rate(e, 2), 1e-6, 0.25),
    }


def fig2_crossing_deviation(crossings: Mapping[str, float]) -> float:
    """Largest distance of a zero crossing from its target."""
    return max(abs(crossings[name] - e) for name, e in FIG2_TARGETS.items())


# Photons per link that the decoy oracles sum over; the Poisson tail beyond
# them is below 1e-14 for intensities up to 5.
ORACLE_PHOTONS = 30


def _photon_number_events(links: Sequence[decoy.LinkPhysics]) -> tuple[np.ndarray, ...]:
    """Per link (rows) and photon number n (columns): the probability that
    the source emits n photons, that the link then clicks, and that it
    clicks in error.  Each photon is detected with probability eta, with
    error e_int; with none detected, either of two detectors may
    dark-click, with error 1/2."""
    mu, eta_det, loss_db, dark, e_int = np.array([
        (p.mu, p.detector_efficiency, p.loss_db, p.dark_count_prob, p.intrinsic_error)
        for p in links
    ]).T[..., None]
    n = np.arange(ORACLE_PHOTONS + 1)
    emit = np.exp(-mu) * mu**n / np.cumprod(np.maximum(n, 1.0))
    eta = eta_det * 10.0 ** (-loss_db / 10.0)
    missed = (1.0 - eta) ** n
    # Photon k + 1 is the first detected with probability (1 - eta)^k eta;
    # their sum keeps every digit when eta is tiny.
    detected = np.cumsum(eta * missed, axis=1) - eta * missed
    dark_only = missed * (1.0 - (1.0 - dark) ** 2)
    return emit, detected + dark_only, e_int * detected + 0.5 * dark_only


def poisson_oracle_deviation(links: Iterable[decoy.LinkPhysics]) -> float:
    """Largest gap in any LinkStatistics field between the closed forms of
    :func:`decoy.link_statistics` and photon-number sums of the link model."""
    links = list(links)
    if not links:
        return 0.0
    fields = attrgetter("gain", "qber", "y0", "y1", "e1", "c0", "c1")
    closed = [fields(decoy.link_statistics(p)) for p in links]
    emit, click, error = _photon_number_events(links)
    gain = (emit * click).sum(axis=1)
    oracle = np.column_stack([
        gain, (emit * error).sum(axis=1) / gain, click[:, 0], click[:, 1],
        error[:, 1] / click[:, 1], *(emit[:, :2] * click[:, :2]).T / gain,
    ])
    return float(np.abs(np.subtract(closed, oracle)).max())


def tagging_oracle_deviation(chains: Iterable[Sequence[decoy.LinkPhysics]]) -> float:
    """Largest gap in any DecoyFractions field between
    :func:`decoy.decoy_fractions` and sums over the joint photon numbers of
    chains of 1 to 3 links.  A detected joint event is untagged when the
    first link sent vacuum (f_v), or one photon while every other link sent
    at most one (f_s_vs; f_s_s when all sent one), and tagged (f_m)
    otherwise; its key bit is wrong when an odd number of links erred."""
    fields = attrgetter("f_v", "f_s_s", "f_s_vs", "f_m", "e_s_s", "e_s_vs")
    worst = 0.0
    for chain in chains:
        if not 1 <= len(chain) <= 3:
            raise ValueError(f"chains need 1 to 3 links, got {len(chain)}")
        emit, click, error = _photon_number_events(chain)
        # Per joint event, first link's axis outermost: the probability that
        # every link clicks, and that times each link's +1 (right bit) or -1
        # (wrong bit).
        joint = np.ones((2, 1))
        for factor in np.stack((emit * click, emit * (click - 2.0 * error)), axis=1):
            joint = (joint[:, :, None] * factor[:, None, :]).reshape(2, -1)
        n = np.indices((ORACLE_PHOTONS + 1,) * len(chain)).reshape(len(chain), -1)
        vacuum, single = n[0] == 0, (n[0] == 1) & (n[1:] <= 1).all(axis=0)
        classes = [vacuum, (n == 1).all(axis=0), single, ~(vacuum | single)]
        detected, signed = np.transpose([joint.sum(axis=1, where=c) for c in classes])
        errors = np.divide(detected - signed, 2.0 * detected,
                           out=np.full(4, 0.5), where=detected > 0.0)
        oracle = [*detected / joint[0].sum(), *errors[1:3]]
        closed = fields(decoy.decoy_fractions(chain))
        worst = max(worst, float(np.abs(np.subtract(closed, oracle)).max()))
    return worst


def fraction_identity_residual(chains: Iterable[Sequence[decoy.LinkPhysics]]) -> float:
    """Largest |f_v + f_s_vs + f_m - 1| over the chains."""
    fractions = map(decoy.decoy_fractions, chains)
    return max((abs(fr.f_v + fr.f_s_vs + fr.f_m - 1.0) for fr in fractions), default=0.0)


def run_verification(trials: int = 100, seed: int = 2024) -> list[tuple[str, bool, str]]:
    """Run the checks above as the suites of ``verify`` on one random stream.

    Returns (name, passed, detail) per suite; a suite passes when its worst
    deviation is at most its bound.  ValueError unless ``trials`` lies in
    [1, MAX_TRIALS] and ``seed`` is non-negative.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    off_diag, idem, inv = twirl_deviations(rng, min(trials, 50))
    holevo = holevo_gap(rng, trials)
    relabel = relabeling_deviation(rng, min(trials, 20))
    max_z = montecarlo_max_z([(1, 0.05), (2, 0.01)], 200_000, seed)
    crossings = fig2_zero_crossings()
    grid = product((0.0, 10.0, 20.0), (0.05, 0.3, 1.0), (0.0, 6e-6, 1e-4))
    links = [decoy.LinkPhysics(loss_db=loss, dark_count_prob=dark, mu=mu)
             for loss, mu, dark in grid]
    # The grid's diagonal is a chain of links unequal in loss, intensity and
    # dark counts.
    oracle = max(poisson_oracle_deviation(links), tagging_oracle_deviation([links[2::11]]))
    chain = [decoy.LinkPhysics(loss_db=5.0, mu=0.2)] * 2
    suites = [  # (name, worst deviation, bound, detail format)
        ("twirl-diagonality", off_diag, 1e-12, "max off-diagonal {:.3g}"),
        ("twirl-idempotence", idem, 1e-12, "max deviation {:.3g}"),
        ("twirl-error-invariance", inv, 1e-10, "max delta {:.3g}"),
        ("rotated-bases-orthonormal", rotated_basis_deviation(), 1e-12, "max {:.3g}"),
        ("holevo-bound", holevo, 1e-9, "max chi - bound = {:.3g}"),
        ("announcement-relabeling", relabel, 1e-10, "max delta {:.3g}"),
        ("montecarlo-vs-analytic", max_z, 4.0,
         "within 4 sigma" if max_z <= 4.0 else "max |z| = {:.2f}"),
        ("fig2-zero-crossings", fig2_crossing_deviation(crossings), FIG2_TOLERANCE,
         ", ".join(f"{k}={v:.4f}" for k, v in crossings.items())),
        ("decoy-poisson-oracle", oracle, 1e-9, "max delta {:.3g}"),
        ("decoy-fraction-identity", fraction_identity_residual([chain]), 0.0,
         "residual {:.3g}"),
    ]
    return [(name, value <= bound, fmt.format(value))
            for name, value, bound, fmt in suites]
