"""Weak-coherent-pulse physical layer and decoy-state key rates.

Each link is a Poissonian source into a lossy channel with a threshold
detector: dark counts, finite detector efficiency, and an intrinsic optical
error rate.  Closed-form gains/QBERs come with a truncated Poisson-sum
counterpart used for cross-checking.  The vacuum and single-photon yields
and error rates enter the rates exactly, as known quantities: this is the
infinite-decoy limit of Lo, Ma and Chen (PRL 94, 230504, 2005), not a
finite-decoy estimate.  The tagged-signal accounting follows GLLP: Eve gets
full information on any detected event in which some link emitted a
multi-photon pulse (vacuum in the first link excepted), which is subtracted
outright from the key rate; per-loss intensity optimization reproduces the
rate-vs-loss sweeps.  The coarse intensity scan evaluates every grid point
at once: the statistics, fractions and rates accept an array of intensities
in place of one float.  Floats go through ``math``, so the refined optimum
and every reported value are computed by the scalar formulas.

Dark-count coincidences carry error 1/2 (a dark click is an uncorrelated
bit); the dark-count error term is weighted by the probability that no
signal photon was detected, so the closed forms agree exactly with the
photon-number-resolved sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .keyrate import (
    MAX_NODES,
    KeyRateReport,
    binary_entropy,
    check_protocol_parameters,
    compound_error,
)

__all__ = [
    "LinkPhysics",
    "LinkStatistics",
    "DecoyFractions",
    "link_statistics",
    "poisson_sum_statistics",
    "decoy_fractions",
    "decoy_rate",
    "conventional_decoy_rate",
    "optimize_intensity",
]

E_DARK = 0.5  # error rate of a dark-count click

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
# optimize_intensity: points of the log-spaced coarse scan, and the width of
# the bracket at which golden-section refinement stops.
GRID_POINTS = 200
MU_TOL = 1e-4


@dataclass(frozen=True)
class LinkPhysics:
    """Physical parameters of one link."""

    loss_db: float
    detector_efficiency: float = 0.5
    dark_count_prob: float = 6e-6
    intrinsic_error: float = 0.0185
    mu: float = 0.5

    def __post_init__(self) -> None:
        if not self.loss_db >= 0.0:  # also rejects nan
            raise ValueError(f"loss_db must be >= 0, got {self.loss_db}")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError(
                f"detector_efficiency must lie in (0, 1], got {self.detector_efficiency}"
            )
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError(
                f"dark_count_prob must lie in [0, 1), got {self.dark_count_prob}"
            )
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError(
                f"intrinsic_error must lie in [0, 1/2], got {self.intrinsic_error}"
            )
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    @property
    def transmittance(self) -> float:
        """Overall single-photon transmittance (channel times detector)."""
        return self.detector_efficiency * 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class LinkStatistics:
    """Detected-event statistics of one link.  The fields that depend on the
    intensity are arrays when :func:`link_statistics` got an array of them."""

    gain: float  # Q: detection probability per pulse
    qber: float  # E: error rate among detected events
    y0: float  # dark-count yield
    y1: float  # single-photon yield
    e1: float  # single-photon error rate
    c0: float  # share of detected events from a vacuum emission
    c1: float  # share of detected events from a single-photon emission


@dataclass(frozen=True)
class DecoyFractions:
    """Tagged/untagged fractions of detected raw-key events for a chain.

    f_v: vacuum sent in the first link; f_s_s: single photon in every link;
    f_s_vs: single photon in the first link, vacuum or single elsewhere;
    f_m = 1 - f_v - f_s_vs: tagged (some multi-photon) fraction.
    e_s_s / e_s_vs are the compound error rates of the corresponding event
    classes (a vacuum-detected link contributes error 1/2).
    """

    f_v: float
    f_s_s: float
    f_s_vs: float
    f_m: float
    e_s_s: float
    e_s_vs: float


def _yield_n(y0: float, eta: float, n: int) -> float:
    return 1.0 - (1.0 - y0) * (1.0 - eta) ** n


def _error_yield_n(phys: LinkPhysics, y0: float, eta: float, n: int) -> float:
    # e_n * Y_n: dark-count error when no signal photon arrived, intrinsic
    # error when one did.
    miss = (1.0 - eta) ** n
    return E_DARK * y0 * miss + phys.intrinsic_error * (1.0 - miss)


def _exp(x: float | np.ndarray) -> float | np.ndarray:
    # numpy's exp differs from math.exp by an ulp on some inputs, so floats
    # keep math.exp and reported values do not move.
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _all(cond) -> bool:
    """Whether ``cond`` holds everywhere; one reduction for an array cond."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else cond


def _select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``; elementwise for an array cond."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def link_statistics(
    phys: LinkPhysics, mu: float | np.ndarray | None = None
) -> LinkStatistics:
    """Closed-form gain, QBER, and n in {0, 1} yields/errors for one link at
    intensity ``mu`` (default ``phys.mu``; an array gives array statistics);
    ValueError when the gain or single-photon yield rounds to zero."""
    eta = phys.transmittance
    if eta <= 0.0:
        raise ValueError("link transmittance must be positive")
    if mu is None:
        mu = phys.mu
    elif not _all((0.0 < mu) & (mu < math.inf)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    y0 = 1.0 - (1.0 - phys.dark_count_prob) ** 2
    y1 = _yield_n(y0, eta, 1)
    vac = _exp(-mu * eta)
    gain = 1.0 - (1.0 - y0) * vac
    if not _all(gain > 0.0) or y1 <= 0.0:
        raise ValueError(f"link with loss {phys.loss_db} dB has zero gain")
    e1 = _error_yield_n(phys, y0, eta, 1) / y1
    qber = (E_DARK * y0 * vac + phys.intrinsic_error * (1.0 - vac)) / gain
    return LinkStatistics(
        gain=gain,
        qber=qber,
        y0=y0,
        y1=y1,
        e1=e1,
        c0=_exp(-mu) * y0 / gain,
        c1=mu * _exp(-mu) * y1 / gain,
    )


def poisson_sum_statistics(phys: LinkPhysics, n_max: int = 30) -> LinkStatistics:
    """Photon-number-resolved route to the same statistics: truncated Poisson
    sums over per-n yields and error yields.  Independent cross-check for
    the closed forms in :func:`link_statistics`."""
    eta = phys.transmittance
    y0 = 1.0 - (1.0 - phys.dark_count_prob) ** 2
    mu = phys.mu
    gain = 0.0
    err = 0.0
    for n in range(n_max + 1):
        p_n = math.exp(-mu) * mu**n / math.factorial(n)
        gain += p_n * _yield_n(y0, eta, n)
        err += p_n * _error_yield_n(phys, y0, eta, n)
    y1 = _yield_n(y0, eta, 1)
    return LinkStatistics(
        gain=gain,
        qber=err / gain,
        y0=y0,
        y1=y1,
        e1=_error_yield_n(phys, y0, eta, 1) / y1,
        c0=math.exp(-mu) * y0 / gain,
        c1=mu * math.exp(-mu) * y1 / gain,
    )


def decoy_fractions(links: Sequence[LinkPhysics]) -> DecoyFractions:
    """Tagged-fraction accounting for a chain of links."""
    return _fractions([link_statistics(p) for p in links])


def _fractions(stats: Sequence[LinkStatistics]) -> DecoyFractions:
    # No in-place products: a chain of equal links shares one statistics
    # object, and its arrays must not be scaled through an alias.
    if not stats:
        raise ValueError("need at least one link")
    first = stats[0]
    f_v = first.c0
    f_s_s = first.c1
    f_s_vs = first.c1
    errors_ss = [first.e1]
    errors_svs = [first.e1]
    for s in stats[1:]:
        vs = s.c0 + s.c1
        f_s_s = f_s_s * s.c1
        f_s_vs = f_s_vs * vs
        errors_ss.append(s.e1)
        # Within the vacuum-or-single class, a vacuum detection is a dark
        # count and contributes error 1/2; so does an empty class (f_s_vs = 0).
        filled = vs != 0.0
        errors_svs.append(
            _select(filled, (s.c0 * E_DARK + s.c1 * s.e1) / _select(filled, vs, 1.0), E_DARK)
        )
    return DecoyFractions(
        f_v=f_v,
        f_s_s=f_s_s,
        f_s_vs=f_s_vs,
        f_m=1.0 - f_v - f_s_vs,
        e_s_s=compound_error(errors_ss),
        e_s_vs=compound_error(errors_svs),
    )


def _sift_factor(p_z: float) -> float:
    return p_z * p_z + (1.0 - p_z) * (1.0 - p_z)


def decoy_rate(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    conservative: bool = False,
    per_clock: bool = True,
    mu: float | np.ndarray | None = None,
) -> KeyRateReport:
    """STR decoy-state key rate for a chain of links.

    Per sifted signal: 1 - f_EC h(E_total) - f_s h(e_s) - f_m, where E_total
    is the compound all-photon-number QBER, (f_s, e_s) are the untagged
    single-photon quantities (the f_s_s/e_s_s lower bound in conservative
    mode), and f_m the tagged fraction.  ``per_clock`` rescales by the
    all-links coincidence gain and the per-link sifting factors.  ``mu``
    overrides every link's intensity; an array of them gives array terms.
    """
    check_protocol_parameters(p_z, f_ec)
    if len(links) > MAX_NODES + 1:
        raise ValueError(
            f"a chain has at most {MAX_NODES} nodes ({MAX_NODES + 1} links), "
            f"got {len(links)} links"
        )
    # Chains of equal links are the common case: one computation per link.
    computed = {phys: link_statistics(phys, mu) for phys in dict.fromkeys(links)}
    stats = [computed[phys] for phys in links]
    fractions = _fractions(stats)
    e_total = compound_error([s.qber for s in stats])
    if conservative:
        f_single, e_single = fractions.f_s_s, fractions.e_s_s
        f_tagged = 1.0 - fractions.f_v - fractions.f_s_s
    else:
        f_single, e_single = fractions.f_s_vs, fractions.e_s_vs
        f_tagged = fractions.f_m
    report = KeyRateReport(
        entropy_term=1.0,
        leak_term=f_ec * binary_entropy(e_total),
        holevo_term=f_single * binary_entropy(e_single),
        tagged_term=f_tagged,
    )
    if per_clock:
        scale = 1.0
        for s in stats:
            scale = scale * (s.gain * _sift_factor(p_z))
        report = report.scaled(scale)
    return report


_TERMS = ("entropy_term", "leak_term", "holevo_term", "tagged_term")


def conventional_decoy_rate(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    per_clock: bool = True,
    mu: float | np.ndarray | None = None,
) -> KeyRateReport:
    """Conventional trusted-relay baseline with tagged-signal analysis.

    Per link and clock cycle: Q sift [c1 (1 - h(e1)) - f_EC h(E)] with c1
    the single-photon detected fraction; a chain takes its worst link (the
    first of equal ones), elementwise when ``mu`` is an array of intensities.
    """
    check_protocol_parameters(p_z, f_ec)
    if not links:
        raise ValueError("need at least one link")
    worst = None
    for phys in dict.fromkeys(links):
        stats = link_statistics(phys, mu)
        report = KeyRateReport(
            entropy_term=stats.c1,
            leak_term=f_ec * binary_entropy(stats.qber),
            holevo_term=stats.c1 * binary_entropy(stats.e1),
            tagged_term=0.0,
        )
        if per_clock:
            report = report.scaled(stats.gain * _sift_factor(p_z))
        if worst is None:
            worst = report
        else:
            lower = report.unclamped < worst.unclamped
            worst = KeyRateReport(
                *(_select(lower, getattr(report, t), getattr(worst, t)) for t in _TERMS)
            )
    return worst


def _rate_at_mu(
    links: Sequence[LinkPhysics],
    mu: float | np.ndarray,
    f_ec: float,
    p_z: float,
    conservative: bool,
    mode: str,
) -> KeyRateReport:
    if mode == "conventional":
        return conventional_decoy_rate(links, f_ec=f_ec, p_z=p_z, mu=mu)
    return decoy_rate(links, f_ec=f_ec, p_z=p_z, conservative=conservative, mu=mu)


def optimize_intensity(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    mu_bounds: tuple[float, float] = (1e-4, 2.0),
    mode: str = "str",
    conservative: bool = False,
) -> tuple[float, KeyRateReport]:
    """Optimize a single source intensity shared by all links.

    Coarse log-spaced grid scan, one array evaluation over all points,
    followed by golden-section refinement of the bracketing interval on
    floats.  Returns (mu_star, report); if no positive rate exists anywhere,
    returns the lower bound with its (zero) rate.
    """
    lo, hi = mu_bounds
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid mu bounds {mu_bounds}")
    if mode not in ("str", "conventional"):
        raise ValueError(f"unknown mode {mode!r}")

    def objective(mu: float) -> float:
        return _rate_at_mu(links, mu, f_ec, p_z, conservative, mode).unclamped

    grid = [lo * (hi / lo) ** (i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]
    values = _rate_at_mu(links, np.array(grid), f_ec, p_z, conservative, mode).unclamped
    best = int(np.argmax(values))  # the first maximum, as max() picks it
    if values[best] <= 0.0:
        return lo, _rate_at_mu(links, lo, f_ec, p_z, conservative, mode)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, GRID_POINTS - 1)]
    mu_star = _golden_section_max(objective, a, b, MU_TOL)
    return mu_star, _rate_at_mu(links, mu_star, f_ec, p_z, conservative, mode)


def _golden_section_max(
    fn: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_INV * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_INV * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)
