"""Weak-coherent-pulse physical layer and decoy-state key rates.

Each link is a Poissonian source into a lossy channel with a threshold
detector: dark counts, finite detector efficiency, and an intrinsic optical
error rate.  Gains, QBERs, yields and error rates are closed forms.  The
vacuum and single-photon yields and error rates enter the rates exactly, as
known quantities: this is the infinite-decoy limit of Lo, Ma and Chen (PRL
94, 230504, 2005), not a finite-decoy estimate.  The tagged-signal
accounting follows GLLP: Eve gets full information on any detected event in
which some link emitted a multi-photon pulse (vacuum in the first link
excepted), which is subtracted outright from the key rate; per-loss
intensity optimization reproduces the rate-vs-loss sweeps.  A sweep is
optimized as a batch: one array scan of the intensity grid covers all its
loss points, and golden-section refinement runs as array steps over the
points still open, each point taking the steps its own scalar search would.
The private statistics, fraction and rate helpers therefore take arrays
(intensities, and link quantities with one entry per chain) in place of
floats; the public functions take and return floats.  Floats go through
``math``.  The reports of a sweep are one array evaluation of the same
formulas at the chosen intensities, with each exponential and entropy taken
through ``math`` entry by entry, so every reported value equals its
evaluation on floats.  A sweep checks its links once, at the lowest
intensity, and names its first dead (zero-gain) link in sweep order.  A
fixed-intensity sweep is the one-point bracket ``(mu, mu)``: every chain is
evaluated at ``mu``, with no scan or refinement.

Dark-count coincidences carry error 1/2 (a dark click is an uncorrelated
bit); the dark-count error term is weighted by the probability that no
signal photon was detected, so the closed forms agree exactly with the
photon-number-resolved sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .keyrate import (
    MAX_NODES,
    KeyRateReport,
    basis_law,
    binary_entropy,
    check_protocol_parameters,
    compound_error,
    elementwise,
)

__all__ = [
    "LinkPhysics",
    "LinkStatistics",
    "DecoyFractions",
    "link_statistics",
    "decoy_fractions",
    "decoy_rate",
    "conventional_decoy_rate",
    "optimize_intensity",
    "optimize_intensities",
]

E_DARK = 0.5  # error rate of a dark-count click

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
# optimize_intensity: points of the log-spaced coarse scan, and the width of
# the bracket at which golden-section refinement stops.
GRID_POINTS = 200
MU_TOL = 1e-4
# optimize_intensities: chains optimized together, which bounds the scan's
# arrays at SWEEP_BLOCK x GRID_POINTS values each.
SWEEP_BLOCK = 128
MU_BOUNDS = (1e-4, 2.0)  # the optimisers' default intensity bracket


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
    """Detected-event statistics of one link.  Inside
    :func:`optimize_intensities` the fields are arrays, with one entry per
    chain or per scanned intensity."""

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


def _select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``; elementwise for an array cond."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


class _Link(NamedTuple):
    """The intensity-free quantities of a link: floats for one link, equal
    length arrays for one link per chain of a sweep."""

    eta: float  # transmittance
    y0: float
    y1: float
    e1: float
    intrinsic_error: float
    loss_db: float


def _link(phys: LinkPhysics) -> _Link:
    # The transmittance underflows to 0 at a few thousand dB, where dark
    # counts alone give y1 = y0 and e1 = 1/2.  Without them y1 = 0 as well:
    # e1 takes its limit 1/2, and _statistics rejects the zero gain.
    eta = phys.transmittance
    y0 = 1.0 - (1.0 - phys.dark_count_prob) ** 2
    # A single photon is detected with probability eta, error e_int; when it
    # is missed, a dark click (probability y0) carries error 1/2.
    y1 = y0 + (1.0 - y0) * eta
    e1 = (E_DARK * y0 * (1.0 - eta) + phys.intrinsic_error * eta) / y1 if y1 else E_DARK
    return _Link(eta, y0, y1, e1, phys.intrinsic_error, phys.loss_db)


def _statistics(link: _Link, mu: float | np.ndarray, exact: bool = True) -> LinkStatistics:
    """The closed forms of :func:`link_statistics`; the quantities of
    ``link`` and ``mu`` broadcast against each other.  ``exact`` takes the
    exponentials entry by entry through ``math``, as floats and reported
    values need; ``exact=False`` takes numpy's, which may differ by an ulp,
    for the optimiser's scan."""
    if exact:
        exp = functools.partial(elementwise, math.exp)
        expm1 = functools.partial(elementwise, math.expm1)
    else:
        exp, expm1 = np.exp, np.expm1
    vac = exp(-mu * link.eta)
    # A signal photon is detected with probability 1 - vac; expm1 keeps it
    # from cancelling at high loss, where the gain rests on it alone if y0 = 0.
    signal = -expm1(-mu * link.eta)
    gain = link.y0 + (1.0 - link.y0) * signal
    # Without dark counts the gain is zero once mu * eta underflows.  A nan
    # gain counts as dead too; the first dead entry, in C order, is named.
    dead = ~np.greater(gain, 0.0)
    if dead.any():
        loss = np.broadcast_to(link.loss_db, dead.shape)[dead][0]
        raise ValueError(f"link with loss {loss} dB has zero gain")
    qber = (E_DARK * link.y0 * vac + link.intrinsic_error * signal) / gain
    poisson = exp(-mu)
    return LinkStatistics(
        gain=gain,
        qber=qber,
        y0=link.y0,
        y1=link.y1,
        e1=link.e1,
        c0=poisson * link.y0 / gain,
        c1=mu * poisson * link.y1 / gain,
    )


def link_statistics(phys: LinkPhysics) -> LinkStatistics:
    """Closed-form gain, QBER, and n in {0, 1} yields/errors for one link at
    its intensity ``phys.mu``; ValueError when the gain is zero."""
    return _statistics(_link(phys), phys.mu)


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
        # The complement of the rounded sum, so f_v + f_s_vs + f_m == 1
        # holds exactly in floating point, not just up to round-off.
        f_m=1.0 - (f_v + f_s_vs),
        e_s_s=compound_error(errors_ss),
        e_s_vs=compound_error(errors_svs),
    )


def _check_chain(links: Sequence[LinkPhysics], mode: str) -> None:
    if not links:
        raise ValueError("need at least one link")
    if mode == "str" and len(links) > MAX_NODES + 1:
        raise ValueError(
            f"a chain has at most {MAX_NODES} nodes ({MAX_NODES + 1} links), "
            f"got {len(links)} links"
        )


_TERMS = ("entropy_term", "leak_term", "holevo_term", "tagged_term")


def _rate(
    stats: Sequence[LinkStatistics],
    mode: str,
    f_ec: float,
    p_z: float,
    conservative: bool,
    exact: bool = False,
) -> KeyRateReport:
    """The key rate per clock cycle of a chain from its links' statistics,
    in chain order (equal links may share one object); array statistics give
    array terms.  ``exact`` takes the entropies of arrays through the float
    path."""
    entropy = functools.partial(elementwise, binary_entropy) if exact else binary_entropy
    sift = basis_law(p_z)[0]
    if mode == "conventional":
        worst = None
        for s in {id(s): s for s in stats}.values():
            report = KeyRateReport(
                entropy_term=s.c1,
                leak_term=f_ec * entropy(s.qber),
                holevo_term=s.c1 * entropy(s.e1),
                tagged_term=0.0,
            ).scaled(s.gain * sift)
            if worst is None:
                worst = report
            else:
                lower = report.unclamped < worst.unclamped
                worst = KeyRateReport(
                    *(_select(lower, getattr(report, t), getattr(worst, t)) for t in _TERMS)
                )
        return worst
    fractions = _fractions(stats)
    e_total = compound_error([s.qber for s in stats])
    if conservative:
        f_single, e_single = fractions.f_s_s, fractions.e_s_s
        f_tagged = 1.0 - fractions.f_v - fractions.f_s_s
    else:
        f_single, e_single = fractions.f_s_vs, fractions.e_s_vs
        f_tagged = fractions.f_m
    scale = 1.0
    for s in stats:
        scale = scale * (s.gain * sift)
    return KeyRateReport(
        entropy_term=1.0,
        leak_term=f_ec * entropy(e_total),
        holevo_term=f_single * entropy(e_single),
        tagged_term=f_tagged,
    ).scaled(scale)


def _chain_rate(
    links: Sequence[LinkPhysics],
    mode: str,
    f_ec: float,
    p_z: float,
    conservative: bool = False,
) -> KeyRateReport:
    check_protocol_parameters(p_z, f_ec)
    _check_chain(links, mode)
    # Chains of equal links are the common case: one computation per link.
    computed = {phys: link_statistics(phys) for phys in dict.fromkeys(links)}
    return _rate([computed[phys] for phys in links], mode, f_ec, p_z, conservative)


def decoy_rate(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    conservative: bool = False,
) -> KeyRateReport:
    """STR decoy-state key rate per clock cycle for a chain of links.

    prod_i (Q_i sift) [1 - f_EC h(E_total) - f_s h(e_s) - f_m]: the rate
    per sifted signal, where E_total is the compound all-photon-number QBER,
    (f_s, e_s) are the untagged single-photon quantities (the f_s_s/e_s_s
    lower bound in conservative mode) and f_m the tagged fraction, times the
    all-links coincidence gain and the per-link sifting factors.
    """
    return _chain_rate(links, "str", f_ec, p_z, conservative)


def conventional_decoy_rate(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
) -> KeyRateReport:
    """Conventional trusted-relay baseline with tagged-signal analysis.

    Per link and clock cycle: Q sift [c1 (1 - h(e1)) - f_EC h(E)] with c1
    the single-photon detected fraction; a chain takes its worst link (the
    first of equal ones).
    """
    return _chain_rate(links, "conventional", f_ec, p_z)


def _mu_grid(lo: float, hi: float) -> np.ndarray:
    """The coarse scan's log-spaced intensities."""
    return np.array([lo * (hi / lo) ** (i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)])


def optimize_intensities(
    chains: Sequence[Sequence[LinkPhysics]],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    mu_bounds: tuple[float, float] = MU_BOUNDS,
    mode: str = "str",
    conservative: bool = False,
) -> list[tuple[float, KeyRateReport]]:
    """Optimize a single source intensity shared by all links, for each chain
    of a sweep; the chains must have equal lengths.

    Coarse log-spaced grid scan, then golden-section refinement of the
    bracketing interval, both as array steps over the chains.  Returns
    (mu_star, report) per chain, the report computed on floats; a chain
    with no positive rate anywhere gets the lower bound with its (zero) rate.
    Each chain's result is the one it gets when optimized alone.  Bounds
    (mu, mu) evaluate every chain at mu, with no search.
    """
    lo, hi = mu_bounds
    if not (0.0 < lo <= hi and hi / lo < math.inf):
        raise ValueError(f"invalid mu bounds {mu_bounds}")
    if mode not in ("str", "conventional"):
        raise ValueError(f"unknown mode {mode!r}")
    check_protocol_parameters(p_z, f_ec)
    if len({len(chain) for chain in chains}) > 1:
        raise ValueError("chains must have equal lengths")
    if chains:
        _check_chain(chains[0], mode)
    results = []
    for start in range(0, len(chains), SWEEP_BLOCK):
        block = chains[start : start + SWEEP_BLOCK]
        results += _optimize_block(block, lo, hi, f_ec, p_z, mode, conservative)
    return results


def optimize_intensity(
    links: Sequence[LinkPhysics],
    f_ec: float = 1.2,
    p_z: float = 0.5,
    mu_bounds: tuple[float, float] = MU_BOUNDS,
    mode: str = "str",
    conservative: bool = False,
) -> tuple[float, KeyRateReport]:
    """:func:`optimize_intensities` for one chain: (mu_star, report)."""
    return optimize_intensities([links], f_ec, p_z, mu_bounds, mode, conservative)[0]


def _optimize_block(
    chains: Sequence[Sequence[LinkPhysics]],
    lo: float,
    hi: float,
    f_ec: float,
    p_z: float,
    mode: str,
    conservative: bool,
) -> list[tuple[float, KeyRateReport]]:
    # A position that holds equal links in every chain is computed once, as
    # equal links are within one chain.
    slot: dict[tuple[LinkPhysics, ...], int] = {}
    index = [slot.setdefault(column, len(slot)) for column in zip(*chains)]
    per_position = [_Link(*map(np.array, zip(*map(_link, column)))) for column in slot]
    # The gain is smallest at the lowest intensity, so one exact evaluation
    # there of every distinct link covers the whole scan.  The links are
    # stacked chain by chain, so the sweep fails on its first dead link, as
    # optimizing its chains one by one would.
    _statistics(_Link(*(np.column_stack(f).ravel() for f in zip(*per_position))), lo)

    def report(links: Sequence[_Link], mu, exact: bool = False) -> KeyRateReport:
        stats = [_statistics(link, mu, exact) for link in links]
        return _rate([stats[k] for k in index], mode, f_ec, p_z, conservative, exact=exact)

    def unclamped(which, mu: np.ndarray) -> np.ndarray:
        links = [_Link(*(f[which] for f in link)) for link in per_position]
        return report(links, mu).unclamped

    mus = np.full(len(chains), lo)
    if lo < hi:  # a one-point bracket has nothing to search
        grid = _mu_grid(lo, hi)
        # Each chain's quantities as a column against the grid: one row per chain.
        values = unclamped((slice(None), None), grid)
        best = values.argmax(axis=1)  # the first maximum, as max() picks it
        live = np.flatnonzero(values.max(axis=1) > 0.0)
        if live.size:
            a = grid[np.maximum(best[live] - 1, 0)]
            b = grid[np.minimum(best[live] + 1, GRID_POINTS - 1)]
            mus[live] = _refine(unclamped, live, a, b)
    # Reported values: the formulas of decoy_rate at every chain's optimum in
    # one evaluation, each entry equal to its evaluation on floats.
    terms = report(per_position, mus, exact=True)
    columns = [np.broadcast_to(getattr(terms, t), mus.shape).tolist() for t in _TERMS]
    return [(mu, KeyRateReport(*values)) for mu, *values in zip(mus.tolist(), *columns)]


def _refine(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    which: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Golden-section maximization of ``objective(which, mu)`` on one bracket
    [a, b] per entry of ``which``.  Each bracket takes the steps of a scalar
    search in float64 and stops once narrower than MU_TOL, so its result does
    not depend on the others; each step evaluates the brackets still open."""
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = objective(which, c), objective(which, d)
    todo = np.flatnonzero(b - a > MU_TOL)
    while todo.size:
        left = fc[todo] > fd[todo]
        lt, rt = todo[left], todo[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - GOLDEN_INV * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + GOLDEN_INV * (b[rt] - a[rt])
        new = objective(which[todo], np.where(left, c[todo], d[todo]))
        fc[lt], fd[rt] = new[left], new[~left]
        todo = todo[b[todo] - a[todo] > MU_TOL]
    return 0.5 * (a + b)
