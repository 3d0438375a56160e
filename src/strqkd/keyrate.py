"""Asymptotic key-rate formulas for the simplified trusted relay (STR).

Rates are reported per sifted paired signal. The STR rate subtracts, on top
of the error-correction leak, a privacy-amplification term evaluated at the
complementary basis vector of every announcement combination. A conventional
trusted-relay baseline (chain limited by its worst link) is included for
comparison curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "KeyRateReport",
    "RateInputs",
    "MAX_NODES",
    "binary_entropy",
    "check_protocol_parameters",
    "compound_error",
    "basis_label",
    "str_rate_qubit",
    "uniform_str_rate",
    "node_focused_rate",
    "conventional_relay_rate",
    "fig2_curves",
]


def binary_entropy(e: float | np.ndarray) -> float | np.ndarray:
    """Binary entropy h(e) = -e log2 e - (1-e) log2(1-e), in bits.

    Endpoints e = 0 and e = 1 return 0.  An array is taken elementwise; a
    float goes through ``math.log2``, whose last bit numpy's may not match.
    """
    if not isinstance(e, np.ndarray):
        if e < 0.0 or e > 1.0:
            raise ValueError(f"binary_entropy argument must lie in [0, 1], got {e}")
        if e == 0.0 or e == 1.0:
            return 0.0
        return _entropy_bits(e, math.log2)
    outside = (e < 0.0) | (e > 1.0)
    if outside.any():
        raise ValueError(
            f"binary_entropy argument must lie in [0, 1], got {e[outside][0]}"
        )
    ends = (e == 0.0) | (e == 1.0)
    return np.where(ends, 0.0, _entropy_bits(np.where(ends, 0.5, e), np.log2))


def _entropy_bits(e, log2):
    return -e * log2(e) - (1.0 - e) * log2(1.0 - e)


@dataclass(frozen=True)
class KeyRateReport:
    """Key rate with its decomposition.

    ``rate`` clamps at zero for reporting; ``unclamped`` keeps the signed
    value needed for zero-crossing root finds.  ``tagged_term`` is only
    nonzero for decoy rates (multi-photon fraction subtracted outright).
    All terms share the same normalization (per sifted signal, or per clock
    cycle once scaled by the physical layer).
    """

    entropy_term: float
    leak_term: float
    holevo_term: float
    tagged_term: float = 0.0

    @property
    def unclamped(self) -> float:
        return self.entropy_term - self.leak_term - self.holevo_term - self.tagged_term

    @property
    def rate(self) -> float:
        return max(0.0, self.unclamped)

    def scaled(self, factor: float) -> "KeyRateReport":
        """Rescale every term by ``factor`` (e.g. per-clock-cycle conversion)."""
        return KeyRateReport(
            entropy_term=self.entropy_term * factor,
            leak_term=self.leak_term * factor,
            holevo_term=self.holevo_term * factor,
            tagged_term=self.tagged_term * factor,
        )


def check_protocol_parameters(p_z: float, f_ec: float) -> None:
    """Raise ValueError unless the Z-basis probability ``p_z`` lies in
    (0, 1) and the error-correction efficiency ``f_ec`` is at least 1."""
    if not 0.0 < p_z < 1.0:
        raise ValueError(f"p_z must lie in (0, 1), got {p_z}")
    if not f_ec >= 1.0:  # also rejects nan
        raise ValueError(f"f_ec must be >= 1, got {f_ec}")


@dataclass(frozen=True)
class RateInputs:
    """Inputs for the STR qubit rate.

    ``error_rates[code]`` is the observed error rate between Alice's raw key
    and Bob's corrected raw key for the basis vector spelled by ``code`` (see
    :func:`basis_label`); code ``2^links - 1 - code`` is its complement.  Key
    bits are uniformly random, one bit of entropy per signal.
    """

    error_rates: Sequence[float]
    p_z: float = 0.5
    f_ec: float = 1.0

    def __post_init__(self) -> None:
        check_protocol_parameters(self.p_z, self.f_ec)
        for code, e in enumerate(self.error_rates):
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"error rate of basis vector {code} not in [0, 1]: {e}")


def _basis_weights(p_z: float, links: int) -> list[float]:
    # Probability p_u of each basis vector, indexed by code.  Per link, a
    # sifted event used basis Z or X when both parties chose it, renormalized
    # over the two matching combinations; the links multiply left to right.
    match = p_z * p_z + (1.0 - p_z) * (1.0 - p_z)
    w_z = p_z * p_z / match
    link_weights = (w_z, 1.0 - w_z)
    weights = [1.0]
    for _ in range(links):
        weights = [w * w_link for w in weights for w_link in link_weights]
    return weights


def str_rate_qubit(inputs: RateInputs, num_nodes: int) -> KeyRateReport:
    """STR key rate for a chain with ``num_nodes`` intermediate nodes.

    rate = sum_u p_u H(K^u) - f_EC sum_u p_u h(e^u) - sum_u p_~u h(e^u),
    where ~u complements every link's basis choice, p_u is the product of
    per-link basis weights and H(K^u) is one bit.
    """
    links = num_nodes + 1
    expected = 1 << links
    if len(inputs.error_rates) != expected:
        raise ValueError(
            f"error-rate table must have {expected} entries for "
            f"{num_nodes} node(s), got {len(inputs.error_rates)}"
        )
    weights = _basis_weights(inputs.p_z, links)
    entropy = leak = holevo = 0.0
    for code, e in enumerate(inputs.error_rates):
        p_u = weights[code]
        h_e = binary_entropy(e)
        entropy += p_u
        leak += inputs.f_ec * p_u * h_e
        holevo += weights[-1 - code] * h_e
    return KeyRateReport(entropy_term=entropy, leak_term=leak, holevo_term=holevo)


def node_focused_rate(
    key_entropies: Sequence[float] | float,
    leak: float,
    e_overall: float,
    num_nodes: int = 1,
) -> KeyRateReport:
    """Key rate for the variant where the single node defines the key map.

    Valid only for one node with uniformly chosen bases:
    rate = (1/4) sum_{u1,u2} H(K_T^{u1,u2}) - leak - h(e).
    """
    if num_nodes != 1:
        raise ValueError("node-focused rate is only defined for a single node")
    if isinstance(key_entropies, (int, float)):
        entropies = [float(key_entropies)] * 4
    else:
        entropies = [float(v) for v in key_entropies]
        if len(entropies) != 4:
            raise ValueError("need one key entropy per (u1, u2) combination")
    entropy = sum(entropies) / 4.0
    return KeyRateReport(
        entropy_term=entropy,
        leak_term=leak,
        holevo_term=binary_entropy(e_overall),
    )


def conventional_relay_rate(
    e_links: Sequence[float] | float, f_ec: float = 1.0
) -> KeyRateReport:
    """Conventional trusted-relay baseline: standard asymptotic BB84 rate per
    link, the chain limited by its worst link."""
    if isinstance(e_links, (int, float)):
        e_links = [float(e_links)]
    if not e_links:
        raise ValueError("need at least one link")
    reports = []
    for e in e_links:
        if not 0.0 <= e <= 0.5:
            raise ValueError(f"per-link error rate must lie in [0, 1/2], got {e}")
        h_e = binary_entropy(e)
        reports.append(
            KeyRateReport(entropy_term=1.0, leak_term=f_ec * h_e, holevo_term=h_e)
        )
    return min(reports, key=lambda r: r.unclamped)


def compound_error(per_link_errors: Iterable[float]) -> float:
    """Probability of an odd number of independent per-link flips,
    (1 - prod_i (1 - 2 e_i)) / 2.  Unchecked: decoy rates may pass 1/2."""
    prod = 1.0
    for e in per_link_errors:
        prod *= 1.0 - 2.0 * e
    return 0.5 * (1.0 - prod)


def uniform_str_rate(
    e_link: float, num_nodes: int, p_z: float = 0.5, f_ec: float = 1.0
) -> KeyRateReport:
    """STR rate when every link has error rate ``e_link``: all basis-vector
    error rates are the compound error of the ``num_nodes + 1`` links."""
    if not 0.0 <= e_link <= 0.5:
        raise ValueError(f"e_link must lie in [0, 1/2], got {e_link}")
    if not 0 <= num_nodes <= MAX_NODES:
        raise ValueError(f"num_nodes must lie in [0, {MAX_NODES}], got {num_nodes}")
    links = num_nodes + 1
    table = [compound_error([e_link] * links)] * (1 << links)
    inputs = RateInputs(error_rates=table, p_z=p_z, f_ec=f_ec)
    return str_rate_qubit(inputs, num_nodes=num_nodes)


def fig2_curves(
    e_link_grid: Iterable[float], node_counts: Sequence[int] = (0, 1, 2)
) -> list[dict[str, float]]:
    """Rate-vs-link-error curves for the qubit model.

    For each per-link error rate: the conventional baseline (equal links, so
    a single-link rate) plus one STR curve per node count >= 1, each with all
    basis-vector error rates set to the compound per-link value, uniform
    bases, and Shannon-limit error correction.  A node count of 0 is the
    conventional baseline itself.
    """
    rows: list[dict[str, float]] = []
    for e_link in e_link_grid:
        row: dict[str, float] = {"e_link": float(e_link)}
        for m in node_counts:
            if m == 0:
                report = conventional_relay_rate(e_link, f_ec=1.0)
                row["rate_conventional"] = report.rate
                row["unclamped_conventional"] = report.unclamped
            else:
                report = uniform_str_rate(e_link, m)
                row[f"rate_str{m}"] = report.rate
                row[f"unclamped_str{m}"] = report.unclamped
        rows.append(row)
    return rows


# Largest node count for which a 2^(nodes + 1)-entry basis-vector table is
# built; each node doubles the table, and the paper's chains have at most two.
MAX_NODES = 16


def basis_label(code: int, links: int) -> str:
    """Basis vector of ``code`` as one digit per link (0 = Z, 1 = X): code i
    spells i in binary, first link most significant."""
    return format(code, f"0{links}b")
