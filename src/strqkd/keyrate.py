"""Asymptotic key-rate formulas for the simplified trusted relay (STR).

Rates are reported per sifted paired signal. The STR rate subtracts, on top
of the error-correction leak, a privacy-amplification term evaluated at the
complementary basis vector of every announcement combination. A conventional
trusted-relay baseline (chain limited by its worst link) is included for
comparison curves.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KeyRateReport",
    "MAX_NODES",
    "binary_entropy",
    "elementwise",
    "check_protocol_parameters",
    "basis_law",
    "compound_error",
    "basis_label",
    "str_rate_qubit",
    "uniform_str_rate",
    "conventional_relay_rate",
    "fig2_curves",
]


def binary_entropy(e: float | np.ndarray) -> float | np.ndarray:
    """Binary entropy h(e) = -e log2 e - (1-e) log2(1-e), in bits.

    Endpoints e = 0 and e = 1 return 0.  An array is taken elementwise; a
    float goes through ``math.log2``, whose last bit numpy's may not match.
    """
    np = _numpy_if_array(e)
    if np is None:
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


def _numpy_if_array(x):
    # numpy when x is an ndarray, else None.  An ndarray exists only once
    # numpy is in sys.modules: looked up on each call, never imported.
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


class KeyRateReport(NamedTuple):
    """Key rate with its decomposition, an immutable named tuple.

    ``rate`` clamps at zero for reporting; ``unclamped`` keeps the signed
    value needed for zero-crossing root finds.  ``tagged_term`` is only
    nonzero for decoy rates (multi-photon fraction subtracted outright).
    All terms share the same normalization (per sifted signal, or per clock
    cycle once scaled by the physical layer), and are arrays over a grid.
    """

    entropy_term: float
    leak_term: float
    holevo_term: float
    tagged_term: float = 0.0

    @property
    def unclamped(self) -> float:
        return self.entropy_term - self.leak_term - self.holevo_term - self.tagged_term

    @property
    def rate(self) -> float | np.ndarray:
        u = self.unclamped
        np = _numpy_if_array(u)
        # On an array, max(0.0, x) of each entry x, nan included.
        return max(0.0, u) if np is None else np.where(u > 0.0, u, 0.0)

    def scaled(self, factor: float) -> KeyRateReport:
        """Rescale every term by ``factor`` (e.g. per-clock-cycle conversion)."""
        return KeyRateReport._make(term * factor for term in self)


def check_protocol_parameters(p_z: float, f_ec: float = 1.0) -> None:
    """Raise ValueError unless the Z-basis probability ``p_z`` lies in
    (0, 1) and the error-correction efficiency ``f_ec`` is finite and at
    least 1."""
    if not 0.0 < p_z < 1.0:
        raise ValueError(f"p_z must lie in (0, 1), got {p_z}")
    if not 1.0 <= f_ec < math.inf:  # also rejects nan
        raise ValueError(f"f_ec must be >= 1 and finite, got {f_ec}")


def basis_law(p_z: float) -> tuple[float, float]:
    """The per-link basis law, when each end of a link picks Z with
    probability ``p_z``: the probability that both ends pick the same
    basis, and the share of Z among those matched rounds (X takes the
    rest, ``1 - share``)."""
    match = p_z * p_z + (1.0 - p_z) * (1.0 - p_z)
    return match, p_z * p_z / match


def _basis_weights(p_z: float, links: int) -> list[float]:
    # Probability p_u of each basis vector, indexed by code: the product of
    # the links' matched-basis shares, multiplied left to right.
    w_z = basis_law(p_z)[1]
    link_weights = (w_z, 1.0 - w_z)
    weights = [1.0]
    for _ in range(links):
        weights = [w * w_link for w in weights for w_link in link_weights]
    return weights


@functools.lru_cache(maxsize=64)
def _weight_sum(p_z: float, links: int) -> float:
    # The basis weights' exact sum, rounded once: 1 at p_z = 1/2.
    return math.fsum(_basis_weights(p_z, links))


def str_rate_qubit(
    error_rates: Sequence[float], p_z: float = 0.5, f_ec: float = 1.0
) -> KeyRateReport:
    """STR key rate of a chain from its basis-vector error table.

    ``error_rates[code]`` is the observed error rate between Alice's raw key
    and Bob's corrected raw key for the basis vector spelled by ``code`` (see
    :func:`basis_label`); code ``2^links - 1 - code`` is its complement.  The
    table's length, 2^links for 1 to ``MAX_NODES + 1`` links, gives the
    chain.  Key bits are uniformly random, one bit of entropy per signal.

    rate = sum_u p_u H(K^u) - f_EC sum_u p_u h(e^u) - sum_u p_~u h(e^u),
    where ~u complements every link's basis choice, p_u is the product of
    per-link basis weights and H(K^u) is one bit.  Each sum is taken exactly
    (``math.fsum``) over the codes that share h(e^u), then over those groups.
    """
    check_protocol_parameters(p_z, f_ec)
    for code, e in enumerate(error_rates):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"error rate of basis vector {code} not in [0, 1]: {e}")
    links = len(error_rates).bit_length() - 1
    if not 1 <= links <= MAX_NODES + 1 or len(error_rates) != 1 << links:
        raise ValueError(
            f"error-rate table must have 2^links entries for 1 to {MAX_NODES + 1} "
            f"links, got {len(error_rates)}"
        )
    weights = _basis_weights(p_z, links)
    codes = {}  # each h(e^u), with the codes u that share it
    for code, e in enumerate(error_rates):
        codes.setdefault(binary_entropy(e), []).append(code)
    leak = math.fsum(h * math.fsum(weights[u] for u in us) for h, us in codes.items())
    holevo = math.fsum(h * math.fsum(weights[~u] for u in us) for h, us in codes.items())
    return KeyRateReport(_weight_sum(p_z, links), f_ec * leak, holevo)


def conventional_relay_rate(e_links: Sequence[float]) -> KeyRateReport:
    """Conventional trusted-relay baseline: standard asymptotic BB84 rate per
    link with Shannon-limit error correction, the chain limited by its worst
    link.  Each link's report is ``uniform_str_rate(e, 0)``, whose two terms
    h(e)/2 sum to h(e), exactly unless h(e) is subnormal."""
    if not e_links:
        raise ValueError("need at least one link")
    for e in e_links:
        _check_half_range("per-link error rate", e)
    return min((uniform_str_rate(e, 0) for e in e_links), key=lambda r: r.unclamped)


def _check_half_range(name: str, e: float | np.ndarray) -> None:
    # ValueError for a float, or the first entry of a 1-D array, outside
    # [0, 1/2]; nan lies outside.
    if _numpy_if_array(e) is not None:
        outside = e[~((e >= 0.0) & (e <= 0.5))]
        e = outside[0] if outside.size else 0.0
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"{name} must lie in [0, 1/2], got {e}")


def compound_error(per_link_errors: Iterable[float]) -> float:
    """Probability of an odd number of independent per-link flips,
    (1 - prod_i (1 - 2 e_i)) / 2, and a lone link's error itself, which the
    formula may round away from.  Unchecked: decoy rates may pass 1/2."""
    errors = list(per_link_errors)
    if len(errors) == 1:
        return errors[0]
    prod = 1.0
    for e in errors:
        prod = prod * (1.0 - 2.0 * e)  # not in place: arrays may broadcast
    return 0.5 * (1.0 - prod)


def uniform_str_rate(
    e_link: float | np.ndarray, num_nodes: int, p_z: float = 0.5, f_ec: float = 1.0
) -> KeyRateReport:
    """STR rate when every link has error rate ``e_link``: all basis-vector
    error rates are the compound error E of the ``num_nodes + 1`` links,
    and the terms are S, f_EC h(E) S and h(E) S for the weight sum S.
    Over a 1-D array of link errors each term is an array of the float
    calls' terms, bit for bit; the first rejected entry raises."""
    _check_half_range("e_link", e_link)
    _check_node_count(num_nodes)
    check_protocol_parameters(p_z, f_ec)
    links = num_nodes + 1
    h_e = elementwise(binary_entropy, compound_error([e_link] * links))
    total = _weight_sum(p_z, links)
    return KeyRateReport(total, f_ec * (h_e * total), h_e * total)


def _check_node_count(num_nodes: int) -> None:
    if not 0 <= num_nodes <= MAX_NODES:
        raise ValueError(f"num_nodes must lie in [0, {MAX_NODES}], got {num_nodes}")


def elementwise(fn: Callable[[float], float], x: float | np.ndarray) -> float | np.ndarray:
    """``fn`` of a float, or of each entry of a 1-D array through Python
    floats, so that each entry is bit for bit ``fn`` of that float: numpy's
    ``log2``, ``exp`` and ``expm1`` differ from ``math``'s in the last bit
    on some inputs."""
    np = _numpy_if_array(x)
    return fn(x) if np is None else np.array(list(map(fn, x.tolist())))


def fig2_curves(
    e_link_grid: Iterable[float], node_counts: Sequence[int] = (0, 1, 2)
) -> list[dict[str, float]]:
    """Rate-vs-link-error curves for the qubit model.

    One curve per node count m: :func:`uniform_str_rate` of m nodes over the
    grid as one array, with uniform bases and Shannon-limit error correction.
    Node count 0, one link, is the conventional baseline in the column
    ``rate_conventional``, rejecting with :func:`conventional_relay_rate`'s
    error text; node count m >= 1 is ``rate_str{m}``.  A repeated node count
    is a ValueError.  The first rejected grid point raises at the first node
    count; a node count out of range raises at the grid's first point.
    Input is checked on floats, so that a rejected one never loads numpy.
    """
    if len(set(node_counts)) != len(node_counts):
        raise ValueError(f"repeated node count in {list(node_counts)}")
    e_links = [float(e) for e in e_link_grid]
    if not e_links:
        return []
    # The grid at the first node count, whose name the error takes, then
    # each node count; only the grid's first point when a count is bad.
    checked = e_links if all(0 <= m <= MAX_NODES for m in node_counts) else e_links[:1]
    for m in node_counts[:1]:
        for e in checked:
            _check_half_range("per-link error rate" if m == 0 else "e_link", e)
    for m in node_counts:
        _check_node_count(m)
    import numpy as np

    e = np.array(e_links)
    columns = {"e_link": e_links}
    for m in node_counts:
        curve = "rate_conventional" if m == 0 else f"rate_str{m}"
        columns[curve] = uniform_str_rate(e, m).rate.tolist()
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


# Largest node count for which a 2^(nodes + 1)-entry basis-vector table is
# built; each node doubles the table, and the paper's chains have at most two.
MAX_NODES = 16


def basis_label(code: int, links: int) -> str:
    """Basis vector of ``code`` as one digit per link (0 = Z, 1 = X): code i
    spells i in binary, first link most significant."""
    return format(code, f"0{links}b")
