"""Monte Carlo execution of the simplified-trusted-relay protocol.

A chain of m intermediate nodes is m+1 point-to-point links.  Each link is a
classical stochastic channel: the sender draws a basis and a uniform bit, the
receiver independently draws a basis, the event is detected with a fixed
probability, and the received bit is flipped with a fixed probability.
Sifting keeps events with matching bases and a detection, reading only bases
and detection flags.  Surviving events are paired across links in order of
survival (truncated to the shortest link), nodes announce per-index parities,
and Bob's corrected key is compared against Alice's to fill the
2^(m+1)-entry basis-vector error table.

Randomness is drawn from per-(link, block) Philox substreams keyed on the
scenario seed, so results are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .keyrate import MAX_NODES

__all__ = [
    "ChainConfig",
    "SiftedLinkData",
    "PairedData",
    "ErrorRateTable",
    "run_quantum_phase",
    "pair_and_announce",
    "correct_and_estimate",
    "run_protocol",
]

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class ChainConfig:
    """Scenario parameters for one protocol run."""

    num_nodes: int
    rounds: int
    flip_prob: float
    detect_prob: float = 1.0
    p_z: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.num_nodes <= MAX_NODES:
            raise ValueError(
                f"num_nodes must lie in [0, {MAX_NODES}], got {self.num_nodes}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob must lie in [0, 1/2], got {self.flip_prob}")
        if not 0.0 < self.detect_prob <= 1.0:
            raise ValueError(f"detect_prob must lie in (0, 1], got {self.detect_prob}")
        if not 0.0 <= self.p_z <= 1.0:
            raise ValueError(f"p_z must lie in [0, 1], got {self.p_z}")

    @property
    def num_links(self) -> int:
        return self.num_nodes + 1


@dataclass
class SiftedLinkData:
    """Post-sifting events of one link, in round order."""

    basis: np.ndarray  # uint8, 0 = Z / 1 = X
    sent: np.ndarray  # uint8
    received: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.basis)


@dataclass
class PairedData:
    """Index-aligned events across all links after pairing.

    ``bases`` has one column per link; ``parities`` one column per node.
    All arrays are empty when some link had no survivors.
    """

    alice_bits: np.ndarray
    bob_bits: np.ndarray
    bases: np.ndarray  # shape (n, links)
    parities: np.ndarray  # shape (n, nodes)


@dataclass
class ErrorRateTable:
    """Error and sample counts per basis vector, indexed by code: code i
    spells the links' bases in binary (0 = Z, 1 = X), first link most
    significant, as :func:`strqkd.keyrate.basis_label` prints it."""

    errors: np.ndarray  # int64
    samples: np.ndarray  # int64

    @property
    def rates(self) -> np.ndarray:
        """Error rate per code; nan for a basis vector without samples."""
        observed = self.samples > 0
        rates = np.full(len(self.samples), np.nan)
        return np.divide(self.errors, self.samples, out=rates, where=observed)


def _link_block(cfg: ChainConfig, link: int, block: int) -> SiftedLinkData:
    start = block * BLOCK_SIZE
    n = min(BLOCK_SIZE, cfg.rounds - start)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(link, block)))
    )
    draws = rng.random((5, n))
    sender_basis = (draws[0] >= cfg.p_z).astype(np.uint8)
    sender_bit = (draws[1] < 0.5).astype(np.uint8)
    receiver_basis = (draws[2] >= cfg.p_z).astype(np.uint8)
    detected = draws[3] < cfg.detect_prob
    flipped = draws[4] < cfg.flip_prob
    # Sifting looks only at bases and detection flags, never at bit values.
    keep = detected & (sender_basis == receiver_basis)
    received = sender_bit ^ flipped.astype(np.uint8)
    idx = np.nonzero(keep)[0]
    return SiftedLinkData(
        basis=sender_basis[idx],
        sent=sender_bit[idx],
        received=received[idx],
    )


def run_quantum_phase(cfg: ChainConfig, workers: int = 1) -> list[SiftedLinkData]:
    """Simulate point-to-point data creation and sifting for every link."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    num_blocks = (cfg.rounds + BLOCK_SIZE - 1) // BLOCK_SIZE
    tasks = [(link, block) for link in range(cfg.num_links) for block in range(num_blocks)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(lambda t: _link_block(cfg, *t), tasks))
    else:
        pieces = [_link_block(cfg, *t) for t in tasks]
    links: list[SiftedLinkData] = []
    for link in range(cfg.num_links):
        chunk = pieces[link * num_blocks : (link + 1) * num_blocks]
        links.append(
            SiftedLinkData(
                basis=np.concatenate([c.basis for c in chunk]),
                sent=np.concatenate([c.sent for c in chunk]),
                received=np.concatenate([c.received for c in chunk]),
            )
        )
    return links


def pair_and_announce(links: list[SiftedLinkData]) -> PairedData:
    """Pair the i-th survivor of each link and compute node parities.

    Node j's parity combines its receive bit from link j with its
    independently prepared send bit for link j+1.
    """
    if not links:
        raise ValueError("need at least one link")
    n = min(len(link) for link in links)
    bases = np.column_stack([link.basis[:n] for link in links])
    parities = np.column_stack(
        [links[j].received[:n] ^ links[j + 1].sent[:n] for j in range(len(links) - 1)]
    ) if len(links) > 1 else np.empty((n, 0), dtype=np.uint8)
    return PairedData(
        alice_bits=links[0].sent[:n],
        bob_bits=links[-1].received[:n],
        bases=bases,
        parities=parities,
    )


def correct_and_estimate(paired: PairedData) -> ErrorRateTable:
    """Apply parity corrections and bin disagreements by basis vector."""
    links = paired.bases.shape[1]
    corrected = paired.bob_bits.copy()
    for j in range(paired.parities.shape[1]):
        corrected ^= paired.parities[:, j]
    errors = paired.alice_bits != corrected
    # Shift in one base column per link: the first link ends most significant.
    codes = paired.bases[:, 0].astype(np.intp)
    for j in range(1, links):
        codes <<= 1
        codes |= paired.bases[:, j]
    size = 1 << links
    return ErrorRateTable(
        errors=np.bincount(codes, weights=errors, minlength=size).astype(np.int64),
        samples=np.bincount(codes, minlength=size),
    )


def run_protocol(cfg: ChainConfig, workers: int = 1) -> tuple[ErrorRateTable, list[int]]:
    """Full pipeline: quantum phase, pairing, correction, estimation.

    Returns the error table and per-link survivor counts.
    """
    links = run_quantum_phase(cfg, workers=workers)
    paired = pair_and_announce(links)
    return correct_and_estimate(paired), [len(link) for link in links]
