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

Only the sifted events are sampled.  Rounds are i.i.d. and sifting reads
neither bit, so a round survives with ``p_keep = detect * match``
independently of the others and of its bits; ``match``, the probability
that both ends pick the same basis, and the Z share of such rounds come
from :func:`strqkd.keyrate.basis_law`, the law's one definition.  Each
block therefore draws its survivor count from Binomial(block, p_keep),
then, for the survivors only, the shared basis (Z with that share, X
otherwise), a uniform sent bit and a flip with probability ``flip_prob``.
Given survival these are independent and have
exactly these laws, so the sifted stream has the same joint law as drawing
every round and discarding the unsifted ones, at a cost that scales with
the survivors instead of the rounds.  A block spans ``BLOCK_SIZE * 2^k``
rounds, with the largest k >= 0 that keeps its expected survivors at most
``BLOCK_SIZE / 2``, up to 2^40 (at least ``MAX_ROUNDS``): ``BLOCK_SIZE``
for ``p_keep > 1/4``, and for a sparse run a few full blocks, not many
nearly empty ones at a fixed cost each.

Each basis and flip decision compares one random byte with the leading
byte of the binary expansion of its probability, and only the 1 in 256
bytes that tie with it read further bytes against the rest of the
expansion (Knuth & Yao, 1976).  The decisions are therefore exactly
Bernoulli(p), with no rounding of p to a grid, at about one byte each.

Randomness is drawn from per-(link, block) PCG64DXSM substreams keyed on
the scenario seed through ``SeedSequence(entropy=seed, spawn_key=(link,
block))`` (O'Neill, 2014).  Each block takes its survivor count,
then one raw draw holding the basis bytes, the packed sent bits and the
flip bytes in that order, then the bytes that resolve basis ties and then
flip ties.  Bytes are read from the raw 64-bit words in little-endian
order on every host, so results are bit-identical on any host for one
numpy version.  The survivor count comes from ``Generator.binomial``,
whose stream NEP 19 lets numpy change between versions; the stream
goldens were drawn with numpy 2.4.6.

The three stage functions :func:`run_quantum_phase`, :func:`pair_and_announce`
and :func:`correct_and_estimate` are the reference pipeline: they spell the
protocol out step by step, with every link's sent and received bits, the
node parities and Bob's correction.

:func:`run_protocol` gives the same table without the bits.  Counting
links and nodes from 0, node j announces the XOR of the bit it received on
link j and the bit it sent on link j+1, and Bob XORs every announcement
into his received bit, so Alice's bit XOR Bob's corrected bit is::

    sent_0 ^ (received_0 ^ sent_1) ^ ... ^ (received_{m-1} ^ sent_m) ^ received_m
        = flip_0 ^ flip_1 ^ ... ^ flip_m

and every sent bit cancels.  Each survivor of link l is therefore one
token: its basis bit at the link's code position (bit m + 1 - l, the first
link most significant) ORed with its flip as the lowest bit.  A paired
event's code, bases and error flag, is the XOR of its links' tokens.  The
sent bits stay in each block's raw draw, so the random stream is that of
the reference pipeline, but they are never unpacked.

:func:`run_protocol` streams the blocks in order and XORs each link's
tokens into one buffer of codes, at that link's next unpaired position.
After each block the complete codes at the head of the buffer are counted
and the partial ones behind them, the lead of the longer links, move to the
front.  Pairing by survival order gives the same pairs however the stream is
cut, so the table is exactly that of the reference pipeline on the whole
stream.  The memory held is one block and the lead, whatever the number of
rounds: a random walk whose typical size is at most sqrt(rounds / 2)
survivors, below a block up to ``MAX_ROUNDS``.

Everything runs on one thread: on two cores, neither a thread pool over
each block's links nor a thread drawing the next block during pairing beat
drawing serially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .keyrate import MAX_NODES, basis_law, check_protocol_parameters

__all__ = [
    "ChainConfig",
    "SiftedLinkData",
    "PairedData",
    "ErrorRateTable",
    "run_quantum_phase",
    "pair_and_announce",
    "correct_and_estimate",
    "run_protocol",
    "MAX_ROUNDS",
]

BLOCK_SIZE = 1 << 20

# Longest run accepted.  It leaves millions of samples in each of the 2^17
# basis-vector codes of the longest chain, for which a run at the bound on
# two cores took 3.1 s at detect 1e-4 and would take about 9.4 hours with
# every round detected (2^26 rounds took 2.3 s).  Without it a mistyped
# exponent would loop over blocks for weeks.
MAX_ROUNDS = 10**12


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
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must lie in [1, {MAX_ROUNDS}], got {self.rounds}")
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob must lie in [0, 1/2], got {self.flip_prob}")
        if not 0.0 < self.detect_prob <= 1.0:
            raise ValueError(f"detect_prob must lie in (0, 1], got {self.detect_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        check_protocol_parameters(self.p_z)

    @property
    def num_links(self) -> int:
        return self.num_nodes + 1

    @property
    def p_keep(self) -> float:
        """Probability that a round is detected with matching bases."""
        return self.detect_prob * basis_law(self.p_z)[0]

    @property
    def block_rounds(self) -> int:
        """Rounds per block, as the module docstring defines them."""
        rounds = BLOCK_SIZE
        while rounds < 1 << 40 and 2 * rounds * self.p_keep <= BLOCK_SIZE / 2:
            rounds *= 2
        return rounds


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


def _raw_bytes(bit_generator: np.random.BitGenerator, count: int) -> np.ndarray:
    """``count`` random bytes (or up to 7 more), little-endian on any host."""
    words = bit_generator.random_raw((count + 7) // 8)
    return words.astype("<u8", copy=False).view(np.uint8)


def _bernoulli(
    bit_generator: np.random.BitGenerator, u: np.ndarray, p: float
) -> np.ndarray:
    """Exact Bernoulli(p) decisions, one per random byte of ``u``.

    A byte below ``level = int(256 p)`` succeeds and one above it fails; a
    byte equal to it is decided by fresh bytes against ``256 p - level``.
    Both quantities are exact in binary floating point, so the law is
    exactly Bernoulli(p).  A tie against a zero remainder fails.
    """
    scaled = 256.0 * p
    level = int(scaled)
    success = u < level
    remainder = scaled - level
    if remainder > 0.0:
        ties = np.flatnonzero(u == level)
        if ties.size:
            fresh = _raw_bytes(bit_generator, ties.size)[: ties.size]
            success[ties] = _bernoulli(bit_generator, fresh, remainder)
    return success


def _draw(
    cfg: ChainConfig, link: int, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (link, block) substream: the survivors' bases (True = X), their
    packed sent bits and their flips."""
    size = cfg.block_rounds
    n = min(size, cfg.rounds - block * size)
    bit_generator = np.random.PCG64DXSM(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(link, block))
    )
    kept = int(np.random.Generator(bit_generator).binomial(n, cfg.p_keep))
    packed = (kept + 7) // 8
    raw = _raw_bytes(bit_generator, 2 * kept + packed)
    basis = _bernoulli(bit_generator, raw[:kept], 1.0 - basis_law(cfg.p_z)[1])
    flips = _bernoulli(bit_generator, raw[kept + packed : 2 * kept + packed], cfg.flip_prob)
    return basis, raw[kept : kept + packed], flips


def _num_blocks(cfg: ChainConfig) -> int:
    return -(-cfg.rounds // cfg.block_rounds)


def run_quantum_phase(cfg: ChainConfig) -> list[SiftedLinkData]:
    """Every link's whole sifted stream: the blocks :func:`run_protocol`
    streams, concatenated per link."""
    streams = []
    for link in range(cfg.num_links):
        bases, packed, flips = zip(
            *(_draw(cfg, link, block) for block in range(_num_blocks(cfg)))
        )
        sent = np.concatenate(
            [np.unpackbits(bits, count=len(basis)) for basis, bits in zip(bases, packed)]
        )
        streams.append(SiftedLinkData(
            basis=np.concatenate(bases).view(np.uint8),
            sent=sent,
            received=sent ^ np.concatenate(flips).view(np.uint8),
        ))
    return streams


def pair_and_announce(links: list[SiftedLinkData]) -> PairedData:
    """Pair the i-th survivor of each link and compute node parities.

    Node j's parity combines its receive bit from link j with its
    independently prepared send bit for link j+1.
    """
    if not links:
        raise ValueError("need at least one link")
    n = min(len(link) for link in links)
    # Built as (links, n) and transposed, so each column is contiguous.
    bases = np.stack([link.basis[:n] for link in links])
    parities = np.empty((len(links) - 1, n), dtype=np.uint8)
    for j, row in enumerate(parities):
        np.bitwise_xor(links[j].received[:n], links[j + 1].sent[:n], out=row)
    return PairedData(
        alice_bits=links[0].sent[:n],
        bob_bits=links[-1].received[:n],
        bases=bases.T,
        parities=parities.T,
    )


def correct_and_estimate(paired: PairedData) -> ErrorRateTable:
    """Apply parity corrections and bin disagreements by basis vector."""
    links = paired.bases.shape[1]
    mismatch = paired.alice_bits ^ paired.bob_bits
    for j in range(paired.parities.shape[1]):
        mismatch ^= paired.parities[:, j]
    # Shift in one base column per link, the first link ending most
    # significant, then the error flag as the lowest bit.  Doubling is the
    # shift: numpy's uint8 left shift is about ten times slower than add.
    codes = paired.bases[:, 0].astype(np.min_scalar_type((2 << links) - 1))
    for bit in [*paired.bases.T[1:], mismatch]:
        codes += codes
        codes |= bit
    return _table(_count_codes(codes, links))


def _count_codes(codes: np.ndarray, links: int) -> np.ndarray:
    """How often each code (link bases, then the error flag) occurs."""
    bits = links + 1
    if bits > 4:
        return np.bincount(codes, minlength=1 << bits)
    # Two rows per key: a pair of codes read as one uint16 w keys as
    # (w | w >> (8 - bits)) & mask, one code above the other.  Summing both
    # marginals makes the host's byte order irrelevant.
    words = codes[: len(codes) & -2].view(np.uint16)
    keys = words >> (8 - bits)
    keys |= words
    keys &= (1 << 2 * bits) - 1
    pairs = np.bincount(keys, minlength=1 << 2 * bits).reshape(1 << bits, -1)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if len(codes) % 2:
        counts[codes[-1]] += 1
    return counts


def _table(counts: np.ndarray) -> ErrorRateTable:
    counts = counts.reshape(-1, 2)
    return ErrorRateTable(errors=counts[:, 1], samples=counts.sum(axis=1))


def run_protocol(cfg: ChainConfig) -> tuple[ErrorRateTable, list[int]]:
    """Full pipeline: quantum phase, pairing, correction, estimation,
    streamed block by block as tokens, as the module docstring describes.

    Returns the error table and per-link survivor counts, exactly those of
    the reference pipeline on the whole of :func:`run_quantum_phase`.
    """
    links = cfg.num_links
    dtype = np.min_scalar_type((2 << links) - 1)
    counts = np.zeros(2 << links, dtype=np.int64)
    survivors = [0] * links
    # codes[i] is the XOR of the tokens of the i-th unpaired survivor of
    # every link that has drawn it; unwritten entries are zero.
    codes = np.zeros(0, dtype=dtype)
    paired = 0  # survivors of each link paired so far
    for block in range(_num_blocks(cfg)):
        for link in range(links):
            basis, _, flips = _draw(cfg, link, block)
            start = survivors[link] - paired
            survivors[link] += len(basis)
            end = survivors[link] - paired
            if end > len(codes):
                codes = np.pad(codes, (0, max(end - len(codes), len(codes))))
            token = basis * dtype.type(1 << (links - link))
            token |= flips
            segment = codes[start:end]
            segment ^= token
        n = min(survivors) - paired
        counts += _count_codes(codes[:n], links)
        held = max(survivors) - paired
        codes[: held - n] = codes[n:held]
        codes[held - n : held] = 0
        paired += n
    return _table(counts), survivors
