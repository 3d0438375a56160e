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

Each basis and flip decision reads a b-bit random value: a value below
``int(2^b p)``, the leading b bits of the binary expansion of its
probability p, succeeds, one above it fails, and one equal to it reads
further bytes against the rest of the expansion (Knuth & Yao, 1976).  A
decision set whose probability is exactly 1/2, as the bases are at p_z =
1/2, takes b = 1: one bit per decision, read most significant bit first as
``np.unpackbits`` reads them, where a 0 bit succeeds and none reads on.
Every other takes b = 8, one byte per decision, of which 1 in 256 ties.
The decisions are therefore exactly Bernoulli(p), with no rounding of p to
a grid, at about one byte each, or one bit at p = 1/2.

Randomness is drawn from per-(link, block) PCG64DXSM substreams keyed on
the scenario seed through ``SeedSequence(entropy=seed, spawn_key=(link,
block))`` (O'Neill, 2014).  Each block takes its survivor count,
then one raw draw holding the basis values and then the flip values, then
the bytes that resolve basis ties and then flip ties, and last the packed
sent bits, which only the reference pipeline draws.  Bytes are read from
the raw 64-bit words in little-endian order on every host, so results are
bit-identical on any host for one numpy version.  The survivor count comes
from ``Generator.binomial``, whose stream NEP 19 lets numpy change between
versions; the stream goldens were drawn with numpy 2.4.6.

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

and every sent bit cancels.  A paired event's code, its links' bases and
then its error bit, therefore needs only each link's basis and flip.  The
sent bits come last in each substream, after every byte a decision reads,
so :func:`run_protocol` leaves them undrawn and still reads the stream of
the reference pipeline.

:func:`run_protocol` keeps bool bit planes with one column per unpaired
survivor: a basis plane and a flip plane per link, and an error plane.  It
streams the blocks in order, and each link writes its basis and flip
decisions straight into its planes, at its next unpaired column.  After
each block the complete columns at the head are paired: the error plane
takes the XOR of the flip planes, the codes are counted, and the partial
columns behind them, the lead of the longer links, move to the front.
Pairing by survival order gives the same pairs however the stream is cut,
so the table is exactly that of the reference pipeline on the whole
stream.  The planes hold one block and the lead, with 1/32 to spare,
whatever the number of rounds: the lead is a random walk whose typical
size is at most sqrt(rounds / 2) survivors, below a block up to
``MAX_ROUNDS``.

Codes of up to four bits, those of up to three links, are counted from the
planes packed 64 columns to a word: one AND per set of code bits marks the
columns that have all of them set, ``np.bitwise_count`` counts those, and
inclusion-exclusion turns these counts into the count of each code.  Longer
codes are built from the planes and counted by ``np.bincount``, as the
reference pipeline counts its codes.

Everything runs on one thread: on two cores, neither a thread pool over
each block's links nor a thread drawing the next block during pairing beat
drawing serially.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
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
    bit_generator: np.random.BitGenerator,
    u: np.ndarray,
    p: float,
    out: np.ndarray | None = None,
    bits: int = 8,
) -> np.ndarray:
    """Exact Bernoulli(p) decisions, one per ``bits``-bit value of ``u``,
    written to ``out`` if given.

    A value below ``level = int(2^bits p)`` succeeds and one above it
    fails; a value equal to it is decided by fresh bytes against
    ``2^bits p - level``.  Both quantities are exact in binary floating
    point, so the law is exactly Bernoulli(p).  A tie against a zero
    remainder fails.
    """
    scaled = (1 << bits) * p
    level = int(scaled)
    success = np.less(u, level, out=out)
    remainder = scaled - level
    if remainder > 0.0:
        ties = np.flatnonzero(u == level)
        if ties.size:
            fresh = _raw_bytes(bit_generator, ties.size)[: ties.size]
            success[ties] = _bernoulli(bit_generator, fresh, remainder)
    return success


def _substream(cfg: ChainConfig, link: int, block: int) -> tuple[np.random.BitGenerator, int]:
    """The (link, block) substream and its survivor count, the first value
    drawn from it."""
    size = cfg.block_rounds
    n = min(size, cfg.rounds - block * size)
    bit_generator = np.random.PCG64DXSM(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(link, block))
    )
    return bit_generator, int(np.random.Generator(bit_generator).binomial(n, cfg.p_keep))


def _draw(
    cfg: ChainConfig, bit_generator: np.random.BitGenerator, basis: np.ndarray, flips: np.ndarray
) -> None:
    """Write the survivors' bases (True = X) into ``basis`` and their flips
    into ``flips``, bool arrays of one entry per survivor, from the rest of
    the substream: one raw draw holding the basis values and then the flip
    values, then the basis tie bytes and then the flip tie bytes.  A
    decision set of probability exactly 1/2 takes one bit per survivor, read
    most significant bit first; any other takes one byte per survivor."""
    kept = len(basis)
    probs = (1.0 - basis_law(cfg.p_z)[1], cfg.flip_prob)
    split, end = itertools.accumulate((kept + 7) // 8 if p == 0.5 else kept for p in probs)
    raw = _raw_bytes(bit_generator, end)
    for out, p, values in zip((basis, flips), probs, (raw[:split], raw[split:end])):
        if p == 0.5:
            _bernoulli(bit_generator, np.unpackbits(values, count=kept), p, out, bits=1)
        else:
            _bernoulli(bit_generator, values, p, out)


def _num_blocks(cfg: ChainConfig) -> int:
    return -(-cfg.rounds // cfg.block_rounds)


def run_quantum_phase(cfg: ChainConfig) -> list[SiftedLinkData]:
    """Every link's whole sifted stream: the blocks :func:`run_protocol`
    streams, concatenated per link.  Each block draws its decisions as
    :func:`run_protocol` does, then its packed sent bits, which
    :func:`run_protocol` leaves undrawn."""
    streams = []
    for link in range(cfg.num_links):
        bases, sent, flips = [], [], []
        for block in range(_num_blocks(cfg)):
            bit_generator, kept = _substream(cfg, link, block)
            bases.append(np.empty(kept, dtype=bool))
            flips.append(np.empty(kept, dtype=bool))
            _draw(cfg, bit_generator, bases[-1], flips[-1])
            packed = _raw_bytes(bit_generator, (kept + 7) // 8)
            sent.append(np.unpackbits(packed, count=kept))
        sent = np.concatenate(sent)
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
    codes = _codes([*paired.bases.T, mismatch])
    return _table(np.bincount(codes, minlength=2 << links))


def _codes(rows: Sequence[np.ndarray]) -> np.ndarray:
    """One code per column of the bit ``rows``, the first row most
    significant.  Doubling is the shift: numpy's uint8 left shift is about
    ten times slower than add."""
    codes = rows[0].astype(np.min_scalar_type((1 << len(rows)) - 1))
    for row in rows[1:]:
        codes += codes
        codes |= row
    return codes


@functools.cache
def _inclusion_exclusion(bits: int) -> np.ndarray:
    """The matrix whose entry (c, s) is (-1)^(|s| - |c|) when the bits of s
    include those of c, else 0: it maps the number of columns with every bit
    of s set, for each s, to the number with code c."""
    return functools.reduce(np.kron, [np.array([[1, -1], [0, 1]])] * bits)


def _count_planes(planes: np.ndarray) -> np.ndarray:
    """How often each code occurs among the columns of the bool ``planes``,
    row 0 the code's most significant bit."""
    bits, n = planes.shape
    if bits > 4:
        return np.bincount(_codes(planes), minlength=1 << bits)
    # Row s of every marks, one bit per column packed into 64-bit words, the
    # columns whose code has every bit of s set.  Rows 2^j are the planes,
    # zero-padded, and each further bit of s is one AND.
    words = -(-n // 64)
    every = np.empty((1 << bits, words), dtype=np.uint64)
    rows = [1 << (bits - 1 - k) for k in range(bits)]
    every[rows, -1:] = 0
    every.view(np.uint8)[rows, : -(-n // 8)] = np.packbits(planes, axis=1)
    for j in range(1, bits):
        np.bitwise_and(every[1 : 1 << j], every[1 << j], out=every[(1 << j) + 1 : 2 << j])
    every_set = np.empty(1 << bits, dtype=np.int64)
    every_set[0] = n
    np.bitwise_count(every[1:]).sum(axis=1, out=every_set[1:])
    return _inclusion_exclusion(bits) @ every_set


def _table(counts: np.ndarray) -> ErrorRateTable:
    counts = counts.reshape(-1, 2)
    return ErrorRateTable(errors=counts[:, 1], samples=counts.sum(axis=1))


def run_protocol(cfg: ChainConfig) -> tuple[ErrorRateTable, list[int]]:
    """Full pipeline: quantum phase, pairing, correction, estimation,
    streamed block by block as bit planes, as the module docstring
    describes.

    Returns the error table and per-link survivor counts, exactly those of
    the reference pipeline on the whole of :func:`run_quantum_phase`.
    """
    links = cfg.num_links
    counts = np.zeros(2 << links, dtype=np.int64)
    survivors = [0] * links
    # Column i holds the i-th unpaired survivor of each link that has drawn
    # it: rows 0 to links - 1 its bases, row links + 1 + l link l's flip.
    # Row links takes the XOR of the flips, the code's error bit.
    planes = np.empty((2 * links + 1, 0), dtype=bool)
    paired = 0  # survivors of each link paired so far
    for block in range(_num_blocks(cfg)):
        draws = [_substream(cfg, link, block) for link in range(links)]
        need = max(s - paired + kept for s, (_, kept) in zip(survivors, draws))
        if need > planes.shape[1]:
            # The lead moves by a random walk, so a little room to spare
            # saves most later blocks a regrowth.
            held = max(survivors) - paired
            grown = np.empty((len(planes), need + need // 32), dtype=bool)
            grown[:, :held] = planes[:, :held]
            planes = grown
        for link, (bit_generator, kept) in enumerate(draws):
            start = survivors[link] - paired
            end = start + kept
            _draw(cfg, bit_generator, planes[link, start:end], planes[links + 1 + link, start:end])
            survivors[link] += kept
        n = min(survivors) - paired
        np.bitwise_xor.reduce(planes[links + 1 :, :n], axis=0, out=planes[links, :n])
        counts += _count_planes(planes[: links + 1, :n])
        held = max(survivors) - paired
        planes[:, : held - n] = planes[:, n:held]
        paired += n
    return _table(counts), survivors
