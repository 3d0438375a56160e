"""Tests for the protocol Monte Carlo: sifting, pairing, correction, and the
compound error model."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strqkd import keyrate, relay
from strqkd.acceptance_checks import montecarlo_max_z


def binomial_z(observed_rate, expected, samples):
    sigma = math.sqrt(expected * (1 - expected) / samples)
    return abs(observed_rate - expected) / sigma


class TestQuantumPhase:
    def test_noiseless_survivors_agree(self):
        cfg = relay.ChainConfig(num_nodes=0, rounds=5000, flip_prob=0.0, seed=1)
        (link,) = relay.run_quantum_phase(cfg)
        assert len(link) > 0
        assert (link.sent == link.received).all()

    def test_uniform_bases_retention_near_half(self):
        cfg = relay.ChainConfig(num_nodes=0, rounds=200_000, flip_prob=0.0, seed=2)
        (link,) = relay.run_quantum_phase(cfg)
        frac = len(link) / cfg.rounds
        sigma = math.sqrt(0.25 / cfg.rounds)
        assert abs(frac - 0.5) < 3 * sigma

    def test_per_link_flip_rate(self):
        cfg = relay.ChainConfig(num_nodes=1, rounds=200_000, flip_prob=0.07, seed=3)
        for link in relay.run_quantum_phase(cfg):
            rate = float((link.sent != link.received).mean())
            assert binomial_z(rate, 0.07, len(link)) < 3

    def test_detection_probability_thins_retention(self):
        cfg = relay.ChainConfig(
            num_nodes=0, rounds=200_000, flip_prob=0.0, detect_prob=0.3, seed=4
        )
        (link,) = relay.run_quantum_phase(cfg)
        assert binomial_z(len(link) / cfg.rounds, 0.15, cfg.rounds) < 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            relay.ChainConfig(num_nodes=-1, rounds=10, flip_prob=0.0)
        with pytest.raises(ValueError):
            relay.ChainConfig(num_nodes=0, rounds=0, flip_prob=0.0)
        with pytest.raises(ValueError):
            relay.ChainConfig(num_nodes=0, rounds=10, flip_prob=0.7)
        with pytest.raises(ValueError, match="num_nodes"):
            relay.ChainConfig(num_nodes=keyrate.MAX_NODES + 1, rounds=10, flip_prob=0.0)
        for p_z in (0.0, 1.0):
            with pytest.raises(ValueError, match="p_z"):
                relay.ChainConfig(num_nodes=0, rounds=10, flip_prob=0.0, p_z=p_z)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            relay.ChainConfig(num_nodes=0, rounds=10, flip_prob=0.0, seed=-1)

    @pytest.mark.parametrize("p_z", [0.5, 0.3])
    def test_first_block_rebuilt_from_numpy(self, p_z):
        # The stream the module docstring specifies, rebuilt with numpy
        # alone.  A flip at 1/16 is a byte below 16, with a zero remainder,
        # so flips read no tie bytes.  At p_z = 1/2 a basis is X with
        # probability 1/2: one bit, X when 0.  At p_z = 0.3 it is X with
        # probability 49/58, 216.28 / 256: a byte below 216 is X, and one
        # equal to it ties and reads one byte after the main draw, X below
        # int(256 * 0.2759) = 70.
        seed = 31
        cfg = relay.ChainConfig(
            num_nodes=1, rounds=20_000, flip_prob=1 / 16, detect_prob=0.8, p_z=p_z, seed=seed
        )
        for link, data in enumerate(relay.run_quantum_phase(cfg)):
            bit_generator = np.random.PCG64DXSM(
                np.random.SeedSequence(entropy=seed, spawn_key=(link, 0))
            )
            p_keep = 0.8 * (p_z * p_z + (1 - p_z) * (1 - p_z))
            kept = int(np.random.Generator(bit_generator).binomial(cfg.rounds, p_keep))

            def draw(count):
                words = bit_generator.random_raw((count + 7) // 8)
                return words.astype("<u8").view(np.uint8)[:count]

            packed = (kept + 7) // 8
            if p_z == 0.5:
                raw = draw(packed + kept)
                basis = np.unpackbits(raw[:packed], count=kept) == 0
                flips = raw[packed:] < 16
            else:
                raw = draw(2 * kept)
                basis = raw[:kept] < 216
                ties = np.flatnonzero(raw[:kept] == 216)
                fresh = draw(ties.size)
                assert ties.size > 0 and not (fresh == 70).any()
                basis[ties] = fresh < 70
                flips = raw[kept:] < 16
            sent = np.unpackbits(draw(packed), count=kept)
            assert len(data) == kept > 0
            assert (data.basis == basis).all()
            assert (data.sent == sent).all()
            assert (data.received == sent ^ flips).all()


class TestSiftedLawAtBiasedBases:
    # At p_z = 1/2 both bases survive equally often, so a wrong Z/X weight
    # among survivors would go unseen; p_z = 0.3 tells the weights apart.
    P_Z, DETECT, FLIP = 0.3, 0.2, 0.07

    @pytest.fixture(scope="class")
    def links(self):
        cfg = relay.ChainConfig(
            num_nodes=1, rounds=300_000, flip_prob=self.FLIP,
            detect_prob=self.DETECT, p_z=self.P_Z, seed=31,
        )
        return cfg.rounds, relay.run_quantum_phase(cfg)

    def test_survivor_fraction_is_p_keep(self, links):
        rounds, sifted = links
        p_keep = self.DETECT * (self.P_Z**2 + (1 - self.P_Z) ** 2)
        assert p_keep == pytest.approx(0.116)
        for link in sifted:
            assert binomial_z(len(link) / rounds, p_keep, rounds) < 3

    def test_z_share_among_survivors(self, links):
        _, sifted = links
        for link in sifted:
            z_share = float((link.basis == 0).mean())
            assert binomial_z(z_share, 0.09 / 0.58, len(link)) < 3

    def test_sent_bits_balanced(self, links):
        _, sifted = links
        for link in sifted:
            assert binomial_z(float(link.sent.mean()), 0.5, len(link)) < 3

    @pytest.mark.parametrize("basis", [0, 1])
    def test_flip_rate_within_each_basis(self, links, basis):
        _, sifted = links
        for link in sifted:
            chosen = link.basis == basis
            flips = link.sent[chosen] != link.received[chosen]
            assert binomial_z(float(flips.mean()), self.FLIP, int(chosen.sum())) < 3


class _ScriptedBytes:
    """Stands in for a bit generator: each ``random_raw`` call returns the
    next chunk of bytes, which must fill the words asked for."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def random_raw(self, size):
        words = np.frombuffer(self.chunks.pop(0).tobytes(), dtype="<u8")
        assert len(words) == size
        return words


class TestExactBernoulli:
    # At flip_prob = 1e-4, level = int(256 * 1e-4) = 0, so every flip comes
    # from a tie resolved two or more bytes deep.
    FLIP = 1e-4

    def test_flip_rate_below_one_byte(self):
        cfg = relay.ChainConfig(
            num_nodes=1, rounds=10_000_000, flip_prob=self.FLIP, seed=41
        )
        for link in relay.run_quantum_phase(cfg):
            assert len(link) * self.FLIP > 400
            rate = float((link.sent != link.received).mean())
            assert binomial_z(rate, self.FLIP, len(link)) < 3

    def test_zero_flip_prob_never_flips(self):
        cfg = relay.ChainConfig(num_nodes=1, rounds=2_000_000, flip_prob=0.0, seed=42)
        for link in relay.run_quantum_phase(cfg):
            assert (link.sent == link.received).all()

    @pytest.mark.parametrize("numerator", [12345, 200, 1 << 15, 65535])
    def test_law_exact_over_all_two_byte_sequences(self, numerator):
        # p has a 16-bit binary expansion, so the first two bytes decide
        # every draw.  Over all 65536 (first, second) byte pairs exactly
        # ``numerator`` succeed, and no third byte is read.
        p = numerator / 65536
        level = int(256 * p)
        first = np.repeat(np.arange(256, dtype=np.uint8), 256)
        second = np.arange(256, dtype=np.uint8)
        chunks = [second] if 256 * p > level else []
        bit_generator = _ScriptedBytes(*chunks)
        success = relay._bernoulli(bit_generator, first, p)
        assert int(success.sum()) == numerator
        assert not bit_generator.chunks

    def test_tie_at_every_byte_reads_the_next(self):
        # p spells the bytes 12, 34, 56.  Every draw ties on its first two
        # bytes, so the third decides: exactly 56 of 256 succeed.
        p = (12 * 65536 + 34 * 256 + 56) / (1 << 24)
        second = np.full(256, 34, dtype=np.uint8)
        bit_generator = _ScriptedBytes(second, np.arange(256, dtype=np.uint8))
        success = relay._bernoulli(bit_generator, np.full(256, 12, dtype=np.uint8), p)
        assert int(success.sum()) == 56
        assert not bit_generator.chunks


class TestPairing:
    def test_truncates_to_shortest_link(self):
        links = [
            relay.SiftedLinkData(
                basis=np.zeros(100, dtype=np.uint8),
                sent=np.zeros(100, dtype=np.uint8),
                received=np.zeros(100, dtype=np.uint8),
            ),
            relay.SiftedLinkData(
                basis=np.zeros(80, dtype=np.uint8),
                sent=np.zeros(80, dtype=np.uint8),
                received=np.zeros(80, dtype=np.uint8),
            ),
        ]
        paired = relay.pair_and_announce(links)
        assert len(paired.alice_bits) == 80

    def test_empty_link_flagged(self):
        empty = relay.SiftedLinkData(
            basis=np.empty(0, dtype=np.uint8),
            sent=np.empty(0, dtype=np.uint8),
            received=np.empty(0, dtype=np.uint8),
        )
        paired = relay.pair_and_announce([empty, empty])
        assert len(paired.alice_bits) == 0
        assert paired.bases.shape == (0, 2)
        assert paired.parities.shape == (0, 1)
        table = relay.correct_and_estimate(paired)
        assert table.errors.tolist() == table.samples.tolist() == [0, 0, 0, 0]

    def test_equal_node_bits_give_zero_parity(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        link = relay.SiftedLinkData(
            basis=np.zeros(4, dtype=np.uint8),
            sent=bits,
            received=bits,
        )
        paired = relay.pair_and_announce([link, link])
        assert (paired.parities == 0).all()

    def test_noiseless_chain_correction_recovers_alice(self):
        cfg = relay.ChainConfig(num_nodes=2, rounds=20_000, flip_prob=0.0, seed=5)
        paired = relay.pair_and_announce(relay.run_quantum_phase(cfg))
        corrected = paired.bob_bits.copy()
        for j in range(paired.parities.shape[1]):
            corrected ^= paired.parities[:, j]
        assert (corrected == paired.alice_bits).all()


class TestCorrectionAndEstimation:
    def test_code_spells_link_bases_first_link_most_significant(self):
        # Every paired event used X on the first link and Z on the second:
        # basis vector "10", code 2.  The third event's parity corrects Bob's
        # bit; the last one stays wrong.
        paired = relay.PairedData(
            alice_bits=np.array([0, 1, 1, 0, 1], dtype=np.uint8),
            bob_bits=np.array([0, 1, 0, 0, 0], dtype=np.uint8),
            bases=np.tile(np.array([1, 0], dtype=np.uint8), (5, 1)),
            parities=np.array([[0], [0], [1], [0], [0]], dtype=np.uint8),
        )
        table = relay.correct_and_estimate(paired)
        assert keyrate.basis_label(2, 2) == "10"
        assert table.samples.tolist() == [0, 0, 5, 0]
        assert table.errors.tolist() == [0, 0, 1, 0]
        assert np.isnan(table.rates[[0, 1, 3]]).all() and table.rates[2] == 0.2

    @pytest.mark.parametrize(
        "links,rows", [(k, n) for k in (1, 2, 3, 4) for n in (0, 1, 2, 3, 1001)] + [(5, 1001)]
    )
    def test_table_equals_plain_bincount(self, links, rows):
        # Up to three links a code (bases and error flag) fits in four bits
        # and is counted two rows per key; four and five links take the
        # plain count.
        rng = np.random.default_rng(1000 * links + rows)

        def bits(*shape):
            return rng.integers(0, 2, shape, dtype=np.uint8)

        paired = relay.PairedData(
            alice_bits=bits(rows), bob_bits=bits(rows),
            bases=bits(links, rows).T, parities=bits(links - 1, rows).T,
        )
        parity = paired.parities.sum(axis=1, dtype=np.int64) % 2
        mismatch = paired.alice_bits ^ paired.bob_bits ^ parity
        codes = paired.bases.astype(np.int64) @ (1 << np.arange(links, 0, -1)) + mismatch
        expected = np.bincount(codes, minlength=2 << links)
        table = relay.correct_and_estimate(paired)
        assert table.errors.tolist() == expected[1::2].tolist()
        assert table.samples.tolist() == (expected[::2] + expected[1::2]).tolist()

    def test_noiseless_all_rates_zero(self):
        cfg = relay.ChainConfig(num_nodes=1, rounds=50_000, flip_prob=0.0, seed=6)
        table, _ = relay.run_protocol(cfg)
        assert len(table.samples) == 4
        assert not table.errors.any()

    def test_unobserved_basis_vector_makes_max_z_nan(self):
        # Three rounds cannot fill four basis vectors; the check must fail,
        # not read the empty one as zero error or divide by zero.
        assert math.isnan(montecarlo_max_z([(1, 0.05)], rounds=3, seed=1))

    def test_noise_free_case_has_zero_max_z(self):
        # The compound error is 0, so every rate must equal it exactly:
        # z is 0, with no 0/0 on the way.
        assert montecarlo_max_z([(1, 0.0)], rounds=1000, seed=1) == 0.0

    def test_error_against_noise_free_model_makes_max_z_inf(self, monkeypatch):
        table = relay.ErrorRateTable(
            errors=np.array([0, 1, 0, 0]), samples=np.array([5, 5, 1, 5])
        )
        monkeypatch.setattr(relay, "run_protocol", lambda cfg: (table, [20, 20]))
        assert montecarlo_max_z([(1, 0.0)], rounds=1000, seed=1) == math.inf

    @pytest.mark.parametrize("nodes,flip", [(1, 0.05), (2, 0.05)])
    def test_rates_match_compound_model(self, nodes, flip):
        cfg = relay.ChainConfig(
            num_nodes=nodes, rounds=400_000, flip_prob=flip, seed=100 + nodes
        )
        table, _ = relay.run_protocol(cfg)
        expected = keyrate.compound_error([flip] * (nodes + 1))
        assert len(table.samples) == 1 << (nodes + 1)
        for rate, samples in zip(table.rates, table.samples):
            assert binomial_z(rate, expected, samples) < 3

    def test_sparse_rates_match_compound_model(self):
        # Four blocks of 2^29 rounds per link, the last one partial, with
        # about 1e6 survivors per link and 1.2e5 samples per basis vector.
        cfg = relay.ChainConfig(
            num_nodes=2, rounds=2_000_000_000, flip_prob=0.05, detect_prob=1e-3, seed=2026
        )
        assert 3 * cfg.block_rounds < cfg.rounds < 4 * cfg.block_rounds
        table, _ = relay.run_protocol(cfg)
        expected = keyrate.compound_error([0.05] * 3)
        for rate, samples in zip(table.rates, table.samples):
            assert binomial_z(rate, expected, samples) < 4

    def test_single_node_table_shape(self):
        cfg = relay.ChainConfig(num_nodes=1, rounds=1000, flip_prob=0.0, seed=7)
        table, survivors = relay.run_protocol(cfg)
        assert len(table.errors) == len(table.samples) == 4
        assert len(survivors) == 2

    def test_m0_degenerates_to_bb84(self):
        cfg = relay.ChainConfig(num_nodes=0, rounds=200_000, flip_prob=0.03, seed=8)
        table, _ = relay.run_protocol(cfg)
        assert len(table.samples) == 2
        for rate, samples in zip(table.rates, table.samples):
            assert binomial_z(rate, 0.03, samples) < 3


class TestDeterminism:
    def test_identical_seed_identical_output(self):
        cfg = relay.ChainConfig(num_nodes=2, rounds=150_000, flip_prob=0.02, seed=9)
        t1, s1 = relay.run_protocol(cfg)
        t2, s2 = relay.run_protocol(cfg)
        assert (t1.errors == t2.errors).all() and (t1.samples == t2.samples).all()
        assert s1 == s2


class TestBlockBoundaries:
    # Three blocks per link, the last one partial, at a low detection
    # probability: each block spans 2^26 rounds with about 3.4e5 survivors.
    @staticmethod
    def config(rounds):
        return relay.ChainConfig(
            num_nodes=1, rounds=rounds, flip_prob=0.05, detect_prob=0.01, seed=11
        )

    BLOCK = config(1).block_rounds
    ROUNDS = 2 * BLOCK + 4321

    def test_block_size_ignores_rounds(self):
        assert self.BLOCK == relay.BLOCK_SIZE << 6 == self.config(self.ROUNDS).block_rounds

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_leading_blocks_are_a_prefix(self, blocks):
        # Block b of link l draws from substream (l, b) whatever the run's
        # length, so a shorter run is a prefix of a longer one.
        short = relay.run_quantum_phase(self.config(blocks * self.BLOCK))
        full = relay.run_quantum_phase(self.config(self.ROUNDS))
        for head, link in zip(short, full):
            assert 0 < len(head) < len(link)
            for name in ("basis", "sent", "received"):
                assert (getattr(link, name)[: len(head)] == getattr(head, name)).all()


class TestBlockSize:
    @given(
        detect=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        p_z=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    # The dense goldens and verify, then just above and at p_keep = 1/4.
    @example(detect=1.0, p_z=0.5)
    @example(detect=0.5000001, p_z=0.5)
    @example(detect=0.5, p_z=0.5)
    @settings(max_examples=300, deadline=None)
    def test_expected_survivors_per_block(self, detect, p_z):
        # Above p_keep = 1/4 a block keeps BLOCK_SIZE rounds, so every dense
        # run keeps its stream.  Below, it doubles until its expected
        # survivors lie in (BLOCK_SIZE / 4, BLOCK_SIZE / 2], unless capped.
        cfg = relay.ChainConfig(num_nodes=0, rounds=1, flip_prob=0.0, detect_prob=detect, p_z=p_z)
        size, survivors = cfg.block_rounds, cfg.p_keep * cfg.block_rounds
        if cfg.p_keep > 0.25:
            assert size == relay.BLOCK_SIZE
        elif size < 1 << 40:
            assert relay.BLOCK_SIZE / 4 < survivors <= relay.BLOCK_SIZE / 2
        else:
            assert survivors <= relay.BLOCK_SIZE / 2
        assert relay.BLOCK_SIZE <= size <= 1 << 40 and size.bit_count() == 1

    @pytest.mark.parametrize("detect", [5e-324, 1e-9])
    def test_tiny_survival_takes_one_block_at_max_rounds(self, detect, monkeypatch):
        # p_keep underflows to 0 at 5e-324 and is 5e-10 at 1e-9: the size is
        # capped at 2^40 rounds, so a run at the bound draws one block per link.
        cfg = relay.ChainConfig(
            num_nodes=2, rounds=relay.MAX_ROUNDS, flip_prob=0.05, detect_prob=detect
        )
        draws, substream = [], relay._substream
        monkeypatch.setattr(
            relay, "_substream", lambda *args: draws.append(args) or substream(*args)
        )
        start = time.perf_counter()
        table, survivors = relay.run_protocol(cfg)
        assert time.perf_counter() - start < 1.0
        assert cfg.block_rounds == 1 << 40 and len(draws) == cfg.num_links
        assert sum(survivors) < 5000 and table.samples.sum() == min(survivors)


class TestStreaming:
    # run_protocol pairs and estimates after every block; its result must
    # be exactly that of the reference pipeline on the whole materialised
    # stream.  Each case: (config, full blocks, extra rounds, pairing calls),
    # the blocks being the config's own.
    CASES = {
        # Every block pairs, each time leaving a carry.
        "every-block": (dict(num_nodes=1, detect_prob=1.0), 3, 777, 4),
        # Blocks of 2^29 rounds, each with about 2.7e5 survivors.
        "sparse": (dict(num_nodes=1, detect_prob=1e-3), 3, 777, 4),
        "biased": (dict(num_nodes=3, p_z=0.3, detect_prob=0.37), 2, 55, 3),
    }
    # Each edge of the code dtype: 7 links fill uint8, 8 links take
    # uint16 and 17 uint32.  The first two blocks each pair; the last one,
    # of 3 rounds, leaves some links without a survivor.
    CASES |= {
        f"{nodes + 1}-links-flip-{flip}": (
            dict(num_nodes=nodes, p_z=0.3, flip_prob=flip, detect_prob=0.2), 2, 3, 3
        )
        for nodes in (6, 7, 16)
        for flip in (0.0, 0.5)
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_pairing_the_whole_stream(self, case, monkeypatch):
        kwargs, blocks, extra, pairings = self.CASES[case]
        kwargs = {"flip_prob": 0.05, "seed": 12, **kwargs}
        size = relay.ChainConfig(rounds=1, **kwargs).block_rounds
        cfg = relay.ChainConfig(rounds=blocks * size + extra, **kwargs)
        links = relay.run_quantum_phase(cfg)
        whole = relay.correct_and_estimate(relay.pair_and_announce(links))
        drawn, paired, carries = [], [], []
        substream, count = relay._substream, relay._count_planes

        def substream_spy(cfg, link, block):
            bit_generator, kept = substream(cfg, link, block)
            drawn.append((link, kept))
            return bit_generator, kept

        def count_spy(planes):
            paired.append(planes.shape[1])
            longest = max(
                sum(k for j, k in drawn if j == link) for link in range(cfg.num_links)
            )
            carries.append(longest - sum(paired))
            return count(planes)

        monkeypatch.setattr(relay, "_substream", substream_spy)
        monkeypatch.setattr(relay, "_count_planes", count_spy)
        table, survivors = relay.run_protocol(cfg)
        assert table.errors.tolist() == whole.errors.tolist()
        assert table.samples.tolist() == whole.samples.tolist()
        assert survivors == [len(link) for link in links]
        assert len(carries) == pairings
        if case in ("every-block", "sparse") or "links" in case:
            assert min(carries) > 0
        if "links" in case:
            assert any(k == 0 for _, k in drawn)

    @pytest.mark.parametrize("p_z", [0.5, 0.3])
    def test_draws_only_what_it_reads(self, p_z, monkeypatch):
        # Each (link, block) draws its decisions in one raw draw: at p_z =
        # 1/2 a bit per basis, otherwise a byte, and a byte per flip.  Flips
        # at 1/16 leave no ties, so every later draw resolves basis ties,
        # one byte for each tie the previous draw left, and no sent bits are
        # drawn.
        cfg = relay.ChainConfig(
            num_nodes=1, rounds=2 * relay.BLOCK_SIZE + 777, flip_prob=1 / 16, p_z=p_z, seed=3
        )
        substreams, draws = [], []
        substream, raw_bytes = relay._substream, relay._raw_bytes

        def substream_spy(*args):
            substreams.append(substream(*args))
            return substreams[-1]

        def raw_bytes_spy(bit_generator, count):
            raw = raw_bytes(bit_generator, count)
            draws.append((bit_generator, count, raw[:count].copy()))
            return raw

        monkeypatch.setattr(relay, "_substream", substream_spy)
        monkeypatch.setattr(relay, "_raw_bytes", raw_bytes_spy)
        relay.run_protocol(cfg)
        assert len(substreams) == 2 * 3
        for bit_generator, kept in substreams:
            (count, raw), *ties = [(n, r) for g, n, r in draws if g is bit_generator]
            if p_z == 0.5:
                assert count == (kept + 7) // 8 + kept and not ties
                continue
            assert count == 2 * kept
            scaled, previous = 256 * 49 / 58, raw[:kept]
            for count, fresh in [*ties, (0, None)]:
                assert count == np.count_nonzero(previous == int(scaled))
                scaled, previous = 256 * (scaled - int(scaled)), fresh
            assert ties

    def test_peak_memory_flat_in_rounds(self):
        def peak(blocks):
            cfg = relay.ChainConfig(
                num_nodes=0, rounds=blocks * relay.BLOCK_SIZE, flip_prob=0.05, seed=13
            )
            tracemalloc.start()
            try:
                relay.run_protocol(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= 1.25 * peak(4)

    def test_peak_memory_one_block_and_the_lead(self):
        # Six dense blocks over three links.  The bound is the traced peak,
        # at this config, of the XOR-ed code buffer that the bit planes
        # replaced; planes grown by doubling would exceed it.
        cfg = relay.ChainConfig(num_nodes=2, rounds=6 * relay.BLOCK_SIZE, flip_prob=0.05, seed=13)
        relay.run_protocol(cfg)  # a first run also loads modules
        tracemalloc.start()
        try:
            relay.run_protocol(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_445_087


class TestCountPlanes:
    # Each plane is packed 64 columns to a word, zero-padded: these counts
    # end the columns at a word's start, inside and at its end, then one
    # block's worth.  The planes are the leading columns of longer rows, as
    # run_protocol passes them, with set bits beyond.
    @pytest.mark.parametrize("links", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 65, relay.BLOCK_SIZE])
    def test_equals_bincount(self, links, n):
        bits = links + 1
        codes = np.random.default_rng([links, n]).integers(0, 1 << bits, n)
        planes = np.ones((bits, n + 100), dtype=bool)
        planes[:, :n] = codes >> np.arange(bits - 1, -1, -1)[:, None] & 1
        counts = relay._count_planes(planes[:, :n])
        assert counts.tolist() == np.bincount(codes, minlength=1 << bits).tolist()


class TestCompoundError:
    def test_zero_and_fixed_point(self):
        assert keyrate.compound_error([0.0] * 5) == 0.0
        assert keyrate.compound_error([0.5] * 3) == pytest.approx(0.5)

    def test_two_links_exhaustive(self):
        # Oracle: enumerate all flip patterns of two independent links.
        w = 0.05
        expected = sum(
            (w if f1 else 1 - w) * (w if f2 else 1 - w)
            for f1 in (0, 1)
            for f2 in (0, 1)
            if f1 ^ f2
        )
        assert expected == pytest.approx(0.095)
        assert keyrate.compound_error([w, w]) == pytest.approx(expected, abs=1e-15)

    @given(
        e=st.floats(min_value=0.0, max_value=0.5),
        links=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_stays_in_range_and_monotone_in_links(self, e, links):
        value = keyrate.compound_error([e] * links)
        assert 0.0 <= value <= 0.5
        assert value <= keyrate.compound_error([e] * (links + 1)) + 1e-12

    def test_rejects_out_of_range(self):
        # The [0, 1/2] check sits where a user's per-link rate enters.
        with pytest.raises(ValueError):
            keyrate.uniform_str_rate(0.6, 1)
        with pytest.raises(ValueError):
            keyrate.uniform_str_rate(0.1, -1)
        with pytest.raises(ValueError, match="num_nodes"):
            keyrate.uniform_str_rate(0.1, keyrate.MAX_NODES + 1)
