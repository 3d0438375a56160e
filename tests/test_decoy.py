"""Tests for the weak-coherent physical layer, tagged fractions, decoy key
rates, and intensity optimization."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strqkd import decoy, keyrate
from strqkd.acceptance_checks import (
    fraction_identity_residual,
    poisson_oracle_deviation,
    tagging_oracle_deviation,
)
from strqkd.decoy import LinkPhysics

FIG3B = dict(detector_efficiency=0.5, dark_count_prob=6e-6, intrinsic_error=0.0185)
NOISELESS = dict(detector_efficiency=0.5, dark_count_prob=0.0, intrinsic_error=0.0)


def per_sifted_signal(report, links):
    """A per-clock-cycle decoy rate at the default p_z = 1/2 per sifted
    signal: every term divided by the product over the links of gain times
    the basis match probability."""
    match = keyrate.basis_law(0.5)[0]
    scale = math.prod(decoy.link_statistics(phys).gain * match for phys in links)
    return keyrate.KeyRateReport(**{term: v / scale for term, v in report._asdict().items()})


class TestLinkStatistics:
    def test_saturated_detection(self):
        phys = LinkPhysics(loss_db=0.0, mu=50.0, **NOISELESS)
        phys = replace(phys, intrinsic_error=0.02)
        stats = decoy.link_statistics(phys)
        assert stats.gain == pytest.approx(1.0, abs=1e-9)
        assert stats.qber == pytest.approx(0.02, abs=1e-9)

    def test_dark_count_dominated(self):
        phys = LinkPhysics(loss_db=0.0, mu=1e-9, **FIG3B)
        stats = decoy.link_statistics(phys)
        y0 = 1.0 - (1.0 - 6e-6) ** 2
        assert stats.gain == pytest.approx(y0, rel=1e-3)
        assert stats.qber == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("phys", [
        *(pytest.param(LinkPhysics(loss_db=loss, dark_count_prob=dark, mu=mu),
                       id=f"{dark}-{mu}-{loss}")
          for loss, mu, dark in product((0.0, 10.0, 20.0), (0.05, 0.5, 1.0), (0.0, 6e-6, 1e-4))),
        # Every single photon detected: y1 = 1 and e1 = e_int, dark counts
        # or not.
        pytest.param(LinkPhysics(loss_db=0.0, detector_efficiency=1.0), id="eta-1"),
        # Far out in loss without dark counts: y1 = eta = 5e-301, e1 = e_int.
        pytest.param(LinkPhysics(loss_db=3000.0, dark_count_prob=0.0), id="3000dB-no-dark"),
        # eta underflows to 0: dark counts alone give y1 = y0 and e1 = 1/2.
        pytest.param(LinkPhysics(loss_db=3300.0), id="3300dB-eta-0"),
    ])
    def test_closed_forms_match_poisson_oracle(self, phys):
        assert poisson_oracle_deviation([phys]) <= 1e-9
        stats = decoy.link_statistics(phys)
        if phys.transmittance == 0.0:
            assert (stats.y1, stats.e1) == (stats.y0, 0.5)
        if phys.transmittance == 1.0:
            assert (stats.y1, stats.e1) == (1.0, phys.intrinsic_error)
        if phys.dark_count_prob == 0.0:
            assert (stats.y1, stats.e1) == (phys.transmittance, phys.intrinsic_error)

    def test_poisson_oracle_shares_no_link_quantity(self, monkeypatch):
        # A single-photon error rate without its dark-count term must show:
        # the oracle takes no link quantity from decoy.
        link = decoy._link

        def e1_without_dark_counts(phys):
            quantities = link(phys)
            return quantities._replace(e1=phys.intrinsic_error * quantities.eta / quantities.y1)

        monkeypatch.setattr(decoy, "_link", e1_without_dark_counts)
        assert poisson_oracle_deviation([LinkPhysics(loss_db=10.0)]) > 1e-9

    @pytest.mark.parametrize("loss", [60.0, 80.0])
    def test_single_photon_yield_exact_without_dark_counts(self, loss):
        # 1 - (1 - eta) cancels at high loss; the yield must not.
        phys = LinkPhysics(loss_db=loss, dark_count_prob=0.0)
        stats = decoy.link_statistics(phys)
        assert abs(stats.y1 / phys.transmittance - 1.0) <= 1e-15
        assert stats.e1 == phys.intrinsic_error

    def test_zero_gain_rejected_before_dividing(self):
        # Without dark counts a link works as long as mu * eta does not
        # underflow: at 300 dB its single-photon yield is still eta exactly,
        # at 3200 dB and mu = 1e-4 its gain is zero, and at 3300 dB, where eta
        # itself is 0, at any mu.
        phys = LinkPhysics(loss_db=300.0, dark_count_prob=0.0)
        assert decoy.link_statistics(phys).y1 == phys.transmittance
        with pytest.raises(ValueError, match="zero gain"):
            decoy.link_statistics(LinkPhysics(loss_db=3200.0, dark_count_prob=0.0, mu=1e-4))
        with pytest.raises(ValueError, match="^link with loss 3300.0 dB has zero gain$"):
            decoy.link_statistics(LinkPhysics(loss_db=3300.0, dark_count_prob=0.0))

    def test_invalid_physics_rejected(self):
        with pytest.raises(ValueError):
            LinkPhysics(loss_db=-1.0)
        with pytest.raises(ValueError):
            LinkPhysics(loss_db=0.0, detector_efficiency=0.0)
        with pytest.raises(ValueError):
            LinkPhysics(loss_db=0.0, mu=0.0)
        for kwargs in ({"loss_db": math.nan}, {"mu": math.nan}, {"mu": math.inf}):
            with pytest.raises(ValueError):
                LinkPhysics(**({"loss_db": 0.0} | kwargs))


class TestDecoyFractions:
    def test_no_dark_counts_no_vacuum_fraction(self):
        links = [LinkPhysics(loss_db=5.0, mu=0.3, **NOISELESS)] * 2
        fractions = decoy.decoy_fractions(links)
        assert fractions.f_v == 0.0

    def test_single_link_closed_form(self):
        phys = LinkPhysics(loss_db=3.0, mu=0.2, **NOISELESS)
        fractions = decoy.decoy_fractions([phys])
        stats = decoy.link_statistics(phys)
        mu = phys.mu
        expected = mu * math.exp(-mu) * stats.y1 / stats.gain
        assert fractions.f_s_s == pytest.approx(expected, abs=1e-12)
        assert fractions.f_s_vs == pytest.approx(expected, abs=1e-12)

    def test_identity_exact(self):
        chains = [[LinkPhysics(loss_db=loss, mu=0.4, **FIG3B)] * 3 for loss in (0.0, 10.0, 25.0)]
        assert fraction_identity_residual(chains) == 0.0

    def test_identity_exact_over_random_chains(self):
        rng = np.random.default_rng(0)
        chains = [
            [LinkPhysics(loss_db=rng.uniform(0.0, 60.0), dark_count_prob=dark,
                         mu=rng.uniform(1e-3, 2.0))] * int(rng.integers(1, 4))
            for dark in rng.choice([0.0, 6e-6, 1e-4], size=2000)
        ]
        assert fraction_identity_residual(chains) == 0.0

    def test_empty_vacuum_or_single_class(self):
        # At mu = 800 no later link detects a vacuum or single-photon
        # emission: the class has zero weight and no error rate to divide out.
        fractions = decoy.decoy_fractions([LinkPhysics(loss_db=0.0, mu=800.0)] * 2)
        assert fractions.f_s_vs == 0.0
        assert fractions.e_s_vs == 0.5

    def test_single_not_larger_than_vacuum_or_single(self):
        for mu in (0.05, 0.3, 1.0):
            links = [LinkPhysics(loss_db=8.0, mu=mu, **FIG3B)] * 2
            fractions = decoy.decoy_fractions(links)
            assert fractions.f_s_s <= fractions.f_s_vs

    def test_requires_links(self):
        with pytest.raises(ValueError):
            decoy.decoy_fractions([])

    @pytest.mark.parametrize("num_links", [1, 2, 3])
    def test_tagging_matches_photon_number_sums(self, num_links):
        rng = np.random.default_rng(num_links)
        chains = [
            [LinkPhysics(loss_db=float(rng.uniform(0.0, 30.0)),
                         detector_efficiency=float(rng.uniform(0.1, 1.0)),
                         dark_count_prob=float(rng.choice([0.0, 6e-6, 1e-4])),
                         intrinsic_error=float(rng.uniform(0.0, 0.1)),
                         mu=float(rng.uniform(0.01, 2.0))) for _ in range(num_links)]
            for _ in range(5)
        ]
        assert tagging_oracle_deviation(chains) <= 1e-9

    def test_tagging_oracle_sees_a_later_vacuum_tagged(self, monkeypatch):
        fractions = decoy._fractions

        def later_vacuum_tagged(stats):
            return fractions([stats[0], *(replace(s, c0=0.0) for s in stats[1:])])

        monkeypatch.setattr(decoy, "_fractions", later_vacuum_tagged)
        chain = [LinkPhysics(loss_db=loss, dark_count_prob=1e-4, mu=0.3) for loss in (3.0, 12.0)]
        assert tagging_oracle_deviation([chain]) > 1e-9

    @pytest.mark.parametrize("num_links", [0, 4])
    def test_tagging_oracle_takes_one_to_three_links(self, num_links):
        with pytest.raises(ValueError, match="1 to 3 links"):
            tagging_oracle_deviation([[LinkPhysics(loss_db=0.0)] * num_links])


class TestDecoyRate:
    def test_single_photon_dominance_limit(self):
        # Lossless, noise-free, tiny mu: nearly every detection is a single
        # photon, so the per-sifted-signal rate approaches 1.
        links = [LinkPhysics(loss_db=0.0, detector_efficiency=1.0, mu=1e-4,
                             dark_count_prob=0.0, intrinsic_error=0.0)] * 2
        report = per_sifted_signal(decoy.decoy_rate(links, f_ec=1.0), links)
        assert report.rate == pytest.approx(1.0, abs=1e-3)

    def test_fully_tagged_gives_zero(self):
        # Large mu: multi-photon emissions dominate and tagging kills the key.
        links = [LinkPhysics(loss_db=0.0, mu=20.0, **FIG3B)] * 2
        report = per_sifted_signal(decoy.decoy_rate(links), links)
        assert report.rate == 0.0
        assert report.tagged_term > 0.9

    def test_conservative_mode_tags_more(self):
        # Conservative mode treats the single/vacuum sliver as fully tagged;
        # the two modes differ by at most that sliver's weight on both the
        # tagged and privacy sides.
        links = [LinkPhysics(loss_db=5.0, mu=0.3, **FIG3B)] * 2
        fractions = decoy.decoy_fractions(links)
        sliver = fractions.f_s_vs - fractions.f_s_s
        exact = per_sifted_signal(decoy.decoy_rate(links), links)
        conservative = per_sifted_signal(decoy.decoy_rate(links, conservative=True), links)
        assert conservative.tagged_term >= exact.tagged_term
        assert abs(conservative.unclamped - exact.unclamped) <= 2 * sliver + 1e-12

    def test_never_exceeds_qubit_rate_on_same_error_table(self):
        # Tagging only removes key relative to the ideal qubit analysis.
        for loss in (0.0, 5.0, 15.0):
            links = [LinkPhysics(loss_db=loss, mu=0.3, **FIG3B)] * 2
            stats = [decoy.link_statistics(p) for p in links]
            e_total = keyrate.compound_error([s.qber for s in stats])
            table = [e_total] * 4
            qubit_report = keyrate.str_rate_qubit(table, f_ec=1.2)
            decoy_report = per_sifted_signal(decoy.decoy_rate(links), links)
            assert decoy_report.rate <= qubit_report.rate + 1e-12

    def test_per_clock_rates_in_unit_interval(self):
        for loss in (0.0, 10.0, 30.0):
            links = [LinkPhysics(loss_db=loss, mu=0.2, **FIG3B)] * 2
            assert 0.0 <= decoy.decoy_rate(links).rate <= 1.0

    def test_monotone_in_loss_dark_and_error(self):
        base = [LinkPhysics(loss_db=5.0, mu=0.3, **FIG3B)] * 2
        r0 = decoy.decoy_rate(base).rate
        worse_loss = [replace(p, loss_db=8.0) for p in base]
        worse_dark = [replace(p, dark_count_prob=1e-4) for p in base]
        worse_err = [replace(p, intrinsic_error=0.04) for p in base]
        assert decoy.decoy_rate(worse_loss).rate <= r0
        assert decoy.decoy_rate(worse_dark).rate <= r0
        assert decoy.decoy_rate(worse_err).rate <= r0

    @given(
        loss1=st.floats(0.0, 80.0),
        loss2=st.floats(0.0, 80.0),
        mu=st.floats(0.01, 1.0),
        num_links=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_loss(self, loss1, loss2, mu, num_links):
        lo, hi = (
            decoy.decoy_rate([LinkPhysics(loss_db=loss, mu=mu, **FIG3B)] * num_links)
            for loss in sorted((loss1, loss2))
        )
        # Round-off allowance relative to the per-clock scale of the terms.
        assert hi.rate <= lo.rate + 1e-12 * lo.entropy_term

    def test_chain_length_bounded(self):
        links = [LinkPhysics(loss_db=5.0, mu=0.3, **FIG3B)]
        decoy.decoy_rate(links * (keyrate.MAX_NODES + 1))
        with pytest.raises(ValueError, match="at most"):
            decoy.decoy_rate(links * (keyrate.MAX_NODES + 2))
        with pytest.raises(ValueError, match="at most"):
            decoy.optimize_intensity(links * (keyrate.MAX_NODES + 2))

    @pytest.mark.parametrize(
        "kwargs", [dict(p_z=0.0), dict(p_z=5.0), dict(f_ec=0.9), dict(f_ec=math.inf)]
    )
    def test_rejects_invalid_protocol_parameters(self, kwargs):
        links = [LinkPhysics(loss_db=5.0, mu=0.3, **FIG3B)] * 2
        with pytest.raises(ValueError):
            decoy.decoy_rate(links, **kwargs)
        with pytest.raises(ValueError):
            decoy.conventional_decoy_rate(links, **kwargs)
        with pytest.raises(ValueError):
            decoy.optimize_intensity(links, **kwargs)


class TestConventionalDecoyRate:
    def test_noise_free_positive_at_high_loss(self):
        link = LinkPhysics(loss_db=40.0, mu=0.1, **NOISELESS)
        assert decoy.conventional_decoy_rate([link], f_ec=1.0).rate > 0.0

    def test_useless_single_photons_give_nothing(self):
        # e1 = 1/2 zeroes the single-photon credit.
        link = LinkPhysics(loss_db=0.0, mu=0.3, intrinsic_error=0.5,
                           dark_count_prob=0.0)
        report = decoy.conventional_decoy_rate([link], f_ec=1.0)
        assert report.rate == 0.0

    def test_beats_str_at_zero_loss(self):
        links = [LinkPhysics(loss_db=0.0, **FIG3B)] * 2
        _, conv = decoy.optimize_intensity(links, mode="conventional")
        _, str1 = decoy.optimize_intensity(links, mode="str")
        assert conv.rate > str1.rate

    def test_chain_min_rule(self):
        links = [
            LinkPhysics(loss_db=2.0, mu=0.3, **FIG3B),
            LinkPhysics(loss_db=12.0, mu=0.3, **FIG3B),
        ]
        combined = decoy.conventional_decoy_rate(links)
        worst = decoy.conventional_decoy_rate([links[1]])
        assert combined.rate == pytest.approx(worst.rate)


class TestOptimizeIntensity:
    def test_matches_fine_grid_oracle(self):
        links = [LinkPhysics(loss_db=0.0, **NOISELESS)] * 2
        mu_star, report = decoy.optimize_intensity(links, f_ec=1.0, mode="str")
        # Oracle: brute-force grid at 10x the coarse resolution.
        best_rate = -1.0
        for i in range(2000):
            mu = 1e-4 * (2.0 / 1e-4) ** (i / 1999)
            rate = decoy.decoy_rate(
                [replace(p, mu=mu) for p in links], f_ec=1.0
            ).unclamped
            best_rate = max(best_rate, rate)
        assert report.unclamped == pytest.approx(best_rate, rel=1e-4)

    def test_argmax_property(self):
        links = [LinkPhysics(loss_db=6.0, **FIG3B)] * 2
        mu_star, report = decoy.optimize_intensity(links, mode="str")
        for mu in (mu_star / 2, 2 * mu_star):
            other = decoy.decoy_rate([replace(p, mu=mu) for p in links])
            assert other.rate <= report.rate + 1e-9

    def test_mu_non_increasing_with_loss(self):
        previous = None
        for loss in (0.0, 5.0, 10.0, 15.0):
            links = [LinkPhysics(loss_db=loss, **FIG3B)] * 2
            mu_star, report = decoy.optimize_intensity(links, mode="str")
            if report.rate > 0 and previous is not None:
                assert mu_star <= previous + 2e-4
            previous = mu_star

    def test_no_positive_rate_returns_lower_bound(self):
        links = [LinkPhysics(loss_db=60.0, **FIG3B)] * 3
        mu_star, report = decoy.optimize_intensity(links, mode="str")
        assert mu_star == pytest.approx(1e-4)
        assert report.rate == 0.0

    def test_invalid_bounds(self):
        # A one-point bracket is valid, but not at zero or nan.
        for mu_bounds in [(1.0, 0.5), (0.0, 0.0), (math.nan, math.nan), (2.0, 1.0)]:
            with pytest.raises(ValueError):
                decoy.optimize_intensity(
                    [LinkPhysics(loss_db=0.0)], mu_bounds=mu_bounds
                )

    @pytest.mark.parametrize("mu_bounds", [(1e-4, math.inf), (1e-300, 1e10)])
    def test_bounds_with_infinite_grid_rejected(self, mu_bounds):
        # Both grids would hold inf: hi is infinite, or hi / lo overflows.
        with pytest.raises(ValueError, match="invalid mu bounds"):
            decoy.optimize_intensity([LinkPhysics(loss_db=0.0)], mu_bounds=mu_bounds)

    @given(
        loss=st.floats(0.0, 80.0),
        delta=st.floats(0.0, 3.0),
        num_links=st.integers(1, 3),
        mode=st.sampled_from(["str", "conventional"]),
        conservative=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimized_rate_non_increasing_in_loss(
        self, loss, delta, num_links, mode, conservative
    ):
        lo, hi = (
            decoy.optimize_intensity(
                [LinkPhysics(loss_db=x, **FIG3B)] * num_links,
                mode=mode,
                conservative=conservative,
            )[1]
            for x in (loss, loss + delta)
        )
        # The slack of the fixed-mu property in TestDecoyRate.
        assert hi.rate <= lo.rate + 1e-12 * lo.entropy_term

    @pytest.mark.parametrize(
        "nodes,loss,mu_star,rate",
        [
            # Computed by the scalar optimiser before the grid scan took arrays.
            (0, 0.0, 0.7344365536167626, 0.05185378133355405),
            (0, 10.0, 0.6564253577838228, 0.004784656368910394),
            (0, 25.0, 0.635671556812821, 0.00013004088832661785),
            (1, 0.0, 0.41382520301193515, 0.0012625320609954416),
            (1, 10.0, 0.332886721441082, 8.869241079369764e-06),
            (1, 25.0, 0.2361845666484041, 1.0551900588574653e-09),
            (2, 0.0, 0.2106479065827639, 9.051280704565574e-06),
            (2, 10.0, 0.1597635008140615, 4.030479388219778e-09),
            (2, 25.0, 0.0001, 0.0),
        ],
    )
    def test_pinned_optimum(self, nodes, loss, mu_star, rate):
        found, report = decoy.optimize_intensity([LinkPhysics(loss_db=loss)] * (nodes + 1))
        assert found == pytest.approx(mu_star, rel=1e-9)
        assert report.rate == pytest.approx(rate, rel=1e-9)


def _chain(kind, loss, num_links):
    if kind == "equal":
        return [LinkPhysics(loss_db=loss, **FIG3B)] * num_links
    # Unequal links: at low loss each is the worst one somewhere on the grid.
    mixed = [
        LinkPhysics(loss_db=loss, dark_count_prob=1e-4),
        LinkPhysics(loss_db=loss + 2.0, dark_count_prob=0.0),
        LinkPhysics(loss_db=loss + 1.0, intrinsic_error=0.03),
    ]
    return mixed[:num_links]


def _dark_free(loss):
    """A link without dark counts, dead at mu = 1e-4 from 3200 dB on."""
    return LinkPhysics(loss_db=loss, dark_count_prob=0.0)


def _one_link_sweep(num_chains, dead):
    """One-link chains, alive at 100 dB but for chain i in ``dead``, which
    is dead at 3200 + i dB."""
    return [[_dark_free(3200.0 + i if i in dead else 100.0)] for i in range(num_chains)]


class TestArrayIntensities:
    @pytest.mark.parametrize("kind", ["equal", "mixed"])
    @pytest.mark.parametrize("loss", [0.0, 17.0, 60.0])
    @pytest.mark.parametrize("num_links", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,conservative", [("str", False), ("str", True), ("conventional", False)]
    )
    def test_matches_scalar_rate_at_every_grid_point(
        self, kind, loss, num_links, mode, conservative
    ):
        links = _chain(kind, loss, num_links)

        def rate(mu):
            at_mu = [replace(p, mu=mu) for p in links]
            if mode == "conventional":
                return decoy.conventional_decoy_rate(at_mu)
            return decoy.decoy_rate(at_mu, conservative=conservative)

        # The optimiser's array path: one array of statistics per distinct link.
        grid = np.geomspace(1e-4, 2.0, decoy.GRID_POINTS)
        stats = {
            p: decoy._statistics(decoy._link(p), grid, exact=False)
            for p in dict.fromkeys(links)
        }
        batch = decoy._rate([stats[p] for p in links], mode, 1.2, 0.5, conservative)
        terms = ("entropy_term", "leak_term", "holevo_term", "tagged_term", "unclamped")
        for i, mu in enumerate(grid.tolist()):
            scalar = rate(mu)
            # np.exp and np.log2 may differ from math's by an ulp, which the
            # cancellations at small mu magnify; so the bound is relative to
            # the largest term of the scalar report.
            bound = 1e-9 * max(abs(getattr(scalar, t)) for t in terms)
            for t in terms:
                assert getattr(batch, t)[i] == pytest.approx(
                    getattr(scalar, t), abs=bound
                ), (t, mu)

    def test_zero_gain_rejected_for_any_point(self):
        # At 3200 dB without dark counts mu * eta underflows at mu = 1e-4 only.
        link = decoy._link(LinkPhysics(loss_db=3200.0, dark_count_prob=0.0))
        assert (decoy._statistics(link, np.array([0.5, 1.0]), exact=False).gain > 0.0).all()
        with pytest.raises(ValueError, match="^link with loss 3200.0 dB has zero gain$"):
            decoy._statistics(link, np.array([0.5, 1e-4]), exact=False)

    def test_zero_gain_names_the_first_dead_entry(self):
        # Without dark counts, at mu = 1e-4 the links die from 3200 dB on.
        # The error names the first dead entry of the broadcast gain in C
        # order, not the whole loss array.
        links = [_dark_free(loss) for loss in (100.0, 3210.0, 3220.0)]
        row = decoy._Link(*map(np.array, zip(*map(decoy._link, links))))
        with pytest.raises(ValueError, match="^link with loss 3210.0 dB has zero gain$"):
            decoy._statistics(row, 1e-4)
        # A (2, 1) column against two intensities: 3200 dB dies at mu = 1e-4
        # only, 3300 dB at both, so row-major order meets 3200 dB first.
        links = [_dark_free(loss) for loss in (3200.0, 3300.0)]
        column = decoy._Link(*(np.array(f)[:, None] for f in zip(*map(decoy._link, links))))
        with pytest.raises(ValueError, match="^link with loss 3200.0 dB has zero gain$"):
            decoy._statistics(column, np.array([0.5, 1e-4]), exact=False)


def _golden_section_reference(fn, a, b):
    """The scalar golden-section search each bracket of the batched
    refinement must follow step for step; returns (mu, evaluations)."""
    c = b - decoy.GOLDEN_INV * (b - a)
    d = a + decoy.GOLDEN_INV * (b - a)
    fc, fd = fn(c), fn(d)
    calls = 2
    while b - a > decoy.MU_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - decoy.GOLDEN_INV * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + decoy.GOLDEN_INV * (b - a)
            fd = fn(d)
        calls += 1
    return 0.5 * (a + b), calls


class TestOptimizeIntensities:
    LOSSES = [0.0, 7.5, 15.0, 25.0, 40.0, 60.0]

    def test_refinement_matches_scalar_search(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(1e-4, 1.0, size=300)
        b = a + 10.0 ** rng.uniform(-5.0, 0.0, size=300)
        peaks = rng.uniform(a - 0.1, b + 0.1)

        def objective(which, mu):
            return -(mu - peaks[which]) * (mu - peaks[which])

        found = decoy._refine(objective, np.arange(300), a.copy(), b.copy())
        calls = set()
        for i in range(300):
            mu, n = _golden_section_reference(
                lambda x: -(x - peaks[i]) * (x - peaks[i]), float(a[i]), float(b[i])
            )
            assert found[i] == mu
            calls.add(n)
        assert len(calls) > 10  # brackets from no step to about 30 steps

    @pytest.mark.parametrize("kind", ["equal", "mixed"])
    @pytest.mark.parametrize("num_links", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,conservative", [("str", False), ("str", True), ("conventional", False)]
    )
    @pytest.mark.parametrize("mu_bounds", [(1e-4, 2.0), (1e-4, 0.05), (0.9, 5.0)])
    def test_each_chain_gets_its_one_chain_result(
        self, kind, num_links, mode, conservative, mu_bounds
    ):
        chains = [_chain(kind, loss, num_links) for loss in self.LOSSES]
        kwargs = dict(mode=mode, conservative=conservative, mu_bounds=mu_bounds)
        batch = decoy.optimize_intensities(chains, **kwargs)
        assert batch == [decoy.optimize_intensity(chain, **kwargs) for chain in chains]

    @pytest.mark.parametrize("kind", ["equal", "mixed"])
    @pytest.mark.parametrize("num_links", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,conservative", [("str", False), ("str", True), ("conventional", False)]
    )
    def test_reports_equal_float_rates_at_the_optimum(
        self, kind, num_links, mode, conservative
    ):
        # The reports are one array evaluation; the float rate at each
        # chain's optimum is the reference, on every term.
        chains = [_chain(kind, loss, num_links) for loss in self.LOSSES]
        results = decoy.optimize_intensities(chains, mode=mode, conservative=conservative)
        for chain, (mu, report) in zip(chains, results):
            at_mu = [replace(p, mu=mu) for p in chain]
            if mode == "conventional":
                assert report == decoy.conventional_decoy_rate(at_mu)
            else:
                assert report == decoy.decoy_rate(at_mu, conservative=conservative)

    @pytest.mark.parametrize("kind", ["equal", "mixed"])
    @pytest.mark.parametrize("num_links", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,conservative", [("str", False), ("str", True), ("conventional", False)]
    )
    @pytest.mark.parametrize("mu", [1e-4, 0.3, 5.0])
    def test_one_point_bracket_is_the_float_rate(
        self, kind, num_links, mode, conservative, mu
    ):
        # A fixed-intensity sweep: every chain at mu, each report the float
        # rate there on every term.
        chains = [_chain(kind, loss, num_links) for loss in self.LOSSES]
        results = decoy.optimize_intensities(
            chains, mu_bounds=(mu, mu), mode=mode, conservative=conservative
        )
        expected = []
        for chain in chains:
            at_mu = [replace(p, mu=mu) for p in chain]
            if mode == "conventional":
                expected.append((mu, decoy.conventional_decoy_rate(at_mu)))
            else:
                expected.append((mu, decoy.decoy_rate(at_mu, conservative=conservative)))
        assert results == expected

    def test_one_point_bracket_runs_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a one-point bracket must not search")

        monkeypatch.setattr(decoy, "_mu_grid", no_search)
        monkeypatch.setattr(decoy, "_refine", no_search)
        chains = [_chain("mixed", loss, 3) for loss in self.LOSSES]
        results = decoy.optimize_intensities(chains, mu_bounds=(0.3, 0.3))
        assert [mu for mu, _ in results] == [0.3] * len(chains)

    def test_sweep_covers_grid_ends_and_dead_points(self):
        # The equivalence cases above include a point without positive rate
        # (it gets the lower bound) and optima bracketed at either grid end.
        def mus(mu_bounds):
            chains = [_chain("equal", loss, 3) for loss in self.LOSSES]
            return [mu for mu, _ in decoy.optimize_intensities(chains, mu_bounds=mu_bounds)]

        assert mus((1e-4, 2.0))[-1] == 1e-4
        top = decoy._mu_grid(1e-4, 0.05)
        assert top[-2] <= mus((1e-4, 0.05))[0] <= top[-1]
        bottom = decoy._mu_grid(0.9, 5.0)
        assert bottom[0] <= mus((0.9, 5.0))[0] <= bottom[1]

    def test_empty_sweep(self):
        assert decoy.optimize_intensities([]) == []

    def test_unequal_chain_lengths_rejected(self):
        link = LinkPhysics(loss_db=5.0, **FIG3B)
        with pytest.raises(ValueError, match="equal lengths"):
            decoy.optimize_intensities([[link], [link, link]])

    @pytest.mark.parametrize(
        "chains,named",
        [
            # Chain 1 dies at its second link, chain 2 at its first.
            ([[_dark_free(100.0)] * 2,
              [_dark_free(100.0), _dark_free(3210.0)],
              [_dark_free(3220.0), _dark_free(100.0)]], 3210.0),
            # Positions 1 and 2 hold one link in every chain, so the sweep
            # computes them once; chain 0 still dies there before chain 1's
            # first link.
            ([[_dark_free(100.0)] + [_dark_free(3202.0)] * 2,
              [_dark_free(3201.0)] + [_dark_free(3202.0)] * 2], 3202.0),
            # Both dead chains in the second block of SWEEP_BLOCK chains, and
            # one on either side of its first chain.
            (_one_link_sweep(130, (decoy.SWEEP_BLOCK, decoy.SWEEP_BLOCK + 1)), 3328.0),
            (_one_link_sweep(130, (decoy.SWEEP_BLOCK - 1, decoy.SWEEP_BLOCK)), 3327.0),
        ],
        ids=["chain-order", "shared-position", "second-block", "across-blocks"],
    )
    def test_first_dead_link_in_sweep_order(self, chains, named):
        # The sweep fails on its first dead link, as optimizing the chains
        # one by one would.
        with pytest.raises(ValueError, match=f"^link with loss {named} dB has zero gain$"):
            decoy.optimize_intensities(chains)
