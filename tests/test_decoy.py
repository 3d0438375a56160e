"""Tests for the weak-coherent physical layer, tagged fractions, decoy key
rates, and intensity optimization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strqkd import decoy, keyrate
from strqkd.acceptance_checks import fraction_identity_residual, poisson_oracle_deviation
from strqkd.decoy import LinkPhysics

FIG3B = dict(detector_efficiency=0.5, dark_count_prob=6e-6, intrinsic_error=0.0185)
NOISELESS = dict(detector_efficiency=0.5, dark_count_prob=0.0, intrinsic_error=0.0)


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

    @pytest.mark.parametrize("loss", [0.0, 10.0, 20.0])
    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("dark", [0.0, 6e-6, 1e-4])
    def test_closed_forms_match_poisson_oracle(self, loss, mu, dark):
        phys = LinkPhysics(loss_db=loss, dark_count_prob=dark, mu=mu)
        assert poisson_oracle_deviation([phys]) <= 1e-9

    def test_zero_gain_rejected_before_dividing(self):
        # Without dark counts the gain rounds to zero at 300 dB.
        with pytest.raises(ValueError, match="zero gain"):
            decoy.link_statistics(LinkPhysics(loss_db=300.0, dark_count_prob=0.0))

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


class TestDecoyRate:
    def test_single_photon_dominance_limit(self):
        # Lossless, noise-free, tiny mu: nearly every detection is a single
        # photon, so the per-sifted-signal rate approaches 1.
        links = [LinkPhysics(loss_db=0.0, detector_efficiency=1.0, mu=1e-4,
                             dark_count_prob=0.0, intrinsic_error=0.0)] * 2
        report = decoy.decoy_rate(links, f_ec=1.0, per_clock=False)
        assert report.rate == pytest.approx(1.0, abs=1e-3)

    def test_fully_tagged_gives_zero(self):
        # Large mu: multi-photon emissions dominate and tagging kills the key.
        links = [LinkPhysics(loss_db=0.0, mu=20.0, **FIG3B)] * 2
        report = decoy.decoy_rate(links, per_clock=False)
        assert report.rate == 0.0
        assert report.tagged_term > 0.9

    def test_conservative_mode_tags_more(self):
        # Conservative mode treats the single/vacuum sliver as fully tagged;
        # the two modes differ by at most that sliver's weight on both the
        # tagged and privacy sides.
        links = [LinkPhysics(loss_db=5.0, mu=0.3, **FIG3B)] * 2
        fractions = decoy.decoy_fractions(links)
        sliver = fractions.f_s_vs - fractions.f_s_s
        exact = decoy.decoy_rate(links, per_clock=False)
        conservative = decoy.decoy_rate(links, per_clock=False, conservative=True)
        assert conservative.tagged_term >= exact.tagged_term
        assert abs(conservative.unclamped - exact.unclamped) <= 2 * sliver + 1e-12

    def test_never_exceeds_qubit_rate_on_same_error_table(self):
        # Tagging only removes key relative to the ideal qubit analysis.
        for loss in (0.0, 5.0, 15.0):
            links = [LinkPhysics(loss_db=loss, mu=0.3, **FIG3B)] * 2
            stats = [decoy.link_statistics(p) for p in links]
            e_total = keyrate.compound_error([s.qber for s in stats])
            table = [e_total] * 4
            qubit_report = keyrate.str_rate_qubit(
                keyrate.RateInputs(error_rates=table, f_ec=1.2), num_nodes=1
            )
            decoy_report = decoy.decoy_rate(links, per_clock=False)
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

    @pytest.mark.parametrize("kwargs", [dict(p_z=0.0), dict(p_z=5.0), dict(f_ec=0.9)])
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
        with pytest.raises(ValueError):
            decoy.optimize_intensity(
                [LinkPhysics(loss_db=0.0)], mu_bounds=(1.0, 0.5)
            )

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


class TestArrayIntensities:
    @pytest.mark.parametrize("kind", ["equal", "mixed"])
    @pytest.mark.parametrize("loss", [0.0, 17.0, 60.0])
    @pytest.mark.parametrize("num_links", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode,conservative", [("str", False), ("str", True), ("conventional", False)]
    )
    def test_matches_scalar_rate_at_every_grid_point(
        self, kind, loss, num_links, mode, conservative, request
    ):
        links = _chain(kind, loss, num_links)
        if loss == 60.0 and any(p.dark_count_prob == 0.0 for p in links):
            # Without dark counts the gain is 1 - exp(-mu eta), which cancels
            # for mu eta near 1e-11: an ulp of exp moves it by parts in 1e6,
            # in the scalar formula as much as in the array one.
            request.applymarker(pytest.mark.xfail(reason="gain cancels without dark counts"))

        def rate(mu):
            if mode == "conventional":
                return decoy.conventional_decoy_rate(links, mu=mu)
            return decoy.decoy_rate(links, conservative=conservative, mu=mu)

        grid = np.geomspace(1e-4, 2.0, decoy.GRID_POINTS)
        batch = rate(grid)
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
        phys = LinkPhysics(loss_db=300.0, dark_count_prob=0.0)
        with pytest.raises(ValueError, match="zero gain"):
            decoy.link_statistics(phys, mu=np.array([0.5, 1.0]))

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf, np.array([0.5, 0.0])])
    def test_rejects_invalid_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            decoy.link_statistics(LinkPhysics(loss_db=0.0), mu=mu)
