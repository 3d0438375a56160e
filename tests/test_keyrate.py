"""Tests for the asymptotic key-rate formulas."""

import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strqkd
from strqkd import decoy, keyrate, relay
from strqkd.acceptance_checks import (
    FIG2_TARGETS,
    FIG2_TOLERANCE,
    fig2_crossing_deviation,
    fig2_zero_crossings,
)
from strqkd.keyrate import KeyRateReport


def uniform_table(e, links):
    return [e] * (1 << links)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert keyrate.binary_entropy(0.0) == 0.0
        assert keyrate.binary_entropy(1.0) == 0.0

    def test_half(self):
        assert keyrate.binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        # Independent scalar evaluation of h(0.11).
        e = 0.11
        expected = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        assert keyrate.binary_entropy(0.11) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.49992, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            keyrate.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            keyrate.binary_entropy(1.1)

    @given(e=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, e):
        h = keyrate.binary_entropy(e)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(keyrate.binary_entropy(1.0 - e), abs=1e-12)


class TestKeyRateReport:
    def test_clamping_preserves_decomposition(self):
        report = KeyRateReport(entropy_term=1.0, leak_term=0.8, holevo_term=0.5)
        assert report.rate == 0.0
        assert report.unclamped == pytest.approx(-0.3)

    def test_scaling(self):
        report = KeyRateReport(1.0, 0.2, 0.3, 0.1).scaled(0.5)
        assert report.entropy_term == 0.5
        assert report.unclamped == pytest.approx(0.2)

    def test_immutable_with_its_repr_default_and_field_order(self):
        report = KeyRateReport(entropy_term=1.0, leak_term=0.8, holevo_term=0.5)
        assert repr(report) == (
            "KeyRateReport(entropy_term=1.0, leak_term=0.8, holevo_term=0.5, tagged_term=0.0)"
        )
        with pytest.raises(AttributeError):
            report.leak_term = 0.1
        assert report.tagged_term == 0.0
        assert report.scaled(2.0) == KeyRateReport(2.0, 1.6, 1.0, 0.0)
        assert list(report._asdict().items()) == [
            ("entropy_term", 1.0), ("leak_term", 0.8), ("holevo_term", 0.5), ("tagged_term", 0.0)
        ]


class TestStrRateQubit:
    def test_error_free(self):
        report = keyrate.str_rate_qubit(uniform_table(0.0, 2))
        assert report.rate == pytest.approx(1.0)

    def test_uniform_rates_reduce_to_two_entropy_terms(self):
        e = 0.05
        report = keyrate.str_rate_qubit(uniform_table(e, 2))
        assert report.unclamped == pytest.approx(
            1.0 - 2.0 * keyrate.binary_entropy(e), abs=1e-12
        )

    def test_zero_crossing_near_011(self):
        # Root-find on 1 - 2 h(e).
        lo, hi = 0.05, 0.2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            value = keyrate.str_rate_qubit(uniform_table(mid, 2)).unclamped
            if value > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(
            FIG2_TARGETS["conventional"], abs=FIG2_TOLERANCE
        )

    def test_compound_link_error_near_crossing(self):
        e_total = keyrate.compound_error([FIG2_TARGETS["str1"]] * 2)
        assert e_total == pytest.approx(FIG2_TARGETS["conventional"], abs=FIG2_TOLERANCE)
        report = keyrate.str_rate_qubit(uniform_table(e_total, 2))
        assert abs(report.unclamped) < 0.01

    def test_m_node_equal_rates_identity(self):
        e = 0.04
        f_ec = 1.15
        for m in (0, 1, 2, 3):
            report = keyrate.str_rate_qubit(uniform_table(e, m + 1), f_ec=f_ec)
            assert report.unclamped == pytest.approx(
                1.0 - (1.0 + f_ec) * keyrate.binary_entropy(e), abs=1e-12
            )

    @pytest.mark.parametrize("nodes", [0, 1, 2, 3, 4, 16])
    @pytest.mark.parametrize("p_z,f_ec", [(0.5, 1.0), (0.3, 1.2)])
    def test_uniform_rate_equals_table_loop(self, nodes, p_z, f_ec):
        # uniform_str_rate sums its terms as arrays; the loop over the table
        # is the reference, to the last bit.
        e_link = 0.0037
        table = uniform_table(keyrate.compound_error([e_link] * (nodes + 1)), nodes + 1)
        expected = keyrate.str_rate_qubit(table, p_z=p_z, f_ec=f_ec)
        assert keyrate.uniform_str_rate(e_link, nodes, p_z, f_ec) == expected

    def test_complement_symmetry_with_uniform_bases(self):
        # With uniform bases the Holevo term is invariant under complementing
        # every basis choice in the table, i.e. reading it backwards.
        rng_rates = [0.01, 0.07, 0.03, 0.09]
        flipped = rng_rates[::-1]
        r1 = keyrate.str_rate_qubit(rng_rates)
        r2 = keyrate.str_rate_qubit(flipped)
        assert r1.holevo_term == pytest.approx(r2.holevo_term, abs=1e-12)
        assert r1.leak_term == pytest.approx(r2.leak_term, abs=1e-12)

    def test_monotone_in_each_error_rate(self):
        base = uniform_table(0.03, 2)
        r0 = keyrate.str_rate_qubit(base)
        for code in range(len(base)):
            bumped = list(base)
            bumped[code] = 0.05
            r1 = keyrate.str_rate_qubit(bumped)
            assert r1.unclamped < r0.unclamped

    @pytest.mark.parametrize("code", range(4))
    def test_holevo_term_charged_at_complement(self, code):
        # One nonzero error rate at ``code``: the leak is weighted by p_code,
        # the Holevo term by p of the complement.  p_z != 1/2 makes the link
        # weights unequal, so a wrong pairing moves the Holevo term.
        p_z, f_ec, e = 0.3, 1.2, 0.07
        w_z = p_z**2 / (p_z**2 + (1 - p_z) ** 2)

        def weight(c):
            first, second = c >> 1, c & 1  # first link is the high bit
            return (w_z, 1 - w_z)[first] * (w_z, 1 - w_z)[second]

        rates = [0.0] * 4
        rates[code] = e
        report = keyrate.str_rate_qubit(rates, p_z=p_z, f_ec=f_ec)
        h = keyrate.binary_entropy(e)
        assert report.leak_term == pytest.approx(f_ec * weight(code) * h, rel=1e-12)
        assert report.holevo_term == pytest.approx(weight(3 - code) * h, rel=1e-12)

    @pytest.mark.parametrize("nodes,p_z", [(9, 0.5), (9, 0.3), (16, 0.3)])
    def test_entropy_term_is_the_rounded_weight_sum(self, nodes, p_z):
        # The exact sum of the weights, each the product of its links' shares
        # taken left to right, rounded once: 1 at p_z = 1/2.  A sum in code
        # order drifts by 7.8e-16 at 10 links and 3.8e-13 at 17 (p_z = 0.3).
        w_z = keyrate.basis_law(p_z)[1]
        weights = map(math.prod, itertools.product((w_z, 1 - w_z), repeat=nodes + 1))
        exact = float(sum(map(Fraction, weights)))
        assert keyrate.uniform_str_rate(0.01, nodes, p_z).entropy_term == exact

    def test_longest_chain_rate_is_correctly_rounded(self):
        # fig2_long.csv's STR-16 point at e_link = 0.005: with uniform bases
        # the rate is 1 - 2 h(E), here against h(E) to 50 digits.  A sum in
        # code order read 0.206054833384, 1.3e-12 low.
        rate = keyrate.uniform_str_rate(0.005, 16).rate
        e = Decimal(keyrate.compound_error([0.005] * 17))
        with localcontext() as ctx:
            ctx.prec = 50
            exact = 1 - 2 * (-(e * e.ln() + (1 - e) * (1 - e).ln()) / Decimal(2).ln())
        assert f"{exact:.12g}" == f"{rate:.12g}" == "0.206054833385"
        assert rate == pytest.approx(float(exact), abs=1e-15)

    @pytest.mark.parametrize("size", [0, 1, 3, 6, 2**18])
    def test_table_length_not_a_chain_rejected(self, size):
        # A table holds 2^links entries for 1 to MAX_NODES + 1 links.
        with pytest.raises(ValueError, match=f"for 1 to 17 links, got {size}$"):
            keyrate.str_rate_qubit([0.0] * size)

    @pytest.mark.parametrize("links", [1, keyrate.MAX_NODES + 1])
    def test_longest_and_shortest_chain_accepted(self, links):
        assert keyrate.str_rate_qubit(uniform_table(0.0, links)).rate == 1.0

    @pytest.mark.parametrize("p_z,f_ec,message", [
        (0.0, 1.0, "p_z must lie in (0, 1), got 0.0"),
        (0.5, 0.9, "f_ec must be >= 1 and finite, got 0.9"),
        (0.5, math.nan, "f_ec must be >= 1 and finite, got nan"),
    ])
    def test_protocol_parameters_checked(self, p_z, f_ec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            keyrate.str_rate_qubit(uniform_table(0.0, 2), p_z=p_z, f_ec=f_ec)

    @pytest.mark.parametrize("e", [-0.1, 1.5, math.nan])
    def test_error_rate_outside_unit_interval_rejected(self, e):
        rates = [0.0, 0.0, e, 0.0]
        with pytest.raises(ValueError, match=re.escape(f"basis vector 2 not in [0, 1]: {e}")):
            keyrate.str_rate_qubit(rates)


class TestUniformStrRate:
    # Both ends of the range, a negative zero and the three crossings.
    GRID = [0.0, -0.0, 0.5, *FIG2_TARGETS.values()]

    @pytest.mark.parametrize(
        "nodes,p_z,f_ec",
        [(m, p_z, f_ec) for m in (0, 1, 2, 16) for p_z in (0.5, 0.3) for f_ec in (1.0, 1.2)],
    )
    def test_array_terms_equal_float_calls(self, nodes, p_z, f_ec):
        # Equal, not close: each entry is the float call's, to the last bit.
        report = keyrate.uniform_str_rate(np.array(self.GRID), nodes, p_z, f_ec)
        expected = [keyrate.uniform_str_rate(e, nodes, p_z, f_ec) for e in self.GRID]
        for term in ("entropy_term", "leak_term", "holevo_term", "rate"):
            values = np.broadcast_to(getattr(report, term), len(self.GRID)).tolist()
            assert values == [getattr(r, term) for r in expected], term

    @pytest.mark.parametrize("bad", [0.6, math.nan, -0.1])
    def test_array_raises_float_message_of_first_rejected_entry(self, bad):
        with pytest.raises(ValueError) as float_error:
            keyrate.uniform_str_rate(bad, 1)
        with pytest.raises(ValueError) as array_error:
            keyrate.uniform_str_rate(np.array([0.01, bad, 0.7]), 1)
        assert str(array_error.value) == str(float_error.value)

    @pytest.mark.parametrize("e", GRID)
    def test_conventional_link_is_one_link_str_rate(self, e):
        assert keyrate.conventional_relay_rate([e]) == keyrate.uniform_str_rate(e, 0)

    def test_array_made_after_import_takes_array_path(self):
        # keyrate does not import numpy, so it must recognise an array of a
        # numpy imported after it, in a fresh interpreter.
        code = """if True:
            import sys
            from strqkd.keyrate import KeyRateReport, binary_entropy, uniform_str_rate
            assert "numpy" not in sys.modules
            import numpy as np
            grid = [0.0, 0.0037, 0.11, 0.5]
            e = np.array(grid)
            assert binary_entropy(e).tolist() == [binary_entropy(x) for x in grid]
            for m in (0, 1, 16):
                report = uniform_str_rate(e, m, 0.3, 1.2)
                for i, x in enumerate(grid):
                    float_report = uniform_str_rate(x, m, 0.3, 1.2)
                    assert report.leak_term[i] == float_report.leak_term
                    assert report.holevo_term[i] == float_report.holevo_term
                    assert report.rate[i] == float_report.rate
            u = [-0.25, 0.0, 0.25]
            assert KeyRateReport(np.array(u), 0.0, 0.0).rate.tolist() == [
                KeyRateReport(x, 0.0, 0.0).rate for x in u]
        """
        src = str(Path(strqkd.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr


class TestConventionalRelayRate:
    def test_error_free(self):
        assert keyrate.conventional_relay_rate([0.0, 0.0]).rate == pytest.approx(1.0)

    def test_near_zero_at_011(self):
        assert keyrate.conventional_relay_rate([0.11]).rate < 1e-3

    def test_min_rule(self):
        combined = keyrate.conventional_relay_rate([0.01, 0.05])
        worst = keyrate.conventional_relay_rate([0.05])
        assert combined.rate == pytest.approx(worst.rate)


class TestBasisLaw:
    def test_values(self):
        # Uniform bases are exact in any float form; at p_z = 0.3 a round
        # matches with 0.09 + 0.49 and the match is Z for 0.09 of it.
        assert keyrate.basis_law(0.5) == (0.5, 0.5)
        match, z_share = keyrate.basis_law(0.3)
        assert match == pytest.approx(0.58, rel=1e-15)
        assert z_share == pytest.approx(0.09 / 0.58, rel=1e-15)

    @given(p_z=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=50, deadline=None)
    def test_relay_and_decoy_take_its_values(self, p_z):
        # The Monte Carlo's survival probability and the decoy rate's
        # per-clock factor are the law's match, bit for bit.
        match = keyrate.basis_law(p_z)[0]
        cfg = relay.ChainConfig(num_nodes=0, rounds=1, flip_prob=0.0, detect_prob=0.3, p_z=p_z)
        assert cfg.p_keep == 0.3 * match
        link = decoy.LinkPhysics(loss_db=10.0)
        per_clock = decoy.decoy_rate([link], p_z=p_z).entropy_term
        assert per_clock == decoy.link_statistics(link).gain * match


class TestFig2Curves:
    def test_error_free_point(self):
        (row,) = keyrate.fig2_curves([0.0])
        assert row["rate_conventional"] == pytest.approx(1.0)
        assert row["rate_str1"] == pytest.approx(1.0)
        assert row["rate_str2"] == pytest.approx(1.0)

    def test_rows_equal_pointwise_rates(self):
        # The curves take the scalar rates' terms with arrays over the grid:
        # equal, not close, at 0, 1/2 and the three crossings.
        # numpy's log2 differs from math's in the last bit of the rate at
        # 0.02569 itself and at the (1 - 2e)-compounds of 0.0135 (4 links),
        # 0.053 (2 links) and 0.102 (1 link).
        grid = [0.0, 0.001, 0.0135, 0.02569, 0.053, 0.102, *FIG2_TARGETS.values(), 0.5]
        nodes = [0, 1, 2, 3, 4, 16]
        expected = [
            {"e_link": e, "rate_conventional": keyrate.conventional_relay_rate([e]).rate}
            | {f"rate_str{m}": keyrate.uniform_str_rate(e, m).rate for m in nodes[1:]}
            for e in grid
        ]
        assert keyrate.fig2_curves(grid, node_counts=nodes) == expected

    def test_single_link_is_not_compounded(self):
        # (1 - (1 - 2e)) / 2 rounds 0.05 to 0.04999999999999999: a lone link
        # keeps its own error, so STR-0 and the conventional curve agree.
        grid = [0.001, 0.0135, 0.05, 0.102, FIG2_TARGETS["conventional"]]
        assert [keyrate.compound_error([e]) for e in grid] == grid
        rows = keyrate.fig2_curves(grid, node_counts=[0])
        assert [row["rate_conventional"] for row in rows] == [
            keyrate.uniform_str_rate(e, 0).rate for e in grid
        ]

    def test_zero_crossings(self):
        assert fig2_crossing_deviation(fig2_zero_crossings()) <= FIG2_TOLERANCE

    def test_ordering_on_grid(self):
        grid = [0.002 * i for i in range(1, 60)]
        for row in keyrate.fig2_curves(grid):
            assert row["rate_conventional"] >= row["rate_str1"] - 1e-12
            assert row["rate_str1"] >= row["rate_str2"] - 1e-12


class TestMonotonicity:
    # Rates are O(1) here; 1e-12 allows round-off only.  Near e = 1/2 the
    # STR-2 and STR-3 curves are flat to below double precision, and
    # neighbouring grid points there differ by up to ~2e-15 in either sign.
    ERROR_RATE = st.floats(min_value=0.0, max_value=0.5)

    @given(e1=ERROR_RATE, e2=ERROR_RATE, nodes=st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_str_rate_non_increasing_in_link_error(self, e1, e2, nodes):
        lo, hi = sorted((e1, e2))
        worse = keyrate.uniform_str_rate(hi, nodes).unclamped
        assert worse <= keyrate.uniform_str_rate(lo, nodes).unclamped + 1e-12

    @given(e1=ERROR_RATE, e2=ERROR_RATE)
    @settings(max_examples=60, deadline=None)
    def test_conventional_rate_non_increasing_in_link_error(self, e1, e2):
        lo, hi = sorted((e1, e2))
        worse = keyrate.conventional_relay_rate([hi]).unclamped
        assert worse <= keyrate.conventional_relay_rate([lo]).unclamped + 1e-12
