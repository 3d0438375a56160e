"""Mutation tests for ``verify``: each case plants one named defect, runs the
suites of :func:`acceptance_checks.run_verification` at 200 trials and seed
2024, and asserts which suites fail.

A defect is planted by patching one module attribute.  A defect in the
entanglement-swapping map patches ``qubit._BRANCH_CELL`` together with the
tables built from it, as the import builds them.  Tests may reach into
private names; the rule against it covers ``src/`` only.  A defect that no
suite catches is a strict xfail: once a suite catches it, the case fails
until it moves to the caught cases with the suites that fail.
"""

import dataclasses
import math

import numpy as np
import pytest

from strqkd import acceptance_checks, decoy, keyrate, qubit, relay

# Suites that no defect can fail, with the reason.
UNFAILABLE = {
    "decoy-fraction-identity": "decoy._fractions sets f_m = 1 - (f_v + f_s_vs), "
    "so the identity holds by construction",
}

# XOR[x, y] = x + y (mod 2).
XOR = np.arange(2)[:, None] ^ np.arange(2)


def verification():
    return acceptance_checks.run_verification(200, 2024)


def failing_suites():
    return {name for name, passed, _ in verification() if not passed}


def plant_cells(mp, cell):
    mp.setattr(qubit, "_BRANCH_CELL", cell)
    names = ("_BRANCH_STATES", "_BRANCH_SPECTRA", "_SIGNAL_PROBS", "_ANNOUNCEMENT_TABLE")
    for name, table in zip(names, qubit._branch_tables(cell)):
        mp.setattr(qubit, name, table)


def link1_x_basis_unswapped(mp):
    """The map reads link 1's Bell bits unswapped in the X basis."""
    u1, u2, a1, b1, a2, b2, a, b = np.indices((2,) * 8)
    c = a1 ^ np.where(u2, b2, a2) ^ a
    d = b1 ^ np.where(u2, a2, b2) ^ b
    plant_cells(mp, (2 * c + d).reshape(qubit._BRANCH_CELL.shape))


def one_cell_c_flipped(mp):
    """The map flips c at (u1, u2, i, a, b) = (0, 0, 5, 1, 0)."""
    cell = qubit._BRANCH_CELL.copy()
    cell[0, 0, 5, 1, 0] ^= 2
    plant_cells(mp, cell)


def signal_parity_from_c(mp):
    """_SIGNAL_PROBS sets Alice's and Bob's bits apart by c, not d."""
    c = qubit._BRANCH_CELL >> 1
    mp.setattr(qubit, "_SIGNAL_PROBS", np.where(c[..., None, None] == XOR, 0.125, 0.0))


def bound_at_own_bases(mp):
    """holevo_bound reads e at (u1, u2), not at the complementary bases with
    (a, b) swapped."""

    def bound(alpha, u1, u2):
        p, e = qubit.bell_announcement_stats(alpha, u1, u2)
        return (p * keyrate.binary_entropy(np.clip(e, 0.0, 1.0))).sum(axis=(-2, -1))

    mp.setattr(qubit, "holevo_bound", bound)


def single_photon_fraction_scaled(mp):
    """f_s_vs is 0.9 times its value; f_m stays its complement."""
    fractions = decoy._fractions

    def scaled(stats):
        fr = fractions(stats)
        f_s_vs = 0.9 * fr.f_s_vs
        return dataclasses.replace(fr, f_s_vs=f_s_vs, f_m=1.0 - (fr.f_v + f_s_vs))

    mp.setattr(decoy, "_fractions", scaled)


def dark_count_error_0_4(mp):
    """A dark-count click errs with probability 0.4, not 1/2."""
    mp.setattr(decoy, "E_DARK", 0.4)


def flips_at_0_9_p(mp):
    """The Monte Carlo flips each bit with probability 0.9 * flip_prob."""
    draw = relay._draw

    def scaled(cfg, *planes):
        draw(dataclasses.replace(cfg, flip_prob=0.9 * cfg.flip_prob), *planes)

    mp.setattr(relay, "_draw", scaled)


def twirl_drops_a_conjugation(mp):
    """The twirl averages 15 of its 16 correlated Pauli conjugations."""
    mp.setattr(qubit, "_TWIRL_INDEX", qubit._TWIRL_INDEX[:-1])


def one_twirl_sign_flipped(mp):
    """The twirl's conjugation by pair 1 flips the sign of entry (0, 0)."""
    sign = qubit._TWIRL_SIGN.copy()
    sign[1, 0] *= -1
    mp.setattr(qubit, "_TWIRL_SIGN", sign)


def parity_not_a_pauli(mp):
    """basis_error_rate's parity gather reads entry (0, 0) 16 times, with
    each basis pair's signs: no Pauli pair, so no twirl invariant."""
    mp.setattr(qubit, "_PARITY_INDEX", np.zeros_like(qubit._PARITY_INDEX))


def hadamard_unnormalised(mp):
    """The Hadamard gate lacks its factor 1/sqrt 2."""
    mp.setattr(qubit, "HADAMARD", np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))


def entropy_in_nats(mp):
    """keyrate's binary entropy is taken in nats."""
    entropy = keyrate.binary_entropy
    mp.setattr(keyrate, "binary_entropy", lambda e: entropy(e) * math.log(2.0))


def even_outcome_parity(mp):
    """basis_error_rate counts the even outcomes: the parity signs are
    negated, so O becomes -O."""
    mp.setattr(qubit, "_PARITY_SIGN", -qubit._PARITY_SIGN)


def complementary_basis_parity(mp):
    """basis_error_rate reads the parity of the complementary bases
    (1 - u1, 1 - u2)."""
    mp.setattr(qubit, "_PARITY_INDEX", qubit._PARITY_INDEX[::-1, ::-1])
    mp.setattr(qubit, "_PARITY_SIGN", qubit._PARITY_SIGN[::-1, ::-1])


def own_basis_weights(mp):
    """The STR rate charges each code with its own weight, not its
    complement's: keyrate._basis_weights comes out reversed."""
    weights = keyrate._basis_weights
    mp.setattr(keyrate, "_basis_weights", lambda p_z, links: weights(p_z, links)[::-1])


def outcome_parity_from_c(mp):
    """The signal and announcement tables both set Alice's and Bob's bits
    apart by c, as when the announcement table is summed from the signal
    table."""
    signal_parity_from_c(mp)
    odd = XOR[None] ^ np.arange(2)[:, None, None]  # [b, x, y]: x + y + b odd
    signal = qubit._SIGNAL_PROBS
    announcement = (signal.sum(axis=(-2, -1)), (signal * odd).sum(axis=(-2, -1)))
    mp.setattr(qubit, "_ANNOUNCEMENT_TABLE", np.stack(announcement, axis=-1))


CAUGHT = [  # (defect, the suites it fails)
    (link1_x_basis_unswapped, {"holevo-bound", "announcement-relabeling"}),
    (one_cell_c_flipped, {"holevo-bound", "announcement-relabeling"}),
    (signal_parity_from_c, {"holevo-bound"}),
    (bound_at_own_bases, {"holevo-bound"}),
    (single_photon_fraction_scaled, {"decoy-poisson-oracle"}),
    (dark_count_error_0_4, {"decoy-poisson-oracle"}),
    (flips_at_0_9_p, {"montecarlo-vs-analytic"}),
    (twirl_drops_a_conjugation, {"twirl-diagonality", "twirl-idempotence"}),
    (one_twirl_sign_flipped, {"twirl-diagonality", "twirl-idempotence",
                              "twirl-error-invariance"}),
    (parity_not_a_pauli, {"twirl-error-invariance"}),
    (hadamard_unnormalised, {"rotated-bases-orthonormal"}),
    (entropy_in_nats, {"fig2-zero-crossings"}),
]

BLIND = [  # (defect, why no suite catches it yet)
    (even_outcome_parity, "ROADMAP item 3"),
    (complementary_basis_parity, "ROADMAP item 3"),
    (own_basis_weights, "ROADMAP item 3"),
    # The oracle and the bound read the same parity; tests/test_qubit.py
    # checks the tables against the dense reference.
    (outcome_parity_from_c, "ROADMAP item 3"),
]


def test_unpatched_program_passes_every_suite():
    assert failing_suites() == set()


@pytest.mark.parametrize(
    "defect,suites", CAUGHT, ids=[defect.__name__ for defect, _ in CAUGHT]
)
def test_defect_fails_its_suites(monkeypatch, defect, suites):
    defect(monkeypatch)
    assert failing_suites() == suites


@pytest.mark.parametrize("defect", [
    pytest.param(
        defect,
        marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason),
        id=defect.__name__,
    )
    for defect, reason in BLIND
])
def test_blind_defect_fails_a_suite(monkeypatch, defect):
    defect(monkeypatch)
    assert failing_suites()


def test_every_suite_has_a_defect_or_a_reason():
    names = {name for name, _, _ in verification()}
    caught = set().union(*(suites for _, suites in CAUGHT))
    assert names - caught == set(UNFAILABLE)
