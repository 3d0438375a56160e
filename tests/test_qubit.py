"""Tests for the exact qubit algebra: Bell machinery, twirl, error
functionals, and the Holevo oracle."""

import itertools
import math

import numpy as np
import pytest

from strqkd import qubit
from strqkd.acceptance_checks import holevo_gap, relabeling_deviation, twirl_deviations

RNG = np.random.default_rng(20240819)


def pauli(r, s):
    """Pauli unitary U_{r,s} = sum_k (-1)^{ks} |k+r><k| (addition mod 2)."""
    out = np.zeros((2, 2), dtype=complex)
    for k in (0, 1):
        out[k ^ r, k] = (-1.0) ** (k * s)
    return out


def bb84_vector(u, x):
    """BB84 signal state |phi^u_x>: computational for u=0, Hadamard-rotated
    for u=1."""
    ket = np.zeros(2, dtype=complex)
    ket[x] = 1.0
    if u:
        ket = qubit.HADAMARD @ ket
    return ket


def kron(*vs):
    out = vs[0]
    for v in vs[1:]:
        out = np.kron(out, v)
    return out


def same_up_to_phase(v, w, tol=1e-12):
    overlap = abs(np.vdot(v, w))
    return abs(overlap - np.linalg.norm(v) * np.linalg.norm(w)) < tol


class TestPauli:
    def test_identity(self):
        assert np.allclose(pauli(0, 0), np.eye(2))

    def test_bit_flip(self):
        assert np.allclose(pauli(1, 0), [[0, 1], [1, 0]])

    def test_phase_flip(self):
        assert np.allclose(pauli(0, 1), [[1, 0], [0, -1]])

    def test_unitarity(self):
        for r, s in itertools.product((0, 1), repeat=2):
            u = pauli(r, s)
            assert np.allclose(u @ u.conj().T, np.eye(2))

    def test_bit_flip_permutes_z_signal_states(self):
        x_gate = pauli(1, 0)
        for x in (0, 1):
            assert np.allclose(
                x_gate @ bb84_vector(0, x), bb84_vector(0, x ^ 1)
            )


class TestBellStates:
    def test_phi00(self):
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(qubit.bell_vector(0, 0), expected)

    def test_phi11_by_hand(self):
        # (1/sqrt 2)[(-1)^0 |1>|0> + (-1)^1 |0>|1>]
        expected = np.array([0, -1, 1, 0]) / math.sqrt(2)
        assert np.allclose(qubit.bell_vector(1, 1), expected)

    def test_orthonormality(self):
        vecs = [qubit.bell_vector(a, b) for a in (0, 1) for b in (0, 1)]
        gram = np.array([[np.vdot(v, w) for w in vecs] for v in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-14)


class TestBB84States:
    def test_z_basis(self):
        assert np.allclose(bb84_vector(0, 0), [1, 0])
        assert np.allclose(bb84_vector(0, 1), [0, 1])

    def test_x_basis(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(bb84_vector(1, 1), [s, -s])


class TestRotatedBellBasis:
    """Programmatic comparison against the four explicit basis rows."""

    def primed(self, a, b):
        return kron(np.eye(2), qubit.HADAMARD) @ qubit.bell_vector(a, b)

    def test_row_00(self):
        expected = [qubit.bell_vector(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for got, want in zip(qubit.rotated_bell_basis(0, 0), expected):
            assert same_up_to_phase(got, want)

    def test_row_01(self):
        expected = [self.primed(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for got, want in zip(qubit.rotated_bell_basis(0, 1), expected):
            assert same_up_to_phase(got, want)

    def test_row_10(self):
        expected = [self.primed(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
        for got, want in zip(qubit.rotated_bell_basis(1, 0), expected):
            assert same_up_to_phase(got, want)

    def test_row_11(self):
        expected = [
            qubit.bell_vector(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
        for got, want in zip(qubit.rotated_bell_basis(1, 1), expected):
            assert same_up_to_phase(got, want)

    def test_all_rows_orthonormal(self):
        for u1, u2 in itertools.product((0, 1), repeat=2):
            vecs = np.column_stack(qubit.rotated_bell_basis(u1, u2))
            assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-13)


class TestTwirl:
    def test_maximally_mixed_invariant(self):
        mixed = np.eye(16) / 16
        assert np.allclose(qubit.twirl(mixed), mixed, atol=1e-14)

    def test_diagonal_in_tensored_bell_basis(self):
        off_diagonal, _, _ = twirl_deviations(RNG, 10)
        assert off_diagonal < 1e-12

    def test_diagonal_matches_bell_diagonal_of_input(self):
        # Independent oracle: direct change of basis of the input.
        basis = qubit.tensored_bell_basis_matrix()
        rho = qubit.random_density_matrix(RNG)
        expected = np.diag(basis.conj().T @ rho @ basis)
        got = np.diag(basis.conj().T @ qubit.twirl(rho) @ basis)
        assert np.abs(expected - got).max() < 1e-12

    def test_idempotent(self):
        _, idempotence, _ = twirl_deviations(RNG, 1)
        assert idempotence < 1e-12

    def test_preserves_basis_error_rate(self):
        _, _, invariance = twirl_deviations(RNG, 5)
        assert invariance < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qubit.twirl(np.eye(4) / 4)

    def test_stack_matches_per_matrix_loop(self):
        stack = qubit.random_density_matrix(np.random.default_rng(17), size=6)
        grid = stack.reshape(2, 3, 16, 16)
        assert np.array_equal(qubit.twirl(stack), [qubit.twirl(m) for m in stack])
        assert np.array_equal(qubit.twirl(grid), qubit.twirl(stack).reshape(grid.shape))

    def test_stack_matches_pauli_conjugations(self):
        # Independent reference: the mean over the 16 correlated Pauli pairs
        # of U rho U^dagger, built here from pauli().
        stack = qubit.random_density_matrix(np.random.default_rng(18), size=4)
        unitaries = [
            kron(pauli(r, s), pauli(r, s), pauli(rp, sp), pauli(rp, sp))
            for r, s, rp, sp in itertools.product((0, 1), repeat=4)
        ]
        for rho, got in zip(stack, qubit.twirl(stack)):
            expected = sum(u @ rho @ u.conj().T for u in unitaries) / 16
            assert np.abs(got - expected).max() <= 1e-15
            # Each term is exact and the terms are summed in the same order,
            # which keeps verify's twirl figures those of the matrix products.
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (2, 16, 8), (16,), (5, 256)])
    def test_stack_of_wrong_shape_rejected(self, shape):
        for kernel in (qubit.twirl, lambda m: qubit.basis_error_rate(m, 0, 1)):
            with pytest.raises(ValueError, match="16x16"):
                kernel(np.zeros(shape))


class TestBellDiagonalStates:
    def test_pure_product(self):
        alpha = np.zeros(16)
        alpha[0] = 1.0
        expected = np.outer(
            kron(qubit.bell_vector(0, 0), qubit.bell_vector(0, 0)),
            kron(qubit.bell_vector(0, 0), qubit.bell_vector(0, 0)).conj(),
        )
        assert np.allclose(qubit.bell_diagonal_to_density(alpha), expected)

    def test_uniform_is_maximally_mixed(self):
        rho = qubit.bell_diagonal_to_density(np.ones(16) / 16)
        assert np.allclose(rho, np.eye(16) / 16, atol=1e-14)

    def test_fixed_point_of_twirl(self):
        alpha = qubit.random_bell_diagonal(RNG)
        rho = qubit.bell_diagonal_to_density(alpha)
        assert np.abs(qubit.twirl(rho) - rho).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qubit.bell_diagonal_to_density(np.ones(16))

    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_stack_matches_per_state(self, n):
        alphas = qubit.random_bell_diagonal(np.random.default_rng(0), n)
        rho = qubit.bell_diagonal_to_density(alphas)
        assert rho.shape == (n, 16, 16)
        assert np.array_equal(rho, [qubit.bell_diagonal_to_density(a) for a in alphas])


def pair_weights_from_flip(w):
    """Bell weights of a pair with bit-flip probability w: (a, b) lex."""
    return {(0, 0): 1.0 - w, (0, 1): w, (1, 0): 0.0, (1, 1): 0.0}


def enumerate_error_rate(weights1, weights2, u1, u2):
    """Combinatorial oracle for the basis error rate of a Bell-diagonal
    product state: a pair in Phi_{a,b} disagrees with probability b in the
    Z basis and a in the X basis; the end-to-end error is the parity of the
    per-link disagreements."""
    total = 0.0
    for (a1, b1), w1 in weights1.items():
        for (a2, b2), w2 in weights2.items():
            d1 = a1 if u1 else b1
            d2 = a2 if u2 else b2
            total += w1 * w2 * (d1 ^ d2)
    return total


def product_alpha(weights1, weights2):
    alpha = np.zeros((2, 2, 2, 2))
    for (a1, b1), w1 in weights1.items():
        for (a2, b2), w2 in weights2.items():
            alpha[a1, b1, a2, b2] = w1 * w2
    return alpha.reshape(16)


def odd_outcome_projectors(u1, u2):
    """The projectors |x t t' y><x t t' y| onto the error outcomes of
    basis_error_rate (x + t + t' + y odd), A and T in basis u1, T' and B in
    basis u2, built from the BB84 kets alone."""
    projectors = []
    for x, t, t_send, y in itertools.product((0, 1), repeat=4):
        if (x + t + t_send + y) % 2:
            ket = kron(bb84_vector(u1, x), bb84_vector(u1, t),
                       bb84_vector(u2, t_send), bb84_vector(u2, y))
            projectors.append(np.outer(ket, ket.conj()))
    return projectors


class TestBasisErrorRate:
    def test_perfect_bell_pairs(self):
        alpha = np.zeros(16)
        alpha[0] = 1.0
        rho = qubit.bell_diagonal_to_density(alpha)
        for u1, u2 in itertools.product((0, 1), repeat=2):
            assert qubit.basis_error_rate(rho, u1, u2) == pytest.approx(0.0, abs=1e-13)

    def test_maximally_mixed(self):
        rho = np.eye(16) / 16
        for u1, u2 in itertools.product((0, 1), repeat=2):
            assert qubit.basis_error_rate(rho, u1, u2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("w1,w2", [(0.05, 0.05), (0.1, 0.02), (0.0, 0.3)])
    def test_flip_weight_compound_value(self, w1, w2):
        weights1 = pair_weights_from_flip(w1)
        weights2 = pair_weights_from_flip(w2)
        rho = qubit.bell_diagonal_to_density(product_alpha(weights1, weights2))
        for u1, u2 in itertools.product((0, 1), repeat=2):
            expected = enumerate_error_rate(weights1, weights2, u1, u2)
            assert qubit.basis_error_rate(rho, u1, u2) == pytest.approx(
                expected, abs=1e-12
            )

    def test_flip_weight_frozen_value(self):
        # Both links flip weight 0.05, Z bases: 2 w (1 - w) = 0.095.
        weights = pair_weights_from_flip(0.05)
        rho = qubit.bell_diagonal_to_density(product_alpha(weights, weights))
        assert qubit.basis_error_rate(rho, 0, 0) == pytest.approx(0.095, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qubit.basis_error_rate(np.eye(4) / 4, 0, 0)

    @pytest.mark.parametrize("u1,u2", list(itertools.product((0, 1), repeat=2)))
    def test_stack_matches_per_matrix_loop(self, u1, u2):
        stack = qubit.random_density_matrix(np.random.default_rng(19), size=10)
        stack = np.concatenate([stack, qubit.twirl(stack)])
        rates = qubit.basis_error_rate(stack, u1, u2)
        single = [qubit.basis_error_rate(m, u1, u2) for m in stack]
        assert all(isinstance(rate, float) for rate in single)
        assert rates.shape == (20,) and np.array_equal(rates, single)
        grid = qubit.basis_error_rate(stack.reshape(2, 10, 16, 16), u1, u2)
        assert np.array_equal(grid, rates.reshape(2, 10))

    @pytest.mark.parametrize("u1,u2", list(itertools.product((0, 1), repeat=2)))
    def test_general_states_match_outcome_projectors(self, u1, u2):
        # Full-rank states, not Bell-diagonal: the twirl-invariance suite of
        # verify cannot tell the odd outcomes from the even ones, this can.
        stack = qubit.random_density_matrix(np.random.default_rng(23), size=12)
        expected = sum(np.real(np.trace(stack @ proj, axis1=-2, axis2=-1))
                       for proj in odd_outcome_projectors(u1, u2))
        assert np.abs(qubit.basis_error_rate(stack, u1, u2) - expected).max() <= 1e-15
        for rho, rate in zip(stack, expected):
            assert abs(qubit.basis_error_rate(rho, u1, u2) - rate) <= 1e-15

    @pytest.mark.parametrize("u1,u2", list(itertools.product((0, 1), repeat=2)))
    def test_parity_tables_are_a_pauli_pair_and_the_odd_projector_sum(self, u1, u2):
        # The outcome parity O, rebuilt densely from the gather tables, is
        # Z x Z on a Z link and X x X on an X link, entry for entry.
        parity = np.zeros(256)
        parity[qubit._PARITY_INDEX[u1, u2]] = qubit._PARITY_SIGN[u1, u2]
        parity = parity.reshape(16, 16)
        link = [pauli(0, 1), pauli(1, 0)]
        assert np.array_equal(parity, kron(link[u1], link[u1], link[u2], link[u2]))
        assert np.array_equal(qubit.twirl(parity), parity)
        # (1 - O) / 2 is the odd outcomes' projector sum, with exact entries.
        odd = (np.eye(16) - parity) / 2
        assert np.isin(odd, (0.0, 0.5, -0.5, 1.0)).all()
        assert np.abs(odd - sum(odd_outcome_projectors(u1, u2))).max() <= 1e-15


def entropy(rho):
    return qubit._entropy(np.linalg.eigvalsh(rho))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        for d in (2, 4, 16):
            rho = np.eye(d) / d
            assert entropy(rho) == pytest.approx(math.log2(d))

    def test_binary_diagonal(self):
        expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert entropy(np.diag([0.25, 0.75])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8113, abs=1e-4)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            entropy(np.diag([1.5, -0.5]))


def reference_holevo(alpha, u1, u2):
    """chi(X : E, ab) from Eve's explicit 16x16 blocks: conditioned on each
    announcement (a, b), and also on Alice's bit x."""
    psi = qubit.tensored_bell_basis_matrix() * np.sqrt(alpha)
    psi = psi.reshape(2, 2, 2, 2, 16)  # A, T, T', B, E
    blocks = {None: [], 0: [], 1: []}
    for a, b in itertools.product((0, 1), repeat=2):
        beta = qubit.rotated_bell_basis(u1, u2)[2 * a + b].reshape(2, 2)
        cond = np.einsum("tu,atube->abe", beta.conj(), psi)
        amp = cond.reshape(4, 16)
        blocks[None].append(amp.T @ amp.conj())
        for x in (0, 1):
            amp = np.einsum("a,abe->be", bb84_vector(u1, x).conj(), cond)
            blocks[x].append(amp.T @ amp.conj())

    def weight_and_entropy(mats):
        # Entropy of the block-diagonal state sum_ab rho_ab x |ab><ab|.
        eig = np.clip(np.concatenate([np.linalg.eigvalsh(m) for m in mats]), 0.0, None)
        weight = eig.sum()
        eig = eig[eig > 0.0] / weight
        return weight, float(-(eig * np.log2(eig)).sum())

    _, chi = weight_and_entropy(blocks[None])
    for x in (0, 1):
        p_x, s_x = weight_and_entropy(blocks[x])
        chi -= p_x * s_x
    return max(0.0, chi)


def dense_branch_tables():
    """The branch tables from dense linear algebra, the reference for the
    entanglement-swapping map: the node's (a, b) rotated-Bell bra applied to
    its qubits (T, T') of each tensored Bell state leaves amplitudes on
    (A, B), and each table is built from them.  Returns the amplitudes,
    indexed [u1, u2, i, a, b, A, B], and the tables by qubit's names."""
    bras = np.array(
        [[qubit.rotated_bell_basis(u1, u2) for u2 in (0, 1)] for u1 in (0, 1)]
    ).conj().reshape(2, 2, 2, 2, 2, 2)
    bell = qubit.tensored_bell_basis_matrix().reshape(2, 2, 2, 2, 16)
    amps = np.einsum("UVabtu,AtuBi->UViabAB", bras, bell)
    bb84 = np.array([[bb84_vector(u, x).conj() for x in (0, 1)] for u in (0, 1)])
    flat = amps.reshape(2, 2, 16, 2, 2, 4)
    spectra = np.abs(np.einsum("UVcdAB,UViabAB->UViabcd", bras, amps)) ** 2
    signal = np.abs(np.einsum("UxA,VyB,UViabAB->UViabxy", bb84, bb84, amps)) ** 2
    odd = np.indices((2, 2, 2)).sum(axis=0) % 2  # [b, x, y]: x + y + b odd
    return amps, {
        "_BRANCH_STATES": flat[..., :, None] * flat[..., None, :].conj(),
        "_BRANCH_SPECTRA": spectra.reshape(2, 2, 16, 2, 2, 4),
        "_SIGNAL_PROBS": signal,
        "_ANNOUNCEMENT_TABLE": np.stack(
            (signal.sum(axis=(-2, -1)), (signal * odd).sum(axis=(-2, -1))), axis=-1
        ),
    }


DENSE_AMPS, DENSE_TABLES = dense_branch_tables()


class TestBranchMap:
    @pytest.mark.parametrize("name,weights", [
        ("_BRANCH_SPECTRA", {0.0, 0.25}),
        ("_SIGNAL_PROBS", {0.0, 0.125}),
        ("_ANNOUNCEMENT_TABLE", {0.0, 0.25}),
    ])
    def test_tables_hold_exact_weights(self, name, weights):
        assert set(np.unique(getattr(qubit, name)).tolist()) == weights

    @pytest.mark.parametrize("name", sorted(DENSE_TABLES))
    def test_tables_match_dense_reference(self, name):
        table, dense = getattr(qubit, name), DENSE_TABLES[name]
        assert table.shape == dense.shape and table.dtype == dense.dtype
        assert np.abs(table - dense).max() <= 1e-15

    def test_dense_spectra_peak_at_the_map_cell(self):
        peak = DENSE_TABLES["_BRANCH_SPECTRA"].argmax(axis=-1)
        assert np.array_equal(peak, qubit._BRANCH_CELL)


class TestHolevoOracle:
    def test_matches_explicit_eve_blocks(self):
        rng = np.random.default_rng(3)
        alphas = [qubit.random_bell_diagonal(rng) for _ in range(30)]
        rank_two = np.zeros(16)
        rank_two[[0, 8]] = (0.9, 0.1)
        alphas += [rank_two, np.ones(16) / 16]
        for alpha in alphas:
            for u1, u2 in itertools.product((0, 1), repeat=2):
                chi = qubit.holevo_oracle(alpha, u1, u2)
                assert abs(chi - reference_holevo(alpha, u1, u2)) < 1e-12

    def test_announcement_stats_match_conditional_states(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            alpha = qubit.random_bell_diagonal(rng)
            for u1, u2 in itertools.product((0, 1), repeat=2):
                p, e = qubit.bell_announcement_stats(alpha, u1, u2)
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                # The node's qubits are maximally mixed: uniform announcements.
                assert np.abs(p - 0.25).max() < 1e-12
                for a, b in itertools.product((0, 1), repeat=2):
                    p_ab, rho = qubit.conditional_end_user_state(alpha, u1, u2, a, b)
                    assert p[a, b] == pytest.approx(p_ab, abs=1e-12)
                    # Errors: Alice's x and Bob's y with x + y + b odd.
                    err = 0.0
                    for x, y in itertools.product((0, 1), repeat=2):
                        if x ^ y ^ b:
                            v = kron(bb84_vector(u1, x), bb84_vector(u2, y))
                            err += np.real(np.vdot(v, rho @ v))
                    assert e[a, b] == pytest.approx(err, abs=1e-12)


    @pytest.mark.parametrize("u1,u2", list(itertools.product((0, 1), repeat=2)))
    def test_spectrum_tables_match_eigvalsh(self, u1, u2):
        alphas = stack_of_states()
        # Branch states on (A, B), one per announcement (a, b).
        branch = qubit._per_state(alphas, qubit._BRANCH_STATES[u1, u2])
        table = qubit._per_state(alphas, qubit._BRANCH_SPECTRA[u1, u2])
        assert np.abs(np.sort(table, axis=-1) - np.linalg.eigvalsh(branch)).max() <= 1e-12
        # States on B once Alice's qubit is projected onto her bit x too.
        keyed_amps = np.einsum(
            "xA,iabAB->iabxB",
            [bb84_vector(u1, x).conj() for x in (0, 1)],
            DENSE_AMPS[u1, u2],
        )
        keyed = np.einsum("ni,iabxB,iabxC->nabxBC", alphas, keyed_amps, keyed_amps.conj())
        table = qubit._per_state(alphas, qubit._SIGNAL_PROBS[u1, u2])
        assert np.abs(np.sort(table, axis=-1) - np.linalg.eigvalsh(keyed)).max() <= 1e-12

    def test_pure_bell_pairs_decoupled(self):
        alpha = np.zeros(16)
        alpha[0] = 1.0
        for u1, u2 in itertools.product((0, 1), repeat=2):
            assert qubit.holevo_oracle(alpha, u1, u2) == pytest.approx(0.0, abs=1e-9)

    def test_bound_on_random_states(self):
        assert holevo_gap(np.random.default_rng(7), 50) <= 1e-9

    def test_uniform_regression_baseline(self):
        # Frozen from the first verified run; the maximally mixed state gives
        # Eve one full bit for every basis combination.
        alpha = np.ones(16) / 16
        for u1, u2 in itertools.product((0, 1), repeat=2):
            assert qubit.holevo_oracle(alpha, u1, u2) == pytest.approx(1.0, abs=1e-9)

    def test_phase_flip_family_saturates_bound(self):
        # Rank-2 family: weight w on a phase flip in the first link.  Eve's
        # information about the Z key is exactly the phase-error entropy.
        for w in (0.01, 0.1, 0.3):
            alpha = np.zeros((2, 2, 2, 2))
            alpha[0, 0, 0, 0] = 1.0 - w
            alpha[1, 0, 0, 0] = w
            chi = qubit.holevo_oracle(alpha.reshape(16), 0, 0)
            bound = qubit.holevo_bound(alpha.reshape(16), 0, 0)
            h_w = -w * math.log2(w) - (1 - w) * math.log2(1 - w)
            assert chi == pytest.approx(h_w, abs=1e-9)
            assert bound - chi < 1e-3

    def test_relabeling_symmetry_of_conditional_states(self):
        assert relabeling_deviation(RNG, 1) < 1e-12

    def test_bound_never_exceeds_observed_entropy_bound(self):
        # End-to-end consistency: chi at (u1, u2) stays below the binary
        # entropy of the complementary-basis observed error rate.
        from strqkd.keyrate import binary_entropy

        rng = np.random.default_rng(11)
        for _ in range(10):
            alpha = qubit.random_bell_diagonal(rng)
            rho = qubit.bell_diagonal_to_density(alpha)
            for u1, u2 in itertools.product((0, 1), repeat=2):
                chi = qubit.holevo_oracle(alpha, u1, u2)
                e_comp = qubit.basis_error_rate(rho, u1 ^ 1, u2 ^ 1)
                assert chi <= binary_entropy(min(e_comp, 1.0)) + 1e-9


def stack_of_states():
    """60 random states plus sparse and pure ones (zeros in alpha)."""
    rng = np.random.default_rng(12)
    pure = np.eye(16)[[0, 5, 15]]
    sparse = np.zeros((2, 16))
    sparse[0, [0, 8]] = (0.9, 0.1)
    sparse[1, [1, 2, 7]] = (0.5, 0.25, 0.25)
    return np.concatenate([qubit.random_bell_diagonal(rng, size=60), pure, sparse])


class TestStackedStates:
    ALPHAS = stack_of_states()
    PAIRS = list(itertools.product((0, 1), repeat=2))

    @pytest.mark.parametrize("u1,u2", PAIRS)
    def test_holevo_kernels_match_per_state(self, u1, u2):
        for kernel in (qubit.holevo_oracle, qubit.holevo_bound):
            stacked = kernel(self.ALPHAS, u1, u2)
            single = [kernel(alpha, u1, u2) for alpha in self.ALPHAS]
            assert all(isinstance(value, float) for value in single)
            assert stacked.shape == (len(self.ALPHAS),)
            assert np.abs(stacked - single).max() <= 1e-12
            # Any leading shape: one result per state.
            grid = kernel(self.ALPHAS.reshape(5, 13, 16), u1, u2)
            assert np.array_equal(grid, stacked.reshape(5, 13))

    @pytest.mark.parametrize("u1,u2", PAIRS)
    def test_announcement_stats_match_per_state(self, u1, u2):
        p, e = qubit.bell_announcement_stats(self.ALPHAS, u1, u2)
        assert p.shape == e.shape == (len(self.ALPHAS), 2, 2)
        for alpha, p_row, e_row in zip(self.ALPHAS, p, e):
            p_one, e_one = qubit.bell_announcement_stats(alpha, u1, u2)
            assert p_one.shape == e_one.shape == (2, 2)
            assert np.abs(p_row - p_one).max() <= 1e-12
            assert np.abs(e_row - e_one).max() <= 1e-12

    @pytest.mark.parametrize("u1,u2", PAIRS)
    def test_conditional_states_match_per_state(self, u1, u2):
        for a, b in itertools.product((0, 1), repeat=2):
            p, rho = qubit.conditional_end_user_state(self.ALPHAS, u1, u2, a, b)
            assert p.shape == (len(self.ALPHAS),)
            assert rho.shape == (len(self.ALPHAS), 4, 4)
            for alpha, p_row, rho_row in zip(self.ALPHAS, p, rho):
                p_one, rho_one = qubit.conditional_end_user_state(alpha, u1, u2, a, b)
                assert isinstance(p_one, float)
                assert abs(p_row - p_one) <= 1e-12
                assert np.abs(rho_row - rho_one).max() <= 1e-12

    @pytest.mark.parametrize(
        "row",
        [
            np.full(16, 1 / 8),  # sums to 2
            np.r_[-0.1, 1.1, np.zeros(14)],  # a negative weight
            np.r_[np.nan, np.full(15, 1 / 15)],
        ],
    )
    def test_one_invalid_row_rejects_the_stack(self, row):
        alphas = self.ALPHAS.copy()
        alphas[17] = row
        for kernel in (qubit.holevo_oracle, qubit.holevo_bound,
                       qubit.bell_announcement_stats):
            with pytest.raises(ValueError, match="Bell-diagonal weights"):
                kernel(alphas, 0, 1)
        with pytest.raises(ValueError, match="Bell-diagonal weights"):
            qubit.conditional_end_user_state(alphas, 0, 1, 1, 0)

    @pytest.mark.parametrize("u1,u2", PAIRS)
    def test_oracle_matches_eigvalsh_reference(self, u1, u2):
        # The oracle's spectra are tables; reference_holevo takes every
        # spectrum from eigvalsh of Eve's explicit blocks.
        chi = qubit.holevo_oracle(self.ALPHAS, u1, u2)
        expected = [reference_holevo(alpha, u1, u2) for alpha in self.ALPHAS]
        assert np.abs(chi - expected).max() <= 1e-12

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="16 entries"):
            qubit.holevo_oracle(np.full((3, 8), 1 / 8), 0, 0)

    def test_stacked_draws_equal_single_draws(self):
        batched, single = np.random.default_rng(13), np.random.default_rng(13)
        alphas = qubit.random_bell_diagonal(batched, size=6)
        assert np.array_equal(alphas, [qubit.random_bell_diagonal(single) for _ in range(6)])
        assert batched.bit_generator.state == single.bit_generator.state

    def test_stacked_density_matrices_equal_single_draws(self):
        batched, single = np.random.default_rng(15), np.random.default_rng(15)
        stack = qubit.random_density_matrix(batched, size=5)
        assert stack.shape == (5, 16, 16)
        assert np.array_equal(stack, [qubit.random_density_matrix(single) for _ in range(5)])
        assert batched.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize(
        "check,draw",
        [
            (holevo_gap, qubit.random_bell_diagonal),
            (relabeling_deviation, qubit.random_bell_diagonal),
            (twirl_deviations, lambda rng: qubit.random_density_matrix(rng)),
        ],
    )
    def test_checks_leave_the_rng_as_single_draws_do(self, check, draw):
        batched, single = np.random.default_rng(14), np.random.default_rng(14)
        check(batched, 7)
        for _ in range(7):
            draw(single)
        assert batched.bit_generator.state == single.bit_generator.state

    def test_checks_match_a_per_state_loop(self):
        rng = np.random.default_rng(16)
        gap = holevo_gap(np.random.default_rng(16), 8)
        relabel = relabeling_deviation(np.random.default_rng(16), 8)
        alphas = [qubit.random_bell_diagonal(rng) for _ in range(8)]
        loop_gap = max(
            qubit.holevo_oracle(alpha, u1, u2) - qubit.holevo_bound(alpha, u1, u2)
            for alpha in alphas for u1, u2 in self.PAIRS
        )
        loop_relabel = 0.0
        for alpha, (u1, u2, a, b) in itertools.product(
            alphas, itertools.product((0, 1), repeat=4)
        ):
            p, rho = qubit.conditional_end_user_state(alpha, u1, u2, a, b)
            p2, rho2 = qubit.conditional_end_user_state(alpha, u1 ^ 1, u2 ^ 1, b, a)
            loop_relabel = max(loop_relabel, abs(p - p2), np.abs(rho - rho2).max())
        assert abs(gap - loop_gap) <= 1e-12
        assert abs(relabel - loop_relabel) <= 1e-15

    def test_empty_stack(self):
        assert holevo_gap(np.random.default_rng(0), 0) == -np.inf
        assert relabeling_deviation(np.random.default_rng(0), 0) == 0.0
        assert twirl_deviations(np.random.default_rng(0), 0) == (0.0, 0.0, 0.0)
