"""Exact finite-dimensional qubit algebra for the relay security analysis.

Everything here is dense, exact linear algebra on at most four qubits plus a
16-dimensional purifying register: BB84 signal states, Bell states and their
basis-rotated variants, the correlated-Pauli twirl that projects a four-qubit
state onto the Bell-diagonal family, basis-dependent error-rate functionals,
and a numerical Holevo oracle that certifies the entropic bound used by the
key-rate formulas.

The security quantities of a Bell-diagonal state all come from one kernel,
``_branches``: the canonical purification projected onto each of the node's
four rotated-Bell outcomes (a, b) at once.  The announcement statistics and
the conditioned end-user states are contractions of that array.  The Holevo
oracle never forms Eve's 16x16 states: the purified state is pure on
(A, B, E) for each announcement, also once Alice's bit is fixed, so Eve's
state has the nonzero spectrum of the branch's Gram matrix on (A, B).

Qubit ordering throughout is (A, T, T', B): Alice's half of the first link,
the node's receive and send halves, Bob's half of the second link.  All
functions are pure; logs are base 2.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .keyrate import binary_entropy

__all__ = [
    "Z_BASIS",
    "X_BASIS",
    "pauli",
    "bell_vector",
    "bb84_vector",
    "bb84_projector",
    "rotated_bell_basis",
    "twirl",
    "bell_diagonal_to_density",
    "tensored_bell_basis_matrix",
    "basis_error_rate",
    "von_neumann_entropy",
    "bell_announcement_stats",
    "conditional_end_user_state",
    "holevo_oracle",
    "holevo_bound",
    "random_density_matrix",
    "random_bell_diagonal",
]

Z_BASIS = 0
X_BASIS = 1

# Eigenvalues down to -PSD_TOL are round-off and count as zero.
PSD_TOL = 1e-10

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def pauli(r: int, s: int) -> np.ndarray:
    """Pauli unitary U_{r,s} = sum_k (-1)^{ks} |k+r><k| (addition mod 2)."""
    out = np.zeros((2, 2), dtype=complex)
    for k in (0, 1):
        out[k ^ r, k] = (-1.0) ** (k * s)
    return out


def bell_vector(a: int, b: int) -> np.ndarray:
    """Bell state |Phi_{a,b}> = (1/sqrt 2) sum_k (-1)^{ak} |k+b>|k>."""
    out = np.zeros(4, dtype=complex)
    for k in (0, 1):
        out[2 * (k ^ b) + k] = (-1.0) ** (a * k)
    return out / np.sqrt(2.0)


def bb84_vector(u: int, x: int) -> np.ndarray:
    """BB84 signal state |phi^u_x>: computational for u=0, Hadamard-rotated
    for u=1."""
    ket = np.zeros(2, dtype=complex)
    ket[x] = 1.0
    if u:
        ket = HADAMARD @ ket
    return ket


def bb84_projector(u: int, x: int) -> np.ndarray:
    """Measurement (POVM) element M^u_x, the projector onto |phi^u_x>."""
    v = bb84_vector(u, x)
    return np.outer(v, v.conj())


def rotated_bell_basis(u1: int, u2: int) -> list[np.ndarray]:
    """The four vectors H^{u1} x H^{u2} |Phi_{a,b}>, (a, b) in lex order.

    For u1 = u2 this is a permutation of the Bell states; for u1 != u2 it is
    a permutation of (1 x H)|Phi_{a,b}>, matching the node's measurement when
    its two links use bases (u1, u2).
    """
    h1 = np.linalg.matrix_power(HADAMARD, u1)
    h2 = np.linalg.matrix_power(HADAMARD, u2)
    rot = np.kron(h1, h2)
    return [rot @ bell_vector(a, b) for a in (0, 1) for b in (0, 1)]


def _multi_kron(*mats: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def tensored_bell_basis_matrix() -> np.ndarray:
    """Unitary whose columns are |Phi_{a,b}>_{A,T} x |Phi_{a',b'}>_{T',B},
    (a, b, a', b') in lex order."""
    bell4 = np.column_stack([bell_vector(a, b) for a in (0, 1) for b in (0, 1)])
    return np.kron(bell4, bell4)


_BELL_BASIS_16 = tensored_bell_basis_matrix()

# Correlated Pauli pairs U_{r,s} x U_{r,s} x U_{r',s'} x U_{r',s'}.
_TWIRL_UNITARIES = np.array(
    [
        _multi_kron(pauli(r, s), pauli(r, s), pauli(rp, sp), pauli(rp, sp))
        for r, s, rp, sp in itertools.product((0, 1), repeat=4)
    ]
)

# _BB84_BRA[u][x] = <phi^u_x|.
_BB84_BRA = np.array([[bb84_vector(u, x).conj() for x in (0, 1)] for u in (0, 1)])

# _ROTATED_BELL_BRA[u1, u2, a, b] = the (a, b) rotated-Bell bra on (T, T').
_ROTATED_BELL_BRA = np.array(
    [[rotated_bell_basis(u1, u2) for u2 in (0, 1)] for u1 in (0, 1)]
).conj().reshape(2, 2, 2, 2, 2, 2)

# _ODD[b, x, y]: Alice's bit x and Bob's bit y disagree after his b-correction.
_ODD = np.indices((2, 2, 2)).sum(axis=0) % 2

# Error outcomes (x, t, t', y) of basis_error_rate, in lex order.
_ODD_16 = np.indices((2,) * 4).sum(axis=0).reshape(16) % 2 == 1

# _KEY_PROJECTORS[u, x] projects (A, B) onto Alice's bit x in basis u.
_KEY_PROJECTORS = np.array(
    [[np.kron(bb84_projector(u, x), np.eye(2)) for x in (0, 1)] for u in (0, 1)]
)


def twirl(rho: np.ndarray) -> np.ndarray:
    """Average rho over correlated Pauli conjugations in both links.

    The result is diagonal in the tensored Bell basis with the same
    Bell-basis diagonal as the input.
    """
    if rho.shape != (16, 16):
        raise ValueError(f"twirl expects a 16x16 matrix, got shape {rho.shape}")
    u = _TWIRL_UNITARIES
    return (u @ rho @ u.conj().transpose(0, 2, 1)).mean(axis=0)


def _as_alpha(alpha) -> np.ndarray:
    arr = np.asarray(alpha, dtype=float).reshape(-1)
    if arr.size != 16:
        raise ValueError(f"Bell-diagonal weights must have 16 entries, got {arr.size}")
    if arr.min() < -1e-12:
        raise ValueError("Bell-diagonal weights must be non-negative")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError(f"Bell-diagonal weights must sum to 1, got {arr.sum()}")
    return np.clip(arr, 0.0, None)


def bell_diagonal_to_density(alpha) -> np.ndarray:
    """Four-qubit state sum alpha_{a,b,a',b'} |Phi_{a,b}><Phi_{a,b}| x
    |Phi_{a',b'}><Phi_{a',b'}|; a fixed point of the twirl.

    ``alpha`` is 16 non-negative weights in (a, b, a', b') lex order.
    """
    arr = _as_alpha(alpha)
    return (_BELL_BASIS_16 * arr) @ _BELL_BASIS_16.conj().T


def basis_error_rate(rho: np.ndarray, u1: int, u2: int) -> float:
    """Error rate between Alice's bit and Bob's parity-corrected bit.

    A and T are measured in basis u1, T' and B in basis u2; the node
    announces b = t + t', Bob corrects y -> y + b, and an error is any
    outcome quadruple with x + y + t + t' odd (all sums mod 2).
    """
    if rho.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {rho.shape}")
    bra = _multi_kron(_BB84_BRA[u1], _BB84_BRA[u1], _BB84_BRA[u2], _BB84_BRA[u2])
    outcome_probs = np.real(((bra @ rho) * bra.conj()).sum(axis=1))
    return min(max(float(outcome_probs[_ODD_16].sum()), 0.0), 1.0)


def _entropy(eigvals: np.ndarray) -> float:
    # -sum_i lambda_i log2 lambda_i with 0 log 0 = 0; eigenvalues in
    # [-PSD_TOL, 0) are round-off, anything more negative is rejected.
    if eigvals.min() < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {eigvals.min()}")
    nonzero = eigvals[eigvals > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i, with 0 log 0 = 0.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything more negative
    is rejected.
    """
    return _entropy(np.linalg.eigvalsh(rho))


def _branches(alpha, u1: int, u2: int) -> np.ndarray:
    # Unnormalised (A, B, E) state left by each rotated-Bell announcement,
    # axes (a, b, A, B, E), from the canonical purification
    # |Psi> = sum_i sqrt(alpha_i) |i>_{ATT'B} |i>_E; the eigenvectors i are
    # the tensored Bell basis.  Each squared norm, the announcement
    # probability, is 1/4, since the node's two qubits are maximally mixed.
    psi = (_BELL_BASIS_16 * np.sqrt(_as_alpha(alpha))).reshape(2, 2, 2, 2, 16)
    return np.einsum("abtu,AtuBe->abABe", _ROTATED_BELL_BRA[u1, u2], psi)


def bell_announcement_stats(alpha, u1: int, u2: int):
    """Statistics of the node's rotated-Bell measurement on a Bell-diagonal
    state.

    Returns ``(p, e)`` as (2, 2) arrays over the announcement (a, b):
    ``p[a, b]`` is the outcome probability, ``e[a, b]`` the conditional
    error rate between Alice's bit (basis u1) and Bob's b-corrected bit
    (basis u2).
    """
    amps = np.einsum(
        "xA,yB,abABe->abxye", _BB84_BRA[u1], _BB84_BRA[u2], _branches(alpha, u1, u2)
    )
    joint = (np.abs(amps) ** 2).sum(axis=-1)  # a, b, x, y
    p = joint.sum(axis=(2, 3))
    return p, (joint * _ODD).sum(axis=(2, 3)) / p


def conditional_end_user_state(
    alpha, u1: int, u2: int, a: int, b: int
) -> tuple[float, np.ndarray]:
    """Probability of announcement (a, b) and the conditional state on A, B.

    The node projects its two qubits onto the (a, b) element of the rotated
    Bell basis for (u1, u2).  Conditioned states obey the relabeling
    symmetry: the result at (u1, u2, a, b) equals the one at the
    complementary bases with (a, b) swapped.
    """
    flat = _branches(alpha, u1, u2)[a, b].reshape(4, 16)
    p_ab = float(np.real(np.vdot(flat, flat)))
    return p_ab, (flat @ flat.conj().T) / p_ab


def holevo_oracle(alpha, u1: int, u2: int) -> float:
    """Holevo quantity chi(X : E, announcements) for a Bell-diagonal state.

    Eve holds the purifying register of the canonical purification plus the
    classical announcement register carrying the full rotated-Bell outcome
    (a, b); X is Alice's key bit from measuring her qubit in basis u1.
    chi = S(E, ab) - sum_x p_x S(E, ab | x), each a classical-quantum
    entropy over the announcement blocks.
    """
    # Row 0: the branches; rows 1, 2: the branches with Alice's qubit
    # projected onto her bit x = 0, 1.  Each branch is pure on (A, B, E), so
    # Eve's block shares its nonzero spectrum with the branch's 4x4 Gram
    # matrix on (A, B); in rows 1, 2 that is the spectrum of the 2x2 Gram
    # matrix on B.
    flat = _branches(alpha, u1, u2).reshape(1, 2, 2, 4, 16)
    amps = np.concatenate([flat, _KEY_PROJECTORS[u1][:, None, None] @ flat])
    eig = np.linalg.eigvalsh(amps @ amps.conj().swapaxes(-1, -2)).reshape(3, 16)
    weight = eig.sum(axis=1)  # total, p_0, p_1
    s_all, s_0, s_1 = (_entropy(lam / w) for lam, w in zip(eig, weight))
    return max(0.0, s_all - weight[1] * s_0 - weight[2] * s_1)


def holevo_bound(alpha, u1: int, u2: int) -> float:
    """Entropic upper bound certified by the oracle.

    The announcement-conditioned states at (u1, u2, a, b) coincide with
    those at the complementary bases with (a, b) swapped, so the bound is
    sum_{a,b} p(a,b | u1,u2) h(e(b,a | complementary bases)).
    """
    p, _ = bell_announcement_stats(alpha, u1, u2)
    _, e_comp = bell_announcement_stats(alpha, u1 ^ 1, u2 ^ 1)
    total = 0.0
    for a, b in itertools.product((0, 1), repeat=2):
        total += p[a, b] * binary_entropy(min(max(e_comp[b, a], 0.0), 1.0))
    return total


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    """Random Bell-diagonal weight vector (flat Dirichlet)."""
    return rng.dirichlet(np.ones(16))
