"""Exact finite-dimensional qubit algebra for the relay security analysis.

Everything here is dense, exact linear algebra on at most four qubits plus a
16-dimensional purifying register: Bell states and their basis-rotated
variants, the correlated-Pauli twirl that projects a four-qubit state onto
the Bell-diagonal family, basis-dependent error-rate functionals, and a
numerical Holevo oracle that certifies the entropic bound used by the
key-rate formulas.  The dense Pauli unitaries and BB84 signal states are
the tests' reference constructions.

The security quantities of a Bell-diagonal state all come from one integer
map, ``_BRANCH_CELL``.  Projecting the node's qubits onto announcement
(a, b) leaves each tensored Bell state as one vector of the rotated Bell
basis on Alice's and Bob's qubits (A, B), with weight 1/4 (entanglement
swapping); the map names that vector, by an XOR of Bell and announcement
bits.  The announcement statistics and the states left on (A, B) are linear
in the 16 Bell weights, so each is a table of constant weights placed by the
map (0 or 1/4, and 1/8 for Alice's and Bob's outcomes) and contracted with
the weights.  The Holevo oracle never forms Eve's 16x16 states: the
canonical purification is pure on (A, B, E) for each announcement, also
once Alice's bit is fixed, so Eve's state has the nonzero spectrum of the
branch's state on (A, B), or on B.  Those states are diagonal in the
rotated Bell basis, and in Bob's basis once Alice's bit is fixed, so their
spectra are tables as well: the oracle needs no eigensolver.

Every kernel that takes Bell weights also takes a stack of states, an array
of shape (..., 16), and returns one result per state; a single 16-vector
gives floats and (2, 2) arrays.  Likewise the density-matrix kernels,
``twirl`` and ``basis_error_rate``, take one 16x16 matrix or a (..., 16, 16)
stack, and both read a second integer map, ``_PAIR_COL`` with its signs:
each of the 16 correlated Pauli pairs U_{r,s} x U_{r,s} x U_{r',s'} x
U_{r',s'} has one entry +-1 per row i, at column p(i).  Conjugation by a
pair therefore permutes the matrix entries and flips some signs, so the
twirl gathers the entries with a sign per entry for each pair and sums the
terms in the pairs' order, with exactly the result of the matrix products.
The basis error rate is (1 - Tr(rho O)) / 2, where the outcome parity O is
itself a pair, Z x Z on a Z link and X x X on an X link, so the trace is a
gather of 16 signed entries of rho.  Two Paulis commute or anticommute, so
O commutes with every pair (on each link the two signs cancel): each
conjugation keeps Tr(rho O), and the twirl keeps every basis error rate.

Qubit ordering throughout is (A, T, T', B): Alice's half of the first link,
the node's receive and send halves, Bob's half of the second link.  All
functions are pure; logs are base 2.
"""

from __future__ import annotations

import numpy as np

from .keyrate import binary_entropy

__all__ = [
    "bell_vector",
    "rotated_bell_basis",
    "twirl",
    "bell_diagonal_to_density",
    "tensored_bell_basis_matrix",
    "basis_error_rate",
    "bell_announcement_stats",
    "conditional_end_user_state",
    "holevo_oracle",
    "holevo_bound",
    "random_density_matrix",
    "random_bell_diagonal",
]

# Eigenvalues down to -PSD_TOL are round-off and count as zero.
PSD_TOL = 1e-10

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def bell_vector(a: int, b: int) -> np.ndarray:
    """Bell state |Phi_{a,b}> = (1/sqrt 2) sum_k (-1)^{ak} |k+b>|k>."""
    out = np.zeros(4, dtype=complex)
    for k in (0, 1):
        out[2 * (k ^ b) + k] = (-1.0) ** (a * k)
    return out / np.sqrt(2.0)


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


def tensored_bell_basis_matrix() -> np.ndarray:
    """Unitary whose columns are |Phi_{a,b}>_{A,T} x |Phi_{a',b'}>_{T',B},
    (a, b, a', b') in lex order."""
    bell4 = np.column_stack([bell_vector(a, b) for a in (0, 1) for b in (0, 1)])
    return np.kron(bell4, bell4)


_BELL_BASIS_16 = tensored_bell_basis_matrix()

def _pauli_pairs() -> tuple[np.ndarray, np.ndarray]:
    # [k, i] -> p(i) and the sign of row i's entry in correlated Pauli pair
    # k = 8r + 4s + 2r' + s', U_{r,s} x U_{r,s} x U_{r',s'} x U_{r',s'}:
    # p(i) = i + (r, r, r', r') bitwise, with sign
    # (-1)^(s (p_A + p_T) + s' (p_T' + p_B)), p's bits in order (A, T, T', B).
    r, s, rp, sp, i = np.indices((2, 2, 2, 2, 16)).reshape(5, 16, 16)
    col = i ^ (12 * r + 3 * rp)
    parity = (s & ((col >> 3) ^ (col >> 2))) ^ (sp & ((col >> 1) ^ col))
    return col, 1.0 - 2.0 * (parity & 1)


_PAIR_COL, _PAIR_SIGN = _pauli_pairs()

# _TWIRL_INDEX[k], _TWIRL_SIGN[k]: the conjugation by pair k as a gather of
# the flattened 16x16 matrix and a sign per entry, since
# (U rho U^dag)[i, j] = s_i s_j rho[p(i), p(j)].
_TWIRL_INDEX = (16 * _PAIR_COL[:, :, None] + _PAIR_COL[:, None, :]).reshape(16, 256)
_TWIRL_SIGN = (_PAIR_SIGN[:, :, None] * _PAIR_SIGN[:, None, :]).reshape(16, 256)

# _PARITY_INDEX[u1, u2], _PARITY_SIGN[u1, u2]: the outcome parity
# O = (-1)^(x + t + t' + y) of basis_error_rate, Z x Z on a Z link (u = 0)
# and X x X on an X link (u = 1), which is pair (u1, 1 - u1, u2, 1 - u2), as
# the flat index 16 i + p(i) and the sign s_i of its 16 entries: O is
# Hermitian, so Tr(rho O) = sum_i s_i rho[i, p(i)].  The 8 odd outcomes'
# projectors sum to (1 - O) / 2.
_PARITY_PAIR = 5 + 4 * np.arange(2)[:, None] + np.arange(2)
_PARITY_INDEX = 16 * np.arange(16) + _PAIR_COL[_PARITY_PAIR]
_PARITY_SIGN = _PAIR_SIGN[_PARITY_PAIR]

# Entanglement swapping (Zukowski et al., PRL 71, 4287, 1993): the node's
# (a, b) bra in bases (u1, u2), applied to the node's qubits (T, T') of
# tensored Bell state i = 8 a1 + 4 b1 + 2 a2 + b2, leaves 1/2 times one
# vector of the rotated Bell basis of (u1, u2) on (A, B), up to a phase: the
# (c, d) vector, with (sums mod 2)
#   c = (u1 ? b1 : a1) + (u2 ? b2 : a2) + a,
#   d = (u1 ? a1 : b1) + (u2 ? a2 : b2) + b.
# A Hadamard on both halves of a link exchanges its two Bell bits, and the
# Pauli frames of the two links and of the announcement compose by XOR.


def _swap_cells() -> np.ndarray:
    # [u1, u2, i, a, b] -> 2 c + d.
    u1, u2, a1, b1, a2, b2, a, b = np.indices((2,) * 8)
    c = np.where(u1, b1, a1) ^ np.where(u2, b2, a2) ^ a
    d = np.where(u1, a1, b1) ^ np.where(u2, a2, b2) ^ b
    return (2 * c + d).reshape(2, 2, 16, 2, 2)


_BRANCH_CELL = _swap_cells()


def _branch_tables(cell: np.ndarray) -> tuple[np.ndarray, ...]:
    # The tables below from a cell map of _BRANCH_CELL's shape.
    bases = np.array([[rotated_bell_basis(u1, u2) for u2 in (0, 1)] for u1 in (0, 1)])
    projectors = bases[..., :, None] * bases[..., None, :].conj() / 4
    u1, u2 = np.indices(cell.shape)[:2]
    d = cell & 1
    return (
        projectors[u1, u2, cell],
        np.where(cell[..., None] == np.arange(4), 0.25, 0.0),
        np.where(d[..., None, None] == np.arange(2)[:, None] ^ np.arange(2), 0.125, 0.0),
        np.stack((np.full(cell.shape, 0.25), 0.25 * (d ^ np.arange(2))), axis=-1),
    )


# Tables over (u1, u2, i, a, b, ...), each linear in the weights alpha_i:
# _BRANCH_STATES[..., AB, A'B'], the unnormalised state on (A, B) left by
# announcement (a, b), 1/4 times the projector onto the cell's vector;
# _BRANCH_SPECTRA[..., c, d], its spectrum, 1/4 at the cell;
# _SIGNAL_PROBS[..., x, y], the probability of (a, b) with outcomes x, y of
# Alice and Bob in bases u1, u2, 1/8 where x + y = d; and
# _ANNOUNCEMENT_TABLE[..., k], the probability of (a, b) (k = 0) and of
# (a, b) with Alice's and Bob's corrected bits disagreeing, x + y + b = d + b
# odd (k = 1).  Once Alice's qubit is projected onto her key bit x, the state
# on B is diagonal in Bob's basis u2, so _SIGNAL_PROBS[..., x, :] is also its
# spectrum.
_BRANCH_STATES, _BRANCH_SPECTRA, _SIGNAL_PROBS, _ANNOUNCEMENT_TABLE = _branch_tables(_BRANCH_CELL)


def _unstack(x: np.ndarray) -> float | np.ndarray:
    """A float for the result of one state, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _as_matrices(rho) -> np.ndarray:
    # A 16x16 matrix or a (..., 16, 16) stack of them.
    arr = np.asarray(rho, dtype=complex)
    if arr.shape[-2:] != (16, 16):
        raise ValueError(f"expected 16x16 matrices, got shape {arr.shape}")
    return arr


def twirl(rho) -> np.ndarray:
    """Average rho over correlated Pauli conjugations in both links.

    The result is diagonal in the tensored Bell basis with the same
    Bell-basis diagonal as the input.  A (..., 16, 16) stack gives one
    twirled matrix per input matrix.
    """
    arr = _as_matrices(rho)
    flat = arr.reshape(arr.shape[:-2] + (256,))
    # Each term and their sum in pair order are exactly those of the matrix
    # products.  One gather per pair holds one term at a time, not 16.
    total = np.zeros_like(flat)
    for index, sign in zip(_TWIRL_INDEX, _TWIRL_SIGN):
        term = np.take(flat, index, axis=-1)
        term *= sign
        total += term
    return (total / len(_TWIRL_INDEX)).reshape(arr.shape)


def _as_alpha(alpha) -> np.ndarray:
    # Every row of a (..., 16) stack must be a probability vector; nan fails.
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 16:
        raise ValueError(
            f"Bell-diagonal weights must have 16 entries per state, got shape {arr.shape}"
        )
    if not (arr >= -1e-12).all():
        raise ValueError("Bell-diagonal weights must be non-negative")
    sums = arr.sum(axis=-1, keepdims=True)
    bad = ~(np.abs(sums - 1.0) <= 1e-12)
    if bad.any():
        raise ValueError(f"Bell-diagonal weights must sum to 1, got {sums[bad][0]}")
    return np.clip(arr, 0.0, None)


def bell_diagonal_to_density(alpha) -> np.ndarray:
    """Four-qubit state sum alpha_{a,b,a',b'} |Phi_{a,b}><Phi_{a,b}| x
    |Phi_{a',b'}><Phi_{a',b'}|; a fixed point of the twirl.

    ``alpha`` is 16 non-negative weights in (a, b, a', b') lex order; a
    (..., 16) stack gives a (..., 16, 16) stack of states.
    """
    arr = _as_alpha(alpha)
    return (_BELL_BASIS_16 * arr[..., None, :]) @ _BELL_BASIS_16.conj().T


def basis_error_rate(rho, u1: int, u2: int) -> float | np.ndarray:
    """Error rate between Alice's bit and Bob's parity-corrected bit.

    A and T are measured in basis u1, T' and B in basis u2; the node
    announces b = t + t', Bob corrects y -> y + b, and an error is any
    outcome quadruple with x + y + t + t' odd (all sums mod 2).  rho has
    unit trace; a (..., 16, 16) stack gives one rate per matrix.
    """
    arr = _as_matrices(rho)
    flat = arr.reshape(arr.shape[:-2] + (256,))
    entries = np.take(flat, _PARITY_INDEX[u1, u2], axis=-1)
    parity = np.real((entries * _PARITY_SIGN[u1, u2]).sum(axis=-1))
    return _unstack(np.clip((1.0 - parity) / 2, 0.0, 1.0))


def _entropy(eigvals: np.ndarray) -> np.ndarray:
    # -sum_i lambda_i log2 lambda_i over the last axis, with 0 log 0 = 0;
    # eigenvalues in [-PSD_TOL, 0) are round-off, anything more negative is
    # rejected.
    if (eigvals < -PSD_TOL).any():
        raise ValueError(f"matrix is not PSD: min eigenvalue {eigvals.min()}")
    logs = np.log2(eigvals, out=np.zeros_like(eigvals), where=eigvals > 0.0)
    return -(eigvals * logs).sum(axis=-1)


def _per_state(alpha, table: np.ndarray) -> np.ndarray:
    # Contract the weights of each state, shape (..., 16), with a table whose
    # first axis is the tensored Bell state i.  The tables come from the
    # canonical purification |Psi> = sum_i sqrt(alpha_i) |i>_{ATT'B} |i>_E
    # with the node's qubits projected: each branch state is sum_i alpha_i
    # |amp_i><amp_i|.  Every announcement has probability 1/4, since the
    # node's two qubits are maximally mixed.
    arr = _as_alpha(alpha)
    return (arr @ table.reshape(16, -1)).reshape(arr.shape[:-1] + table.shape[1:])


def bell_announcement_stats(alpha, u1: int, u2: int):
    """Statistics of the node's rotated-Bell measurement on a Bell-diagonal
    state.

    Returns ``(p, e)`` as (..., 2, 2) arrays over the announcement (a, b):
    ``p[a, b]`` is the outcome probability, ``e[a, b]`` the conditional
    error rate between Alice's bit (basis u1) and Bob's b-corrected bit
    (basis u2).
    """
    stats = _per_state(alpha, _ANNOUNCEMENT_TABLE[u1, u2])  # ..., a, b, k
    p = stats[..., 0]
    return p, stats[..., 1] / p


def conditional_end_user_state(alpha, u1: int, u2: int, a: int, b: int):
    """Probability of announcement (a, b) and the conditional state on A, B.

    The node projects its two qubits onto the (a, b) element of the rotated
    Bell basis for (u1, u2).  Conditioned states obey the relabeling
    symmetry: the result at (u1, u2, a, b) equals the one at the
    complementary bases with (a, b) swapped.  A stack of states gives an
    array of probabilities and a (..., 4, 4) array of states.
    """
    state = _per_state(alpha, _BRANCH_STATES[u1, u2, :, a, b])
    p_ab = np.real(np.trace(state, axis1=-2, axis2=-1))
    return _unstack(p_ab), state / p_ab[..., None, None]


def holevo_oracle(alpha, u1: int, u2: int) -> float | np.ndarray:
    """Holevo quantity chi(X : E, announcements) for a Bell-diagonal state.

    Eve holds the purifying register of the canonical purification plus the
    classical announcement register carrying the full rotated-Bell outcome
    (a, b); X is Alice's key bit from measuring her qubit in basis u1.
    chi = S(E, ab) - sum_x p_x S(E, ab | x), each a classical-quantum
    entropy over the announcement blocks.
    """
    # Each branch is pure on (A, B, E), so Eve's block shares its nonzero
    # spectrum with the branch state on (A, B); once Alice's bit x is fixed,
    # with the branch state on B.  Both are diagonal in fixed bases, so their
    # spectra are tables contracted with the weights, with no eigensolver.
    eig = _per_state(alpha, _BRANCH_SPECTRA[u1, u2])
    eig = eig.reshape(eig.shape[:-3] + (16,))
    eig_x = _per_state(alpha, _SIGNAL_PROBS[u1, u2].transpose(0, 3, 1, 2, 4))
    eig_x = eig_x.reshape(eig_x.shape[:-4] + (2, 8))  # ..., x, eigenvalue
    p_x = eig_x.sum(axis=-1)
    s_all = _entropy(eig / eig.sum(axis=-1, keepdims=True))
    s_x = _entropy(eig_x / p_x[..., None])
    return _unstack(np.maximum(0.0, s_all - (p_x * s_x).sum(axis=-1)))


def holevo_bound(alpha, u1: int, u2: int) -> float | np.ndarray:
    """Entropic upper bound certified by the oracle.

    The announcement-conditioned states at (u1, u2, a, b) coincide with
    those at the complementary bases with (a, b) swapped, so the bound is
    sum_{a,b} p(a,b | u1,u2) h(e(b,a | complementary bases)).
    """
    p, _ = bell_announcement_stats(alpha, u1, u2)
    _, e_comp = bell_announcement_stats(alpha, u1 ^ 1, u2 ^ 1)
    h = binary_entropy(np.clip(e_comp.swapaxes(-1, -2), 0.0, 1.0))
    return _unstack((p * h).sum(axis=(-2, -1)))


def random_density_matrix(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-ish random full-rank 16x16 density matrix (Ginibre construction);
    a (size, 16, 16) stack, drawn as ``size`` single draws are, if ``size``
    is given."""
    parts = rng.normal(size=(2, 16, 16) if size is None else (size, 2, 16, 16))
    g = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def random_bell_diagonal(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random Bell-diagonal weight vector (flat Dirichlet); a (size, 16)
    stack if ``size`` is given."""
    return rng.dirichlet(np.ones(16), size=size)
