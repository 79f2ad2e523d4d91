"""Symmetry unitaries of the constructed line sets.

Every constructed family carries a regular translation action (the group
orbit structure of the lines) plus a geometry action fixing the base line:
hyperplane-coordinate permutations from the quadratic-space transvections
along labels of weight one and two for the sign-matrix case, which act on
line labels as the symplectic transvections along those labels, the 4m - 1
Weil transvections along a symplectic chain and its neighbour sums for the
odd-prime case (equiline.weil), and stabilizing qubit Clifford words found by
seeded search for the two fiducial-orbit cases.

The search draws its words a block at a time, each block of fixed-length
words in one Generator.integers call.  Every Clifford word normalizes the
Pauli translations, so a word that permutes the lines acts on their labels
as an affine map x -> S x + b over F_2, read off its permutation by
action._affine_map as the certificate reads it.  With the translations in
the group, the group is 2-transitive iff the linear parts x -> S x move line
1 to all n - 1 lines other than line 0 (see equiline.action), and the search
stops when that orbit is full; the stabilizer chain is left to
action_certificate.
"""

from __future__ import annotations

import numpy as np

from .action import NotASymmetry, Perm, _affine_map, induced_permutation
from .finfield import HyperplaneType, bilinear_mask, enumerate_hyperplanes, quadratic
from .heisenberg import lex_digits, lex_index, monomial_matrix
from .lineset import LineSet, _case, _shape_in_memory, line_translations
from .weil import parity_split, transvection_unitaries

__all__ = [
    "translation_unitaries",
    "geometry_unitaries",
    "symmetry_unitaries",
    "CLIFFORD_SEARCH_SEED",
]

# Internal seed for the Clifford-word scan; fixed so discovery is reproducible
# and independent of any user-facing seed.
CLIFFORD_SEARCH_SEED = 7
# The scan's word budget, and its matching tolerance.  The tolerance stays at
# 1e-8 whatever `action --tol` is: the scan only searches, and
# action_certificate re-proves every word it keeps at the command's tolerance.
_CLIFFORD_MAX_TRIALS = 5000
_CLIFFORD_TOL = 1e-8
# Words have _CLIFFORD_WORD_LENGTH letters, and are drawn and tested at line 0
# _CLIFFORD_BLOCK at a time.
_CLIFFORD_WORD_LENGTH = 16
_CLIFFORD_BLOCK = 64


def translation_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Dense generators T (x) I_du of the translations (lineset.orbit): generator
    i is the i-th unit label, element p^(r-1-i) of the r-dimensional labels."""
    _, p, m = _case(lines.meta, lines.n, lines.d)
    units = lex_index(np.eye(2 * m, dtype=np.int64), p)
    stack = monomial_matrix(*line_translations(lines, units))
    return [np.kron(T, np.eye(lines.d // len(T))) for T in stack]


def _weight_two_directions(m: int) -> np.ndarray:
    """Packed u with Q(u) = 1, bit 0 set as needed, over the labels e_i, then
    e_i + e_j for i < j in lexicographic order (bits 1..2m, as translations)."""
    units = 2 << np.arange(2 * m)
    i, j = np.triu_indices(2 * m, 1)
    labels = np.concatenate((units, units[i] | units[j]))
    return labels | (quadratic(m, labels) ^ 1)


def _transvection_perms(m: int, tag: HyperplaneType, us) -> list[Perm]:
    """Coordinate permutations of the chosen-type hyperplanes under the
    transvections x -> x + B(x, u) u of the quadratic space, one per
    nonsingular packed u in us, in its order."""
    phis = np.array(enumerate_hyperplanes(m, tag))
    us = np.array(us)[:, None]
    index = np.zeros(1 << (2 * m + 1), dtype=np.intp)
    index[phis] = np.arange(len(phis))
    # the pullback of phi along the transvection of u is phi + phi(u) B(., u)
    images = phis ^ (np.bitwise_count(phis & us) & 1) * bilinear_mask(m, us)
    return list(map(tuple, index[images].tolist()))


def _weil_kron(lines: LineSet) -> list[np.ndarray]:
    """The line-space unitaries U (x) conj(R) of the Weil transvections U
    (equiline.weil), where R is the compression of U to the fiducial
    eigenspace.  U fixes line 0 and sends the line of D(x) to that of
    D(x + omega(x, u) u)."""
    _, p, m = _case(lines.meta, lines.n, lines.d)
    even, odd = parity_split(p, m)
    iota = odd if HyperplaneType(lines.meta["eigen"]) is HyperplaneType.MINUS else even
    out = []
    for U in transvection_unitaries(p, m):
        R = iota.conj().T @ U @ iota
        if np.abs(R @ R.conj().T - np.eye(R.shape[0])).max() > 1e-8:
            raise ValueError("eigenspace compression of a normalizer is not unitary")
        out.append(np.kron(U, R.conj()))
    return out


def _qubit_clifford_generators(k: int) -> np.ndarray:
    """The Clifford letters on k qubits as a stack of 2^k x 2^k matrices: H
    and S on each qubit in turn, then CNOT on each ordered pair of qubits.
    Qubit i is bit k - 1 - i of the basis index."""
    x = np.arange(1 << k)
    bit = (1 << np.arange(k - 1, -1, -1))[:, None, None]
    # <x|H_i|y> = (-1)^(x_i y_i) / sqrt(2) where x and y agree off bit i
    sign = np.where(x[:, None] & x & bit, -1.0, 1.0)
    h = np.where((x[:, None] ^ x) & ~bit == 0, sign / np.sqrt(2), 0.0)
    s = monomial_matrix(np.broadcast_to(x, h.shape[:2]), np.where(x & bit[:, 0], 1j, 1.0))
    pairs = [(c, t) for c in range(k) for t in range(k) if c != t]
    ctrl, tgt = np.array(pairs, dtype=int).reshape(-1, 2).T
    cnot = monomial_matrix(x ^ np.where(x & bit[ctrl, 0], bit[tgt, 0], 0), 1.0 + 0j)
    return np.concatenate((np.stack((h, s), axis=1).reshape(-1, len(x), len(x)), cnot))


def _moves_line1_everywhere(linear: list[np.ndarray], n: int) -> bool:
    """Whether the permutations in linear, all fixing line 0, move line 1 to
    all n - 1 other lines: with the translations, the group they generate is
    then 2-transitive.  The orbit of line 1 is grown until it stops growing."""
    reach = np.zeros(n, dtype=bool)
    reach[1] = True
    while True:
        size = np.count_nonzero(reach)
        for g in linear:
            reach[g[reach]] = True
        if np.count_nonzero(reach) == size:
            return size == n - 1


def _line0_candidates(lines: LineSet, letters: np.ndarray, words: np.ndarray,
                      tol: float) -> np.ndarray:
    """Mask of the words (rows of letters, applied first to last) whose image of
    line 0 comes within tol + 1e-6 of some line.

    A word fails induced_permutation's line-0 test unless some overlap reaches
    1 - tol; the 1e-6 margin is far above the rounding of a few dozen 8 x 8
    products, so a word dropped here fails the exact test too."""
    x = np.broadcast_to(lines.vectors[:, :1], (len(words), lines.d, 1))
    for letter in words.T:
        x = np.matmul(letters[letter], x)
    return (np.abs(x[..., 0].conj() @ lines.vectors) >= 1.0 - tol - 1e-6).any(axis=1)


def _clifford_symmetries(lines: LineSet) -> list[np.ndarray]:
    """Seeded scan of Clifford words for unitaries permuting the orbit lines,
    stopping once, together with the translations, they act 2-transitively.

    The words are drawn and tested at line 0 a block at a time; each word that
    passes is multiplied out and matched by induced_permutation, in draw
    order.  A word is kept when the linear part S of its label map is neither
    the identity (so no word acting as a translation or as the identity) nor
    one kept before.  The stop test is the orbit of line 1 under those linear
    parts (_moves_line1_everywhere), so the one stabilizer chain is the one
    action_certificate builds."""
    k = lines.d.bit_length() - 1
    letters = _qubit_clifford_generators(k)
    labels = lex_digits(2, 2 * k)
    rng = np.random.default_rng(CLIFFORD_SEARCH_SEED)
    seen = {np.eye(2 * k, dtype=np.int64).tobytes()}
    linear: list[np.ndarray] = []
    found: list[np.ndarray] = []
    for start in range(0, _CLIFFORD_MAX_TRIALS, _CLIFFORD_BLOCK):
        words = rng.integers(0, len(letters), size=(_CLIFFORD_BLOCK, _CLIFFORD_WORD_LENGTH))
        words = words[: _CLIFFORD_MAX_TRIALS - start]
        for word in words[_line0_candidates(lines, letters, words, _CLIFFORD_TOL)]:
            U = np.eye(lines.d, dtype=complex)
            for letter in word.tolist():
                U = letters[letter] @ U
            try:
                S, _ = _affine_map(induced_permutation(lines, U, _CLIFFORD_TOL), labels, 2)
            except NotASymmetry:
                continue
            if S.tobytes() not in seen:
                seen.add(S.tobytes())
                linear.append(lex_index(labels @ S.T, 2))
                found.append(U)
                if _moves_line1_everywhere(linear, lines.n):
                    return found
    raise RuntimeError(
        f"Clifford scan exhausted {_CLIFFORD_MAX_TRIALS} trials without 2-transitivity"
    )


def geometry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Symmetries beyond translations: the label-geometry action.  Case iii
    takes the transvections along _weight_two_directions; the one along u maps
    line label x to x + omega(x, a) a, a the label of u.  It raises
    MemoryError, before any is built, when what action then holds would not
    fit: these and the 2m translations as dense float64 d x d matrices, and the
    chain of G_0, linear on F_2^(2m): at most 2m levels that move anything,
    each of at most n points holding two n-tuples of 8-byte references."""
    case, _, m = _case(lines.meta, lines.n, lines.d)
    if case == "iii":
        dense = m * (2 * m + 1) + 2 * m
        _shape_in_memory(f"its {dense} dense {lines.d} x {lines.d} symmetries and their "
                         "stabilizer chain take about {} 8-byte entries, {} bytes", 8,
                         (4 * m + 2,), lambda: (dense * lines.d**2 + 4 * m * lines.n**2,))
        tag = HyperplaneType(lines.meta["type"])
        perms = _transvection_perms(m, tag, _weight_two_directions(m))
        return [monomial_matrix(np.array(perm)) for perm in perms]
    if case == "iv":
        return _weil_kron(lines)
    return _clifford_symmetries(lines)


def symmetry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Translation generators plus geometry unitaries: a 2-transitive set.
    The geometry ones come first, so a set too large for them is refused
    before any dense matrix is built."""
    geometry = geometry_unitaries(lines)
    return translation_unitaries(lines) + geometry
