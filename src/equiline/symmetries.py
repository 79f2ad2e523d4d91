"""Symmetry unitaries of the constructed line sets.

Every constructed family carries a regular translation action (the group
orbit structure of the lines) plus a geometry action fixing the base line:
hyperplane-coordinate permutations from quadratic-space transvections for the
sign-matrix case, conjugation-induced maps from the displacement-normalizing
unitaries for the odd-prime case, and stabilizing qubit Clifford words found
by seeded search for the two fiducial-orbit cases.

The search draws its words as one Generator.integers call per length and one
per word's letters would, but decodes a block of them from one bulk draw of
the generator's uint32 stream.  Every Clifford word normalizes the Pauli
translations, so a word that permutes the lines acts on their labels as an
affine map x -> S x + b over F_2, whose linear part is the permutation
x -> g[x] XOR g[0].  With the translations in the group, the group is
2-transitive iff the linear parts move line 1 to all n - 1 lines other than
line 0 (see equiline.action), and the search stops when that orbit is full;
the stabilizer chain is left to action_certificate.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .action import (
    NotASymmetry,
    Perm,
    _unit_translations,
    close_permutations,
    induced_permutation,
)
from .finfield import (
    HyperplaneType,
    dot2,
    enumerate_hyperplanes,
    nonsingular_vectors,
    standard_form,
)
from .heisenberg import monomial_matrix
from .lineset import LineSet, _case, line_translations
from .weil import induced_symplectic, parity_split, weil_generators

__all__ = [
    "translation_unitaries",
    "geometry_unitaries",
    "symmetry_unitaries",
    "stabilizer_unitaries",
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
# Words have 4 to _CLIFFORD_MAX_LENGTH letters, and are drawn and tested at
# line 0 _CLIFFORD_BLOCK at a time; a block takes at most _CLIFFORD_BLOCK_DRAWS
# uint32 draws unless some are rejected.
_CLIFFORD_MAX_LENGTH = 24
_CLIFFORD_BLOCK = 64
_CLIFFORD_BLOCK_DRAWS = _CLIFFORD_BLOCK * (_CLIFFORD_MAX_LENGTH + 1)


def translation_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Generators of the regular translation action: generator i translates by
    the i-th unit label, element p^(r-1-i) of the r-dimensional label space."""
    _, p, m = _case(lines)
    return list(monomial_matrix(*line_translations(lines, p ** np.arange(2 * m - 1, -1, -1))))


def _transvection_perms(m: int, tag: HyperplaneType) -> list[Perm]:
    """Coordinate permutations of the chosen-type hyperplanes under all
    transvections of the quadratic space."""
    q = standard_form(m)
    phis = enumerate_hyperplanes(q, tag)
    index = {phi: i for i, phi in enumerate(phis)}
    perms = []
    for u in nonsingular_vectors(q):
        # transvection_on_functional, with the functional B(., u) formed once
        mask = q.bilinear_mask(u)
        perms.append(tuple(index[phi ^ mask if dot2(phi, u) else phi] for phi in phis))
    return perms


def _weil_kron(lines: LineSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs (S, U (x) conj(R)) over the displacement normalizers U: S is the
    label map of U (weil.induced_symplectic) and U (x) conj(R) the line-space
    unitary, where R is the compression of U to the fiducial eigenspace."""
    p, m = lines.meta["p"], lines.meta["m"]
    even, odd = parity_split(p, m)
    iota = odd if HyperplaneType(lines.meta["eigen"]) is HyperplaneType.MINUS else even
    out = []
    for U in weil_generators(p, m):
        R = iota.conj().T @ U @ iota
        if np.abs(R @ R.conj().T - np.eye(R.shape[0])).max() > 1e-8:
            raise ValueError("eigenspace compression of a normalizer is not unitary")
        out.append((induced_symplectic(U, p, m), np.kron(U, R.conj())))
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


def _bounded(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(0, r) of each uint32 draw in x (as uint64), by
    Lemire's multiply-shift (x r) >> 32, and the positions of the draws it
    keeps: numpy draws again exactly when (x r) mod 2^32 < (2^32 - r) mod r."""
    m = x * np.uint64(r)
    return m >> 32, np.flatnonzero((m & 0xFFFFFFFF) >= ((1 << 32) - r) % r)


def _decode_words(raw: np.ndarray, letters: int, count: int) -> tuple[np.ndarray, int] | None:
    """The first count words of the uint32 stream raw, as the scan draws them
    one Generator.integers call at a time (a length in [4,
    _CLIFFORD_MAX_LENGTH], then that many letters below `letters`), padded
    with the index `letters`; returns the words and the draws they use, or
    None if raw runs out first."""
    x = raw.astype(np.uint64)
    lengths, length_kept = _bounded(x, _CLIFFORD_MAX_LENGTH - 3)
    values, letter_kept = _bounded(x, letters)
    # for each kind of draw: the first kept draw at or after each position, as
    # an index into the kept draws, and the position of each kept draw; both
    # are the position itself when no draw is rejected, the common case
    everywhere = range(len(x) + 1)
    (first_length, length_at), (first_letter, letter_at) = (
        (everywhere, everywhere) if len(kept) == len(x)
        else (np.searchsorted(kept, everywhere).tolist(), kept.tolist())
        for kept in (length_kept, letter_kept)
    )
    sizes_at = (lengths + 4).tolist()
    starts, sizes, used = [], [], 0
    for _ in range(count):
        i = first_length[used]
        if i == len(length_kept):
            return None
        at = length_at[i]
        start, size = first_letter[at + 1], sizes_at[at]
        if start + size > len(letter_kept):
            return None
        starts.append(start)
        sizes.append(size)
        used = letter_at[start + size - 1] + 1
    cols = np.arange(_CLIFFORD_MAX_LENGTH)
    valid = cols < np.array(sizes)[:, None]
    picks = np.where(valid, np.array(starts)[:, None] + cols, 0)
    if len(letter_kept) < len(x):
        picks = letter_kept[picks]
    return np.where(valid, values[picks], letters), used


def _clifford_words(rng: np.random.Generator, letters: int) -> Iterator[np.ndarray]:
    """The scan's words, _CLIFFORD_BLOCK at a time, as one rng.integers call
    per length and per word's letters would draw them: each block is decoded
    from bulk draws of rng's uint32 stream, the draws it leaves carried over."""
    raw, need = np.empty(0, dtype=np.uint32), _CLIFFORD_BLOCK_DRAWS
    while True:
        if len(raw) < need:
            more = rng.integers(0, 1 << 32, size=need - len(raw), dtype=np.uint32)
            raw = np.concatenate((raw, more))
        decoded = _decode_words(raw, letters, _CLIFFORD_BLOCK)
        if decoded is None:  # rejected draws left too few for the block
            need += _CLIFFORD_BLOCK_DRAWS
            continue
        words, used = decoded
        raw, need = raw[used:], _CLIFFORD_BLOCK_DRAWS
        yield words


class _LineOrbit:
    """The orbit of line 1 under the group generated by the permutations added
    so far, all of which fix line 0, as a mask of the n lines; with the
    translations, the group they generate is 2-transitive iff the orbit holds
    the n - 1 lines other than line 0 (`complete`).

    Each `add` applies the new permutation to every line reached, then every
    permutation to the lines each round first reaches."""

    def __init__(self, n: int):
        self.n, self.size = n, 1
        self.gens: list[np.ndarray] = []
        self.reach = np.zeros(n, dtype=bool)
        self.reach[1] = True

    @property
    def complete(self) -> bool:
        return self.size == self.n - 1

    def add(self, perm: np.ndarray) -> None:
        self.gens.append(perm)
        frontier, movers = np.flatnonzero(self.reach), [perm]
        while frontier.size:
            reached = []
            for g in movers:
                image = g[frontier]
                image = image[~self.reach[image]]
                self.reach[image] = True
                reached.append(image)
            frontier, movers = np.concatenate(reached), self.gens
            self.size += frontier.size


def _line0_candidates(lines: LineSet, stack: np.ndarray, words: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the words (rows of letters, applied first to last) whose image of
    line 0 comes within tol + 1e-6 of some line.

    A word fails induced_permutation's line-0 test unless some overlap reaches
    1 - tol; the 1e-6 margin is far above the rounding of a few dozen 8 x 8
    products, so a word dropped here fails the exact test too."""
    x = np.broadcast_to(lines.vectors[:, :1], (len(words), lines.d, 1))
    for letter in words.T:
        x = np.matmul(stack[letter], x)
    return (np.abs(x[..., 0].conj() @ lines.vectors) >= 1.0 - tol - 1e-6).any(axis=1)


def _clifford_symmetries(lines: LineSet) -> list[np.ndarray]:
    """Seeded scan of Clifford words for unitaries permuting the orbit lines,
    stopping once, together with the translations, they act 2-transitively.

    The words are drawn and tested at line 0 a block at a time; each word that
    passes is multiplied out and matched by induced_permutation, in draw
    order.  A word is kept unless its permutation is the identity, a unit
    translation (label arithmetic gives those) or one kept before.  The stop
    test is the orbit of line 1 under the linear parts of the words kept
    (_LineOrbit), so the one stabilizer chain is the one action_certificate
    builds."""
    k = lines.d.bit_length() - 1
    letters = _qubit_clifford_generators(k)
    stack = np.concatenate((letters, np.eye(lines.d, dtype=complex)[None]))  # the last pads words
    blocks = _clifford_words(np.random.default_rng(CLIFFORD_SEARCH_SEED), len(letters))
    seen: set[Perm] = {tuple(range(lines.n)), *map(tuple, _unit_translations(2, 2 * k).tolist())}
    orbit = _LineOrbit(lines.n)
    found: list[np.ndarray] = []
    for start in range(0, _CLIFFORD_MAX_TRIALS, _CLIFFORD_BLOCK):
        words = next(blocks)[: _CLIFFORD_MAX_TRIALS - start]
        for word in words[_line0_candidates(lines, stack, words, _CLIFFORD_TOL)]:
            U = np.eye(lines.d, dtype=complex)
            for letter in word[word < len(letters)].tolist():
                U = stack[letter] @ U
            try:
                perm = induced_permutation(lines, U, _CLIFFORD_TOL)
            except NotASymmetry:
                continue
            if perm not in seen:
                seen.add(perm)
                g = np.array(perm)
                orbit.add(g ^ g[0])  # labels add by XOR
                found.append(U)
                if orbit.complete:
                    return found
    raise RuntimeError(
        f"Clifford scan exhausted {_CLIFFORD_MAX_TRIALS} trials without 2-transitivity"
    )


def geometry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Symmetries beyond translations: the label-geometry action."""
    case, _, m = _case(lines)
    if case == "iii":
        perms = _transvection_perms(m, HyperplaneType(lines.meta["type"]))
        return [monomial_matrix(np.array(perm)) for perm in perms]
    if case == "iv":
        return [W for _, W in _weil_kron(lines)]
    return _clifford_symmetries(lines)


def symmetry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Translation generators plus geometry unitaries: a 2-transitive set."""
    return translation_unitaries(lines) + geometry_unitaries(lines)


def stabilizer_unitaries(lines: LineSet) -> tuple[list[np.ndarray], list[complex]]:
    """A line-0 stabilizer subgroup with the phases it takes on the base
    vector, sized for the desk-scale multiplicity certificates.

    Sign-matrix case: the closed group of transvection coordinate
    permutations together with their negatives (phases +-1).  Odd-prime case:
    the closed group of induced normalizer maps, enumerated by their label
    maps (phases read off the base vector).
    """
    case, p, m = _case(lines)
    if case == "iii":
        if m != 2:
            raise ValueError("stabilizer closure is sized for m = 2 only")
        perms = _transvection_perms(2, HyperplaneType(lines.meta["type"]))
        unis = []
        phases = []
        for perm in close_permutations(perms, limit=1000):
            P = monomial_matrix(np.array(perm))
            unis.extend((P, -P))
            phases.extend((1.0, -1.0))
        return unis, phases
    if case == "iv":
        if m != 1:
            raise ValueError("stabilizer closure is sized for m = 1 only")
        # the closure is keyed on the exact label map S, which determines W:
        # the generators commute with parity, so S fixes U up to a phase, and
        # that phase cancels in U (x) conj(R)
        base = _weil_kron(lines)
        closed: list[np.ndarray] = []
        seen: set[bytes] = set()
        frontier = [(np.eye(2 * m, dtype=np.int64), np.eye(lines.d, dtype=complex))]
        while frontier:
            S, W = frontier.pop()
            key = S.tobytes()
            if key in seen:
                continue
            seen.add(key)
            closed.append(W)
            if len(closed) > 1000:
                raise RuntimeError("stabilizer closure exceeded the expected size")
            frontier.extend((G_S @ S % p, G_W @ W) for G_S, G_W in base)
        v0 = lines.vectors[:, 0]
        phases = []
        for W in closed:
            lam = complex(np.vdot(v0, W @ v0))
            if abs(abs(lam) - 1.0) > 1e-8:
                raise NotASymmetry("closure element does not stabilize the base line")
            phases.append(lam)
        return closed, phases
    raise ValueError("stabilizer closure is provided for the algebraic cases only")
