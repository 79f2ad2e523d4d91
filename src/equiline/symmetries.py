"""Symmetry unitaries of the constructed line sets.

Every constructed family carries a regular translation action (the group
orbit structure of the lines) plus a geometry action fixing the base line:
hyperplane-coordinate permutations from quadratic-space transvections for the
sign-matrix case, conjugation-induced maps from the displacement-normalizing
unitaries for the odd-prime case, and stabilizing qubit Clifford words found
by seeded search for the two fiducial-orbit cases.

The search draws its words as one Generator.integers call per length and one
per word's letters would, but decodes a block of them from one bulk draw of
the generator's uint32 stream.  It stops when the orbit of the ordered pair
(0, 1) holds every pair of distinct lines, that is, when the group is
2-transitive; the stabilizer chain is left to action_certificate.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .action import NotASymmetry, Perm, close_permutations, induced_permutation
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
_CLIFFORD_BLOCK = 32
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


def _qubit_clifford_generators(k: int) -> list[np.ndarray]:
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s1 = np.diag([1.0, 1j])
    gens = []
    for i in range(k):
        for g in (h1, s1):
            M = np.eye(1, dtype=complex)
            for j in range(k):
                M = np.kron(M, g if j == i else np.eye(2))
            gens.append(M)
    x = np.arange(1 << k)
    for ctrl in range(k):
        for tgt in range(k):
            if ctrl != tgt:
                cb, tb = 1 << (k - 1 - ctrl), 1 << (k - 1 - tgt)
                gens.append(monomial_matrix(x ^ np.where(x & cb, tb, 0), 1.0 + 0j))
    return gens


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
    lengths, length_at = _bounded(x, _CLIFFORD_MAX_LENGTH - 3)
    values, letter_at = _bounded(x, letters)
    # the first kept draw at or after each position, as an index into *_at
    # (the position itself when no draw is rejected, the common case)
    everywhere = range(len(x) + 1)
    first_length, first_letter = (
        everywhere if len(at) == len(x) else np.searchsorted(at, everywhere).tolist()
        for at in (length_at, letter_at)
    )
    starts, sizes, used = [], [], 0
    for _ in range(count):
        i = first_length[used]
        if i == len(length_at):
            return None
        at = int(length_at[i])
        start, size = first_letter[at + 1], 4 + int(lengths[at])
        if start + size > len(letter_at):
            return None
        starts.append(start)
        sizes.append(size)
        used = int(letter_at[start + size - 1]) + 1
    cols = np.arange(_CLIFFORD_MAX_LENGTH)
    valid = cols < np.array(sizes)[:, None]
    picks = letter_at[np.where(valid, np.array(starts)[:, None] + cols, 0)]
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


class _PairOrbit:
    """The orbit of the ordered pair (0, 1) under the group generated by the
    permutations added so far, as an n x n mask; the group is 2-transitive iff
    the orbit holds all n (n - 1) pairs of distinct points.

    Each `add` applies the new generator to every pair reached, then every
    generator to the pairs each round first reaches, one generator at a time,
    so no temporary is larger than one generator's image of a frontier."""

    def __init__(self, n: int):
        self.n = n
        self.gens: list[np.ndarray] = []
        self.reach = np.zeros((n, n), dtype=bool)
        if n >= 2:
            self.reach[0, 1] = True

    @property
    def two_transitive(self) -> bool:
        return self.n >= 2 and np.count_nonzero(self.reach) == self.n * (self.n - 1)

    def add(self, perm: Perm) -> None:
        g = np.array(perm, dtype=np.intp)
        self.gens.append(g)
        frontier, movers = np.nonzero(self.reach), [g]
        while frontier[0].size:
            reached = []
            for p in movers:
                a, b = p[frontier[0]], p[frontier[1]]
                new = ~self.reach[a, b]
                a, b = a[new], b[new]
                self.reach[a, b] = True
                reached.append((a, b))
            frontier, movers = tuple(map(np.concatenate, zip(*reached))), self.gens


def _line0_candidates(lines: LineSet, stack: np.ndarray, words: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the words (rows of letters, applied first to last) whose image of
    line 0 comes within tol + 1e-6 of some line.

    A word fails induced_permutation's line-0 test unless some overlap reaches
    1 - tol; the 1e-6 margin is far above the rounding of a few dozen 8 x 8
    products, so a word dropped here fails the exact test too."""
    x = np.broadcast_to(lines.vectors[:, 0], (len(words), lines.d))
    for letter in words.T:
        x = np.einsum("wij,wj->wi", stack[letter], x)
    return (np.abs(x.conj() @ lines.vectors) >= 1.0 - tol - 1e-6).any(axis=1)


def _clifford_symmetries(lines: LineSet) -> list[np.ndarray]:
    """Seeded scan of Clifford words for unitaries permuting the orbit lines,
    stopping once, together with the translations, they act 2-transitively.

    The words are drawn and tested at line 0 a block at a time; each word that
    passes is multiplied out and matched by induced_permutation, in draw order.
    The stop test is the orbit of the pair (0, 1) (_PairOrbit), so the one
    stabilizer chain is the one action_certificate builds."""
    k = lines.d.bit_length() - 1
    gens = _qubit_clifford_generators(k)
    stack = np.stack(gens + [np.eye(lines.d, dtype=complex)])  # the last pads words
    blocks = _clifford_words(np.random.default_rng(CLIFFORD_SEARCH_SEED), len(gens))
    perms = [induced_permutation(lines, U, _CLIFFORD_TOL) for U in translation_unitaries(lines)]
    orbit = _PairOrbit(lines.n)
    for perm in perms:
        orbit.add(perm)
    found: list[np.ndarray] = []
    seen: set[Perm] = set(perms)
    for start in range(0, _CLIFFORD_MAX_TRIALS, _CLIFFORD_BLOCK):
        if orbit.two_transitive:
            return found
        words = next(blocks)[: _CLIFFORD_MAX_TRIALS - start]
        for word in words[_line0_candidates(lines, stack, words, _CLIFFORD_TOL)]:
            U = np.eye(lines.d, dtype=complex)
            for idx in word[word < len(gens)]:
                U = gens[idx] @ U
            try:
                perm = induced_permutation(lines, U, _CLIFFORD_TOL)
            except NotASymmetry:
                continue
            if perm not in seen:
                seen.add(perm)
                orbit.add(perm)
                found.append(U)
                if orbit.two_transitive:
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
