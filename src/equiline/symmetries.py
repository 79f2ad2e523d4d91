"""Symmetry unitaries of the constructed line sets.

Every constructed family carries a regular translation action (the group
orbit structure of the lines) plus a geometry action fixing the base line:
hyperplane-coordinate permutations from quadratic-space transvections for the
sign-matrix case, conjugation-induced maps from the displacement-normalizing
unitaries for the odd-prime case, and stabilizing qubit Clifford words found
by seeded search for the two fiducial-orbit cases.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .action import NotASymmetry, Perm, StabilizerChain, close_permutations, induced_permutation
from .finfield import (
    HyperplaneType,
    character_value,
    enumerate_hyperplanes,
    nonsingular_vectors,
    standard_form,
    transvection_on_functional,
)
from .heisenberg import displacement
from .lineset import LineSet
from .weil import parity_split, weil_generators

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


def _case(lines: LineSet) -> str:
    case = lines.meta.get("case")
    if case not in ("i", "ii", "iii", "iv"):
        raise ValueError(f"line set carries no construction tag, meta={lines.meta}")
    return case


def _unit_tuples(m: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]


def translation_unitaries(lines: LineSet, full: bool = False) -> list[np.ndarray]:
    """Unitaries realizing the regular translation action on the lines.

    With full=True, one unitary per nonidentity translation (for
    fixed-point-freeness checks); otherwise one per generator of the
    translation group.
    """
    case = _case(lines)
    if case == "iii":
        m = lines.meta["m"]
        q = standard_form(m)
        hyps = enumerate_hyperplanes(q, HyperplaneType(lines.meta["type"]))
        if full:
            shifts = [
                sum(b << (i + 1) for i, b in enumerate(tail))
                for tail in product((0, 1), repeat=2 * m)
            ][1:]
        else:
            shifts = [1 << i for i in range(1, 2 * m + 1)]
        return [
            np.diag([float(character_value(h, f)) for h in hyps]) for f in shifts
        ]
    if case == "iv":
        p, m = lines.meta["p"], lines.meta["m"]
        du = lines.d // p**m
        eye = np.eye(du)
        if full:
            labels = [
                (a, b)
                for a in product(range(p), repeat=m)
                for b in product(range(p), repeat=m)
            ][1:]
        else:
            zero = (0,) * m
            labels = [(u, zero) for u in _unit_tuples(m)] + [
                (zero, u) for u in _unit_tuples(m)
            ]
        return [np.kron(displacement(p, m, a, b), eye) for a, b in labels]
    # fiducial orbits: the displacement operators themselves
    k = lines.d.bit_length() - 1
    if full:
        labels = [
            (a, b)
            for a in product((0, 1), repeat=k)
            for b in product((0, 1), repeat=k)
        ][1:]
    else:
        zero = (0,) * k
        labels = [(u, zero) for u in _unit_tuples(k)] + [
            (zero, u) for u in _unit_tuples(k)
        ]
    return [displacement(2, k, a, b) for a, b in labels]


def _transvection_matrices(m: int, tag: HyperplaneType) -> list[np.ndarray]:
    """Coordinate permutations of the chosen-type hyperplanes under all
    transvections of the quadratic space."""
    q = standard_form(m)
    hyps = enumerate_hyperplanes(q, tag)
    index = {h.functional: i for i, h in enumerate(hyps)}
    d = len(hyps)
    out = []
    for u in nonsingular_vectors(q):
        P = np.zeros((d, d))
        for i, h in enumerate(hyps):
            P[index[transvection_on_functional(q, u, h.functional)], i] = 1.0
        out.append(P)
    return out


def _weil_kron(lines: LineSet) -> list[np.ndarray]:
    """Line-space unitaries U (x) conj(R) induced by the displacement
    normalizers, where R is the compression of U to the fiducial eigenspace."""
    p, m = lines.meta["p"], lines.meta["m"]
    even, odd = parity_split(p, m)
    iota = odd if HyperplaneType(lines.meta["eigen"]) is HyperplaneType.MINUS else even
    out = []
    for U in weil_generators(p, m):
        R = iota.conj().T @ U @ iota
        if np.abs(R @ R.conj().T - np.eye(R.shape[0])).max() > 1e-8:
            raise ValueError("eigenspace compression of a normalizer is not unitary")
        out.append(np.kron(U, R.conj()))
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
    d = 1 << k
    for ctrl in range(k):
        for tgt in range(k):
            if ctrl == tgt:
                continue
            P = np.zeros((d, d), dtype=complex)
            cb, tb = 1 << (k - 1 - ctrl), 1 << (k - 1 - tgt)
            for x in range(d):
                P[x ^ (tb if x & cb else 0), x] = 1.0
            gens.append(P)
    return gens


def _clifford_symmetries(
    lines: LineSet, max_trials: int = 5000, tol: float = 1e-8
) -> list[np.ndarray]:
    """Seeded scan of Clifford words for unitaries permuting the orbit lines,
    stopping once, together with the translations, they act 2-transitively."""
    k = lines.d.bit_length() - 1
    gens = _qubit_clifford_generators(k)
    rng = np.random.default_rng(CLIFFORD_SEARCH_SEED)
    perms = [induced_permutation(lines, U, tol) for U in translation_unitaries(lines)]
    chain = StabilizerChain(perms)
    found: list[np.ndarray] = []
    seen: set[Perm] = set(perms)
    for _ in range(max_trials):
        if chain.two_transitive:
            return found
        length = int(rng.integers(4, 25))
        word = rng.integers(0, len(gens), size=length)
        U = np.eye(lines.d, dtype=complex)
        for idx in word:
            U = gens[idx] @ U
        try:
            perm = induced_permutation(lines, U, tol)
        except NotASymmetry:
            continue
        if perm not in seen:
            seen.add(perm)
            chain.add(perm)
            found.append(U)
    if not chain.two_transitive:
        raise RuntimeError(
            f"Clifford scan exhausted {max_trials} trials without 2-transitivity"
        )
    return found


def geometry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Symmetries beyond translations: the label-geometry action."""
    case = _case(lines)
    if case == "iii":
        return _transvection_matrices(lines.meta["m"], HyperplaneType(lines.meta["type"]))
    if case == "iv":
        return _weil_kron(lines)
    return _clifford_symmetries(lines)


def symmetry_unitaries(lines: LineSet) -> list[np.ndarray]:
    """Translation generators plus geometry unitaries: a 2-transitive set."""
    return translation_unitaries(lines) + geometry_unitaries(lines)


def stabilizer_unitaries(lines: LineSet) -> tuple[list[np.ndarray], list[complex]]:
    """A line-0 stabilizer subgroup with the phases it takes on the base
    vector, sized for the desk-scale multiplicity certificates.

    Sign-matrix case: the closed group of transvection coordinate
    permutations together with their negatives (phases +-1).  Odd-prime case:
    the closed group of induced normalizer maps (phases read off the base
    vector).
    """
    case = _case(lines)
    if case == "iii":
        if lines.meta["m"] != 2:
            raise ValueError("stabilizer closure is sized for m = 2 only")
        mats = _transvection_matrices(2, HyperplaneType(lines.meta["type"]))
        perms = [tuple(int(np.argmax(P[:, i])) for i in range(lines.d)) for P in mats]
        closed = close_permutations(perms, limit=1000)
        unis = []
        phases = []
        for perm in closed:
            P = np.zeros((lines.d, lines.d))
            for i, j in enumerate(perm):
                P[j, i] = 1.0
            unis.extend((P, -P))
            phases.extend((1.0, -1.0))
        return unis, phases
    if case == "iv":
        if lines.meta["m"] != 1:
            raise ValueError("stabilizer closure is sized for m = 1 only")
        base = _weil_kron(lines)
        closed: list[np.ndarray] = []
        seen: set[bytes] = set()
        frontier = [np.eye(lines.d, dtype=complex)]
        while frontier:
            W = frontier.pop()
            # add zero to collapse IEEE -0.0 into +0.0 before hashing
            key = (np.round(W, 9) + (0 + 0j)).tobytes()
            if key in seen:
                continue
            seen.add(key)
            closed.append(W)
            if len(closed) > 1000:
                raise RuntimeError("stabilizer closure exceeded the expected size")
            frontier.extend(G @ W for G in base)
        v0 = lines.vectors[:, 0]
        phases = []
        for W in closed:
            lam = complex(np.vdot(v0, W @ v0))
            if abs(abs(lam) - 1.0) > 1e-8:
                raise NotASymmetry("closure element does not stabilize the base line")
            phases.append(lam)
        return closed, phases
    raise ValueError("stabilizer closure is provided for the algebraic cases only")
