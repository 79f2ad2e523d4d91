"""Permutation actions of symmetry unitaries on a line set, and certificates
for the group-theoretic claims: 2-transitivity, group order, line-stabilizer
character multiplicity, and triviality of the projector commutant.

Permutations are tuples ``p`` of length n with ``p[i]`` = image of i.
Composition is ``compose(p, q) = p after q``, matching
``induced_permutation(U1 @ U2) == compose(perm(U1), perm(U2))``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .lineset import LineSet, _frame_rank

__all__ = [
    "NotASymmetry",
    "NotAProjector",
    "Perm",
    "StabilizerChain",
    "compose",
    "invert",
    "identity_perm",
    "induced_permutation",
    "is_transitive",
    "two_transitivity",
    "group_order",
    "close_permutations",
    "ActionCertificate",
    "action_certificate",
    "MultiplicityCertificate",
    "multiplicity_certificate",
    "projector_commutant_dimension",
    "scalar_kernel_check",
]

Perm = tuple[int, ...]


class NotASymmetry(Exception):
    """The unitary does not permute the lines of the set."""


class NotAProjector(Exception):
    """The averaging operator is not idempotent to tolerance."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: i -> p[q[i]]."""
    # itemgetter of one index returns the item itself, not a 1-tuple
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[j] for j in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def induced_permutation(lines: LineSet, unitary: np.ndarray, tol: float = 1e-8) -> Perm:
    """The permutation i -> j with |<v_j, U v_i>| >= 1 - tol, if one exists.

    Raises NotASymmetry when some image is ambiguous or missing, or when the
    matches do not form a bijection.
    """
    V = lines.vectors
    hits = np.abs(V.conj().T @ (unitary @ V)) >= 1.0 - tol  # [j, i]: |<v_j, U v_i>|
    counts = hits.sum(0)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise NotASymmetry(
            f"line {bad[0]} has {counts[bad[0]]} near-unit overlaps after the map"
        )
    if (hits.sum(1) != 1).any():  # some line is the image of two
        raise NotASymmetry("induced map on lines is not a bijection")
    return tuple(hits.argmax(0).tolist())


class StabilizerChain:
    """Stabilizer chain with base 0, 1, 2, ..., grown one permutation at a time.

    Deterministic incremental Schreier-Sims (Seress, *Permutation Group
    Algorithms*, 2003, ch. 4).  `orbits[i]` maps each point a of the orbit of
    i under the stabilizer of 0..i-1 to a pair (u, u^-1) with u carrying i to
    a, so sifting never inverts.  A sifted residue fixing points 0..i-1 joins
    the strong generators of every level <= i (it lies in each of those point
    stabilizers), and each of those orbits is extended in place.

    Only the new Schreier generators u_(s a)^-1 s u_a are sifted: those of the
    new generator s on the old points a and of every generator on the new
    points, less those with u_(s a) = s u_a, which are the identity.  The old
    ones sifted to the identity before, and still do: transversal entries are
    kept and levels only grow.  So after every `add` the chain is verified:
    every Schreier generator of level i lies in the group of the levels below,
    which by Schreier's lemma is then the stabilizer of i in that of level i.

    The order is the product of the orbit sizes.  With base 0, 1 the group is
    transitive iff |0^G| = n, and 2-transitive iff moreover n >= 2 and the
    stabilizer of 0 is transitive on the other points: |1^(G_0)| = n - 1.
    """

    def __init__(self, gens: Sequence[Perm]):
        if not gens:
            raise ValueError("empty generator list")
        self.n = n = len(gens[0])
        self.identity = e = identity_perm(n)
        self.strong: list[list[Perm]] = [[] for _ in range(n)]
        self.orbits: list[dict[int, tuple[Perm, Perm]]] = [{i: (e, e)} for i in range(n)]
        for g in gens:
            self.add(g)

    @property
    def order(self) -> int:
        return prod(len(orbit) for orbit in self.orbits)

    @property
    def transitive(self) -> bool:
        return len(self.orbits[0]) == self.n

    @property
    def two_transitive(self) -> bool:
        return self.n >= 2 and self.transitive and len(self.orbits[1]) == self.n - 1

    def add(self, g: Perm) -> None:
        """Extend the group by g and re-verify the chain."""
        if len(g) != self.n:
            raise ValueError("generators have mixed degrees")
        stack = [tuple(g)]
        while stack:
            h, i = self._sift(stack.pop())
            if h is not None:
                for j in range(i + 1):
                    stack.extend(self._extend(j, h))

    def _sift(self, g: Perm) -> tuple[Perm | None, int]:
        """The residue of g and the level it leaves the chain at; (None, n) in the group."""
        for i, orbit in enumerate(self.orbits):
            a = g[i]
            if a != i:
                if a not in orbit:
                    return g, i
                g = compose(orbit[a][1], g)
                if g == self.identity:  # spares the scan of the fixed points left
                    break
        return None, self.n

    def _extend(self, i: int, h: Perm) -> list[Perm]:
        """Make h a strong generator of level i, extend the orbit of i in place
        and return the Schreier generators this adds, less the identities."""
        strong, orbit = self.strong[i], self.orbits[i]
        strong.append(h)
        schreier: list[Perm] = []
        new: list[int] = []

        def visit(s: Perm, a: int) -> None:
            b, su = s[a], compose(s, orbit[a][0])
            if b not in orbit:
                orbit[b] = (su, invert(su))
                new.append(b)
            elif su != orbit[b][0]:  # else the Schreier generator is the identity
                schreier.append(compose(orbit[b][1], su))

        for a in list(orbit):
            visit(h, a)
        for a in new:  # breadth first: the loop visits the points it appends
            for s in strong:
                visit(s, a)
        return schreier


def group_order(gens: Sequence[Perm]) -> int:
    return StabilizerChain(gens).order


def is_transitive(gens: Sequence[Perm]) -> bool:
    return StabilizerChain(gens).transitive


def two_transitivity(gens: Sequence[Perm]) -> bool:
    return StabilizerChain(gens).two_transitive


def close_permutations(gens: Sequence[Perm], limit: int = 2_000_000) -> list[Perm]:
    """All elements of the generated group, BFS order; error beyond `limit`."""
    if not gens:
        raise ValueError("empty generator list")
    n = len(gens[0])
    e = identity_perm(n)
    seen = {e}
    dq = deque([e])
    out = [e]
    while dq:
        p = dq.popleft()
        for g in gens:
            q = compose(g, p)
            if q not in seen:
                if len(seen) >= limit:
                    raise ValueError(f"closure exceeds {limit} elements")
                seen.add(q)
                dq.append(q)
                out.append(q)
    return out


@dataclass(frozen=True)
class ActionCertificate:
    generators: tuple[Perm, ...]
    transitive: bool
    two_transitive: bool
    group_order: int
    matched_unitaries: int


def action_certificate(
    lines: LineSet,
    unitaries: Iterable[np.ndarray],
    tol: float = 1e-8,
) -> ActionCertificate:
    """Extract permutations of every unitary and certify the induced group."""
    perms = [induced_permutation(lines, U, tol) for U in unitaries]
    if not perms:
        raise ValueError("no unitaries supplied")
    chain = StabilizerChain(perms)
    return ActionCertificate(
        generators=tuple(dict.fromkeys(perms)),
        transitive=chain.transitive,
        two_transitive=chain.two_transitive,
        group_order=chain.order,
        matched_unitaries=len(perms),
    )


@dataclass(frozen=True)
class MultiplicityCertificate:
    rank: int
    range_is_line0: bool
    idempotency_residual: float


def multiplicity_certificate(
    lines: LineSet,
    stab_unitaries: Sequence[np.ndarray],
    phases: Sequence[complex],
    tol: float = 1e-7,
) -> MultiplicityCertificate:
    """Rank of the character-averaging operator over a line-0 stabilizer.

    Pi = (1/|H|) sum_h conj(phase_h) U_h.  Rank 1 with range equal to line 0
    certifies that the character occurs exactly once in the restriction.
    """
    if len(stab_unitaries) != len(phases) or not stab_unitaries:
        raise ValueError("need equally many unitaries and phases, at least one")
    d = lines.d
    pi = np.zeros((d, d), dtype=complex)
    for U, lam in zip(stab_unitaries, phases):
        pi += np.conj(lam) * U
    pi /= len(stab_unitaries)
    residual = float(np.linalg.norm(pi @ pi - pi, 2))
    if residual > 1e-6:
        raise NotAProjector(f"averaging operator fails idempotency by {residual:.3e}")
    u, svals, _ = np.linalg.svd(pi)
    rank = int(np.sum(svals > tol))
    range_ok = rank == 1 and bool(abs(np.vdot(u[:, 0], lines.vectors[:, 0])) >= 1.0 - 1e-6)
    return MultiplicityCertificate(rank, range_ok, residual)


def projector_commutant_dimension(vectors: np.ndarray, tol: float = 1e-8) -> int:
    """Dimension of {X : X commutes with every v_i v_i*}, in closed form.

    X commutes with v_i v_i* exactly when v_i is an eigenvector of both X and
    X*.  Eigenvalues agree across non-orthogonal pairs, so X is one scalar on
    the span of each connected component of the non-orthogonality graph; and
    X maps the complement W of the span S of the columns into W, on which it
    is arbitrary.  The dimension is the component count plus (d - r)^2 with
    r = dim S.  A zero column raises ValueError: it would count as a component.
    """
    V = np.asarray(vectors, dtype=complex)
    if not V.any(axis=0).all():
        raise ValueError("zero column")
    d, n = V.shape
    return _component_count(V, tol) + (d - _frame_rank(V @ V.conj().T, n)) ** 2


def _component_count(V: np.ndarray, tol: float) -> int:
    """Connected components of the graph joining i, j when |<v_i, v_j>| > tol.

    A frontier search over the columns not yet reached: each step takes the
    overlaps of the columns reached last with those, so a family whose first
    column meets every other costs one d x n product and no n x n matrix.  The
    product is an einsum, as in gram's row: BLAS runs a one-column product
    many times slower on two threads than on one.  It reads all of V and
    keeps the columns not yet reached, which costs less than gathering them."""
    rest = np.arange(V.shape[1])
    components = 0
    while rest.size:
        components += 1
        frontier, rest = rest[:1], rest[1:]
        while frontier.size and rest.size:
            overlaps = np.einsum("kf,kr->fr", V[:, frontier].conj(), V)[:, rest]
            hit = (np.abs(overlaps) > tol).any(axis=0)
            frontier, rest = rest[hit], rest[~hit]
    return components


def scalar_kernel_check(lines: LineSet | np.ndarray, tol: float = 1e-8) -> bool:
    """True iff every unitary fixing each line individually is scalar."""
    if isinstance(lines, LineSet):  # LineSet has already checked that it spans
        return _component_count(lines.vectors, tol) == 1
    return projector_commutant_dimension(np.asarray(lines, dtype=complex), tol=tol) == 1
