"""Permutation actions of symmetry unitaries on a line set, and certificates
for the group-theoretic claims: 2-transitivity, group order, and triviality
of the projector commutant of a LineSet, which holds iff its
non-orthogonality graph is connected (scalar_kernel_check).

Permutations are tuples ``p`` of length n with ``p[i]`` = image of i.
Composition is ``compose(p, q) = p after q``, matching
``induced_permutation(U1 @ U2) == compose(perm(U1), perm(U2))``.

Line i of a constructed set carries the label x_i = lex_digits(p, 2m)[i] in
F_p^(2m), and the translations T = F_p^(2m) act regularly by x -> x + a.  A
symmetry normalizes T, so it acts as an affine label map x -> S x + b, and
the group G of the symmetries is T x| G_0 with G_0 the stabilizer of line 0,
generated by the linear parts x -> S x.  action_certificate reads each
generator's map off its permutation, checks it on every label, and builds
the stabilizer chain of G_0 only: |G| = n |G_0|, G is transitive, and G is
2-transitive iff G_0 is transitive on the n - 1 lines other than line 0.

Multiplicity one follows from what action_certificate proves, and needs no
certificate of its own (Iverson, King and Mixon, "Doubly transitive lines I:
Higman pairs and roux", J. Combin. Theory Ser. A 185 (2022); Isaacs,
Character Theory of Finite Groups, ch. 5).  Let U be the group of the
certified symmetry unitaries, U_0 the subgroup that fixes line 0, and
lambda(h) = <v_0, h v_0> its character on line 0:

- x -> (g -> <g v_0, x>) maps C^d into Ind lambda = Ind_(U_0)^U lambda and
  commutes with U; it is injective because the lines span C^d (LineSet).
- By Mackey, dim End_U(Ind lambda) is at most the number of (U_0, U_0)
  double cosets, which is 2 when the action is 2-transitive.  Ind lambda is
  unitary, so completely reducible, and so it is multiplicity-free with at
  most two constituents.
- C^d is a proper nonzero subrepresentation since d < n, so it is one
  irreducible constituent, and Frobenius reciprocity gives the multiplicity
  of lambda in C^d restricted to U_0 as dim Hom_U(C^d, Ind lambda) = 1.

This needs only that U_0 has finite index n, not that U is finite: its
scalars may have infinite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .heisenberg import lex_digits, lex_index
from .lineset import LineSet, _case

__all__ = [
    "NotASymmetry",
    "Perm",
    "StabilizerChain",
    "compose",
    "invert",
    "identity_perm",
    "induced_permutation",
    "is_transitive",
    "two_transitivity",
    "group_order",
    "ActionCertificate",
    "action_certificate",
    "scalar_kernel_check",
]

Perm = tuple[int, ...]


class NotASymmetry(Exception):
    """The unitary does not permute the lines of the set."""


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


@dataclass(frozen=True)
class ActionCertificate:
    generators: tuple[Perm, ...]
    transitive: bool
    two_transitive: bool
    group_order: int
    matched_unitaries: int


def _affine_map(perm: Perm, labels: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, b), S an int matrix, when the permutation perm of the label indices
    is the affine map x -> S x + b; raises NotASymmetry otherwise.

    b is the label of perm(0) and column k of S is label(perm(e_k)) - b; the
    map is checked on all n labels."""
    g = np.asarray(perm)
    units = lex_index(np.eye(labels.shape[1], dtype=np.int64), p)  # the indices of the e_k
    b = labels[g[0]]
    S = ((labels[g[units]] - b) % p).T
    if not np.array_equal(lex_index(labels @ S.T + b, p), g):
        raise NotASymmetry("a symmetry does not act on the line labels as an affine map")
    return S, b


def action_certificate(
    lines: LineSet,
    unitaries: Iterable[np.ndarray],
    tol: float = 1e-8,
) -> ActionCertificate:
    """Extract permutations of every unitary and certify the induced group
    G = T x| G_0 (see the module docstring) from the chain of G_0.

    The lines must carry their construction tag (lineset._case), and the
    permutations must hold the 2m unit translations (ValueError otherwise)
    and be affine label maps (NotASymmetry otherwise).  The reference to
    unitaries is dropped once the permutations are read, so dense symmetries
    that the caller does not hold are freed before the chain is built."""
    perms = [induced_permutation(lines, U, tol) for U in unitaries]
    del unitaries
    if not perms:
        raise ValueError("no unitaries supplied")
    _, p, m = _case(lines.meta, lines.n, lines.d)
    labels = lex_digits(p, 2 * m)
    distinct = dict.fromkeys(perms)
    units = lex_index(labels + np.eye(2 * m, dtype=np.int64)[:, None], p)  # row k: x -> x + e_k
    missing = [k for k, t in enumerate(units.tolist()) if tuple(t) not in distinct]
    if missing:
        raise ValueError(f"the unit translations {missing} are not among the symmetries")
    e = identity_perm(lines.n)
    linear = dict.fromkeys(tuple(lex_index(labels @ _affine_map(g, labels, p)[0].T, p).tolist())
                           for g in distinct)
    chain = StabilizerChain([s for s in linear if s != e] or [e])
    return ActionCertificate(
        generators=tuple(distinct),
        transitive=True,
        two_transitive=len(chain.orbits[1]) == lines.n - 1,
        group_order=lines.n * chain.order,
        matched_unitaries=len(perms),
    )


# Two lines join in _component_count when their overlap exceeds this.
_OVERLAP_TOL = 1e-8


def _component_count(V: np.ndarray) -> int:
    """Connected components of the graph joining i, j when |<v_i, v_j>| >
    _OVERLAP_TOL.

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
            hit = (np.abs(overlaps) > _OVERLAP_TOL).any(axis=0)
            frontier, rest = rest[hit], rest[~hit]
    return components


def scalar_kernel_check(lines: LineSet) -> bool:
    """True iff every unitary fixing each line individually is scalar.

    Such a unitary X commutes with every v_i v_i*, so each v_i is an
    eigenvector of X.  Eigenvalues agree across non-orthogonal pairs, so X is
    one scalar on the span of each connected component of the
    non-orthogonality graph.  The columns of a LineSet span C^d, so X is
    scalar iff the graph is connected."""
    return _component_count(lines.vectors) == 1
