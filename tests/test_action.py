import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import equiline
from equiline import action
from equiline.action import (
    NotASymmetry,
    StabilizerChain,
    action_certificate,
    compose,
    group_order,
    identity_perm,
    induced_permutation,
    invert,
    is_transitive,
    scalar_kernel_check,
    two_transitivity,
)
from equiline.action import _component_count
from equiline.cli import EXIT_OK, construct_lineset, main
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.finfield import HyperplaneType
from equiline.lineset import LineSet, construct_case_iii, construct_case_iv
from equiline.symmetries import geometry_unitaries, symmetry_unitaries, translation_unitaries
from oracles import close_permutations, commutant_dimension, multiplicity_certificate


def rand_perm(rng, n):
    return tuple(int(x) for x in rng.permutation(n))


def test_compose_and_invert():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rand_perm(rng, 9)
        q = rand_perm(rng, 9)
        pq = compose(p, q)
        # composition applies q first
        assert all(pq[i] == p[q[i]] for i in range(9))
        assert compose(p, invert(p)) == identity_perm(9)
        assert compose(invert(p), p) == identity_perm(9)
        assert invert(pq) == compose(invert(q), invert(p))


def test_transitivity_predicates():
    rot = (1, 2, 3, 0)
    assert is_transitive([rot])
    assert not two_transitivity([rot])  # cyclic group is only 1-transitive
    s3 = [(1, 0, 2), (1, 2, 0)]
    assert two_transitivity(s3)  # symmetric group on 3 points
    assert not is_transitive([(0, 1, 3, 2)])


KNOWN_ORDERS = [
    # (generators, order)
    ([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], 720),  # S_6
    ([(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)], 5040),  # S_7
    ([tuple((i + 1) % 11 for i in range(11))], 11),  # C_11
    ([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], 10),  # D_5
    ([(0, 1, 2)], 1),  # trivial
]


@pytest.mark.parametrize("gens,order", KNOWN_ORDERS)
def test_group_order_known_groups(gens, order):
    assert group_order(gens) == order
    assert len(close_permutations(gens)) == order


def test_group_order_matches_closure_on_random_subgroups():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        gens = [rand_perm(rng, n) for _ in range(int(rng.integers(1, 4)))]
        assert group_order(gens) == len(close_permutations(gens))


def _sympy_answers(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n = len(gens[0])
    G = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
    two = n >= 2 and G.is_transitive() and len(G.stabilizer(0).orbit(1)) == n - 1
    return G.order(), G.is_transitive(), two


def _chain_answers(gens):
    return group_order(gens), is_transitive(gens), two_transitivity(gens)


def test_chain_matches_sympy_on_random_subgroups():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(3, 10))
        gens = [rand_perm(rng, n) for _ in range(int(rng.integers(1, 4)))]
        assert _chain_answers(gens) == _sympy_answers(gens), gens


def _random_subgroup(rng, n):
    """1-3 generators of a seeded random subgroup of S_n in one of three shapes,
    relabelled by a random permutation: unrestricted (mostly S_n or A_n),
    intransitive on two parts, or preserving a system of equal blocks."""
    shape = int(rng.integers(3))
    cut = int(rng.integers(1, n))
    sizes = [b for b in range(2, n) if n % b == 0]
    size = int(rng.choice(sizes)) if sizes else n  # one block when n is prime

    def gen(k):
        if shape == 1:  # the first generator fixes the first part pointwise
            head = rng.permutation(cut) if k else np.arange(cut)
            return np.concatenate([head, cut + rng.permutation(n - cut)])
        if shape == 2:  # the blocks are runs of `size` consecutive points
            blocks = rng.permutation(n // size)
            return [blocks[j] * size + w for j in range(n // size) for w in rng.permutation(size)]
        return rng.permutation(n)

    r = rand_perm(rng, n)
    gens = [tuple(int(x) for x in gen(k)) for k in range(int(rng.integers(1, 4)))]
    return [compose(r, compose(g, invert(r))) for g in gens]


def _assert_verified(chain):
    """Every transversal pair carries its point and is inverse, and every
    Schreier generator of every level sifts through the chain."""
    e = identity_perm(chain.n)
    for i, (strong, orbit) in enumerate(zip(chain.strong, chain.orbits)):
        for a, (u, u_inv) in orbit.items():
            assert u[i] == a and compose(u, u_inv) == e
            assert all(u[j] == j for j in range(i))
            for s in strong:
                assert all(s[j] == j for j in range(i))
                schreier = compose(orbit[s[a]][1], compose(s, u))
                assert chain._sift(schreier) == (None, chain.n)


def test_chain_matches_sympy_on_random_subgroups_of_larger_degree():
    rng = np.random.default_rng(47)
    for _ in range(30):
        gens = _random_subgroup(rng, int(rng.integers(10, 33)))
        assert _chain_answers(gens) == _sympy_answers(gens), gens


def test_chain_is_verified_after_every_add():
    rng = np.random.default_rng(53)
    for _ in range(10):
        gens = _random_subgroup(rng, int(rng.integers(10, 17)))
        chain = StabilizerChain(gens[:1])
        for k, g in enumerate(gens, 1):
            chain.add(g)  # the first one again: adding a member changes nothing
            _assert_verified(chain)
            assert chain.order == _sympy_answers(gens[:k])[0]


def test_chain_matches_sympy_on_a_searched_line_set():
    v, _ = search_fiducial(SearchConfig(d=8, seed=3))
    L = orbit_lineset(v, 8)
    perms = [induced_permutation(L, U) for U in symmetry_unitaries(L)]
    assert _chain_answers(perms) == _sympy_answers(perms) == (387072, True, True)


@pytest.mark.parametrize(
    "build,order",
    [
        (lambda: construct_case_iii(3, HyperplaneType.MINUS), 92897280),
        (lambda: construct_case_iv(3, 2, HyperplaneType.MINUS), 4199040),
        (lambda: construct_case_iv(5, 2, HyperplaneType.MINUS), 5850000000),
        # case iv: n |Sp(2m, p)|, so the 4m - 1 Weil transvections generate
        # all of Sp(2m, p)
        pytest.param(
            lambda: construct_case_iv(7, 1, HyperplaneType.MINUS), 16464, id="iv-7-1-minus"
        ),
        pytest.param(
            lambda: construct_case_iv(7, 1, HyperplaneType.PLUS), 16464, id="iv-7-1-plus"
        ),
        pytest.param(
            lambda: construct_case_iv(3, 2, HyperplaneType.PLUS), 4199040, id="iv-3-2-plus"
        ),
        pytest.param(
            lambda: construct_case_iv(5, 2, HyperplaneType.PLUS), 5850000000, id="iv-5-2-plus"
        ),
        pytest.param(
            lambda: construct_case_iv(3, 3, HyperplaneType.MINUS),
            6685442749440,
            id="iv-3-3-minus",
        ),
        pytest.param(
            lambda: construct_case_iv(3, 3, HyperplaneType.PLUS),
            6685442749440,
            id="iv-3-3-plus",
        ),
    ],
)
def test_action_certificate_at_mid_scale(build, order):
    L = build()
    cert = action_certificate(L, symmetry_unitaries(L))
    assert (cert.group_order, cert.transitive, cert.two_transitive) == (order, True, True)


@pytest.mark.parametrize(
    "gens",
    [
        [(0,)],
        [(0, 1)],
        [(1, 0)],
        [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)],  # AGL(1, 5): sharply 2-transitive
        [(1, 0, 2, 3), (0, 1, 3, 2)],  # intransitive: two orbits of size 2
        [(1, 2, 3, 0), (2, 1, 0, 3)],  # D_4 on a square: transitive only
    ],
)
def test_chain_matches_sympy_on_edge_cases(gens):
    assert _chain_answers(gens) == _sympy_answers(gens)


def test_chain_grows_one_permutation_at_a_time():
    rot = (1, 2, 3, 4, 5, 0)
    chain = StabilizerChain([rot])
    assert (chain.order, chain.transitive, chain.two_transitive) == (6, True, False)
    chain.add((1, 0, 2, 3, 4, 5))
    assert (chain.order, chain.transitive, chain.two_transitive) == (720, True, True)
    assert [len(orbit) for orbit in chain.orbits] == [6, 5, 4, 3, 2, 1]
    with pytest.raises(ValueError):
        chain.add((0, 1, 2))
    with pytest.raises(ValueError):
        StabilizerChain([])


def test_close_permutations_limit():
    gens = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
    with pytest.raises(ValueError):
        close_permutations(gens, limit=100)


def test_induced_permutation_is_a_homomorphism():
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    unis = translation_unitaries(L)
    perms = [induced_permutation(L, U) for U in unis]
    for U, pu in zip(unis, perms):
        for W, pw in zip(unis, perms):
            assert induced_permutation(L, U @ W) == compose(pu, pw)


def test_induced_permutation_rejects_non_symmetry():
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    rng = np.random.default_rng(19)
    X = rng.normal(size=(L.d, L.d)) + 1j * rng.normal(size=(L.d, L.d))
    Q = np.linalg.qr(X)[0]
    with pytest.raises(NotASymmetry):
        induced_permutation(L, Q)


def test_induced_permutation_names_the_failing_check():
    # lines e0, e1 and (e0 + 2 e1)/sqrt(5) in C^2
    L = LineSet(np.array([[1, 0, 1 / np.sqrt(5)], [0, 1, 2 / np.sqrt(5)]]))
    assert induced_permutation(L, np.eye(2)) == (0, 1, 2)
    with pytest.raises(NotASymmetry, match="^line 0 has 0 near-unit"):
        induced_permutation(L, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    # fixes e0 and e1 but moves the third line off every line
    with pytest.raises(NotASymmetry, match="^line 2 has 0 near-unit"):
        induced_permutation(L, np.diag([1, 1j]))
    # not unitary: every line goes to line 0 alone
    with pytest.raises(NotASymmetry, match="not a bijection"):
        induced_permutation(L, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_action_certificate_on_translations():
    # translations act simply transitively: transitive, not 2-transitive, order n
    L = construct_case_iii(2, HyperplaneType.MINUS)
    cert = action_certificate(L, translation_unitaries(L))
    assert cert.transitive and not cert.two_transitive
    assert cert.group_order == L.n
    assert cert.matched_unitaries == 4


def test_action_certificate_full_symmetries():
    L = construct_case_iii(2, HyperplaneType.MINUS)
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.transitive and cert.two_transitive
    assert cert.group_order == 11520
    assert cert.group_order % (L.n * (L.n - 1)) == 0


def test_action_command_builds_one_chain(tmp_path, monkeypatch):
    # the Clifford scan stops by its orbit of line 1; the one chain is the
    # certificate's, on the linear parts of the two words it keeps (the
    # six translations have the identity as linear part)
    path = str(tmp_path / "lines.json")
    assert main(["construct", "--case", "ii", "--seed", "1", "--out", path]) == EXIT_OK
    built = []
    init = StabilizerChain.__init__

    def counting_init(self, gens):
        built.append(len(gens))
        init(self, gens)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    assert main(["action", path]) == EXIT_OK
    assert built == [2]


# every row of tests/test_golden.py, iv (5, 2), and the search seeds 1-20
G0_ROWS = [
    *(("iii", {"m": m, "kind": kind}) for m in (2, 3) for kind in ("minus", "plus")),
    *(("iv", {"p": p, "m": m, "kind": kind}) for p, m in ((3, 1), (5, 1), (3, 2))
      for kind in ("minus", "plus")),
    ("iv", {"p": 5, "m": 2, "kind": "minus"}),
    *((case, {"seed": seed}) for case in ("i", "ii") for seed in range(1, 21)),
]


def _chain_claims(chain):
    return chain.order, chain.transitive, chain.two_transitive


def _certificate_claims(cert):
    return cert.group_order, cert.transitive, cert.two_transitive


@pytest.mark.parametrize("case,params", G0_ROWS,
                         ids=["-".join(map(str, (c, *kw.values()))) for c, kw in G0_ROWS])
def test_g0_certificate_matches_the_full_chain(case, params):
    L = construct_lineset(case, **params)
    unis = symmetry_unitaries(L)
    chain = StabilizerChain([induced_permutation(L, U) for U in unis])
    assert _certificate_claims(action_certificate(L, unis)) == _chain_claims(chain)
    assert chain.two_transitive


@pytest.mark.parametrize("build", [
    lambda: construct_case_iii(2, HyperplaneType.MINUS),
    lambda: construct_case_iii(3, HyperplaneType.PLUS),
    lambda: construct_case_iv(3, 2, HyperplaneType.MINUS),
])
def test_g0_certificate_matches_the_full_chain_on_subgroups(build):
    # the translations with the first j geometry symmetries: transitive
    # groups that are not all 2-transitive
    L = build()
    translations, geometry = translation_unitaries(L), geometry_unitaries(L)
    seen = set()
    for j in range(4):
        unis = translations + geometry[:j]
        chain = StabilizerChain([induced_permutation(L, U) for U in unis])
        assert _certificate_claims(action_certificate(L, unis)) == _chain_claims(chain)
        seen.add(chain.two_transitive)
    assert False in seen


def test_action_certificate_rejects_a_symmetry_that_is_not_affine(monkeypatch):
    # a permutation that fixes line 0 and swaps lines 1 and 2 only is no
    # affine map of F_2^4: it would fix e_1 + e_3 (line 5) but move e_3
    L = construct_case_iii(2, HyperplaneType.MINUS)
    marker = np.eye(L.d)
    real = action.induced_permutation

    def induced(lines, unitary, tol=1e-8):
        return (0, 2, 1, *range(3, L.n)) if unitary is marker else real(lines, unitary, tol)

    monkeypatch.setattr(action, "induced_permutation", induced)
    with pytest.raises(NotASymmetry, match="affine"):
        action_certificate(L, [*translation_unitaries(L), marker])


def test_action_certificate_requires_the_unit_translations():
    L = construct_case_iii(2, HyperplaneType.MINUS)
    with pytest.raises(ValueError, match=r"unit translations \[0, 1, 2, 3\]"):
        action_certificate(L, geometry_unitaries(L))
    unis = symmetry_unitaries(L)
    with pytest.raises(ValueError, match=r"unit translations \[1\]"):
        action_certificate(L, unis[:1] + unis[2:])


def test_action_payload_imports_nothing():
    # a lazily imported module (numpy.ma, behind a plain np.unique) costs a
    # process about 2 MB of resident memory for nothing
    script = (
        "import sys\n"
        "import equiline.cli\n"
        "lines = equiline.cli.construct_lineset('ii', seed=1)\n"
        "before = set(sys.modules)\n"
        "equiline.cli.action_payload(lines)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(equiline.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_action_certificate_requires_input():
    L = construct_case_iii(2, HyperplaneType.MINUS)
    with pytest.raises(ValueError):
        action_certificate(L, [])


def test_multiplicity_certificate_trivial_group():
    # averaging over the identity alone projects onto nothing useful: rank d,
    # and every eigenvalue is 1, so the gap is 0
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    cert = multiplicity_certificate(L, [np.eye(L.d, dtype=complex)], [1.0])
    assert cert.rank == L.d
    assert not cert.range_is_line0
    assert abs(cert.gap) < 1e-12


def test_multiplicity_certificate_rejects_non_projector():
    # the identity and a random unitary share no eigenvector: no eigenvalue of
    # the Hermitian part reaches 1, so no line is certified
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    rng = np.random.default_rng(29)
    X = rng.normal(size=(L.d, L.d)) + 1j * rng.normal(size=(L.d, L.d))
    Q = np.linalg.qr(X)[0]
    cert = multiplicity_certificate(L, [np.eye(L.d, dtype=complex), Q], [1.0, 1.0])
    assert cert.rank != 1
    assert not cert.range_is_line0
    with pytest.raises(ValueError):
        multiplicity_certificate(L, [np.eye(L.d)], [1.0, 1.0])


COMMUTANT_BUILDS = [
    lambda: construct_case_iv(3, 1, HyperplaneType.MINUS),
    lambda: construct_case_iv(3, 1, HyperplaneType.PLUS),
    lambda: construct_case_iii(2, HyperplaneType.MINUS),
    lambda: construct_case_iv(5, 1, HyperplaneType.MINUS),
]


@pytest.mark.parametrize("build", COMMUTANT_BUILDS)
def test_commutant_graph_count_matches_stacked_svd(build):
    L = build()
    projs = [
        np.outer(L.vectors[:, k], L.vectors[:, k].conj()) for k in range(L.n)
    ]
    assert scalar_kernel_check(L)
    assert commutant_dimension(projs) == 1


def test_commutant_block_structure():
    # two orthogonal spanning blocks -> two components -> dimension 2: seven
    # unit columns spanning C^5, so a LineSet
    rng = np.random.default_rng(31)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    cols = []
    for k in range(3):
        v = np.zeros(5, dtype=complex)
        v[:2] = a[:, k] / np.linalg.norm(a[:, k])
        cols.append(v)
    for k in range(4):
        v = np.zeros(5, dtype=complex)
        v[2:] = b[:, k] / np.linalg.norm(b[:, k])
        cols.append(v)
    V = np.array(cols).T
    projs = [np.outer(v, v.conj()) for v in cols]
    assert not scalar_kernel_check(LineSet(V))
    assert commutant_dimension(projs) == 2


def _bfs_component_count(V, tol=1e-8):
    """Components of the non-orthogonality graph by a breadth-first search
    over the whole n x n overlap matrix; the oracle for _component_count."""
    n = V.shape[1]
    adj = np.abs(V.conj().T @ V) > tol
    seen = np.zeros(n, dtype=bool)
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            a = queue.popleft()
            for b in np.flatnonzero(adj[a] & ~seen):
                seen[b] = True
                queue.append(int(b))
    return components


def _sparse_families(count, seed):
    """Seeded families of n = 1..11 unit columns in C^d, d = 2..6, each entry
    nonzero with probability 0.35: some span C^d, some do not, and disjoint
    supports split some into several components."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, n = int(rng.integers(2, 7)), int(rng.integers(1, 12))
        mask = rng.random((d, n)) < 0.35
        mask[rng.integers(0, d, size=n), np.arange(n)] = True  # no zero column
        V = (rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))) * mask
        yield V / np.linalg.norm(V, axis=0)


def _paths(sizes):
    """The unit vector e_0, then the columns e_(j-1) + i e_j / 2 of C^(n+1),
    normalized: each meets only its neighbours in that order, so every step
    of the frontier search starts from a one-column frontier."""
    for n in sizes:
        V = np.zeros((n + 1, n + 1), dtype=complex)
        V[0, 0] = 1.0
        V[np.arange(n), np.arange(1, n + 1)] = 1.0
        V[np.arange(1, n + 1), np.arange(1, n + 1)] = 0.5j
        yield V / np.linalg.norm(V, axis=0)


def test_component_count_matches_bfs_oracle():
    families = [
        *_sparse_families(200, 37),
        *_paths([1, 2, 5, 12]),
        *(build().vectors for build in COMMUTANT_BUILDS),
    ]
    for V in families:
        assert _component_count(V) == _bfs_component_count(V)


def test_closed_form_commutant_matches_stacked_svd():
    # on the families a LineSet accepts (n > d, spanning), both outcomes
    seen = set()
    for V in _sparse_families(300, 41):
        try:
            L = LineSet(V)
        except ValueError:
            continue
        projs = [np.outer(v, v.conj()) for v in V.T]
        scalar = scalar_kernel_check(L)
        assert scalar == (commutant_dimension(projs) == 1), V
        seen.add(scalar)
    assert seen == {True, False}


def test_scalar_kernel_check():
    assert scalar_kernel_check(construct_case_iv(3, 1, HyperplaneType.MINUS))
    assert scalar_kernel_check(construct_case_iii(2, HyperplaneType.PLUS))
