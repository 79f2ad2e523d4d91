import numpy as np
import pytest

from equiline.heisenberg import check_unitary, displacement, lex_digits, lex_index
from equiline.weil import (
    NotNormalizing,
    _index_substitution,
    NotSymplectic,
    induced_symplectic,
    parity_split,
    primitive_root,
    weil_generators,
)
from oracles import parity_operator

SP2_ORDERS = {3: 24, 5: 120}  # |Sp(2,p)| = p(p^2 - 1)


@pytest.mark.parametrize("p,m,A", [(5, 1, [[2]]), (3, 2, [[0, 1], [1, 0]]),
                                   (3, 2, [[1, 1], [0, 1]]), (7, 2, [[3, 0], [0, 1]])])
def test_index_substitution_sends_x_to_ax(p, m, A):
    # monomial_matrix reads a gather index, so the substitution passes the
    # inverse permutation: column x must still hold its 1 at row A x
    U = _index_substitution(p, m, np.array(A))
    pts = lex_digits(p, m)
    rows = lex_index(pts @ np.array(A).T, p)
    assert np.array_equal(U, np.eye(p**m)[rows].T)


def test_primitive_root():
    for p in (3, 5, 7, 11):
        g = primitive_root(p)
        powers = {pow(g, k, p) for k in range(1, p)}
        assert powers == set(range(1, p))


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
def test_generators_are_unitary_and_normalize(p, m):
    gens = weil_generators(p, m)
    assert len(gens) == (3 if m == 1 else 7)
    for U in gens:
        check_unitary(U)
        S = induced_symplectic(U, p, m)  # raises if not normalizing
        assert S.shape == (2 * m, 2 * m) and S.dtype == np.int64
        assert ((0 <= S) & (S < p)).all()


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1)])
def test_induced_action_moves_labels_correctly(p, m):
    # U D(e) U* must be a phase times D(S e) entrywise, for random labels
    rng = np.random.default_rng(41)
    for U in weil_generators(p, m):
        S = induced_symplectic(U, p, m)
        for _ in range(10):
            e = rng.integers(0, p, 2 * m)
            M = U @ displacement(p, m, e[:m], e[m:]) @ U.conj().T
            e2 = S @ e % p
            D2 = displacement(p, m, e2[:m], e2[m:])
            # strip the phase via the largest entry of D2
            idx = np.unravel_index(np.argmax(np.abs(D2)), D2.shape)
            phase = M[idx] / D2[idx]
            assert abs(abs(phase) - 1.0) < 1e-9
            assert np.abs(M - phase * D2).max() < 1e-9


@pytest.mark.parametrize("p", sorted(SP2_ORDERS))
def test_induced_maps_generate_the_full_symplectic_group(p):
    gens = [induced_symplectic(U, p, 1) for U in weil_generators(p, 1)]
    identity = np.eye(2, dtype=np.int64)
    seen = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        s = frontier.pop()
        for g in gens:
            t = g @ s % p
            if t.tobytes() not in seen:
                seen.add(t.tobytes())
                frontier.append(t)
    assert len(seen) == SP2_ORDERS[p]


def test_induced_maps_compose_by_matmul():
    # conjugating by U1 U2 applies U2's label map, then U1's: S(U1 U2) = S(U1) S(U2)
    for p, m in [(3, 1), (5, 1), (3, 2)]:
        gens = weil_generators(p, m)
        maps = [induced_symplectic(U, p, m) for U in gens]
        for U1, S1 in zip(gens, maps):
            for U2, S2 in zip(gens[:3], maps[:3]):
                assert np.array_equal(induced_symplectic(U1 @ U2, p, m), S1 @ S2 % p)


def test_induced_symplectic_rejects_non_normalizing():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q = np.linalg.qr(X)[0]
    with pytest.raises(NotNormalizing):
        induced_symplectic(Q, 3, 1)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
def test_parity_split(p, m):
    even, odd = parity_split(p, m)
    q = p**m
    assert even.shape == (q, (q + 1) // 2)
    assert odd.shape == (q, (q - 1) // 2)
    P = parity_operator(p, m)
    assert np.abs(P @ P - np.eye(q)).max() < 1e-12
    # columns are orthonormal eigenvectors with the advertised eigenvalue
    assert np.abs(even.conj().T @ even - np.eye(even.shape[1])).max() < 1e-12
    assert np.abs(odd.conj().T @ odd - np.eye(odd.shape[1])).max() < 1e-12
    assert np.abs(P @ even - even).max() < 1e-12
    assert np.abs(P @ odd + odd).max() < 1e-12
    assert np.abs(even.conj().T @ odd).max() < 1e-12


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1)])
def test_generators_commute_with_parity(p, m):
    # the parity operator is the image of -I, central in the symplectic group
    P = parity_operator(p, m)
    for U in weil_generators(p, m):
        assert np.abs(U @ P - P @ U).max() < 1e-10
