import numpy as np
import pytest

from equiline.heisenberg import check_unitary
from equiline.weil import parity_split, transvection_unitaries
from oracles import (
    NotNormalizing,
    chain_transvections,
    displacement,
    induced_symplectic,
    parity_operator,
)

SL2_ORDERS = {p: p * (p * p - 1) for p in (3, 5, 7, 11, 13)}  # |SL(2,p)| = |Sp(2,p)|


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3)])
def test_generators_are_unitary_and_normalize(p, m):
    # conjugation by U_u sends D(x) to a multiple of D(x + omega(x, u) u): the
    # numerically read label map is the closed-form transvection
    gens = transvection_unitaries(p, m)
    assert len(gens) == 4 * m - 1
    for U, S in zip(gens, chain_transvections(p, m), strict=True):
        check_unitary(U)
        assert np.array_equal(induced_symplectic(U, p, m), S)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1)])
def test_induced_action_moves_labels_correctly(p, m):
    # U D(e) U* must be a phase times D(S e) entrywise, for random labels
    rng = np.random.default_rng(41)
    for U, S in zip(transvection_unitaries(p, m), chain_transvections(p, m), strict=True):
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


@pytest.mark.parametrize("p", sorted(SL2_ORDERS))
def test_induced_maps_generate_the_full_symplectic_group(p):
    # the maps along a_1 and b_1 are the elementary matrices, and with their
    # sum they close to all of SL(2, p) = Sp(2, p)
    gens = [induced_symplectic(U, p, 1) for U in transvection_unitaries(p, 1)]
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
    assert len(seen) == SL2_ORDERS[p]


def test_induced_maps_compose_by_matmul():
    # conjugating by U1 U2 applies U2's label map, then U1's: S(U1 U2) = S(U1) S(U2)
    for p, m in [(3, 1), (5, 1), (3, 2)]:
        gens = transvection_unitaries(p, m)
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


def test_parity_operator_sends_x_to_minus_x():
    # column x holds its 1 at row -x: the gather of an involution is its scatter
    P = parity_operator(5, 2)
    for x in range(25):
        assert np.flatnonzero(P[:, x]).tolist() == [(-(x // 5) % 5) * 5 + -(x % 5) % 5]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
def test_generators_commute_with_parity(p, m):
    # parity sends E(k u) to E(-k u), and g_(-k) = g_k
    P = parity_operator(p, m)
    for U in transvection_unitaries(p, m):
        assert np.abs(U @ P - P @ U).max() < 1e-10


@pytest.mark.parametrize("p,m", [(2, 1), (3, 0)])
def test_transvection_unitaries_refuse_p_2_and_m_0(p, m):
    with pytest.raises(ValueError, match="odd prime p and m >= 1"):
        transvection_unitaries(p, m)
