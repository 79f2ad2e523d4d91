import hashlib
import tracemalloc
from math import log, prod

import numpy as np
import pytest

from equiline.action import (
    NotASymmetry,
    StabilizerChain,
    _affine_map,
    action_certificate,
    induced_permutation,
    is_transitive,
    two_transitivity,
)
from equiline.finfield import HyperplaneType, enumerate_hyperplanes
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.heisenberg import check_unitary, lex_digits, lex_index, monomial_matrix
from equiline.lineset import LineSet, construct_case_iii, construct_case_iv
from equiline.symmetries import (
    _CLIFFORD_BLOCK,
    _CLIFFORD_WORD_LENGTH,
    CLIFFORD_SEARCH_SEED,
    _line0_candidates,
    _moves_line1_everywhere,
    _qubit_clifford_generators,
    _transvection_perms,
    _weight_two_directions,
    _weil_kron,
    geometry_unitaries,
    line_translations,
    symmetry_unitaries,
    translation_unitaries,
)
from equiline.weil import parity_split, transvection_unitaries
from oracles import (
    chain_transvections,
    close_permutations,
    line0_stabilizer,
    multiplicity_certificate,
    nonsingular_vectors,
    quadratic_form,
    transvection,
    transvection_on_functional,
)

MINUS, PLUS = HyperplaneType.MINUS, HyperplaneType.PLUS


def fixed_points(perm):
    return sum(1 for i, j in enumerate(perm) if i == j)


def seeded_orbit(d):
    rng = np.random.default_rng(11)
    return orbit_lineset(rng.normal(size=d) + 1j * rng.normal(size=d), d)


def _unit_translations(p, k):
    """Row i: x -> x + e_i on the lexicographic indices of F_p^k, as
    action_certificate forms it."""
    return lex_index(lex_digits(p, k) + np.eye(k, dtype=np.int64)[:, None], p)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_case_iii(2, MINUS),
        lambda: construct_case_iii(2, PLUS),
        lambda: construct_case_iv(3, 1, MINUS),
        lambda: construct_case_iv(5, 1, PLUS),
        lambda: seeded_orbit(2),
        lambda: seeded_orbit(8),
    ],
)
def test_translations_act_freely_and_transitively(build):
    L = build()
    index, phase = line_translations(L)
    eye = np.eye(L.d // index.shape[1])  # T (x) I_du on C^q (x) C^du
    unis = [np.kron(T, eye) for T in monomial_matrix(index, phase)]
    assert len(unis) == L.n  # the whole group, identity first
    perms = [induced_permutation(L, U) for U in unis]
    assert perms[0] == tuple(range(L.n))
    for perm in perms[1:]:
        assert fixed_points(perm) == 0
    assert is_transitive(perms)
    # line order: element k maps line 0 to line k (so the action is simply transitive)
    assert [perm[0] for perm in perms] == list(range(L.n))
    # generator i is the unit label e_i, element p^(r-1-i)
    p = L.meta.get("p", 2)
    r = round(log(L.n, p))
    gens = translation_unitaries(L)
    assert len(gens) == r
    for i, U in enumerate(gens):
        assert np.array_equal(U, unis[p ** (r - 1 - i)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_case_iii(2, MINUS),
        lambda: construct_case_iii(3, PLUS),
        lambda: construct_case_iv(3, 1, MINUS),
        lambda: construct_case_iv(3, 2, PLUS),
        lambda: construct_case_iv(5, 1, MINUS),
        lambda: seeded_orbit(2),
        lambda: seeded_orbit(8),
    ],
)
def test_unit_translations_are_the_translation_permutations(build):
    # the certificate's x -> x + e_k on the label indices, against the dense
    # translation unitaries; the certificate accepts them and misses each one
    L = build()
    p = L.meta.get("p", 2)
    gens = translation_unitaries(L)
    expected = [induced_permutation(L, U) for U in gens]
    assert [tuple(t) for t in _unit_translations(p, len(expected)).tolist()] == expected
    assert action_certificate(L, gens).group_order == L.n
    for k in range(len(gens)):
        with pytest.raises(ValueError, match=rf"unit translations \[{k}\]"):
            action_certificate(L, gens[:k] + gens[k + 1:])


def test_translation_generators_are_unitary():
    for L in (construct_case_iii(2, MINUS), construct_case_iv(3, 1, MINUS)):
        gens = translation_unitaries(L)
        assert len(gens) == 2 * L.meta["m"]
        for U in gens:
            check_unitary(U)


def test_sign_case_translations_are_diagonal():
    L = construct_case_iii(2, MINUS)
    unis = monomial_matrix(*line_translations(L))
    assert unis.dtype == np.int8  # int8 phases keep an int8 matrix
    assert all(U.dtype == np.float64 for U in translation_unitaries(L))
    for U in unis:
        assert np.abs(U - np.diag(np.diag(U))).max() == 0.0
        assert set(np.unique(np.diag(U).real)) <= {-1.0, 1.0}


def test_geometry_unitaries_are_unitary_symmetries():
    for L in (construct_case_iii(2, MINUS), construct_case_iv(3, 1, PLUS)):
        for U in geometry_unitaries(L):
            check_unitary(U)
            induced_permutation(L, U)  # raises if not a symmetry


@pytest.mark.parametrize(
    "build,order",
    [
        (lambda: construct_case_iii(2, MINUS), 11520),
        (lambda: construct_case_iii(2, PLUS), 11520),
        (lambda: construct_case_iv(3, 1, MINUS), 216),
        (lambda: construct_case_iv(3, 1, PLUS), 216),
        (lambda: construct_case_iv(5, 1, MINUS), 3000),
        (lambda: construct_case_iv(5, 1, PLUS), 3000),
    ],
)
def test_symmetry_groups_are_two_transitive_with_known_order(build, order):
    L = build()
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.two_transitive
    assert cert.group_order == order


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
@pytest.mark.parametrize("eigen", [MINUS, PLUS])
def test_weil_label_maps_give_the_induced_permutations(p, m, eigen):
    # U (x) conj(R) fixes line 0 and sends line i, D(label_i) applied to line 0,
    # to the line of D(S label_i): its permutation is read off the label map S,
    # taken from label arithmetic alone, and _affine_map reads S back off the
    # permutation
    L = construct_case_iv(p, m, eigen)
    labels = lex_digits(p, 2 * m)
    even, odd = parity_split(p, m)
    iota = odd if eigen is MINUS else even
    gens = transvection_unitaries(p, m)
    kron = _weil_kron(L)
    assert len(kron) == len(gens) == 4 * m - 1
    for U, W_kron, S in zip(gens, kron, chain_transvections(p, m), strict=True):
        W = np.kron(U, (iota.conj().T @ U @ iota).conj())
        assert np.array_equal(W, W_kron)
        perm = induced_permutation(L, W)
        assert tuple(lex_index(labels @ S.T % p, p).tolist()) == perm
        S_read, b = _affine_map(perm, labels, p)
        assert np.array_equal(S_read, S) and not b.any()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("tag", [MINUS, PLUS])
def test_transvection_line_permutations_are_the_transvections(m, tag):
    # label digit j is bit j + 1 of the packed vector (bit 0 spans the
    # radical), and the transvection of u fixes line 0: column k of S is the
    # image of 2 << k with its radical bit dropped
    L = construct_case_iii(m, tag)
    labels = lex_digits(2, 2 * m)
    us = nonsingular_vectors(m)
    for u, perm in zip(us, _transvection_perms(m, tag, us), strict=True):
        S, b = _affine_map(induced_permutation(L, monomial_matrix(np.array(perm))), labels, 2)
        images = [transvection(m, u, 2 << k) & ~1 for k in range(2 * m)]
        assert np.array_equal(S, [[x >> (j + 1) & 1 for x in images] for j in range(2 * m)])
        assert not b.any()
    # geometry_unitaries takes the m(2m + 1) nonsingular directions whose
    # labels are e_i and then e_i + e_j for i < j in lexicographic order, and
    # the label map of each is the symplectic transvection x -> x + omega(x, a) a
    # along its label a, omega pairing the digits 2i and 2i + 1
    weight_two = _weight_two_directions(m).tolist()
    units = [1 << k for k in range(2 * m)]
    pairs = [units[i] | units[j] for i in range(2 * m) for j in range(i + 1, 2 * m)]
    assert [u >> 1 for u in weight_two] == units + pairs
    J = np.kron(np.eye(m, dtype=np.int64), [[0, 1], [1, 0]])
    geometry = geometry_unitaries(L)
    assert len(geometry) == m * (2 * m + 1)
    for u, U in zip(weight_two, geometry, strict=True):
        assert quadratic_form(m, u) == 1
        a = np.array([u >> (j + 1) & 1 for j in range(2 * m)])
        assert 1 <= a.sum() <= 2
        S, b = _affine_map(induced_permutation(L, U), labels, 2)
        assert np.array_equal(S, (np.eye(2 * m, dtype=np.int64) + np.outer(a, J @ a)) % 2)
        assert not b.any()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("tag", [MINUS, PLUS])
def test_case_iii_group_is_the_translations_by_the_symplectic_group(m, tag):
    # |G| = n |Sp(2m, 2)| = 4^m 2^(m^2) prod_(i=1..m) (4^i - 1), from the
    # formula; the symmetries are the 2m translations and the m(2m + 1)
    # transvections along labels of weight one and two
    L = construct_case_iii(m, tag)
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.group_order == 4**m * 2 ** (m * m) * prod(4**i - 1 for i in range(1, m + 1))
    assert cert.transitive and cert.two_transitive
    assert cert.matched_unitaries == 2 * m + m * (2 * m + 1)


def _closed_stabilizer(L):
    """The whole group line0_stabilizer's generators generate, with its
    phases on line 0: the reference for the generator certificate.  Case iii
    closes the transvection permutations (close_permutations) and takes each
    with its negative, phases +-1.  Case iv closes the Weil transvections
    keyed on their closed-form label maps S, which fix the line-space
    unitary: S fixes U up to a phase, and that phase cancels in
    U (x) conj(R)."""
    if L.meta["case"] == "iii":
        unis, phases = [], []
        tag = HyperplaneType(L.meta["type"])
        us = nonsingular_vectors(L.meta["m"])
        for perm in close_permutations(_transvection_perms(L.meta["m"], tag, us)):
            P = monomial_matrix(np.array(perm))
            unis.extend((P, -P))
            phases.extend((1.0, -1.0))
        return unis, phases
    p, m = L.meta["p"], L.meta["m"]
    base = list(zip(chain_transvections(p, m), _weil_kron(L), strict=True))
    closed, seen = [], set()
    frontier = [(np.eye(2 * m, dtype=np.int64), np.eye(L.d, dtype=complex))]
    while frontier:
        S, W = frontier.pop()
        if S.tobytes() not in seen:
            seen.add(S.tobytes())
            closed.append(W)
            frontier.extend((G_S @ S % p, G_W @ W) for G_S, G_W in base)
    v0 = L.vectors[:, 0]
    return closed, [complex(np.vdot(v0, W @ v0)) for W in closed]


def _assert_generators_match_the_closed_group(L, group_size):
    # the generators fix line 0 with their phases, and their certificate has
    # the rank and range of the averaging projector over the closed group
    unis, phases = line0_stabilizer(L)
    base = L.vectors[:, 0]
    for U, lam in zip(unis, phases):
        assert abs(abs(lam) - 1.0) < 1e-8
        assert np.abs(U @ base - lam * base).max() < 1e-7
    closed, closed_phases = _closed_stabilizer(L)
    assert len(closed) == len(closed_phases) == group_size
    for U, lam in zip(closed[:50], closed_phases[:50]):
        assert np.abs(U @ base - lam * base).max() < 1e-7
    pi = sum(np.conj(lam) * U for U, lam in zip(closed, closed_phases)) / len(closed)
    assert np.linalg.norm(pi @ pi - pi, 2) < 1e-12  # the closed group's projector
    oracle = multiplicity_certificate(L, closed, closed_phases)
    cert = multiplicity_certificate(L, unis, phases)
    assert oracle.rank == cert.rank == 1
    assert oracle.range_is_line0 and cert.range_is_line0
    assert oracle.gap == pytest.approx(1.0, abs=1e-12)
    assert 0.05 <= cert.gap <= 1.0 + 1e-12
    return closed_phases


def test_stabilizer_sign_case():
    for tag in (MINUS, PLUS):
        # 720 permutations times +-1
        phases = _assert_generators_match_the_closed_group(construct_case_iii(2, tag), 1440)
        assert set(phases) == {1.0, -1.0}


@pytest.mark.parametrize(
    "p,eigen,size",
    [(3, MINUS, 24), (3, PLUS, 24), (5, MINUS, 120), (5, PLUS, 120), (7, MINUS, 336),
     (7, PLUS, 336)],
)
def test_stabilizer_odd_prime_case(p, eigen, size):
    # the closed group is the full 2x2 symplectic group over F_p
    _assert_generators_match_the_closed_group(construct_case_iv(p, 1, eigen), size)


@pytest.mark.parametrize(
    "build",
    [lambda: construct_case_iii(3, MINUS), lambda: construct_case_iii(3, PLUS),
     lambda: construct_case_iv(3, 2, MINUS), lambda: construct_case_iv(3, 2, PLUS)],
    ids=["iii-3-minus", "iii-3-plus", "iv-3-2-minus", "iv-3-2-plus"],
)
def test_stabilizer_generators_certify_past_the_closure_rows(build):
    # rows whose stabilizer was never enumerated: the generators alone
    # certify multiplicity one, with room to spare
    L = build()
    unis, phases = line0_stabilizer(L)
    assert all(abs(abs(lam) - 1.0) < 1e-8 for lam in phases)  # each fixes line 0
    cert = multiplicity_certificate(L, unis, phases)
    assert cert.rank == 1 and cert.range_is_line0
    assert cert.gap >= 0.05


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scanned_words_give_a_line0_stabilizer_of_multiplicity_one(d, seed):
    # each scanned word U, label map x -> S x + b, gives h = T_b^-1 U in the
    # stabilizer of line 0; the 2-transitive action implies rank 1 (see
    # equiline.action), and the generators alone show it with room to spare
    L = orbit_lineset(search_fiducial(SearchConfig(d=d, seed=seed))[0], d)
    unis, phases = line0_stabilizer(L)
    base = L.vectors[:, 0]
    for h, lam in zip(unis, phases):
        assert abs(abs(lam) - 1.0) < 1e-8
        assert np.abs(h @ base - lam * base).max() < 1e-7
    cert = multiplicity_certificate(L, unis, phases)
    assert cert.rank == 1 and cert.range_is_line0
    assert cert.gap >= 0.05


def test_orbit_case_symmetries_reach_two_transitivity():
    v, _ = search_fiducial(SearchConfig(d=2, seed=1))
    L = orbit_lineset(v, 2)
    unis = symmetry_unitaries(L)
    perms = [induced_permutation(L, U) for U in unis]
    assert two_transitivity(perms)
    # translations alone are only simply transitive
    tperms = [induced_permutation(L, U) for U in translation_unitaries(L)]
    assert is_transitive(tperms) and not two_transitivity(tperms)


def test_clifford_scan_stops_as_soon_as_the_group_is_two_transitive():
    # case ii, d = 8, seed 1: the scan keeps two words, then the chain
    # reports 2-transitivity and the scan stops
    v, _ = search_fiducial(SearchConfig(d=8, seed=1))
    L = orbit_lineset(v, 8)
    assert len(geometry_unitaries(L)) == 2
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.matched_unitaries == 8
    assert cert.group_order == 387072
    assert cert.two_transitive


def _word_unitary(gens, word):
    U = np.eye(gens[0].shape[0], dtype=complex)
    for idx in word:
        U = gens[idx] @ U
    return U


def _scan_words(letters, count):
    """The scan's first count words, drawn a block at a time from its seeded
    generator as the scan draws them."""
    rng = np.random.default_rng(CLIFFORD_SEARCH_SEED)
    blocks = [rng.integers(0, letters, size=(_CLIFFORD_BLOCK, _CLIFFORD_WORD_LENGTH))
              for _ in range(-(-count // _CLIFFORD_BLOCK))]
    return np.concatenate(blocks)[:count]


def _affine_perm(S, b, p):
    """x -> S x + b on the lexicographic indices of F_p^k."""
    labels = lex_digits(p, len(b))
    return tuple(lex_index(labels @ np.asarray(S).T + b, p).tolist())


def _agl1(p):
    """T x| H = AGL(1, p): x -> x + 1, then x -> g x + 1 for g a primitive root."""
    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    return 1, p, [_affine_perm([[g]], [1], p)]


def _agl2_subgroup(rng, k):
    """1-3 affine maps of F_2^k with random translation parts: linear parts
    that are random invertible matrices (mostly generating GL(k, 2)) or, half
    the time, upper unitriangular ones, which fix the line of e_0."""
    upper = rng.random() < 0.5
    gens = []
    while len(gens) < int(rng.integers(1, 4)):
        S = rng.integers(0, 2, size=(k, k))
        if upper:
            S = np.triu(S, 1) + np.eye(k, dtype=int)
        if round(np.linalg.det(S)) % 2:
            gens.append(_affine_perm(S, rng.integers(0, 2, size=k), 2))
    return k, 2, gens


def _seeded_agl2_subgroups(seed, count):
    rng = np.random.default_rng(seed)
    return [_agl2_subgroup(rng, int(rng.integers(2, 5))) for _ in range(count)]


# T x| H as (k, p, generators of H as affine maps): AGL(1, p), then seeded
# subgroups of AGL(k, 2), 2 <= k <= 4
PAIR_ORBIT_GROUPS = [*(_agl1(p) for p in (5, 7, 11)), *_seeded_agl2_subgroups(61, 16)]


def _line_orbit_agrees_with_chain(k, p, gens):
    """The scan's stop rule, the orbit of line 1 under the linear parts of
    gens, is full exactly when the chain of the translations and gens is
    2-transitive, after every added generator."""
    translations = [tuple(t) for t in _unit_translations(p, k).tolist()]
    labels = lex_digits(p, k)
    linear = []
    complete = _moves_line1_everywhere(linear, p**k)
    assert complete == StabilizerChain(translations).two_transitive
    for j, g in enumerate(gens, 1):
        S, _ = _affine_map(g, labels, p)
        linear.append(lex_index(labels @ S.T, p))
        if p == 2:  # over F_2 labels add by XOR, so the linear part is g ^ g[0]
            assert np.array_equal(linear[-1], np.array(g) ^ g[0])
        complete = _moves_line1_everywhere(linear, p**k)
        assert complete == StabilizerChain(translations + gens[:j]).two_transitive, gens[:j]
    return complete


@pytest.mark.parametrize("gens", PAIR_ORBIT_GROUPS)
def test_pair_orbit_stop_rule_matches_the_chain_on_known_groups(gens):
    # the orbit of the pair (0, 1) holds every pair of distinct lines iff
    # that of line 1 under the line-0 stabilizer holds every line but 0
    _line_orbit_agrees_with_chain(*gens)


def test_pair_orbit_stop_rule_matches_the_chain_on_random_generators():
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(100):
        k, p, gens = _agl2_subgroup(rng, int(rng.integers(1, 5)))
        outcomes.add(_line_orbit_agrees_with_chain(k, p, gens))
    for p in (3, 5, 7, 11, 13):  # subgroups x -> a x + b of AGL(1, p)
        for _ in range(10):
            gens = [_affine_perm([[int(rng.integers(1, p))]], [int(rng.integers(p))], p)
                    for _ in range(int(rng.integers(1, 3)))]
            outcomes.add(_line_orbit_agrees_with_chain(1, p, gens))
    assert outcomes == {True, False}


def test_scan_allocates_little():
    # the scan's temporaries stay small: no all-generators image of a frontier,
    # and no cache kept from one call to the next
    v, _ = search_fiducial(SearchConfig(d=8, seed=1))
    L = orbit_lineset(v, 8)
    symmetry_unitaries(L)  # imports and first-call set-up
    tracemalloc.start()
    try:
        symmetry_unitaries(L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_clifford_letters_are_the_kron_products(k):
    one = {"h": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "s": np.diag([1, 1j]),
           "x": np.array([[0, 1], [1, 0]]), "0": np.diag([1, 0]), "1": np.diag([0, 1])}

    def kron(gates):  # gates: qubit -> name, the identity elsewhere
        M = np.eye(1)
        for j in range(k):
            M = np.kron(M, one[gates[j]] if j in gates else np.eye(2))
        return M

    expected = [kron({i: g}) for i in range(k) for g in "hs"]
    expected += [kron({c: "0"}) + kron({c: "1", t: "x"})  # CNOT, control c, target t
                 for c in range(k) for t in range(k) if c != t]
    assert np.array_equal(_qubit_clifford_generators(k), np.array(expected))
    # S and CNOT are monomials whose permutations are involutions, so the
    # gather index monomial_matrix reads is the permutation itself
    letters = _qubit_clifford_generators(k)
    for M in (*letters[1 : 2 * k : 2], *letters[2 * k :]):
        pattern = M != 0
        assert (pattern.sum(axis=1) == 1).all() and np.array_equal(pattern, pattern.T)


def test_line0_filter_keeps_every_word_the_exact_test_accepts():
    v, _ = search_fiducial(SearchConfig(d=8, seed=1))
    L = orbit_lineset(v, 8)
    V = L.vectors
    gens = _qubit_clifford_generators(3)
    words = _scan_words(len(gens), 2000)
    kept = _line0_candidates(L, gens, words, 1e-8)
    # induced_permutation's line-0 test, one word at a time
    exact = np.array([
        np.count_nonzero(np.abs((_word_unitary(gens, w) @ V[:, 0]).conj() @ V) >= 1.0 - 1e-8) == 1
        for w in words
    ])
    assert exact.any() and not kept.all()
    assert not (exact & ~kept).any()


def _scan_one_word_at_a_time(L):
    """The Clifford scan without the batched line-0 test: each of the scan's
    words alone through induced_permutation, kept when its linear part is
    neither the identity nor one kept before, until the chain of the
    translations and the words kept is 2-transitive."""
    gens = _qubit_clifford_generators(L.d.bit_length() - 1)
    perms = [induced_permutation(L, U) for U in translation_unitaries(L)]
    chain, seen, found = StabilizerChain(perms), {tuple(range(L.n))}, []
    words = iter(_scan_words(len(gens), 5000))
    while not chain.two_transitive:
        U = _word_unitary(gens, next(words))
        try:
            perm = induced_permutation(L, U)
        except NotASymmetry:
            continue
        linear = tuple(x ^ perm[0] for x in perm)
        if linear not in seen:
            seen.add(linear)
            chain.add(perm)
            found.append(U)
    return found


@pytest.mark.parametrize("d,seed", [(2, 1), (2, 3), (8, 1), (8, 2)])
def test_batched_scan_keeps_the_same_words(d, seed):
    v, _ = search_fiducial(SearchConfig(d=d, seed=seed))
    L = orbit_lineset(v, d)
    batched = [U.tobytes() for U in geometry_unitaries(L)]
    assert batched == [U.tobytes() for U in _scan_one_word_at_a_time(L)]


def _searched_orbit(d, seed):
    v, _ = search_fiducial(SearchConfig(d=d, seed=seed))
    return orbit_lineset(v, d)


def test_scan_keeps_no_word_that_acts_as_the_identity():
    # nor a word acting as a translation, nor two words with one linear part
    for d in (2, 8):
        for seed in range(1, 21):
            L = _searched_orbit(d, seed)
            perms = [induced_permutation(L, U) for U in geometry_unitaries(L)]
            linear = [tuple(x ^ perm[0] for x in perm) for perm in perms]
            assert len(set(linear)) == len(linear), (d, seed)
            assert tuple(range(L.n)) not in linear, (d, seed)


@pytest.mark.parametrize("d,order", [(2, 12), (8, 387072)])
def test_scan_reaches_two_transitivity_on_further_seeds(d, order):
    for seed in range(21, 61):
        L = _searched_orbit(d, seed)
        cert = action_certificate(L, symmetry_unitaries(L))
        claims = cert.group_order, cert.transitive, cert.two_transitive
        assert claims == (order, True, True), seed


def test_orbit_case_detection_is_deterministic():
    assert CLIFFORD_SEARCH_SEED == 7
    v, _ = search_fiducial(SearchConfig(d=2, seed=1))
    L = orbit_lineset(v, 2)
    a = [induced_permutation(L, U) for U in geometry_unitaries(L)]
    b = [induced_permutation(L, U) for U in geometry_unitaries(L)]
    assert a == b


def test_unknown_case_rejected():
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    cols /= np.linalg.norm(cols, axis=0)
    with pytest.raises(ValueError):
        symmetry_unitaries(LineSet(cols, {"case": "x"}))
    with pytest.raises(ValueError):
        translation_unitaries(LineSet(cols))


@pytest.mark.parametrize(
    "change",
    [
        {"m": None},  # missing
        {"m": 3},
        {"m": 40},
        {"type": "plus"},  # d = 6 is the minus row of n = 16
        {"case": "iv"},
        {"case": "ii"},
    ],
)
def test_meta_is_checked_against_the_dimensions(change):
    L = construct_case_iii(2, MINUS)
    meta = {k: v for k, v in {**L.meta, **change}.items() if v is not None}
    with pytest.raises(ValueError):
        symmetry_unitaries(LineSet(L.vectors, meta))


def test_odd_prime_meta_is_checked_against_the_dimensions():
    L = construct_case_iv(3, 1, MINUS)
    for change in ({"p": 5}, {"m": 2}, {"eigen": "plus"}, {"p": None}):
        meta = {k: v for k, v in {**L.meta, **change}.items() if v is not None}
        with pytest.raises(ValueError):
            translation_unitaries(LineSet(L.vectors, meta))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("tag", [MINUS, PLUS])
def test_transvection_perms_match_functional_pullbacks(m, tag):
    phis = enumerate_hyperplanes(m, tag)
    index = {phi: i for i, phi in enumerate(phis)}
    expected = [
        tuple(index[transvection_on_functional(m, u, phi)] for phi in phis)
        for u in nonsingular_vectors(m)
    ]
    assert _transvection_perms(m, tag, nonsingular_vectors(m)) == expected


# sha256 of the int64 bytes of the stacked permutations, as the per-(u, phi)
# loop over the general form gave them before the closed forms replaced it
TRANSVECTION_DIGESTS = {
    (2, MINUS): "1003e73a7868b029250c16d30e33b282937c2597da7bea0faa97ebfccd4988ec",
    (2, PLUS): "48a4c31bf4a7d261e7ee7c2f7f01e5ecc3709f5da66c01820968cca209e3078f",
    (3, MINUS): "d2758020e39dea10ec7c28888365e2292cc09a488a2835de3ad5079a7a2bc773",
    (3, PLUS): "722f5efe17bc7181e590dab4ce689ebfb005206d2d8ebbec4159b1b07af9996e",
    (4, MINUS): "9afe091846ac9df837acda2691e3e4b3a1dda1b5853af947ccf7cc9d6ca0cad9",
    (4, PLUS): "7bfe8c0e33ef9598b1ef428d18d85e4f54cbf4719282856ee5f0c6f846c3520e",
    (5, MINUS): "6dc83ef5db8fc4a87be2cc8ce1621d78f9e6b128c0d57461bee5381085d127db",
    (5, PLUS): "940baec8c4ef3d63e7f53f0c452187498aee723ae1b59ef83278e2cb478f7617",
}


@pytest.mark.parametrize("m,tag", list(TRANSVECTION_DIGESTS))
def test_transvection_perms_digests(m, tag):
    perms = np.array(_transvection_perms(m, tag, nonsingular_vectors(m)), dtype=np.int64)
    assert hashlib.sha256(perms.tobytes()).hexdigest() == TRANSVECTION_DIGESTS[(m, tag)]
    # involutions, so each is its own gather index for monomial_matrix
    assert np.array_equal(np.take_along_axis(perms, perms, axis=1),
                          np.broadcast_to(np.arange(perms.shape[1]), perms.shape))
