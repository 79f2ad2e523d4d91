"""Acceptance gate: one test per shipping criterion, each printing a visible
PASS line with its runtime.  Budgets and tolerances are pinned in-line."""

import time
from fractions import Fraction

import numpy as np
import pytest

from equiline.action import (
    action_certificate,
    induced_permutation,
    scalar_kernel_check,
    two_transitivity,
)
from equiline.fiducial import (
    SearchConfig,
    displacements,
    orbit_lineset,
    search_fiducial,
)
from equiline.finfield import HyperplaneType, enumerate_hyperplanes
from equiline.lineset import (
    certify_equiangular,
    certify_tight,
    construct_case_iii,
    construct_case_iv,
    dimension_pair,
    gram,
    classification_rows,
)
from equiline.symmetries import symmetry_unitaries, translation_unitaries
from oracles import (
    HeisenbergElement,
    frame_potential,
    frame_potential_grad,
    line0_stabilizer,
    multiplicity_certificate,
    schroedinger_rep,
    valid_rep_indices,
)

MINUS, PLUS = HyperplaneType.MINUS, HyperplaneType.PLUS


class Clock:
    """Times a criterion, prints its visible PASS/FAIL line, enforces a budget."""

    def __init__(self, label, budget, capsys):
        self.label = label
        self.budget = budget
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        note = f", budget {self.budget:g} s" if self.budget else ""
        with self.capsys.disabled():
            print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f} s{note})")
        if exc_type is None and self.budget:
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget} s budget"
        return False


@pytest.fixture(scope="module")
def all_sets():
    sets = {
        (16, 6): construct_case_iii(2, MINUS),
        (16, 10): construct_case_iii(2, PLUS),
        (64, 28): construct_case_iii(3, MINUS),
        (64, 36): construct_case_iii(3, PLUS),
        (9, 3): construct_case_iv(3, 1, MINUS),
        (9, 6): construct_case_iv(3, 1, PLUS),
        (25, 10): construct_case_iv(5, 1, MINUS),
        (25, 15): construct_case_iv(5, 1, PLUS),
        (81, 36): construct_case_iv(3, 2, MINUS),
        (81, 45): construct_case_iv(3, 2, PLUS),
    }
    v2, _ = search_fiducial(SearchConfig(d=2, seed=1))
    sets[(4, 2)] = orbit_lineset(v2, 2)
    v8, _ = search_fiducial(SearchConfig(d=8, seed=1))
    sets[(64, 8)] = orbit_lineset(v8, 8)
    return sets


def test_01_sign_family_smallest(capsys):
    with Clock("01 sign-matrix family m=2", 1.0, capsys):
        L = construct_case_iii(2, MINUS)
        assert (L.n, L.d) == (16, 6)
        cert = certify_equiangular(gram(L))
        assert cert.exact and cert.max_dev == 0.0
        assert Fraction(cert.numerator, cert.denominator) == Fraction(1, 3)
        K = construct_case_iii(2, PLUS)
        assert (K.n, K.d) == (16, 10)
        kcert = certify_equiangular(gram(K))
        assert kcert.max_dev == 0.0
        assert Fraction(kcert.numerator, kcert.denominator) == Fraction(1, 5)


def test_02_sign_family_next(capsys):
    with Clock("02 sign-matrix family m=3", 5.0, capsys):
        for tag, d, alpha in ((MINUS, 28, Fraction(1, 7)), (PLUS, 36, Fraction(1, 9))):
            L = construct_case_iii(3, tag)
            assert (L.n, L.d) == (64, d)
            cert = certify_equiangular(gram(L))
            assert cert.exact and cert.max_dev == 0.0
            frac = Fraction(cert.numerator, cert.denominator)
            assert frac == alpha
            assert frac**2 == Fraction(64 - d, d * 63)  # exact extremal identity
            assert certify_tight(gram(L), d)


def test_03_parity_family_single_digit(capsys):
    with Clock("03 parity-eigenspace family m=1", 5.0, capsys):
        cases = [
            (3, MINUS, 9, 3, Fraction(1, 2)),
            (3, PLUS, 9, 6, Fraction(1, 4)),
            (5, MINUS, 25, 10, Fraction(1, 4)),
            (5, PLUS, 25, 15, Fraction(1, 6)),
        ]
        for p, tag, n, d, alpha in cases:
            L = construct_case_iv(p, 1, tag)
            assert (L.n, L.d) == (n, d)
            G = gram(L)
            cert = certify_equiangular(G, tol=1e-9)
            assert abs(cert.alpha**2 - float(alpha) ** 2) < 1e-9
            assert abs(cert.alpha - float(alpha)) < 1e-9
            assert certify_tight(G, d, tol=1e-9)


def test_04_parity_family_eighty_one(capsys):
    with Clock("04 parity-eigenspace family m=2", 60.0, capsys):
        for tag, d in ((MINUS, 36), (PLUS, 45)):
            L = construct_case_iv(3, 2, tag)
            assert (L.n, L.d) == (81, d)
            G = gram(L)
            cert = certify_equiangular(G, tol=1e-8)
            assert cert.max_dev < 1e-8
            assert certify_tight(G, d, tol=1e-8)


def test_05_orbit_family_qubit(capsys):
    with Clock("05 fiducial orbit d=2", 1.0, capsys):
        v, report = search_fiducial(SearchConfig(d=2, seed=1))
        assert report.best_f - 1 / 3 <= 1e-10
        w, report2 = search_fiducial(SearchConfig(d=2, seed=1))
        assert v.tobytes() == w.tobytes() and report == report2  # seed-deterministic
        L = orbit_lineset(v, 2)
        assert L.n == 4
        cert = certify_equiangular(gram(L), tol=1e-7)
        assert abs(cert.alpha**2 - Fraction(1, 3)) < 1e-8


def test_06_orbit_family_three_qubits(capsys):
    with Clock("06 fiducial orbit d=8", 600.0, capsys):
        v, report = search_fiducial(SearchConfig(d=8, seed=1))
        assert report.best_f - 7 / 9 <= 1e-8
        L = orbit_lineset(v, 8)
        assert L.n == 64
        cert = certify_equiangular(gram(L), tol=1e-7)
        assert abs(cert.alpha**2 - Fraction(1, 9)) < 1e-7
        assert certify_tight(gram(L), 8, tol=1e-7)


def test_07_hyperplane_census(capsys):
    with Clock("07 hyperplane census m<=4", 10.0, capsys):
        for m in (1, 2, 3, 4):
            assert len(enumerate_hyperplanes(m, MINUS)) == 2 ** (m - 1) * (2**m - 1)
            assert len(enumerate_hyperplanes(m, PLUS)) == 2 ** (m - 1) * (2**m + 1)


def test_08_two_transitive_actions(capsys, all_sets):
    with Clock("08 two-transitive symmetry groups", None, capsys):
        for L in all_sets.values():
            perms = [induced_permutation(L, U) for U in symmetry_unitaries(L)]
            assert two_transitivity(perms), (L.n, L.d)
            tperms = [induced_permutation(L, U) for U in translation_unitaries(L)]
            assert not two_transitivity(tperms), (L.n, L.d)
        for key, order in (((16, 6), 11520), ((16, 10), 11520), ((9, 3), 216), ((9, 6), 216)):
            L = all_sets[key]
            cert = action_certificate(L, symmetry_unitaries(L))
            assert cert.group_order == order, key


def test_09_multiplicity_one(capsys, all_sets):
    with Clock("09 multiplicity-one stabilizer projectors", None, capsys):
        # multiplicity one follows from 2-transitivity, span and d < n (see
        # equiline.action); the numeric certificate checks it on all four
        # families: iii m = 2, 3 and iv (3, 1), (5, 1), (3, 2), both types,
        # and i and ii at seed 1
        assert {L.meta["case"] for L in all_sets.values()} == {"i", "ii", "iii", "iv"}
        for key, L in all_sets.items():
            unis, phases = line0_stabilizer(L)
            cert = multiplicity_certificate(L, unis, phases)
            assert cert.rank == 1 and cert.range_is_line0, key
            assert cert.gap >= 0.05, key
        for (n, d), L in all_sets.items():
            assert dimension_pair(n, d) == n - d
        assert all(r["d"] + r["d_prime"] == r["n"] for r in classification_rows())


def test_10_trivial_commutants(capsys, all_sets):
    with Clock("10 scalar commutant for every set", None, capsys):
        for (n, d), L in all_sets.items():
            assert n <= 81
            assert scalar_kernel_check(L), (n, d)


def test_11_representation_sanity(capsys):
    with Clock("11 representation identities", None, capsys):
        rng = np.random.default_rng(113)
        for p, m in ((3, 1), (5, 1), (3, 2), (2, 3)):
            mod = p if p > 2 else 4
            for j in valid_rep_indices(p):
                for _ in range(200 // len(valid_rep_indices(p))):
                    g = HeisenbergElement.make(
                        p, m,
                        tuple(int(x) for x in rng.integers(0, p, m)),
                        tuple(int(x) for x in rng.integers(0, p, m)),
                        int(rng.integers(0, mod)),
                    )
                    h = HeisenbergElement.make(
                        p, m,
                        tuple(int(x) for x in rng.integers(0, p, m)),
                        tuple(int(x) for x in rng.integers(0, p, m)),
                        int(rng.integers(0, mod)),
                    )
                    resid = np.abs(
                        schroedinger_rep(g, j) @ schroedinger_rep(h, j)
                        - schroedinger_rep(g * h, j)
                    ).max()
                    assert resid < 1e-12
                for c in range(mod):
                    z = HeisenbergElement.make(p, m, (0,) * m, (0,) * m, c)
                    U = schroedinger_rep(z, j)
                    off = U - np.diag(np.diag(U))
                    assert np.abs(off).max() < 1e-12
                    diag = np.diag(U)
                    assert np.abs(diag - diag[0]).max() < 1e-12


def test_12_gradient_check(capsys):
    with Clock("12 frame-potential gradient", None, capsys):
        rng = np.random.default_rng(211)
        h = 1e-6
        for d in (2, 8):
            disp = displacements(d)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            g = frame_potential_grad(v, disp)
            num = np.empty(d, dtype=complex)
            for k in range(d):
                e = np.zeros(d, dtype=complex)
                e[k] = h
                num[k] = (
                    frame_potential(v + e, disp) - frame_potential(v - e, disp)
                ) / (2 * h) + 1j * (
                    frame_potential(v + 1j * e, disp) - frame_potential(v - 1j * e, disp)
                ) / (2 * h)
            rel = np.linalg.norm(g - num) / np.linalg.norm(num)
            assert rel < 1e-5, d
