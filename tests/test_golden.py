"""Byte-level pins of the constructions and the Schrödinger representation.

The digests are sha256 of the serialized line sets and of the stacked
representation matrices (with + 0.0 so that signed zeros compare equal).  They
hold the output of every family and of every representation entry fixed, so a
change in how translations or displacements are built cannot move a byte.
"""

import hashlib

import numpy as np
import pytest

from equiline.fiducial import orbit_lineset
from equiline.finfield import HyperplaneType
from equiline.heisenberg import group_elements, schroedinger_rep, valid_rep_indices
from equiline.lineset import construct_case_iii, construct_case_iv
from equiline.serialize import serialize_lineset


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CONSTRUCTIONS = {
    ("iii", 2, "minus"): "d8565dc0328dacb31b663325502087c8e21984c78304b77c6e41b4f47156e2ff",
    ("iii", 2, "plus"): "a5c0cc0fe80f86d2ed6ccb16966e654d3df676d7e2604d0771000d0a37c0d8ec",
    ("iii", 3, "minus"): "07fe989cd7a04a5c83bca42a4a1a9aeacf7b3269a18a8c3042f28121fe5aa9ac",
    ("iii", 3, "plus"): "f05fc8284ab4626ef7029e909905b2ec85dc457ab6b2f748e1323e7ee1c31659",
    ("iv", 3, 1, "minus"): "d0eccd300be4cccaf00e63bec1b142d5df57277432abb906a035a8ead418d68e",
    ("iv", 3, 1, "plus"): "7c1f46a22c054cd183aadb87061d7b0935ddbb97993d36fd65db862b31aaef9e",
    ("iv", 5, 1, "minus"): "2d2153e88b0e615d94b7201ba359fbc76ef9e1dbf501f5caea78f15a77e61186",
    ("iv", 5, 1, "plus"): "9142fb4196900671c3d29a7c451b2d952f85d88808ffaa39848a2f89c824a2c7",
    ("iv", 3, 2, "minus"): "b1ce002e4fb48a287c8fd385dffcf8e44431a833e4e73e0f786a765a693143ac",
    ("iv", 3, 2, "plus"): "2c172b063fcdeb4a630b991c7af90d074fd164ec8c1bd78ae6d979c549f2f979",
}

ORBITS = {
    2: "89ceae48670f0c62fd747c80f7e509ee52b638a99155bf291408cd0fc399ba36",
    8: "c8351da2acc13c8f918c4ea2f39ea2c0e6a79a517ccb8c60c64ee390258d97e4",
}

REPRESENTATIONS = {
    (2, 1, 1): "5c11722effc3a811176744f30e0269015a9225ad16c227bde4bbcf1ab93e3892",
    (2, 1, 3): "c2b09d583825b3f29518e949f38eaeabefc29601c6f3cd138a995e707cf4bb01",
    (2, 2, 1): "6348ffd9ddfdfdad3bcd5680531d5fd166fe52cedaca12e7d113c1f8800fe850",
    (2, 2, 3): "82f1a45ee0019ea8ce5f51c80eebb73fbc75502f7571eeb3bdc22a0db1d39558",
    (3, 1, 1): "9ec89147b24cf8f6833b86ad6f2c29d71cc5f86673a93b597e703fe26e7963c2",
    (3, 1, 2): "cbfabe5385769755fa858ae62ac714d3b7a1cd47074b40e1a986cc84b24b5ec5",
    (5, 1, 1): "ff09834ab9b4fcadd1f01a2b7a4d807a172f2edec088f375db4bf0f01e05cd03",
    (5, 1, 2): "f5604754b2cc4d64694aff11ca727a8b625f84de15defeb72da11fe07694b204",
    (5, 1, 3): "d1dc813d79f425764e97c7418c2b8d42ef8597d02ae5ce10a0bb2b1630381ce5",
    (5, 1, 4): "9537ff32369aab50512201e072ae3242f2101e7d71e1821ea6feeffa89cc9819",
}


@pytest.mark.parametrize("key", sorted(CONSTRUCTIONS, key=str))
def test_construction_bytes(key):
    tag = HyperplaneType(key[-1])
    L = construct_case_iii(key[1], tag) if key[0] == "iii" else construct_case_iv(*key[1:3], tag)
    assert sha256(serialize_lineset(L).encode()) == CONSTRUCTIONS[key]


@pytest.mark.parametrize("d", sorted(ORBITS))
def test_orbit_bytes(d):
    rng = np.random.default_rng(2024)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert sha256(serialize_lineset(orbit_lineset(v, d)).encode()) == ORBITS[d]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_representation_bytes(p, m):
    assert {key[2] for key in REPRESENTATIONS if key[:2] == (p, m)} == set(valid_rep_indices(p))
    for j in valid_rep_indices(p):
        stack = np.stack([schroedinger_rep(g, j) for g in group_elements(p, m)]) + 0.0
        assert sha256(stack.tobytes()) == REPRESENTATIONS[(p, m, j)]
