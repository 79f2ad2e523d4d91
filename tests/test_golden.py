"""Byte-level pins of the constructions, the Schrödinger representation, the
`equiline action` payload and the `equiline certify` report.

The digests are sha256 of the serialized line sets, of the stacked
representation matrices (with + 0.0 so that signed zeros compare equal), of
the action command's stdout and of the certify command's reports.  They hold
the output of every family, of every representation entry and of every
certified group fixed, so a change in how translations, displacements or
stabilizer chains are built cannot move a byte.  On the same rows the core
calls of `equiline.cli` must return exactly what the commands write.
"""

import hashlib
import json

import numpy as np
import pytest

from equiline.cli import (
    EXIT_OK,
    Refused,
    action_payload,
    certify_report,
    construct_lineset,
    main,
    read_lineset,
)
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.finfield import HyperplaneType
import equiline.serialize
from equiline.lineset import (
    LineSet,
    _line_table,
    construct_case_iii,
    construct_case_iv,
    line_translations,
    orbit,
)
from equiline.serialize import _entry_table, _orbit_codes, _token, serialize_lineset
from oracles import group_elements, schroedinger_rep, valid_rep_indices


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CONSTRUCTIONS = {
    ("iii", 2, "minus"): "d8565dc0328dacb31b663325502087c8e21984c78304b77c6e41b4f47156e2ff",
    ("iii", 2, "plus"): "a5c0cc0fe80f86d2ed6ccb16966e654d3df676d7e2604d0771000d0a37c0d8ec",
    ("iii", 3, "minus"): "07fe989cd7a04a5c83bca42a4a1a9aeacf7b3269a18a8c3042f28121fe5aa9ac",
    ("iii", 3, "plus"): "f05fc8284ab4626ef7029e909905b2ec85dc457ab6b2f748e1323e7ee1c31659",
    ("iv", 3, 1, "minus"): "d0eccd300be4cccaf00e63bec1b142d5df57277432abb906a035a8ead418d68e",
    ("iv", 3, 1, "plus"): "7c1f46a22c054cd183aadb87061d7b0935ddbb97993d36fd65db862b31aaef9e",
    ("iv", 5, 1, "minus"): "573bcad46811225b5a1363a375bc5297816558d61ac4d97686812a17619318b4",
    ("iv", 5, 1, "plus"): "109a6839d349dabb285d2c37d98bf380723d99ff315e5468b202dac718c0bace",
    ("iv", 3, 2, "minus"): "b1ce002e4fb48a287c8fd385dffcf8e44431a833e4e73e0f786a765a693143ac",
    ("iv", 3, 2, "plus"): "2e1b3a6a9cf714224446fc5421da0f60827e9f5470394a2a5f7e213c7ad441ea",
}

ORBITS = {
    2: "89ceae48670f0c62fd747c80f7e509ee52b638a99155bf291408cd0fc399ba36",
    8: "c8351da2acc13c8f918c4ea2f39ea2c0e6a79a517ccb8c60c64ee390258d97e4",
}

# The i and ii rows follow the Clifford scan's seeded words (blocks of 64
# words of 16 letters, a word kept for a new linear part that is not the
# identity): a change to that stream moves their generators, never their
# group orders.  The iii rows list the translations, then the m(2m + 1)
# hyperplane permutations of the transvections along the labels e_i and then
# e_i + e_j for i < j.  The iv rows list the translations, then the Weil
# transvections along a_1, b_1, ..., a_m, b_m and the neighbour sums.
ACTIONS = {
    ("ii", "--seed", "1"): "996f7c6d324caab21eae1c4ac3d80d6398d9d62cb70f048f9363f7eaa1fd39ef",
    ("ii", "--seed", "2"): "478cf0826e652d46741bc3f61d3f5af034e88f83ac4d3db01ff18d5ba93dabc4",
    ("ii", "--seed", "3"): "95aa2841f3791aef3e2525a6d568857cf33b4d6647fcf6cf037e254268b0db8f",
    ("i", "--seed", "1"): "9ebdc460b651ce7829d1f69ec8a933aa8a22b316ed92a33ae8e3c907cd129e2e",
    ("iii", "--m", "2", "--type", "minus"): "539d374e5762f48480b271310a18c920222cfb2fa78d1bc285a4df620c66c6d4",
    ("iii", "--m", "3", "--type", "minus"): "b49ccaf7d0810b4cfff02e19c2e3881be5d5786b9a83f8e719b371ca313a3d01",
    ("iv", "--p", "3", "--m", "1", "--eigen", "minus"): "47eff99788d3a725b20b85816afb1297e33fa1316bb8a3be5ae6c6adeb3cf11e",
    ("iv", "--p", "3", "--m", "2", "--eigen", "plus"): "6ea4d684b476b4477ef3888b2d402b224ea1af4fdd827e13d715940c5d2843d1",
}

# `construct` output of the search seeds whose best restarts tie to 1e-16 in
# f (case i seeds 3 and 19, ii seeds 3 and 18), as the one-restart-at-a-time
# search wrote it: the lockstep search must reach every restart's last bit.
SEARCHES = {
    ("i", "3"): "3ae437d785bd904bc9fdf33c3a3eb83f70d291f93aa00177e343197ef1146a1a",
    ("i", "19"): "5da1b24373ca544f4ae8cf65ff039b86e1c80a5760dd423d06bb68143dd62603",
    ("ii", "3"): "cd35b641685759cfe3e06412bc2b10c20faf15d670f59cb90b9889baf17ef10a",
    ("ii", "18"): "35b92d2a87e67ab4eb2e4702cd10484dbb278a73123b93a0e829d563fd2cbfb5",
}

# One sha256 over the `construct` stdout and then the `action` stdout of every
# search-seeds benchmark row: case ii, then case i, seeds 1-20 each.  Its
# `action` half follows the scan's words as the i and ii rows above do.
SEARCH_SEED_OUTPUTS = "a63e9a1a35004cba506ad821b6762a1dc842916b19b591dc5a064449f9823f99"

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


def _built(key):
    """The line set of a CONSTRUCTIONS key, or of a (case, seed) search."""
    if key[0] in ("i", "ii"):
        v, _ = search_fiducial(SearchConfig(d=2 if key[0] == "i" else 8, seed=key[1]))
        return orbit_lineset(v, v.shape[0])
    tag = HyperplaneType(key[-1])
    return construct_case_iii(key[1], tag) if key[0] == "iii" else construct_case_iv(*key[1:3], tag)


# every construction row, iv (7, 2) both types, and the searched i and ii sets
ORBIT_KEYS = [
    *sorted(CONSTRUCTIONS, key=str), ("iv", 7, 2, "minus"), ("iv", 7, 2, "plus"),
    *((case, seed) for case in ("i", "ii") for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("key", ORBIT_KEYS, ids=str)
def test_constructed_sets_are_the_orbit_of_their_line_0(key):
    # the reader of serialize rebuilds a tagged file from its line 0 on this;
    # == takes -0.0 for 0.0, which both print as 0
    L = _built(key)
    assert np.array_equal(orbit(L.vectors[:, 0], *line_translations(L)), L.vectors)


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


@pytest.mark.parametrize("key", ORBIT_KEYS, ids=str)
def test_the_orbit_built_set_is_the_checked_set_bit_for_bit(key):
    # LineSet.from_orbit reads signs, orbit_eps and frame off line 0; the
    # checked LineSet proves them against every column
    L = _built(key)
    checked = LineSet(L.vectors, L.meta)
    for name in ("vectors", "signs", "norms", "frame"):
        assert _bits(getattr(L, name)) == _bits(getattr(checked, name)), name
    assert L.orbit_eps == checked.orbit_eps == 0.0
    assert L.frame_slack == checked.frame_slack
    again = LineSet.from_orbit(L.vectors[:, 0], L.meta, L.n)
    assert _bits(again.vectors) == _bits(L.vectors)


def _tokens(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    return np.array([_token(z) for z in values.tolist()], object)[codes]


@pytest.mark.parametrize("key", ORBIT_KEYS, ids=str)
def test_orbit_codes_give_the_entry_table_tokens(key):
    L = _built(key)
    _, index, _, codes, roots = _line_table(L.meta, L.n, L.d)
    values, text_codes = _orbit_codes(L.vectors[:, 0], index, codes, roots)
    assert text_codes.shape == (L.n, L.d)
    assert np.array_equal(_tokens(values, text_codes), _tokens(*_entry_table(L.vectors)))


@pytest.mark.parametrize("key", ORBIT_KEYS, ids=str)
def test_a_tagged_set_one_ulp_off_its_orbit_is_written_from_the_entry_table(key, monkeypatch):
    # the largest real part of an interior column moves one ulp away from
    # zero: within the orbit and sign tolerances, so the set keeps its
    # orbit_eps, but line 0's codes no longer give back its columns
    L = _built(key)
    V, line = L.vectors.copy(), L.n // 2
    k = np.argmax(np.abs(V[:, line].real))
    V[k, line] += np.spacing(V[k, line].real)
    moved = LineSet(V, L.meta)
    assert moved.orbit_eps is not None
    text = serialize_lineset(moved)
    monkeypatch.setattr(equiline.serialize, "_orbit_table", lambda lines: None)
    assert text == serialize_lineset(moved) != serialize_lineset(L)


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


@pytest.mark.parametrize("args", sorted(ACTIONS))
def test_action_bytes(tmp_path, capsys, args):
    path = str(tmp_path / "lines.json")
    assert main(["construct", "--case", *args, "--out", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["action", path]) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == ACTIONS[args]


@pytest.mark.parametrize("case,seed", sorted(SEARCHES))
def test_search_bytes(tmp_path, case, seed):
    path = tmp_path / "lines.json"
    assert main(["construct", "--case", case, "--seed", seed, "--out", str(path)]) == EXIT_OK
    assert sha256(path.read_bytes()) == SEARCHES[(case, seed)]


def test_search_seed_outputs(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "lines.json"
    for case in ("ii", "i"):
        for seed in range(1, 21):
            assert main(["construct", "--case", case, "--seed", str(seed)]) == EXIT_OK
            lines = capsys.readouterr().out
            path.write_text(lines)
            assert main(["action", str(path)]) == EXIT_OK
            digest.update(lines.encode())
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SEARCH_SEED_OUTPUTS


# every `construct` argument list pinned above, as the core tests below run it
CORE_ROWS = sorted({
    *(("iii", "--m", str(k[1]), "--type", k[2]) for k in CONSTRUCTIONS if k[0] == "iii"),
    *(("iv", "--p", str(k[1]), "--m", str(k[2]), "--eigen", k[3]) for k in CONSTRUCTIONS
      if k[0] == "iv"),
    *ACTIONS,
    *((case, "--seed", seed) for case, seed in SEARCHES),
})

# One sha256 over the `certify --out` report, or else the exit code and the
# stderr line, of every CORE_ROWS set in order.
CERTIFY_OUTCOMES = "33427a94676ad75ae7c16fb3eedebba934bf11934c61281f720935a4495c85c9"


def _row_id(args) -> str:
    return "-".join(arg.lstrip("-") for arg in args)


def _stderr_lines(capsys) -> list[str]:
    """The stderr lines captured since the last reading, without the manifest."""
    return [line for line in capsys.readouterr().err.splitlines() if not line.startswith("manifest")]


def test_certify_outcome_bytes(tmp_path, capsys):
    digest = hashlib.sha256()
    path, report = tmp_path / "lines.json", tmp_path / "report.json"
    for args in CORE_ROWS:
        assert main(["construct", "--case", *args, "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["certify", str(path), "--out", str(report)])
        err = _stderr_lines(capsys)
        digest.update(report.read_bytes() if code == EXIT_OK else f"{code} {err}\n".encode())
        report.unlink(missing_ok=True)
    assert digest.hexdigest() == CERTIFY_OUTCOMES


def _core_construct(case, *options):
    """construct_lineset called with the options of `construct --case case ...`."""
    given = dict(zip(options[::2], options[1::2]))
    number = {key: int(given[f"--{key}"]) for key in ("m", "p", "seed") if f"--{key}" in given}
    return construct_lineset(case, kind=given.get("--type", given.get("--eigen")), **number)


def _same_outcome(tmp_path, capsys, argv, core_call) -> None:
    """`main(argv)` and core_call() write the same bytes to argv's --out or
    refuse with the same exit code and stderr line."""
    out = tmp_path / "out.json"
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    err = _stderr_lines(capsys)
    if code == EXIT_OK:
        assert json.dumps(core_call(), sort_keys=True) + "\n" == out.read_text()
    else:
        with pytest.raises(Refused) as refused:
            core_call()
        assert (refused.value.exit_code, [refused.value.message]) == (code, err)


@pytest.mark.parametrize("args", CORE_ROWS, ids=_row_id)
def test_core_calls_give_the_command_bytes(tmp_path, capsys, args):
    path = tmp_path / "lines.json"
    assert main(["construct", "--case", *args, "--out", str(path)]) == EXIT_OK
    assert serialize_lineset(_core_construct(*args)) == path.read_text()
    lines = read_lineset(str(path))
    _same_outcome(tmp_path, capsys, ["certify", str(path)], lambda: certify_report(lines, 1e-8))
    _same_outcome(tmp_path, capsys, ["action", str(path)], lambda: action_payload(lines, 1e-8))
