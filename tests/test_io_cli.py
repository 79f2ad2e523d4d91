import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import equiline
import equiline.lineset
import equiline.serialize
import equiline.symmetries
from equiline.cli import (
    EXIT_ACTION_FAILED,
    EXIT_CERT_FAILED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARAMS,
    Refused,
    action_payload,
    certify_report,
    construct_lineset,
    _write,
    main,
    read_lineset,
)
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.finfield import HyperplaneType
from equiline.lineset import AngleCertificate, LineSet, construct_case_iii, construct_case_iv
from equiline.serialize import (
    _encode,
    _entry_table,
    _fmt_float,
    _parse_canonical,
    _parse_json,
    gram_csv,
    parse_lineset,
    serialize_lineset,
)


def test_serialize_round_trip_sign_case():
    L = construct_case_iii(2, HyperplaneType.MINUS)
    text = serialize_lineset(L)
    back = parse_lineset(text)
    assert np.array_equal(back.vectors, L.vectors)  # 17 digits round-trips doubles
    assert back.meta == L.meta
    assert back.signs is not None and np.array_equal(back.signs, L.signs)
    assert serialize_lineset(back) == text


def test_serialize_round_trip_complex_case():
    L = construct_case_iv(3, 1, HyperplaneType.PLUS)
    text = serialize_lineset(L)
    back = parse_lineset(text)
    assert np.array_equal(back.vectors, L.vectors)
    assert back.meta == L.meta
    assert back.signs is None
    assert serialize_lineset(back) == text


@pytest.mark.parametrize("build, dtype", [
    (lambda: construct_case_iii(2, HyperplaneType.PLUS), np.float64),
    (lambda: construct_case_iii(3, HyperplaneType.MINUS), np.float64),
    (lambda: construct_case_iv(3, 1, HyperplaneType.PLUS), np.complex128),
], ids=["iii-m2", "iii-m3", "iv-p3-m1"])
def test_both_readers_keep_the_storage_rule(build, dtype):
    # real columns come back as C-ordered float64 with int8 signs, complex
    # ones as complex128, from the canonical reader and the json one alike
    L = build()
    text = serialize_lineset(L)
    other = json.dumps(json.loads(text))
    assert _parse_canonical(text)[1].vectors.dtype == _parse_json(other)[1].dtype == dtype
    fast, slow = parse_lineset(text), parse_lineset(other)
    assert np.array_equal(fast.vectors.view(np.uint64), slow.vectors.view(np.uint64))
    for back in (fast, slow):
        assert back.vectors.dtype == L.vectors.dtype == dtype
        assert back.vectors.flags.c_contiguous or dtype is np.complex128
        assert np.array_equal(back.vectors, L.vectors)
        if dtype is np.float64:
            assert back.signs.dtype == np.int8 and np.array_equal(back.signs, L.signs)
        else:
            assert back.signs is None


def test_serialized_shape_and_fields():
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    obj = json.loads(serialize_lineset(L))
    assert obj["case"] == "iv" and obj["n"] == 9 and obj["d"] == 3
    assert obj["params"] == {"p": 3, "m": 1, "eigen": "minus"}
    assert len(obj["vectors"]) == 9
    assert all(len(col) == 3 for col in obj["vectors"])
    assert all(len(entry) == 2 for col in obj["vectors"] for entry in col)


def test_parse_rejects_malformed_input():
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    obj = json.loads(serialize_lineset(L))
    bad = dict(obj, n=8)
    with pytest.raises(ValueError):
        parse_lineset(json.dumps(bad))
    with pytest.raises(KeyError):
        parse_lineset(json.dumps({"n": 3, "d": 2}))


def test_parse_validates_declared_signs():
    L = construct_case_iii(2, HyperplaneType.MINUS)
    obj = json.loads(serialize_lineset(L))
    obj["vectors"][0][0][0] = 0.5  # no longer +-1/sqrt(d)
    with pytest.raises(ValueError):
        parse_lineset(json.dumps(obj))


@pytest.mark.parametrize("bad", [1e308, -1e308, 2**70 + 0.0, 1.5])
def test_declared_signs_are_refused_without_a_warning(bad):
    # sqrt(d) * 1e308 overflows and 2^70 would wrap in a cast; the check
    # refuses both before any cast, and warnings fail this test.  The file is
    # no longer the orbit of its line 0, so both layouts take the json path
    L = construct_case_iii(2, HyperplaneType.MINUS)
    text = serialize_lineset(L)
    first = text.index("[[") + 2
    changed = text[:first] + _fmt_float(bad) + text[text.index(",", first):]
    assert _parse_canonical(changed) is None
    obj = json.loads(changed)
    for variant in (changed, json.dumps(obj)):
        with pytest.raises(ValueError, match="entries are not"):
            parse_lineset(variant)


def test_gram_csv_layout():
    L = construct_case_iv(3, 1, HyperplaneType.MINUS)
    lines = gram_csv(L).strip().split("\n")
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 1 + L.n * L.n
    i, j, re, im = lines[1].split(",")
    assert (int(i), int(j)) == (0, 0)
    assert abs(float(re) - 1.0) < 1e-12 and abs(float(im)) < 1e-15


def test_cli_construct_certify_action_pipeline(tmp_path, capsys):
    out = tmp_path / "lines.json"
    code = main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "manifest: " in err
    json.loads(err.split("manifest: ", 1)[1])  # manifest is one JSON document

    report = tmp_path / "report.json"
    assert main(["certify", str(out), "--out", str(report)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "PASS equiangular" in captured.out
    assert "PASS tight-frame" in captured.out
    assert "PASS welch" in captured.out
    assert "PASS scalar-kernel" in captured.out
    rep = json.loads(report.read_text())
    assert rep["n"] == 16 and rep["d"] == 6
    assert rep["alpha_fraction"] == "1/3"
    assert rep["max_dev"] == 0.0
    assert rep["welch_residual"] == 0.0

    act = tmp_path / "action.json"
    assert main(["action", str(out), "--out", str(act)]) == EXIT_OK
    payload = json.loads(act.read_text())
    assert payload["transitive"] and payload["two_transitive"]
    assert payload["group_order"] == 11520
    assert payload["matched_unitaries"] == 14


def test_cli_output_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["construct", "--case", "i", "--seed", "3", "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cli_gram_csv_option(tmp_path):
    out = tmp_path / "l.json"
    csv = tmp_path / "g.csv"
    code = main(
        ["construct", "--case", "iv", "--p", "3", "--m", "1", "--eigen", "plus",
         "--out", str(out), "--gram-csv", str(csv)]
    )
    assert code == EXIT_OK
    assert len(csv.read_text().strip().split("\n")) == 1 + 81


def test_cli_parameter_errors(tmp_path):
    assert main(["construct", "--case", "iii"]) == EXIT_PARAMS  # missing --m/--type
    assert main(["construct", "--case", "iv", "--m", "1", "--eigen", "plus"]) == EXIT_PARAMS
    assert (
        main(["construct", "--case", "iv", "--p", "4", "--m", "1", "--eigen", "plus"])
        == EXIT_PARAMS
    )  # 4 is not an odd prime
    assert main(["construct", "--case", "iii", "--m", "1", "--type", "minus"]) == EXIT_PARAMS
    assert main(["construct", "--case", "nope"]) == EXIT_PARAMS  # argparse rejects
    assert main(["certify", str(tmp_path / "missing.json")]) == EXIT_PARAMS


def test_cli_not_converged(tmp_path):
    code = main(
        ["construct", "--case", "i", "--max-iters", "1", "--restarts", "2",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_NOT_CONVERGED
    assert not (tmp_path / "x.json").exists()


def test_cli_certify_catches_corruption(tmp_path, capsys):
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    obj = json.loads(out.read_text())

    flipped = dict(obj)
    flipped["vectors"] = [list(map(list, col)) for col in obj["vectors"]]
    flipped["vectors"][3][0][0] *= -1  # stays +-1/sqrt(d) but breaks the angle
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(flipped))
    capsys.readouterr()
    assert main(["certify", str(bad)]) == EXIT_CERT_FAILED
    assert "FAIL equiangular" in capsys.readouterr().err

    broken = dict(obj)
    broken["vectors"] = [list(map(list, col)) for col in obj["vectors"]]
    broken["vectors"][0][0][0] = 2.0  # breaks unit norm: structural failure
    badder = tmp_path / "badder.json"
    badder.write_text(json.dumps(broken))
    assert main(["certify", str(badder)]) == EXIT_CERT_FAILED
    assert "FAIL structure" in capsys.readouterr().err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    assert main(["certify", str(garbage)]) == EXIT_PARAMS


@pytest.mark.parametrize("tol", ["1e-8", "1"])
def test_cli_certify_rejects_unequal_integer_magnitudes_at_any_tol(tmp_path, capsys, tol):
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    obj = json.loads(out.read_text())
    obj["vectors"][3][0][0] *= -1  # exact signs, but two integer magnitudes
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["certify", str(bad), "--tol", tol]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL equiangular: pair (3, 7) deviates from the common angle by 3.472e-01" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["construct", "certify", "action"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_rejects_a_tol_that_is_not_finite_and_nonnegative(tmp_path, capsys, command, tol):
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iii", "--m", "2", "--type", "minus",
                 "--out", str(out)]) == EXIT_OK
    searched = tmp_path / "i.json"
    given = ["--case", "i", "--out", str(searched)] if command == "construct" else [str(out)]
    capsys.readouterr()
    assert main([command, *given, "--tol", tol]) == EXIT_PARAMS
    captured = capsys.readouterr()
    assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in captured.err
    assert captured.out == "" and not searched.exists()


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize("meta", [[1], "x", [], False, 0, "", None])
def test_cli_rejects_non_object_meta(tmp_path, capsys, command, meta):
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    obj = json.loads(out.read_text())
    obj["meta"] = meta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([command, str(bad)]) == EXIT_PARAMS
    err = capsys.readouterr().err
    assert "not a lineset JSON file: meta must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[[0.40824829046386307,0]", "[[true,0]", "vector entry is a JSON boolean, not a number"),
        ("[[0.40824829046386307,0]", "[[0.5,false]", "vector entry is a JSON boolean, not a number"),
        ('"exact_signs":true', '"exact_signs":"no"', "exact_signs must be a JSON boolean, got 'no'"),
        ('"exact_signs":true', '"exact_signs":1', "exact_signs must be a JSON boolean, got 1"),
        ('"exact_signs":true', '"exact_signs":null', "exact_signs must be a JSON boolean, got None"),
    ],
    ids=["true-entry", "false-entry", "string-flag", "int-flag", "null-flag"],
)
def test_cli_rejects_booleans_as_numbers_and_non_booleans_as_flags(
    tmp_path, capsys, command, old, new, message
):
    # complex(True, 0) is 1 and any truthy flag read as a declaration: a
    # string "no" once certified with "exact": true
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    text = out.read_text()
    for damaged in (text.replace(old, new, 1), json.dumps(json.loads(text.replace(old, new, 1)))):
        bad = tmp_path / "bad.json"
        bad.write_text(damaged)
        capsys.readouterr()
        assert main([command, str(bad)]) == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"not a lineset JSON file: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[[0.40824829046386307,0]", "[[1,0,0]", "vector entry must be a [re, im] pair of JSON numbers"),
        ("[[0.40824829046386307,0]", '[["1","0"]', "vector entry must be a [re, im] pair of JSON numbers"),
        ('"n": 16,', '"n": 16.0,', "n and d must be JSON integers"),
        ('"d": 6,', '"d": 6.0,', "n and d must be JSON integers"),
    ],
    ids=["triple-entry", "string-entry", "float-n", "float-d"],
)
def test_cli_refuses_entries_and_sizes_of_the_wrong_json_type(
    tmp_path, capsys, command, old, new, message
):
    # Python's unpacking, complex() and numpy's shape messages once leaked,
    # with exit 4 for the triple and 2 for the others
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    text = out.read_text()
    damaged = text.replace(old, new, 1)
    assert damaged != text
    for version in (damaged, json.dumps(json.loads(damaged))):
        bad = tmp_path / "bad.json"
        bad.write_text(version)
        capsys.readouterr()
        assert main([command, str(bad)]) == EXIT_PARAMS
        err = capsys.readouterr().err
        assert f"not a lineset JSON file: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda obj: dict(obj, vectors=5), "vectors must be a JSON list, got int"),
        (lambda obj: dict(obj, vectors=[5, *obj["vectors"][1:]]),
         "vector column must be a JSON list, got int"),
        (lambda obj: {k: v for k, v in obj.items() if k != "vectors"}, "missing key 'vectors'"),
        (lambda obj: [obj], "top level must be a JSON object, got list"),
    ],
    ids=["int-vectors", "int-column", "no-vectors", "top-level-list"],
)
def test_cli_refuses_files_of_the_wrong_json_shape(tmp_path, capsys, command, damage, message):
    # len(), the missing key and a string index of a list once leaked
    # Python's own messages
    text = serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(damage(json.loads(text))))
    capsys.readouterr()
    assert main([command, str(bad)]) == EXIT_PARAMS
    err = capsys.readouterr().err
    assert f"not a lineset JSON file: {message}\n" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["--case", "iv", "--p", "1000003", "--m", "1", "--eigen", "minus"],  # 3.6 TiB
        ["--case", "iii", "--m", "40", "--type", "minus"],  # beyond numpy's size limit
    ],
)
def test_cli_construct_refuses_oversized_sets(tmp_path, capsys, args):
    out = tmp_path / "l.json"
    start = time.perf_counter()
    assert main(["construct", *args, "--out", str(out)]) == EXIT_PARAMS
    assert time.perf_counter() - start < 2.0  # the allocation is refused at once
    err = capsys.readouterr().err
    assert "invalid parameters:" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_construct_refuses_case_iii_beyond_memory(tmp_path, capsys, monkeypatch):
    def enumerate_hyperplanes(*args):  # reached only if the size check lets m = 12 through
        raise RuntimeError("case iii m = 12 was enumerated")

    monkeypatch.setattr(equiline.lineset, "enumerate_hyperplanes", enumerate_hyperplanes)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iii", "--m", "12", "--type", "minus",
                 "--out", str(out)]) == EXIT_PARAMS
    err = capsys.readouterr().err
    assert "invalid parameters: line set too large to build" in err
    assert "more than the" in err and "bytes of memory available" in err
    assert not out.exists()


def test_cli_construct_refuses_a_huge_prime_before_testing_it(tmp_path, capsys, monkeypatch):
    # trial division of 2^61 - 1 takes minutes; the build size refuses it first
    def is_odd_prime(p):
        raise AssertionError("the primality test ran")

    monkeypatch.setattr(equiline.lineset, "_is_odd_prime", is_odd_prime)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iv", "--p", "2305843009213693951", "--m", "1",
                 "--eigen", "minus", "--out", str(out)]) == EXIT_PARAMS
    assert "invalid parameters: line set too large to build" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["--case", "iii", "--m", "5000", "--type", "minus"],
     ["--case", "iii", "--m", "100000000", "--type", "plus"],
     ["--case", "iv", "--p", "3", "--m", "5000", "--eigen", "minus"],
     ["--case", "iv", "--p", "3", "--m", "100000000", "--eigen", "plus"]],
    ids=["iii-5000", "iii-1e8", "iv-3-5000", "iv-3-1e8"],
)
def test_cli_construct_refuses_huge_m_by_bit_length(tmp_path, capsys, args):
    # the sizes have thousands of digits, past the limit of int to str, and
    # 3^(10^8) takes minutes to form: the refusal forms and prints neither
    out = tmp_path / "l.json"
    start = time.perf_counter()
    assert main(["construct", *args, "--out", str(out)]) == EXIT_PARAMS
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    message = err.strip().splitlines()[-1]
    assert message.startswith("invalid parameters: line set too large to build: building its 2^")
    assert "bytes of memory available" in message and len(message) < 300
    assert "digits" not in err and not out.exists()


@pytest.mark.parametrize("limit,code", [(186_623, EXIT_PARAMS), (186_624, EXIT_OK)])
def test_cli_construct_refuses_case_iv_beyond_memory(tmp_path, capsys, monkeypatch, limit, code):
    # iv (3, 2) minus: 36 x 81 entries at 64 bytes each, 186,624 bytes
    monkeypatch.setattr(equiline.lineset, "_memory_limit", lambda: limit)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iv", "--p", "3", "--m", "2", "--eigen", "minus",
                 "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_PARAMS:
        err = capsys.readouterr().err
        assert "line set too large to build: building its 36 x 81 columns" in err


@pytest.mark.parametrize("limit,code", [(40_959, EXIT_PARAMS), (40_960, EXIT_OK)])
def test_cli_construct_refuses_search_restarts_beyond_memory(tmp_path, capsys, monkeypatch,
                                                             limit, code):
    # case i with 64 restarts: 64 x 2 entries at 320 bytes each, 40,960 bytes;
    # a refused search draws no start
    def default_rng(*args):
        raise AssertionError("the search drew its starts")

    monkeypatch.setattr(equiline.lineset, "_memory_limit", lambda: limit)
    if code == EXIT_PARAMS:
        monkeypatch.setattr(equiline.fiducial.np.random, "default_rng", default_rng)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "i", "--restarts", "64", "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_PARAMS:
        assert ("invalid parameters: search too large to run: its 64 x 2 restart arrays "
                "take about 40960 bytes, more than the 40959 bytes") in capsys.readouterr().err


def test_cli_construct_names_the_search_when_its_allocation_fails(tmp_path, capsys, monkeypatch):
    # an allocation refused inside the search (as under ulimit -v) names the
    # search, not the line set
    def descend(*args):
        raise MemoryError("Unable to allocate 610. MiB for an array with shape (5000000, 8)")

    monkeypatch.setattr(equiline.fiducial, "_descend", descend)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "ii", "--out", str(out)]) == EXIT_PARAMS
    assert ("invalid parameters: search too large to run: Unable to allocate 610. MiB"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("limit,code", [("4096\n", EXIT_PARAMS), ("max\n", EXIT_OK)])
def test_cli_construct_case_iii_heeds_the_cgroup_memory_limit(tmp_path, capsys, monkeypatch,
                                                              limit, code):
    cgroup = tmp_path / "memory.max"
    cgroup.write_text(limit)
    monkeypatch.setattr(equiline.lineset, "_CGROUP_MEMORY_MAX", cgroup)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iii", "--m", "2", "--type", "minus",
                 "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)


def _fake_rlimit_as(monkeypatch, soft) -> list:
    """Replace getrlimit with one whose soft RLIMIT_AS is soft (no limit is
    set); returns the resources it was asked for."""
    resource = equiline.lineset.resource
    asked = []

    def getrlimit(which):
        asked.append(which)
        return soft, resource.RLIM_INFINITY

    monkeypatch.setattr(resource, "getrlimit", getrlimit)
    return asked


def test_memory_limit_takes_the_soft_address_space_limit(tmp_path, monkeypatch):
    resource = equiline.lineset.resource
    cgroup = tmp_path / "memory.max"
    cgroup.write_text("max\n")
    monkeypatch.setattr(equiline.lineset, "_CGROUP_MEMORY_MAX", cgroup)
    physical = equiline.lineset._memory_limit()
    asked = _fake_rlimit_as(monkeypatch, 123_456)
    assert equiline.lineset._memory_limit() == 123_456
    assert asked == [resource.RLIMIT_AS]
    _fake_rlimit_as(monkeypatch, resource.RLIM_INFINITY)
    assert equiline.lineset._memory_limit() == physical
    _fake_rlimit_as(monkeypatch, 4 * physical)
    assert equiline.lineset._memory_limit() == physical
    cgroup.write_text("100000\n")  # the least of the three
    _fake_rlimit_as(monkeypatch, 123_456)
    assert equiline.lineset._memory_limit() == 100_000


@pytest.mark.parametrize("soft,code", [(4096, EXIT_PARAMS), (None, EXIT_OK)])
def test_cli_construct_case_iii_heeds_the_address_space_limit(tmp_path, capsys, monkeypatch,
                                                              soft, code):
    resource = equiline.lineset.resource
    _fake_rlimit_as(monkeypatch, resource.RLIM_INFINITY if soft is None else soft)
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iii", "--m", "2", "--type", "minus",
                 "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_PARAMS:
        assert "more than the 4096 bytes of memory available" in capsys.readouterr().err


@pytest.mark.parametrize("limit,code",
                         [(4032, EXIT_PARAMS), (24575, EXIT_PARAMS), (24576, EXIT_OK)])
def test_cli_action_refuses_symmetries_beyond_memory(tmp_path, capsys, monkeypatch, limit, code):
    # iii m = 2 minus: 10 transvections and 4 translations as dense 6 x 6
    # float64 matrices, 4,032 bytes, freed before the stabilizer chain of
    # G_0 is built, which takes 48 B per m n^2, 24,576 bytes: the larger
    # is the total.  A limit that holds the dense matrices alone is refused
    # too, and a refused set builds no dense symmetry, not even a translation
    def monomial_matrix(*args):
        raise AssertionError("a dense symmetry was built")

    lines, out = tmp_path / "l.json", tmp_path / "a.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(lines)])
    monkeypatch.setattr(equiline.lineset, "_memory_limit", lambda: limit)
    if code == EXIT_PARAMS:
        monkeypatch.setattr(equiline.symmetries, "monomial_matrix", monomial_matrix)
    capsys.readouterr()
    assert main(["action", str(lines), "--out", str(out)]) == code
    assert out.exists() == (code == EXIT_OK)
    if code == EXIT_PARAMS:
        err = capsys.readouterr().err
        assert ("invalid parameters: symmetries too large to build: its 14 dense 6 x 6 "
                "symmetries, or the stabilizer chain built after them, take about 3072 "
                f"8-byte entries, 24576 bytes, more than the {limit} bytes of memory "
                "available") in err


def test_cli_certify_reports_welch_violation(tmp_path, capsys, monkeypatch):
    out = tmp_path / "l.json"
    main(["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", str(out)])
    wrong = AngleCertificate(alpha=0.5, max_dev=0.0, exact=False)
    monkeypatch.setattr(equiline.lineset, "certify_equiangular", lambda G, tol: wrong)
    capsys.readouterr()
    assert main(["certify", str(out)]) == EXIT_CERT_FAILED
    assert "FAIL welch: tight equiangular set violates" in capsys.readouterr().err


def test_cli_action_requires_construction_tag(tmp_path, capsys):
    out = tmp_path / "l.json"
    main(["construct", "--case", "iv", "--p", "3", "--m", "1", "--eigen", "minus",
          "--out", str(out)])
    obj = json.loads(out.read_text())
    obj["meta"] = {k: v for k, v in obj["meta"].items() if k != "case"}
    obj["case"] = None
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["action", str(stripped)]) == EXIT_ACTION_FAILED
    assert "cannot derive symmetries" in capsys.readouterr().err


@pytest.mark.parametrize("change", [{"m": None}, {"m": 3}, {"m": 40}])
def test_cli_action_rejects_tampered_meta(tmp_path, capsys, change):
    out = tmp_path / "l.json"
    assert main(["construct", "--case", "iii", "--m", "2", "--type", "minus",
                 "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    obj["meta"] = {k: v for k, v in {**obj["meta"], **change}.items() if v is not None}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["action", str(tampered)]) == EXIT_ACTION_FAILED
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "action derivation failed: meta m" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args,change", [
    (("iv", "--p", "3", "--m", "1", "--eigen", "minus"), {"m": True}),
    (("iv", "--p", "3", "--m", "1", "--eigen", "minus"), {"m": 1.0}),
    (("iv", "--p", "3", "--m", "1", "--eigen", "minus"), {"p": 3.0}),
    (("iii", "--m", "2", "--type", "minus"), {"m": 2.0}),
], ids=["iv-m-true", "iv-m-1.0", "iv-p-3.0", "iii-m-2.0"])
def test_cli_action_takes_p_and_m_from_the_classification_row(tmp_path, capsys, args, change):
    # meta numbers equal to the row's (True == 1 == 1.0) pass lineset._case,
    # and the symmetries take p and m from the row, not from the meta
    out = tmp_path / "l.json"
    assert main(["construct", "--case", *args, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["action", str(out)]) == EXIT_OK
    clean = capsys.readouterr().out
    obj = json.loads(out.read_text())
    obj["meta"].update(change)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    assert main(["action", str(tampered)]) == EXIT_OK
    assert capsys.readouterr().out == clean


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize("exact_signs", [True, False])
def test_cli_refuses_columns_of_c0_whether_or_not_signs_are_declared(
        tmp_path, capsys, command, exact_signs):
    # an empty d = 0 block passes the sign test, so LineSet's unit-norm check
    # refuses the file with or without exact_signs
    obj = {"case": None, "n": 3, "d": 0, "params": {}, "vectors": [[], [], []],
           "meta": {"exact_signs": exact_signs}}
    path = tmp_path / "c0.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL structure: columns must be unit vectors" in err
    assert "zero-size" not in err


def test_cli_table(capsys):
    assert main(["table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "case" in lines[0]
    assert any("iii" in l and " 16 " in l and "--type minus" in l for l in lines)
    assert any("--case iv --p 3 --m 1" in l for l in lines)
    assert any(l.startswith("ii ") and " 56" in l and "--case ii" in l for l in lines)
    # every row up to n = 4096 carries its ready-made command
    big = [l for l in lines if " 4096 " in l]
    assert big and all("equiline construct --case iii --m 6" in l for l in big)


def test_cli_stdout_output(capsys):
    assert main(["construct", "--case", "iv", "--p", "3", "--m", "1", "--eigen", "minus"]) == EXIT_OK
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["n"] == 9 and obj["d"] == 3


def _reference_serialize(lines):
    """serialize_lineset with every entry formatted on its own."""

    def fmt(x):
        return "%.17g" % (float(x) + 0.0)

    params = {k: v for k, v in lines.meta.items() if k not in ("case", "n", "d", "exact_signs")}
    cols = [
        "[" + ",".join(f"[{fmt(z.real)},{fmt(z.imag)}]" for z in col) + "]"
        for col in lines.vectors.T
    ]
    return (
        "{\n"
        f'"case": {_encode(lines.meta.get("case"))},\n'
        f'"n": {lines.n},\n'
        f'"d": {lines.d},\n'
        f'"params": {_encode(params)},\n'
        '"vectors": [\n' + ",\n".join(cols) + "\n],\n"
        f'"meta": {_encode(lines.meta)}\n'
        "}\n"
    )


def _seeded_repeated_entries(seed):
    """Unit columns in C^4 drawn from a few entries of modulus 1/2, signed zeros
    among them, plus two columns of distinct random entries."""
    rng = np.random.default_rng(seed)
    pool = np.array(
        [0.5, -0.5, 0.5j, -0.5j, complex(0.5, -0.0), complex(-0.0, 0.5),
         complex(-0.0, -0.5), complex(-0.5, -0.0), 0.5 * np.exp(0.7j), 0.5 * np.exp(-2.1j)]
    )
    V = pool[rng.integers(len(pool), size=(4, 10))]
    W = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    V = np.hstack([V, W / np.linalg.norm(W, axis=0)])
    assert np.signbit(V.real[V.real == 0]).any() and np.signbit(V.imag[V.imag == 0]).any()
    return LineSet(V, {"seed": seed})


@pytest.mark.parametrize(
    "build",
    [
        lambda: _seeded_repeated_entries(5),
        lambda: _seeded_repeated_entries(6),
        lambda: construct_case_iv(7, 1, HyperplaneType.MINUS),
        lambda: construct_case_iv(7, 1, HyperplaneType.PLUS),
        lambda: construct_case_iii(3, HyperplaneType.PLUS),
    ],
)
def test_serialize_matches_per_entry_reference(build):
    L = build()
    assert serialize_lineset(L) == _reference_serialize(L)


def _corrupt_first_entry(tmp_path, literal, lines=None):
    """A lineset file (default iv p=3 m=1 minus) whose first real part reads `literal`."""
    text = serialize_lineset(lines or construct_case_iv(3, 1, HyperplaneType.MINUS))
    start = text.index('"vectors": [\n[[') + len('"vectors": [\n[[')
    path = tmp_path / "bad.json"
    path.write_text(text[:start] + literal + text[text.index(",", start):])
    return path


@pytest.mark.parametrize("command", ["certify", "action"])
def test_cli_rejects_integer_beyond_double_range(tmp_path, capsys, command):
    path = _corrupt_first_entry(tmp_path, "1" + "0" * 400)
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_PARAMS
    err = capsys.readouterr().err
    assert "not a lineset JSON file" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, command, literal):
    path = _corrupt_first_entry(tmp_path, literal)
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL structure: columns must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
def test_cli_reports_non_finite_before_exact_signs(tmp_path, capsys, command):
    path = _corrupt_first_entry(tmp_path, "NaN", construct_case_iii(2, HyperplaneType.MINUS))
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL structure: columns must be finite" in err and "Traceback" not in err


def test_certify_under_python_O_refuses_an_entry_moved_off_its_sign(tmp_path):
    # the sign rule is no assert, so python -O keeps it; the json reader
    # takes the file, no longer the orbit of its line 0, and the signs are
    # checked before the column norms
    L = construct_case_iii(2, HyperplaneType.MINUS)
    first = L.vectors[0, 0]
    text = serialize_lineset(L).replace(f"[[{_fmt_float(first)},0]",
                                        f"[[{_fmt_float(first + 1e-6)},0]", 1)
    assert _parse_canonical(text) is None
    path = tmp_path / "moved.json"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(equiline.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-O", "-m", "equiline.cli", "certify", str(path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_CERT_FAILED
    assert "FAIL structure: exact_signs declared but entries are not +-1/sqrt(d)" in run.stderr
    assert "Traceback" not in run.stderr


def _cli_under_threads(threads: str, *args: str) -> bytes:
    """stdout of `equiline args` in a subprocess with EQUILINE_THREADS=threads."""
    src = str(Path(equiline.__file__).parents[1])
    env = {**os.environ, "EQUILINE_THREADS": threads, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "equiline.cli", *args], env=env, capture_output=True, check=True
    ).stdout


def test_certify_bytes_do_not_depend_on_blas_threads(tmp_path):
    lines = tmp_path / "lines.json"
    assert main(["construct", "--case", "iii", "--m", "4", "--type", "minus",
                 "--out", str(lines)]) == EXIT_OK
    results = []
    for threads in ("1", "2"):
        report = tmp_path / f"report{threads}.json"
        stdout = _cli_under_threads(threads, "certify", str(lines), "--out", str(report))
        results.append((stdout, report.read_bytes()))
    assert results[0] == results[1]
    assert b"PASS scalar-kernel" in results[0][0]


def test_search_and_action_bytes_do_not_depend_on_blas_threads(tmp_path):
    results = []
    for threads in ("1", "2"):
        lines = tmp_path / f"lines{threads}.json"
        built = _cli_under_threads(threads, "construct", "--case", "ii", "--seed", "1",
                                   "--out", str(lines))
        results.append((built, lines.read_bytes(), _cli_under_threads(threads, "action", str(lines))))
        # case i seeds 3 and 4 have restarts whose f - bound tie to 1e-16, and
        # on ii seed 18 restarts 29 and 8 end one ulp of f apart
        for case, seed in (("i", "3"), ("i", "4"), ("ii", "18")):
            out = tmp_path / f"{case}{seed}-{threads}.json"
            _cli_under_threads(threads, "construct", "--case", case, "--seed", seed, "--out", str(out))
            results[-1] += (out.read_bytes(),)
    assert results[0] == results[1]
    assert json.loads(results[0][2])["group_order"] == 387072


# the golden and benchmark rows, and iii m=4, both types
GOLDEN_ROWS = [
    *((m, kind) for m in (2, 3, 4, 5) for kind in ("minus", "plus")),
    *((p, m, kind) for p, m in ((3, 1), (5, 1), (3, 2), (3, 3), (5, 2)) for kind in ("minus", "plus")),
]


def _golden(row) -> LineSet:
    kind = HyperplaneType(row[-1])
    return construct_case_iii(row[0], kind) if len(row) == 2 else construct_case_iv(*row[:2], kind)


def _searched(case: str, seed: int) -> LineSet:
    v, _ = search_fiducial(SearchConfig(d=2 if case == "i" else 8, seed=seed))
    return orbit_lineset(v, v.shape[0])


def _assert_parses_agree(text: str) -> None:
    """The one-pass parse of canonical text gives the json parse's bits."""
    fast = _parse_canonical(text)
    assert fast is not None
    obj, vectors = _parse_json(text)
    assert fast[1].vectors.flags.c_contiguous
    assert np.array_equal(fast[1].vectors.view(np.uint64), vectors.view(np.uint64))
    assert fast[0] == dict(obj, vectors=[])


@pytest.mark.parametrize("row", GOLDEN_ROWS, ids=str)
def test_canonical_parse_is_bit_identical_on_golden_rows(row):
    _assert_parses_agree(serialize_lineset(_golden(row)))


@pytest.mark.parametrize("case", ["i", "ii"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_parse_is_bit_identical_on_searched_sets(case, seed):
    _assert_parses_agree(serialize_lineset(_searched(case, seed)))


@pytest.mark.parametrize("moved", ["line-0", "interior"])
@pytest.mark.parametrize("row", [(3, "minus"), (3, 2, "plus")], ids=str)
def test_a_tagged_file_one_ulp_off_its_orbit_takes_the_json_path(row, moved):
    # the largest real part of one column moves one ulp away from zero: the
    # file is still in the written layout, but no longer the orbit of its
    # line 0, so the print-back refutes the orbit guess
    L = _golden(row)
    V, line = L.vectors.copy(), 0 if moved == "line-0" else L.n // 2
    k = np.argmax(np.abs(V[:, line].real))
    V[k, line] += np.spacing(V[k, line].real)
    text = serialize_lineset(LineSet(V, L.meta))
    assert text != serialize_lineset(L)
    assert _parse_canonical(text) is None
    back = parse_lineset(text)
    assert np.array_equal(back.vectors.view(np.uint64), _parse_json(text)[1].view(np.uint64))
    assert np.array_equal(back.vectors, V)


@pytest.mark.parametrize("moved", ["line-0", "interior"])
@pytest.mark.parametrize("row", [(3, "minus"), (3, 2, "plus")], ids=str)
def test_a_refuted_orbit_guess_builds_no_column(row, moved, monkeypatch):
    # line 0's codes print back first, so the guess the print-back refutes
    # never calls orbit, and the json path gives the bits
    L = _golden(row)
    V, line = L.vectors.copy(), 0 if moved == "line-0" else L.n // 2
    k = np.argmax(np.abs(V[:, line].real))
    V[k, line] += np.spacing(V[k, line].real)
    text = serialize_lineset(LineSet(V, L.meta))
    calls = []
    for module in (equiline.lineset, equiline.serialize):
        monkeypatch.setattr(module, "orbit", lambda *args: calls.append(args), raising=False)
    assert _parse_canonical(text) is None
    assert calls == []
    monkeypatch.undo()
    back = parse_lineset(text)
    assert np.array_equal(back.vectors.view(np.uint64), _parse_json(text)[1].view(np.uint64))


def _reordered_keys(text: str) -> str:
    obj = json.loads(text)
    return "{\n" + ",\n".join(
        f"{json.dumps(k)}: {_encode(obj[k])}" for k in ("d", "n", "case", "params", "vectors", "meta")
    ) + "\n}\n"


NON_CANONICAL = {
    "indented": lambda text: json.dumps(json.loads(text), indent=1),
    "float zero": lambda text: text.replace(",0]", ",0.0]", 1),
    "negative zero": lambda text: text.replace(",0]", ",-0]", 1),
    "exponent": lambda text: text.replace(",0]", ",0e0]"),
    # every "[" in place, so the entry ends read from the next start are wrong
    "moved separator": lambda text: text.replace("],[", "] ,[", 1),
    "reordered keys": _reordered_keys,
    "reordered meta": lambda text: text.replace('"meta": {"case"', '"meta": {"zz": 0, "case"'),
}


@pytest.mark.parametrize("variant", sorted(NON_CANONICAL))
@pytest.mark.parametrize("build", [
    lambda: construct_case_iii(2, HyperplaneType.MINUS),
    lambda: construct_case_iv(3, 1, HyperplaneType.PLUS),
], ids=["iii-m2", "iv-p3-m1"])
def test_non_canonical_text_takes_the_json_path(build, variant):
    text = serialize_lineset(build())
    L = parse_lineset(text)
    changed = NON_CANONICAL[variant](text)
    assert changed != text
    assert _parse_canonical(changed) is None
    back = parse_lineset(changed)
    assert np.array_equal(back.vectors.view(np.uint64), L.vectors.view(np.uint64))
    assert {k: v for k, v in back.meta.items() if k != "zz"} == L.meta
    assert (back.signs is None) == (L.signs is None)
    if L.signs is not None:
        assert np.array_equal(back.signs, L.signs)


def test_declared_shape_beyond_the_text_allocates_nothing():
    text = serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS))
    changed = text.replace('"d": 6,', f'"d": {10**12},', 1)
    assert _parse_canonical(changed) is None
    with pytest.raises(ValueError, match="shape disagrees"):
        parse_lineset(changed)


def test_text_past_the_printed_back_block_takes_the_json_path():
    # the print-back matches all of the block but its last character
    text = serialize_lineset(construct_case_iv(3, 1, HyperplaneType.PLUS))
    changed = text.replace("]\n],\n", "] \n],\n", 1)
    assert _parse_canonical(changed) is None
    assert np.array_equal(parse_lineset(changed).vectors, parse_lineset(text).vectors)


def test_untagged_text_of_distinct_entries_takes_the_json_path():
    # all n * d entries distinct, so the entry table is as long as the set;
    # the searched sets of case ii repeat theirs (15 distinct of 512 at seed 1)
    W = np.random.default_rng(1).normal(size=(8, 64, 2)) @ [1, 1j]
    L = LineSet(W / np.linalg.norm(W, axis=0), {"seed": 1})
    text = serialize_lineset(L)
    assert len(_entry_table(L.vectors)[0]) == L.n * L.d
    assert _parse_canonical(text) is None
    back = parse_lineset(text)
    assert np.array_equal(back.vectors.view(np.uint64), _parse_json(text)[1].view(np.uint64))
    assert serialize_lineset(back) == text


@pytest.mark.parametrize("build, dtype", [
    (lambda: construct_case_iii(5, HyperplaneType.MINUS), np.uint32),
    (lambda: _searched("i", 1), np.uint8),
], ids=["iii-m5-minus", "i-seed1"])
def test_codes_take_the_narrowest_unsigned_dtype(build, dtype):
    # no code reaches n * d (507,904 at iii m = 5, 8 at case i)
    L = build()
    values, codes = _entry_table(L.vectors)
    assert codes.dtype == dtype and codes.shape == (L.n, L.d)
    assert np.array_equal(values[codes.T], L.vectors)


def _traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once, as tracemalloc counts it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Peaks of the per-column writer and the one-pass reader that the entry
# table replaced, measured by _traced_peak (CPython 3.11, numpy 2.4).
_PER_COLUMN_PEAKS = {"serialize": 28_952_000, "parse": 25_967_000, "ii round trip": 74_900}


def test_codec_peaks_on_iii_m5_stay_below_the_per_column_codec():
    text, peak = _traced_peak(serialize_lineset, construct_case_iii(5, HyperplaneType.MINUS))
    assert peak <= _PER_COLUMN_PEAKS["serialize"], peak
    _, peak = _traced_peak(parse_lineset, text)
    assert peak <= _PER_COLUMN_PEAKS["parse"], peak


def test_codec_round_trip_peak_on_a_searched_set_stays_below_the_per_column_codec():
    L = _searched("ii", 1)
    parse_lineset(serialize_lineset(L))  # past any first-call set-up
    _, peak = _traced_peak(lambda: parse_lineset(serialize_lineset(L)))
    assert peak <= _PER_COLUMN_PEAKS["ii round trip"], peak


def test_codec_round_trip_imports_nothing():
    # a lazily imported module (numpy.ma, behind a plain np.unique) costs a
    # process about 2 MB of resident memory for nothing
    script = (
        "import sys\n"
        "from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial\n"
        "from equiline.serialize import parse_lineset, serialize_lineset\n"
        "v, _ = search_fiducial(SearchConfig(d=8, seed=1))\n"
        "L = orbit_lineset(v, 8)\n"
        "before = set(sys.modules)\n"
        "parse_lineset(serialize_lineset(L))\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(equiline.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_declared_shape_of_negative_n_and_d_takes_the_json_path():
    text = serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS))
    changed = text.replace('"n": 16,', '"n": -16,', 1).replace('"d": 6,', '"d": -6,', 1)
    assert _parse_canonical(changed) is None
    with pytest.raises(ValueError, match="shape disagrees"):
        parse_lineset(changed)


def _reference_gram_csv(lines: LineSet) -> str:
    """The per-entry loop gram_csv replaced, kept as its oracle."""
    G = lines.vectors.conj().T @ lines.vectors
    rows = ["i,j,re,im"]
    for i in range(lines.n):
        for j in range(lines.n):
            z = G[i, j]
            rows.append(f"{i},{j},{_fmt_float(z.real)},{_fmt_float(z.imag)}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("build", [
    lambda: construct_case_iii(2, HyperplaneType.MINUS),
    lambda: construct_case_iv(3, 1, HyperplaneType.MINUS),
    lambda: orbit_lineset([1, 1j] @ np.random.default_rng(7).normal(size=(2, 8)), 8),
], ids=["iii-m2", "iv-p3-m1", "orbit-d8"])
def test_gram_csv_matches_per_entry_reference(build):
    L = build()
    assert gram_csv(L) == _reference_gram_csv(L)


def _scaled_first_entry(canonical: bool) -> str:
    """An iii m=2 minus file that declares exact_signs but has its first entry
    scaled by 1.0001, in the written layout or reformatted by json."""
    text = serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS))
    start = text.index('"vectors": [\n[[') + len('"vectors": [\n[[')
    stop = text.index(",", start)
    text = text[:start] + _fmt_float(float(text[start:stop]) * 1.0001) + text[stop:]
    return text if canonical else json.dumps(json.loads(text), indent=1)


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize("canonical", [True, False], ids=["written-layout", "json-layout"])
def test_cli_rejects_entries_off_the_declared_signs(tmp_path, capsys, command, canonical):
    text = _scaled_first_entry(canonical)
    assert _parse_canonical(text) is None  # no longer the orbit of its line 0
    path = tmp_path / "bad.json"
    path.write_text(text)
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL structure: exact_signs declared but entries are not +-1/sqrt(d)" in err
    assert "Traceback" not in err


def _certify_output(tmp_path, capsys, lines: LineSet) -> tuple[int, str, list[str]]:
    path = tmp_path / "lines.json"
    path.write_text(serialize_lineset(lines))
    capsys.readouterr()
    code = main(["certify", str(path)])
    out, err = capsys.readouterr()
    return code, out, [line for line in err.splitlines() if not line.startswith("manifest: ")]


_IV_32_PASS = (
    "PASS equiangular: alpha = 0.125, max_dev = 2.91e-16\n"
    "PASS tight-frame\n"
    "PASS welch: |alpha^2 - (n-d)/(d(n-1))| = 1.04e-17\n"
    "PASS scalar-kernel: commutant dimension 1\n"
)


def test_certify_takes_the_pair_path_off_the_orbit(tmp_path, capsys):
    # tagged iv (3, 2) files that are not the orbit of their line 0, and an
    # untagged one, are certified from the n x n Gram, with its output
    L = construct_case_iv(3, 2, HyperplaneType.MINUS)
    swapped = L.vectors.copy()
    swapped[:, [3, 7]] = swapped[:, [7, 3]]
    bent = L.vectors.copy()
    v = bent[:, 4] + 1e-5 * np.ones(L.d)
    bent[:, 4] = v / np.linalg.norm(v)
    cases = [
        (LineSet(swapped, L.meta), EXIT_OK, _IV_32_PASS, []),
        (LineSet(bent, L.meta), EXIT_CERT_FAILED, "",
         ["FAIL equiangular: pair (4, 15) deviates from the common angle by 1.591e-05"]),
        (LineSet(L.vectors, {}), EXIT_OK, _IV_32_PASS, []),
    ]
    for lines, code, out, err in cases:
        G = equiline.lineset.gram(parse_lineset(serialize_lineset(lines)))
        assert G.values.shape == (L.n, L.n) and G.orbit_eps is None
        assert _certify_output(tmp_path, capsys, lines) == (code, out, err)


def _iii_m2_file(tmp_path, edit=None) -> str:
    """An iii m=2 minus lineset file, its JSON object first changed by edit."""
    obj = json.loads(serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS)))
    if edit is not None:
        edit(obj)
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--case", "iii", "--m", "2", "--type", "minus", "--out", "{missing}"],
        ["construct", "--case", "iv", "--p", "3", "--m", "1", "--eigen", "minus",
         "--out", "{lines}.copy", "--gram-csv", "{missing}"],
        ["certify", "{lines}", "--out", "{missing}"],
        ["action", "{lines}", "--out", "{missing}"],
    ],
    ids=["construct", "construct-gram-csv", "certify", "action"],
)
def test_cli_refuses_an_unwritable_output_path(tmp_path, capsys, args):
    lines = _iii_m2_file(tmp_path)
    missing = tmp_path / "no-such-directory" / "out"
    capsys.readouterr()
    assert main([a.format(lines=lines, missing=missing) for a in args]) == EXIT_PARAMS
    err = capsys.readouterr().err
    message = f"cannot write {missing}: [Errno 2] No such file or directory: '{missing}'"
    assert message in err.splitlines() and "Traceback" not in err


def _cli_process(stdout, *args: str) -> subprocess.Popen:
    """`equiline args` started in a subprocess with the given stdout."""
    src = str(Path(equiline.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "equiline.cli", *args],
                            env={**os.environ, "PYTHONPATH": src}, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)


def _assert_refused_stdout(proc, err, reason):
    assert proc.returncode == EXIT_PARAMS, err
    assert err.splitlines()[-1] == f"cannot write <stdout>: {reason}", err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--case", "iii", "--m", "4", "--type", "minus"],
        ["certify", "{lines}"],
        ["action", "{lines}"],
    ],
    ids=["construct", "certify", "action"],
)
def test_cli_refuses_a_closed_stdout(tmp_path, args):
    # the reader closes the pipe before the command writes, as `| head -c 0`
    lines = _iii_m2_file(tmp_path)
    proc = _cli_process(subprocess.PIPE, *(a.format(lines=lines) for a in args))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    _assert_refused_stdout(proc, err, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_refuses_a_full_stdout():
    with open("/dev/full", "w") as full:
        proc = _cli_process(full, "construct", "--case", "iii", "--m", "2", "--type", "minus")
        _, err = proc.communicate(timeout=120)
    _assert_refused_stdout(proc, err, "[Errno 28] No space left on device")


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_writing_a_large_text_holds_no_copy_of_it(tmp_path, monkeypatch, to_stdout):
    # a text stream encodes each write whole, so one write of a line set
    # would hold an encoded copy as large as the file (211 MB at iii m=6)
    text = "".join(f"{i:07d}\n" for i in range(1 << 20))  # 8 MiB
    out, stdout = tmp_path / "out.txt", tmp_path / "stdout.txt"
    with open(stdout, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        _, peak = _traced_peak(_write, None if to_stdout else str(out), text)
    assert (stdout if to_stdout else out).read_text() == text
    assert peak < len(text) // 8, peak


def _latin1_meta() -> bytes:
    text = serialize_lineset(construct_case_iii(2, HyperplaneType.MINUS))
    return text.replace('"meta": {', '"meta": {"note": "caf\xe9", ').encode("latin-1")


@pytest.mark.parametrize("command", ["certify", "action"])
@pytest.mark.parametrize(
    "content,message",
    [
        (_latin1_meta, "not a lineset JSON file: 'utf-8' codec can't decode byte 0xe9 in position"),
        (lambda: b"[" * 200_000, "not a lineset JSON file: maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-too-deep"],
)
def test_cli_refuses_text_it_cannot_decode(tmp_path, capsys, command, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content())
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_PARAMS
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "action"])
def test_cli_refuses_lines_in_c1(tmp_path, capsys, command):
    # 1, i and -1 are three unit columns of C^1 but all span its one line
    obj = {"case": None, "n": 3, "d": 1, "params": {}, "vectors": [[[1, 0]], [[0, 1]], [[-1, 0]]],
           "meta": {}}
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([command, str(path)]) == EXIT_CERT_FAILED
    err = capsys.readouterr().err
    assert "FAIL structure: need d >= 2: every unit column of C^1 spans the same line" in err
    with pytest.raises(ValueError, match="need d >= 2"):
        LineSet(np.array([[1, 1j, -1]]))


def _flip_one_sign(obj):
    obj["vectors"][3][0][0] *= -1  # stays +-1/sqrt(d) but breaks the angle


def _stretch_one_entry(obj):
    obj["vectors"][0][0][0] = 2.0


def _garbage(tmp_path) -> str:
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    return str(path)


def _welch_violation(tmp_path, monkeypatch):
    lines = read_lineset(_iii_m2_file(tmp_path))
    wrong = AngleCertificate(alpha=0.5, max_dev=0.0, exact=False)
    monkeypatch.setattr(equiline.lineset, "certify_equiangular", lambda G, tol: wrong)
    return certify_report(lines, 1e-8)


def _beyond_the_cgroup_limit(tmp_path, monkeypatch):
    cgroup = tmp_path / "memory.max"
    cgroup.write_text("4096\n")
    monkeypatch.setattr(equiline.lineset, "_CGROUP_MEMORY_MAX", cgroup)
    return construct_lineset("iii", m=2, kind="minus")


# each documented refusal of the core calls: (call, exit code, the stderr line
# the command prints); {tmp} stands for the test's directory
CORE_REFUSALS = {
    "missing-file": (
        lambda tmp, mp: read_lineset(str(tmp / "missing.json")),
        EXIT_PARAMS,
        "cannot read {tmp}/missing.json: "
        "[Errno 2] No such file or directory: '{tmp}/missing.json'",
    ),
    "not-json": (
        lambda tmp, mp: read_lineset(_garbage(tmp)),
        EXIT_PARAMS,
        "not a lineset JSON file: Expecting value: line 1 column 1 (char 0)",
    ),
    "fail-structure": (
        lambda tmp, mp: read_lineset(_iii_m2_file(tmp, _stretch_one_entry)),
        EXIT_CERT_FAILED,
        "FAIL structure: exact_signs declared but entries are not +-1/sqrt(d)",
    ),
    "fail-equiangular": (
        lambda tmp, mp: certify_report(read_lineset(_iii_m2_file(tmp, _flip_one_sign)), 1e-8),
        EXIT_CERT_FAILED,
        "FAIL equiangular: pair (3, 7) deviates from the common angle by 3.472e-01",
    ),
    "fail-welch": (
        _welch_violation,
        EXIT_CERT_FAILED,
        "FAIL welch: tight equiangular set violates the extremal angle identity: "
        "alpha^2 = 0.25, expected 0.1111111111111111",
    ),
    "not-converged": (
        lambda tmp, mp: construct_lineset("i", restarts=2, max_iters=1),
        EXIT_NOT_CONVERGED,
        "search did not converge: best f = 0.452578377806 after 2 restarts "
        "(bound 0.333333333333, target gap 1.0e-10)",
    ),
    "missing-parameters": (
        lambda tmp, mp: construct_lineset("iv", m=1, kind="plus"),
        EXIT_PARAMS,
        "construct --case iv needs --p, --m and --eigen",
    ),
    "invalid-parameters": (
        lambda tmp, mp: construct_lineset("iv", m=1, p=4, kind="plus"),
        EXIT_PARAMS,
        "invalid parameters: p must be an odd prime, got 4",
    ),
    "too-large-for-memory": (
        _beyond_the_cgroup_limit,
        EXIT_PARAMS,
        "invalid parameters: line set too large to build: building its 6 x 16 columns takes "
        "about 6144 bytes, more than the 4096 bytes of memory available",
    ),
    "action-derivation-failed": (
        lambda tmp, mp: action_payload(read_lineset(_iii_m2_file(tmp, _flip_one_sign)), 1e-8),
        EXIT_ACTION_FAILED,
        "action derivation failed: line 3 has 0 near-unit overlaps after the map",
    ),
}


@pytest.mark.parametrize("name", list(CORE_REFUSALS))
def test_core_calls_refuse_with_the_command_line(tmp_path, monkeypatch, capsys, name):
    call, code, message = CORE_REFUSALS[name]
    with pytest.raises(Refused) as refused:
        call(tmp_path, monkeypatch)
    assert (refused.value.exit_code, refused.value.message) == (code, message.format(tmp=tmp_path))
    assert str(refused.value) == refused.value.message
    assert capsys.readouterr() == ("", "")  # the core prints nothing
