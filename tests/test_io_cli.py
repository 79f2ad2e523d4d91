import json
import time

import numpy as np
import pytest

import equiline.lineset
from equiline.cli import (
    EXIT_ACTION_FAILED,
    EXIT_CERT_FAILED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARAMS,
    main,
)
from equiline.finfield import HyperplaneType
from equiline.lineset import AngleCertificate, construct_case_iii, construct_case_iv
from equiline.serialize import gram_csv, parse_lineset, serialize_lineset


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
    assert payload["matched_unitaries"] == 20


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


def test_cli_table(capsys):
    assert main(["table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "case" in lines[0]
    assert any("iii" in l and " 16 " in l and "--type minus" in l for l in lines)
    assert any("--case iv --p 3 --m 1" in l for l in lines)
    assert any(l.startswith("ii ") and " 56" in l and "--case ii" in l for l in lines)
    # very large rows carry no ready-made command
    big = [l for l in lines if " 4096 " in l]
    assert big and all("construct" not in l for l in big)


def test_cli_stdout_output(capsys):
    assert main(["construct", "--case", "iv", "--p", "3", "--m", "1", "--eigen", "minus"]) == EXIT_OK
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["n"] == 9 and obj["d"] == 3
