"""Property tests of the lineset file format and of the command-line boundary.

Serialization must be a fixed point of parse, and a lineset file damaged in
any of the ways drawn below must be refused with a documented exit code,
never a traceback.  Hypothesis runs derandomized, so every run draws the same
examples.
"""

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from equiline.cli import EXIT_ACTION_FAILED, EXIT_CERT_FAILED, EXIT_PARAMS, main
from equiline.fiducial import orbit_lineset
from equiline.finfield import HyperplaneType
from equiline.lineset import (
    LineSet,
    SpanDeficient,
    certify_tight,
    construct_case_iii,
    construct_case_iv,
    gram,
    line_translations,
    orbit,
)
from equiline.serialize import (
    _encode,
    _entry_table,
    _parse_canonical,
    _parse_json,
    parse_lineset,
    serialize_lineset,
)
from oracles import entry_table

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

MINUS, PLUS = HyperplaneType.MINUS, HyperplaneType.PLUS


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_case_iii(2, MINUS),
        lambda: construct_case_iii(2, PLUS),
        lambda: construct_case_iii(3, MINUS),
        lambda: construct_case_iii(3, PLUS),
        lambda: construct_case_iv(3, 1, MINUS),
        lambda: construct_case_iv(3, 1, PLUS),
        lambda: construct_case_iv(5, 1, MINUS),
        lambda: construct_case_iv(5, 1, PLUS),
    ],
)
def test_constructions_round_trip_byte_for_byte(build):
    text = serialize_lineset(build())
    assert serialize_lineset(parse_lineset(text)) == text


@st.composite
def fiducials(draw):
    d = draw(st.sampled_from([2, 8]))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * d, max_size=2 * d))
    v = np.array(parts[:d]) + 1j * np.array(parts[d:])
    hypothesis.assume(np.linalg.norm(v) > 1e-3)
    return v, d


@PROPERTY
@given(fiducials())
def test_fiducial_orbits_round_trip_byte_for_byte(drawn):
    text = serialize_lineset(orbit_lineset(*drawn))
    assert serialize_lineset(parse_lineset(text)) == text


@PROPERTY
@given(fiducials())
def test_canonical_text_takes_the_one_pass_parse(drawn):
    text = serialize_lineset(orbit_lineset(*drawn))
    fast = _parse_canonical(text)
    assert fast is not None
    assert np.array_equal(fast[1].vectors.view(np.uint64), _parse_json(text)[1].view(np.uint64))


# both zeros, so that the table must merge -0.0 with 0.0 in either part
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2, 2))


@st.composite
def repeated_entries(draw):
    """A complex matrix of entries drawn from a few values, C-ordered or, as
    gram_csv passes the Gram matrix, the transpose of a C-ordered one."""
    pool = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=6))
    rows, width = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    picks = draw(st.lists(st.sampled_from(pool), min_size=rows * width, max_size=rows * width))
    M = np.array(picks, complex).reshape(rows, width)
    return np.ascontiguousarray(M.T).T if draw(st.booleans()) else M


def _bits(z: np.ndarray) -> np.ndarray:
    """The bits of z + 0.0: each entry with its zero parts positive."""
    return np.ascontiguousarray(z + 0.0).view(np.uint64)


@PROPERTY
@given(repeated_entries())
def test_entry_table_matches_a_dictionary(M):
    values, codes = _entry_table(M)  # in text order: line j is column j of M
    distinct, _ = entry_table(M)
    assert codes.shape == M.T.shape
    assert sorted(map(tuple, _bits(values).reshape(-1, 2).tolist())) == \
        sorted(map(tuple, _bits(distinct).reshape(-1, 2).tolist()))
    assert np.array_equal(_bits(values[codes.T]), _bits(M))


@lru_cache(maxsize=None)
def _broken_angle(case: str, kind: HyperplaneType) -> str:
    """A serialized iii m=2 or iv (3, 1) set with one nonzero entry negated:
    still unit columns that span, but no longer equiangular."""
    L = construct_case_iii(2, kind) if case == "iii" else construct_case_iv(3, 1, kind)
    V = L.vectors.copy()
    V[np.argmax(np.abs(V[:, 3])), 3] *= -1
    return serialize_lineset(LineSet(V, L.meta))


BASES = [("iii", MINUS), ("iii", PLUS), ("iv", MINUS), ("iv", PLUS)]
NOT_NUMBERS = st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(-1, 1), max_size=3))
OBJECTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
NOT_OBJECTS = st.one_of(st.booleans(), st.integers(-3, 3), NOT_NUMBERS)
JUNK = st.one_of(NOT_OBJECTS, OBJECTS)


def _ragged(draw, obj):
    col = draw(st.integers(0, obj["n"] - 1))
    if draw(st.booleans()):
        obj["vectors"][col].pop()
    else:
        obj["vectors"][col].append([0.0, 0.0])


def _column_count(draw, obj):
    if draw(st.booleans()):
        obj["vectors"].pop(draw(st.integers(0, obj["n"] - 1)))
    else:
        obj["vectors"].append(obj["vectors"][0])


def _declared_shape(draw, obj):
    key = draw(st.sampled_from(["n", "d"]))
    obj[key] = draw(st.one_of(st.integers(-1, 100).filter(lambda x: x != obj[key]), JUNK))


def _non_numeric(draw, obj):
    col = draw(st.integers(0, obj["n"] - 1))
    row = draw(st.integers(0, obj["d"] - 1))
    junk = draw(st.one_of(NOT_NUMBERS, OBJECTS, st.booleans()))  # complex(True, 0) is 1
    if draw(st.booleans()):
        obj["vectors"][col][row] = junk
    else:
        obj["vectors"][col][row][draw(st.integers(0, 1))] = junk


def _exact_signs(draw, obj):
    obj["meta"]["exact_signs"] = draw(st.one_of(st.just(False), JUNK))


def _meta_object(draw, obj):
    obj["meta"] = draw(NOT_OBJECTS)


def _meta_row(draw, obj):
    key = draw(st.sampled_from(["case", "m", "p", "type", "eigen"]))
    obj["meta"][key] = draw(
        st.one_of(st.sampled_from(["i", "ii", "iii", "iv", "plus", "minus", 3, 5, 40]), JUNK)
    )


MUTATIONS = [_ragged, _column_count, _declared_shape, _non_numeric, _exact_signs,
             _meta_object, _meta_row]


@st.composite
def damaged_files(draw):
    obj = json.loads(_broken_angle(*draw(st.sampled_from(BASES))))
    draw(st.sampled_from(MUTATIONS))(draw, obj)
    return json.dumps(obj)


def _run(command: str, text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("base", BASES)
def test_broken_angle_bases_fail_certification(base):
    assert _run("certify", _broken_angle(*base))[0] == EXIT_CERT_FAILED
    assert _run("action", _broken_angle(*base))[0] == EXIT_ACTION_FAILED


@PROPERTY
@given(damaged_files())
def test_certify_refuses_damaged_files(text):
    code, err = _run("certify", text)
    assert code in (EXIT_PARAMS, EXIT_CERT_FAILED), err
    assert "Traceback" not in err


@PROPERTY
@given(damaged_files())
def test_action_refuses_damaged_files(text):
    code, err = _run("action", text)
    assert code in (EXIT_PARAMS, EXIT_CERT_FAILED, EXIT_ACTION_FAILED), err
    assert "Traceback" not in err


def _one_column_per_line(obj: dict) -> str:
    """obj laid out as serialize_lineset writes, one column per line, in its
    own key order, so the one-pass parse meets its damage first."""
    def value(key):
        if key == "vectors" and isinstance(obj[key], list):
            return "[\n" + ",\n".join(_encode(col) for col in obj[key]) + "\n]"
        return _encode(obj[key])
    return "{\n" + ",\n".join(f"{json.dumps(key)}: {value(key)}" for key in obj) + "\n}\n"


def _outcome(command: str, text: str) -> tuple[int, list[str]]:
    code, err = _run(command, text)
    return code, [line for line in err.splitlines() if not line.startswith("manifest: ")]


@PROPERTY
@given(damaged_files())
def test_damage_in_the_written_layout_is_refused_as_in_any_layout(text):
    laid_out = _one_column_per_line(json.loads(text))
    assert _outcome("certify", laid_out) == _outcome("certify", text)


# case iv rows whose fiducial has du > 1 coordinates per point: (p, m, kind)
WIDE_ROWS = [(3, 1, PLUS), (5, 1, PLUS), (3, 2, MINUS)]


@st.composite
def orbit_sets(draw):
    """The translation orbit of a drawn fiducial under a case-iv row's
    translations, tagged with the row, and rank-deficient when the drawn
    q x du view repeats a column."""
    K = construct_case_iv(*draw(st.sampled_from(WIDE_ROWS)))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * K.d, max_size=2 * K.d))
    w = np.array(parts[: K.d]) + 1j * np.array(parts[K.d :])
    hypothesis.assume(np.linalg.norm(w) > 1e-3)
    if draw(st.booleans()):
        R = w.reshape(round(K.n**0.5), -1)  # a view of w
        R[:, -1] = R[:, 0]
    cols = orbit(w / np.linalg.norm(w), *line_translations(K))
    return cols, K.meta


def _decided(build):
    """certify_tight's verdict on build(), or the message of its SpanDeficient."""
    try:
        L = build()
    except SpanDeficient as exc:
        return str(exc)
    return certify_tight(gram(L), L.d, 1e-8)


@PROPERTY
@given(orbit_sets())
def test_orbit_frames_decide_span_and_tightness_as_the_d_by_d_frame(drawn):
    cols, meta = drawn
    assert _decided(lambda: LineSet(cols, meta)) == _decided(lambda: LineSet(cols, {}))
    try:
        L = LineSet(cols, meta)
    except SpanDeficient:
        return
    F = cols @ cols.conj().T
    q = round(L.n**0.5)
    closed = np.kron(np.eye(q), L.frame[0]) if L.orbit_eps is not None else L.frame[0]
    assert np.abs(F - closed).max() <= L.frame_slack + 1e-13
