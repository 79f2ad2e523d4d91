"""Deterministic JSON/CSV serialization for line sets.

Writing is hand-rolled so output is byte-stable across runs and platforms:
fixed key order, sorted mapping keys, floats at 17 significant digits (which
round-trips IEEE doubles exactly), complex entries as [re, im] pairs.

Parsing reads text in exactly that layout in one pass over the vectors block:
each distinct entry string is converted once, and only where _fmt_float
prints it back byte for byte.  Any other text (other whitespace or key order,
`1.0`, `-0`, NaN, ...) goes through the standard json module, so each error
is the one json and the shape checks give.
"""

from __future__ import annotations

import json
import math
import operator

import numpy as np

from .lineset import LineSet

__all__ = ["serialize_lineset", "parse_lineset", "gram_csv"]


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    # canonicalize -0.0: "%g" would print "-0", which json reads back as int 0
    return "%.17g" % (x + 0.0)


def _encode(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("mapping keys must be strings")
            items.append(json.dumps(key) + ":" + _encode(obj[key]))
        return "{" + ",".join(items) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _columns(vectors: np.ndarray) -> list[str]:
    """The [[re,im],...] text of each column, formatting each distinct entry
    once (-0.0 and 0.0 merge, and print alike).  Rows of the index are
    converted one at a time: a whole-matrix tolist() raises peak memory."""
    values, index = np.unique(vectors.T, return_inverse=True)
    entries = [f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]" for z in values.tolist()]
    return [
        "[" + ",".join([entries[i] for i in row.tolist()]) + "]"
        for row in index.reshape(vectors.shape[::-1])
    ]


def _layout(obj: dict, block: str) -> str:
    """The file text of header obj around the vectors block text, joined in
    one copy (the block can take hundreds of megabytes)."""
    head = (
        "{\n"
        f'"case": {_encode(obj["case"])},\n'
        f'"n": {_encode(obj["n"])},\n'
        f'"d": {_encode(obj["d"])},\n'
        f'"params": {_encode(obj["params"])},\n'
        '"vectors": [\n'
    )
    return "".join((head, block, f'\n],\n"meta": {_encode(obj["meta"])}\n}}\n'))


def serialize_lineset(lines: LineSet) -> str:
    """One-column-per-row JSON text with fixed field order."""
    meta = lines.meta
    params = {
        k: v for k, v in meta.items() if k not in ("case", "n", "d", "exact_signs")
    }
    header = {"case": meta.get("case"), "n": lines.n, "d": lines.d, "params": params, "meta": meta}
    return _layout(header, ",\n".join(_columns(lines.vectors)))


_OPEN, _CLOSE = '"vectors": [\n', '\n],\n"meta": '


def _parse_canonical(text: str) -> tuple[dict, np.ndarray, tuple] | None:
    """Header, d x n vectors and (distinct entries, d x n codes into them) of
    text written by serialize_lineset, or None for any other text.

    The header and meta are read by json with the vectors block cut out and
    must print back as they stand.  The block must hold n column lines of d
    [re,im] entries, and each distinct entry string is converted once and
    must print back as it stands, as _columns writes it.
    """
    start = text.find(_OPEN) + len(_OPEN)
    stop = text.find(_CLOSE, start)
    if start < len(_OPEN) or stop < 0:
        return None
    cut = text[:start] + text[stop:]
    try:
        obj = json.loads(cut)
        if _layout(obj, "") != cut:
            return None
    except (KeyError, TypeError, ValueError):  # JSONDecodeError is a ValueError
        return None
    n, d = obj["n"], obj["d"]
    # n * d entries of more than one character each; this also bounds codes
    if type(n) is not int or type(d) is not int or not 0 < n * d < len(text):
        return None
    cols = text[start:stop].split(",\n")
    if len(cols) != n:
        return None
    table: dict[str, int] = {}
    codes = np.empty((d, n), dtype=np.intp)
    for k, col in enumerate(cols):
        entries = col[2:-2].split("],[")
        if col[:2] != "[[" or col[-2:] != "]]" or len(entries) != d:
            return None
        new = set(entries).difference(table)
        table.update(zip(new, range(len(table), len(table) + len(new))))
        codes[:, k] = np.fromiter(map(table.__getitem__, entries), np.intp, d)
    values = np.empty(len(table), dtype=complex)
    for entry, k in table.items():
        real, _, imag = entry.partition(",")
        try:
            x, y = float(real), float(imag)
            if _fmt_float(x) != real or _fmt_float(y) != imag:
                return None
        except ValueError:  # not a number, or not finite
            return None
        values[k] = complex(x, y)
    return obj, values[codes], (values, codes)


def _parse_json(text: str) -> tuple[dict, np.ndarray]:
    """Header and d x n vectors of any lineset JSON text."""
    obj = json.loads(text)
    cols = obj["vectors"]
    n, d = obj["n"], obj["d"]
    if len(cols) != n or any(len(c) != d for c in cols):
        raise ValueError("vector block shape disagrees with declared (n, d)")
    vectors = np.empty((d, n), dtype=complex)
    try:
        for k, col in enumerate(cols):
            vectors[:, k] = [complex(re, im) for re, im in col]
    except OverflowError as exc:  # an integer literal beyond the double range
        raise TypeError(f"vector entry is not a double: {exc}") from None
    return obj, vectors


def _exact_signs(entries: np.ndarray, d: int) -> np.ndarray:
    """The integers rint(sqrt(d) * entries), or ValueError unless every entry
    is +-1/sqrt(d)."""
    scaled = entries * np.sqrt(d)
    signs = np.rint(scaled.real).astype(np.int64)
    if (
        np.abs(entries.imag).max() > 1e-15
        or not np.all(np.abs(signs) == 1)
        or np.abs(scaled.real - signs).max() > 1e-9
    ):
        raise ValueError("exact_signs declared but entries are not +-1/sqrt(d)")
    return signs


def parse_lineset(text: str) -> LineSet:
    """Inverse of serialize_lineset; revalidates structure and exact signs.
    Text in the canonical layout has its signs checked on its distinct
    entries only."""
    obj, vectors, distinct = _parse_canonical(text) or (*_parse_json(text), None)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise TypeError(f"meta must be a JSON object, got {type(meta).__name__}")
    signs = None
    if meta.get("exact_signs"):
        if distinct is not None:  # canonical entries are finite
            entries, codes = distinct
            signs = _exact_signs(entries, obj["d"])[codes]
        elif np.isfinite(vectors).all():  # else LineSet says why
            signs = _exact_signs(vectors, obj["d"])
    return LineSet(vectors, meta, signs=signs)


def gram_csv(lines: LineSet) -> str:
    """All n^2 Gram entries as i,j,re,im rows with a header, formatting each
    distinct entry once (as _columns does)."""
    G = lines.vectors.conj().T @ lines.vectors
    values, index = np.unique(G, return_inverse=True)
    entries = [f"{_fmt_float(z.real)},{_fmt_float(z.imag)}" for z in values.tolist()]
    cells = [f"{j}," for j in range(lines.n)]
    rows = ["i,j,re,im"]
    for i, row in enumerate(index.reshape(G.shape)):
        prefix = f"{i},"
        pairs = map(operator.add, cells, map(entries.__getitem__, row.tolist()))
        rows.append(prefix + ("\n" + prefix).join(pairs))
    return "\n".join(rows) + "\n"
