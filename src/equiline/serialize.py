"""Deterministic JSON/CSV serialization for line sets.

Writing is hand-rolled so output is byte-stable across runs and platforms:
fixed key order, sorted mapping keys, floats at 17 significant digits (which
round-trips IEEE doubles exactly), complex entries as [re, im] pairs.
Parsing uses the standard json module.
"""

from __future__ import annotations

import json
import math

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


def serialize_lineset(lines: LineSet) -> str:
    """One-column-per-row JSON text with fixed field order."""
    meta = lines.meta
    params = {
        k: v for k, v in meta.items() if k not in ("case", "n", "d", "exact_signs")
    }
    return (
        "{\n"
        f'"case": {_encode(meta.get("case"))},\n'
        f'"n": {lines.n},\n'
        f'"d": {lines.d},\n'
        f'"params": {_encode(params)},\n'
        '"vectors": [\n' + ",\n".join(_columns(lines.vectors)) + "\n],\n"
        f'"meta": {_encode(meta)}\n'
        "}\n"
    )


def parse_lineset(text: str) -> LineSet:
    """Inverse of serialize_lineset; revalidates structure and exact signs."""
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
    meta = obj.get("meta") or {}
    if not isinstance(meta, dict):
        raise TypeError(f"meta must be a JSON object, got {type(meta).__name__}")
    signs = None
    if meta.get("exact_signs") and np.isfinite(vectors).all():  # else LineSet says why
        scaled = vectors * np.sqrt(d)
        signs = np.rint(scaled.real).astype(np.int64)
        if (
            np.abs(vectors.imag).max() > 1e-15
            or not np.all(np.abs(signs) == 1)
            or np.abs(scaled.real - signs).max() > 1e-9
        ):
            raise ValueError("exact_signs declared but entries are not +-1/sqrt(d)")
    return LineSet(vectors, meta, signs=signs)


def gram_csv(lines: LineSet) -> str:
    """All n^2 Gram entries as i,j,re,im rows with a header."""
    G = lines.vectors.conj().T @ lines.vectors
    rows = ["i,j,re,im"]
    n = lines.n
    for i in range(n):
        for j in range(n):
            z = G[i, j]
            rows.append(f"{i},{j},{_fmt_float(z.real)},{_fmt_float(z.imag)}")
    return "\n".join(rows) + "\n"
