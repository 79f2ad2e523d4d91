"""Deterministic JSON/CSV serialization for line sets.

Writing is hand-rolled so output is byte-stable across runs and platforms:
fixed key order, sorted mapping keys, floats at 17 significant digits (which
round-trips IEEE doubles exactly), complex entries as [re, im] pairs.

The vectors block is written from a table of the distinct entries and one
code per entry, the codes in text order: row j holds column line j.  The
writer looks each block of columns up once in a table of complex entries
(_entry_table) and prints the codes through patterns of a few entries each
(_text_blocks, the one definition of the layout).  The reader guesses that
a tagged file, one whose header passes lineset._case, is the translation
orbit of its line 0, coded as the writer codes it, and takes the guess only
where the writer prints the block back from it byte for byte.  Every
constructed set is bitwise that orbit up to the sign of zero, so no entry
past line 0 is read.  Any other text goes through the standard json module
and the shape checks of _parse_json, which give its errors: an untagged
file, other whitespace or key order, `1.0`, `-0`, NaN, or a tagged file
with an entry moved by one ulp.  json reads those with the same bits, at
about ten times the time and seven times the memory of the guess from entry
hashes this module once made: 0.49-0.50 s and a 73.4 MB tracemalloc peak
against 0.05-0.07 s and 10.2 MB at iii m=5 minus (CPython 3.11, 2 vCPUs).
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .heisenberg import lex_index
from .lineset import LineSet, _columns, _line_table, orbit

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


# Entries per block of lines: every array the writer and the print-back make
# besides the codes and the text itself holds at most this many entries.
_BLOCK = 1 << 14
# Bound on the pattern table: 4 kinds of group times (K + 1)^w patterns.
_PATTERNS = 1 << 14


def _block_lines(width: int, lines: int) -> int:
    """Text lines of width entries per block: at most _BLOCK entries and at
    most half the text, so a block's arrays stay a fraction of the text at
    every size."""
    return max(1, min(_BLOCK, lines * width // 2) // width)


class _Codes:
    """Codes 0, 1, 2, ... for keys of one dtype, found by searchsorted in a
    sorted copy of the keys seen so far, which grows only when a lookup
    misses.  Keys that compare equal share a code, as -0.0 and 0.0 do.  A
    key keeps its code, so the codes of one block stay valid after the next
    block adds keys."""

    def __init__(self, dtype):
        self.keys = np.empty(0, dtype)  # by code
        self._sorted = self.keys
        self._code = np.empty(0, np.intp)  # code of each sorted key

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """The codes of keys, in their shape."""
        codes = self._find(keys)
        miss = np.flatnonzero(codes < 0)
        if not miss.size:
            return codes
        new, index = np.unique(keys.ravel()[miss], return_inverse=True)
        codes.ravel()[miss] = self.keys.size + index
        self.keys = np.concatenate([self.keys, new])
        self._code = np.argsort(self.keys)
        self._sorted = self.keys[self._code]
        return codes

    def _find(self, keys: np.ndarray) -> np.ndarray:
        if not self.keys.size:
            return np.full(keys.shape, -1, np.intp)
        at = np.minimum(np.searchsorted(self._sorted, keys), self.keys.size - 1)
        return np.where(self._sorted[at] == keys, self._code[at], -1)


def _entry_table(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of the d x n matrix M, whose columns are the text
    lines, and the n x d codes of its entries into them, in text order.

    Each block of columns is looked up once in a table of entries of M's
    dtype, float64 or complex128: searchsorted orders both, and == merges
    -0.0 with 0.0, so a distinct entry may keep either sign of a zero part.
    A block is looked up as it lies in M, and its codes are turned to text
    order while they are in cache."""
    d, n = M.shape
    table = _Codes(M.dtype)
    codes = np.empty((n, d), np.min_scalar_type(n * d))  # no code reaches n * d
    step = _block_lines(d, n)
    for a in range(0, n, step):
        codes[a : a + step] = table(M[:, a : a + step]).T
    return table.keys, codes


def _text_blocks(tokens: list[str], codes: np.ndarray) -> Iterator[list[str]]:
    """The vectors block text of the n x d codes into tokens, one row per
    column line, as one list of pieces per block of lines: lines joined by
    ",\n", each "[" + d tokens joined by "," + "]".

    This is the one definition of the layout.  A piece covers a group of w
    entries of one column, and each group that occurs is formatted once: w
    is the longest group whose table of (K + 1)^w patterns per kind (K
    tokens and a pad that fills the last group of a column) stays within
    _PATTERNS and within the number of groups, so that it never outgrows
    the text."""
    n, d = codes.shape
    base = len(tokens) + 1
    w = 1
    while w < d and 4 * base ** (w + 1) <= min(_PATTERNS, n * d // (w + 1)):
        w += 1
    groups = -(-d // w)
    kinds = np.zeros(groups, np.intp)
    kinds[0] += 1  # opens a column
    kinds[-1] += 2  # closes it
    offsets = kinds * base**w
    radix = lex_index(np.eye(w, dtype=np.int64), base)  # a key is the index of its w codes
    powers = radix.tolist()
    sep = ["," + t for t in tokens] + [""]
    table = np.empty(4 * base**w, object)
    built = np.zeros(table.size, bool)
    cols = _block_lines(d, n)
    for a in range(0, n, cols):
        block = np.full((min(cols, n - a), groups * w), base - 1)
        block[:, :d] = codes[a : a + cols]
        keys = (block.reshape(-1, groups, w) @ radix + offsets).ravel()
        for key in set(keys[~built[keys]].tolist()):
            kind, rest = divmod(key, base**w)
            text = "".join([sep[rest // b % base] for b in powers])
            if kind & 1:
                text = ",\n[" + text[1:]
            table[key] = text + "]" if kind & 2 else text
        built[keys] = True
        pieces = table[keys].tolist()
        if not a:
            pieces[0] = pieces[0][2:]  # no separator before the first column
        yield pieces


def _layout(obj: dict, pieces: Iterable[str]) -> str:
    """The file text of header obj around the pieces of the vectors block,
    joined in one copy (the block can take hundreds of megabytes)."""
    head = (
        "{\n"
        f'"case": {_encode(obj["case"])},\n'
        f'"n": {_encode(obj["n"])},\n'
        f'"d": {_encode(obj["d"])},\n'
        f'"params": {_encode(obj["params"])},\n'
        '"vectors": [\n'
    )
    tail = f'\n],\n"meta": {_encode(obj["meta"])}\n}}\n'
    return "".join(chain([head], pieces, [tail]))


def _token(z: complex | float) -> str:
    """The "[re,im]" text of an entry; a float prints as "[x,0]"."""
    return f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]"


def serialize_lineset(lines: LineSet) -> str:
    """One-column-per-row JSON text with fixed field order."""
    meta = lines.meta
    params = {
        k: v for k, v in meta.items() if k not in ("case", "n", "d", "exact_signs")
    }
    header = {"case": meta.get("case"), "n": lines.n, "d": lines.d, "params": params, "meta": meta}
    values, codes = _entry_table(lines.vectors)
    tokens = [_token(z) for z in values.tolist()]
    return _layout(header, chain.from_iterable(_text_blocks(tokens, codes)))


_OPEN, _CLOSE = '"vectors": [\n', '\n],\n"meta": '


def _entry(token: str) -> complex | None:
    """The entry of a "[re,im]" token, or None unless it is a finite number
    that prints back through _fmt_float as it stands."""
    real, _, imag = token[1:-1].partition(",")
    try:
        z = complex(float(real), float(imag))
    except ValueError:  # not a number
        return None
    return z if cmath.isfinite(z) and _token(z) == token else None


def _prints_back(text: str, start: int, stop: int, tokens: list[str], codes: np.ndarray) -> bool:
    """True when _text_blocks prints the n x d codes into tokens back as
    text[start:stop], byte for byte; compared a block at a time, and False
    at the first block that differs."""
    pos = start
    for pieces in _text_blocks(tokens, codes):
        block = "".join(pieces)
        if not text.startswith(block, pos):
            return False
        pos += len(block)
    return pos == stop


def _orbit_guess(text: str, meta, n: int, d: int, start: int, stop: int) -> np.ndarray | None:
    """The d x n columns of a tagged file (one whose meta passes
    lineset._case) whose vectors block text[start:stop] is the translation
    orbit of its line 0, or None.  Line 0's entries are read by _entry, and
    the orbit, coded by the writer's _entry_table, must print back as the
    text.  It is the result, with its zero parts made +0.0 in place as json
    reads them: no entry past line 0 is converted."""
    if not isinstance(meta, dict):
        return None
    try:
        _, index, phase = _line_table(meta, n, d)
    except ValueError:
        return None
    end = text.find("],\n", start, stop)  # line 0 closes; a table row has n > d lines
    if end < 0:
        return None
    values = [_entry(f"[{token}]") for token in text[start + 2 : end - 1].split("],[")]
    if len(values) != d or None in values:
        return None
    cols = orbit(_columns(np.array(values)), index, phase)
    entries, codes = _entry_table(cols)
    if not _prints_back(text, start, stop, [_token(z) for z in entries.tolist()], codes):
        return None
    cols += 0.0
    return _columns(cols)


def _parse_canonical(text: str) -> tuple[dict, np.ndarray] | None:
    """Header and d x n vectors of a tagged file's text as serialize_lineset
    writes it, or None for any other text.

    The header and meta are read by json with the vectors block cut out and
    must print back as they stand.  The columns are then guessed to be the
    orbit of line 0 of a tagged file (_orbit_guess), and the guess is taken
    only once _text_blocks prints the block back from it byte for byte.
    """
    start = text.find(_OPEN) + len(_OPEN)
    stop = text.rfind(_CLOSE, start)  # the only one in canonical text, and near its end
    if start < len(_OPEN) or stop < 0:
        return None
    cut = text[:start] + text[stop:]
    try:
        obj = json.loads(cut)
        if _layout(obj, ()) != cut:
            return None
    except (KeyError, TypeError, ValueError):  # JSONDecodeError is a ValueError
        return None
    n, d = obj["n"], obj["d"]
    # n * d entries of more than one character each; this also bounds codes
    if type(n) is not int or type(d) is not int or not (n > 0 and d > 0 and n * d < len(text)):
        return None
    vectors = _orbit_guess(text, obj["meta"], n, d, start, stop)
    return None if vectors is None else (obj, vectors)


def _parse_json(text: str) -> tuple[dict, np.ndarray]:
    """Header and d x n vectors, as lineset._columns gives them, of any
    lineset JSON text; KeyError or TypeError, each with its own message,
    where its object, keys, vectors or columns have the wrong JSON shape."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise TypeError(f"top level must be a JSON object, got {type(obj).__name__}")
    for key in ("n", "d", "vectors"):
        if key not in obj:
            raise KeyError(f"missing key {key!r}")
    cols, n, d = obj["vectors"], obj["n"], obj["d"]
    if type(n) is not int or type(d) is not int:
        raise TypeError("n and d must be JSON integers")
    if not isinstance(cols, list):
        raise TypeError(f"vectors must be a JSON list, got {type(cols).__name__}")
    for col in cols:
        if not isinstance(col, list):
            raise TypeError(f"vector column must be a JSON list, got {type(col).__name__}")
    if len(cols) != n or any(len(c) != d for c in cols):
        raise ValueError("vector block shape disagrees with declared (n, d)")
    vectors = np.empty((d, n), dtype=complex)
    for k, col in enumerate(cols):
        try:
            vectors[:, k] = [complex(re, im) for re, im in col]
        except OverflowError as exc:  # an integer literal beyond the double range
            raise TypeError(f"vector entry is not a double: {exc}") from None
        except (TypeError, ValueError):  # not two values, or not numbers
            raise TypeError("vector entry must be a [re, im] pair of JSON numbers") from None
        if any(type(x) is bool for entry in col for x in entry):  # complex(True, 0) is 1
            raise TypeError("vector entry is a JSON boolean, not a number")
    return obj, _columns(vectors)


def parse_lineset(text: str) -> LineSet:
    """Inverse of serialize_lineset; LineSet revalidates the structure and
    derives the exact signs that meta declares."""
    obj, vectors = _parse_canonical(text) or _parse_json(text)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise TypeError(f"meta must be a JSON object, got {type(meta).__name__}")
    return LineSet(vectors, meta)


def gram_csv(lines: LineSet) -> str:
    """All n^2 Gram entries as i,j,re,im rows with a header, formatting each
    distinct entry once.  Every line carries its own i and j, so lines are
    joined one by one, not as patterns.  Real columns take a complex product
    too: a real one rounds some entries differently."""
    V = lines.vectors.astype(complex, copy=False)
    G = V.conj().T @ V
    values, codes = _entry_table(G.T)  # column i of G.T is line i of the text
    entries = [f"{_fmt_float(z.real)},{_fmt_float(z.imag)}" for z in values.tolist()]
    entries = np.array(entries, object)
    cells = [f"{j}," for j in range(lines.n)]
    rows = ["i,j,re,im"]
    for i, row in enumerate(codes):
        prefix = f"{i},"
        pairs = map(operator.add, cells, entries[row].tolist())
        rows.append(prefix + ("\n" + prefix).join(pairs))
    return "\n".join(rows) + "\n"
