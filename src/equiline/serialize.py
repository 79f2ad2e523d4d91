"""Deterministic JSON/CSV serialization for line sets.

Writing is hand-rolled so output is byte-stable across runs and platforms:
fixed key order, sorted mapping keys, floats at 17 significant digits (which
round-trips IEEE doubles exactly), complex entries as [re, im] pairs.

The vectors block is written from a table of the distinct entries and one
code per entry, the codes in text order: row j holds column line j.  The
writer looks each block of columns up once in a table of complex entries
(_entry_table) and prints the codes through patterns of a few entries each
(_text_blocks, the one definition of the layout).  The reader makes one of
two guesses at the columns and takes a guess only where the writer prints
the block back from it byte for byte.  A tagged file, one whose header
passes lineset._case, is first guessed to be the translation orbit of its
line 0, coded as the writer codes it: every constructed set is bitwise that
orbit up to the sign of zero, so no entry past line 0 is read.  Otherwise,
or where the print-back refutes that, the reader finds the entries of a
block with one scan for "[": each entry ends where the next one starts,
less the fixed separator.  It guesses the codes from a hash of each entry's
bytes and converts each distinct entry once.  Any other text (other
whitespace or key order, `1.0`, `-0`, NaN, a moved separator, ...) goes
through the standard json module, so each error is the one json and the
shape checks give.
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


# Entries per block of lines: every array the writer and the reader make
# besides the codes and the text itself holds at most this many entries, of
# at most _PAD bytes each.
_BLOCK = 1 << 14
# Bound on the pattern table: 4 kinds of group times (K + 1)^w patterns.
_PATTERNS = 1 << 14
# The longest entry _fmt_float can print: "[" + 24 + "," + 24 + "]".
_MAX_ENTRY = 51


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

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of keys, in their shape, and the flat index into keys of
        the first occurrence of each key seen for the first time, in code
        order."""
        codes = self._find(keys)
        miss = np.flatnonzero(codes < 0)
        if not miss.size:
            return codes, miss
        new, first, index = np.unique(keys.ravel()[miss], return_index=True, return_inverse=True)
        codes.ravel()[miss] = self.keys.size + index
        self.keys = np.concatenate([self.keys, new])
        self._code = np.argsort(self.keys)
        self._sorted = self.keys[self._code]
        return codes, miss[first]

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
        codes[a : a + step] = table(M[:, a : a + step])[0].T
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
_PAD = 8 * -(-_MAX_ENTRY // 8)  # whole 8-byte words past an entry's start
_SHORT_MASKS = np.array([(1 << 8 * m) - 1 for m in range(9)], np.uint64)  # its first m bytes
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)  # splitmix64


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's full avalanche of each word of h, in place."""
    h ^= h >> np.uint64(32)
    h *= _MIX[0]
    h ^= h >> np.uint64(29)
    h *= _MIX[1]
    return h


def _entry_hash(raw: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit hash of every byte of each entry raw[start : start + length]:
    its little-endian 8-byte words, each mixed into the hash with a full
    avalanche.  An entry mixes only the words it reaches, with the bytes past
    its end masked off, so a "[0,0]" mixes one word.  All the words of an
    entry are read in one gather, as many as the longest entry has: numpy
    gathers up to _PAD bytes an element at about the cost of one word.  raw
    holds _PAD bytes from each start."""
    shortest, longest = int(lengths.min()), int(lengths.max())
    count = -(-longest // 8)
    entries = np.ndarray((len(raw) - 8 * count + 1,), f"V{8 * count}", raw, strides=(1,))
    words = entries[starts].view("<u8").reshape(-1, count)
    h = np.zeros(starts.size, np.uint64)
    for k in range(count):
        if shortest >= 8 * k + 8:  # word k lies inside every entry
            h ^= words[:, k]
            _mix(h)
            continue
        more = slice(None) if shortest > 8 * k else np.flatnonzero(lengths > 8 * k)
        word = words[more, k] & _SHORT_MASKS[np.minimum(lengths[more] - 8 * k, 8)]
        word ^= h[more]
        h[more] = _mix(word)
    return (h ^ (h >> np.uint64(32))).view(np.int64)


def _read_block(text: str, begin: int, end: int, lines: int, d: int, hashes: _Codes,
                tokens: list[str], values: list[complex]) -> np.ndarray | None:
    """The lines x d codes of text[begin:end], which holds that many column
    lines of d "[re,im]" entries, guessed from a hash of each entry's bytes,
    or None where the text cannot be canonical.  One scan finds every "[": a
    line's own and then one per entry.  Each entry ends where the next "["
    begins, less "," inside a line and "],\n" before the next line's.  Each
    entry not seen before is converted once, must print back through
    _fmt_float as it stands, and extends tokens and values."""
    try:  # canonical text is ASCII throughout
        raw = text[begin:end].encode("ascii") + bytes(_PAD)
    except UnicodeEncodeError:
        return None
    opens = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("["))
    if opens.size != lines * (d + 1):
        return None
    # the last entry of the block ends as if another line followed
    lengths = np.diff(opens, append=end - begin + 2).reshape(lines, d + 1)[:, 1:] - 1
    lengths[:, -1] -= 2
    starts = opens.reshape(lines, d + 1)[:, 1:].ravel()
    del opens  # before the hash, which holds each entry's words
    lengths = lengths.ravel()
    if not 0 < lengths.min() <= lengths.max() <= _MAX_ENTRY:
        return None
    codes, new = hashes(_entry_hash(raw, starts, lengths))
    for i in new.tolist():
        token = raw[starts[i] : starts[i] + lengths[i]].decode()
        z = _entry(token)
        if z is None:
            return None
        tokens.append(token)
        values.append(z)
    return codes.reshape(lines, d)


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
    reads them: no entry past line 0 is hashed or converted."""
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


def _hash_guess(text: str, n: int, d: int, start: int, stop: int) -> np.ndarray | None:
    """The d x n columns of the vectors block text[start:stop] of any
    canonical text, or None.  The codes are guessed from a hash of each
    entry's bytes (_read_block), and each distinct entry is converted once.
    The guess holds only where the codes print back as the text, which no
    hash collision passes.  The columns are gathered from the distinct
    entries as _columns gives them: float64 when none has an imaginary
    part, so no complex d x n array is made."""
    hashes, tokens, values = _Codes(np.int64), [], []
    codes = np.empty((n, d), np.min_scalar_type(n * d))  # no code reaches n * d
    cols = _block_lines(d, n)
    pos = start
    for a in range(0, n, cols):
        begin, k = pos, min(cols, n - a)
        last = a + k == n
        for _ in range(k - last):  # past the ",\n" after each line
            pos = text.find("\n", pos, stop) + 1
            if pos < begin + 2:  # not found, or no room for the ","
                return None
        block = _read_block(text, begin, stop if last else pos - 2, k, d, hashes, tokens, values)
        if block is None:
            return None
        codes[a : a + k] = block
    if not _prints_back(text, start, stop, tokens, codes):
        return None
    return _columns(np.array(values, dtype=complex)).take(codes.T)


def _parse_canonical(text: str) -> tuple[dict, np.ndarray] | None:
    """Header and d x n vectors of text written by serialize_lineset, or None
    for any other text.

    The header and meta are read by json with the vectors block cut out and
    must print back as they stand.  The codes of the entries are then
    guessed, first as the orbit of line 0 on a tagged file (_orbit_guess)
    and else from a hash of each entry (_hash_guess), and a guess is taken
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
    if vectors is None:
        vectors = _hash_guess(text, n, d, start, stop)
    return None if vectors is None else (obj, vectors)


def _parse_json(text: str) -> tuple[dict, np.ndarray]:
    """Header and d x n vectors, as lineset._columns gives them, of any
    lineset JSON text."""
    obj = json.loads(text)
    cols = obj["vectors"]
    n, d = obj["n"], obj["d"]
    if type(n) is not int or type(d) is not int:
        raise TypeError("n and d must be JSON integers")
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
