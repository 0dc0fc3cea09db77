"""Array text kernels: `%.12e`, `%.4f` and `%d` cells, byte-identical to `%`,
-0.0 included, and "json" cells, byte-identical to `repr(float("%.12e" % v))`.

A cell is uint32 words of ASCII from tables, filler bytes (0) where the text is
shorter; digits come from `rint(|x| * 10**k)`.  Where 10**k is exact (k in
0..22, and 10**4 for `%.4f`) the product is rounded once, so its rint is the
correctly rounded digits unless the product is itself a tie; elsewhere it errs
by at most 2**-52.  Python's `%` formats, in place of its cell, a value whose
product is a tie (or within 2**-50 of one where 10**k is rounded), a `%.12e`
magnitude outside zero and [1e-296, DBL_MAX], `%.4f` from 9999, `%d` outside
[0, 9999] and each call of fewer than _FEW values; only `%.4f` and `%d` widen
a cell.  A json cell re-lays the 13 digits of `%.12e`: a decimal of at most 15
significant digits survives the round trip through a normal double, so repr
gives back those digits without their trailing zeros, and zero's one, "0.0".
What `%.12e` leaves to `%` goes through repr.  A kernel is a fixed few dozen
numpy calls, in place where they can be, that write their words into one
array, so it costs per cell more than per call.

`lines` lays out rows of text and cells in blocks of at most BLOCK_CELLS cells,
a bytes chunk each, text repeated by a zero stride; the last row's separator is
made filler in place, so the one filler-dropping pass cuts it.  A distinct column
goes through `cells` once a block, an indexed one (a vertex lattice, an axis, a
column of one value) once a call.
"""

import numpy as np

_E_MIN, _E_MAX = -296, 308


def _words(*columns):  # four byte columns, one uint32 word per row
    return np.stack(np.broadcast_arrays(*columns), -1).astype(np.uint8).view(np.uint32)[..., 0]


_n = np.arange(10_000, dtype=np.int16)[:, None]
_DIGITS = 48 + _n // np.int16([1000, 100, 10, 1]) % 10  # ASCII of 0000..9999
_QUAD = _words(*_DIGITS.T)
_BLANK = _words(*np.where(_n >= [1000, 100, 10, 0], _DIGITS, 0).T)  # leading zeros as filler
_TAIL = _words(*_DIGITS[:1000, 1:].T, ord("e"))
_LEAD = _words(np.repeat([0, ord("-")], 100), np.tile(_DIGITS[:100, 2], 2),
               ord("."), np.tile(_DIGITS[:100, 3], 2))  # "-1.2" at 100 * sign + 12
# Row p is the exponent 308 - p: "+308", "-05", hundreds as filler below 100.
_n = abs(np.arange(_E_MAX, _E_MIN - 1, -1))
_EXP = _words(np.repeat([ord("+"), ord("-")], [_E_MAX + 1, -_E_MIN]),
              *np.where(_n[:, None] >= [100, 0, 0], _DIGITS[_n, 1:], 0).T)
_MINUS, _DOT = _words(ord("-"), 0, 0, 0), _words(ord("."), 0, 0, 0)
# Correctly rounded 10**k, k = 12 - e, at row p of the exponent e = 308 - p, and
# how near a tie its product may fall: exact for k in 0..22, 2**-50 of it else.
_n = np.arange(12 - _E_MAX, 13 - _E_MIN)
_POW10 = np.array([float(f"1e{k}") for k in _n])
_SLACK = np.where((_n >= 0) & (_n <= 22), 0.0, 2.0 ** -50)


def _cells(n, *words):  # (n, 4 * len(words)) bytes of words: a uint32, array or (table, index)
    out = np.empty((n, len(words)), np.uint32)
    for k, word in enumerate(words):
        out[:, k] = word[0][word[1]] if isinstance(word, tuple) else word
    return out.view(np.uint8)


def _split(q, unit):  # q // unit, and q % unit in place of q
    hi = q // unit
    q -= hi * unit
    return hi


def _far_from_tie(m, q, slack=0.0):  # q = rint(m); 0.5 - |m - q| is exact
    return 0.5 - np.abs(m - q) > slack * m


def _fixed(x):
    y = np.fmin(np.abs(x), 9999.0)
    y *= 1e4  # exact 10**4: rounded once
    q = np.rint(y)
    ok = (y < 9999e4) & _far_from_tie(y, q)
    q = q.astype(np.int64)
    return _cells(x.size, np.signbit(x) * _MINUS, (_BLANK, _split(q, 10_000)), _DOT, (_QUAD, q)), ok


def _digits(x):
    """Sign, 13 significant digits q, _EXP row p of the exponent and ok mask of `%.12e`.

    At zero q is 0 and p the row of +00; where not ok both are only in range."""
    a = np.abs(x)
    b = np.fmax(a, 1e-296)
    np.fmin(b, np.finfo(float).max, out=b)
    ok = a == b
    e = np.floor(np.log10(b))
    p = np.minimum(_E_MAX - e, _E_MAX - _E_MIN).astype(np.intp)  # log10 may round below -296
    m = _POW10[p]
    m *= b
    q = np.rint(m)
    ok &= (m >= 1e12) & (q <= 1e13) & _far_from_tie(m, q, _SLACK[p])
    # Digits that round up to 10**13 carry into the next exponent, as do those
    # of a log10 one short; one over (m < 10**12, below a power of ten) falls back.
    carry = q >= 1e13
    np.copyto(q, 1e12, where=carry)
    p -= carry
    zero = a == 0.0
    ok |= zero
    np.copyto(q, 0.0, where=zero)
    np.copyto(p, _E_MAX, where=zero)
    return np.signbit(x), q.astype(np.int64), p, ok


def _sci(x):
    neg, q, p, ok = _digits(x)
    b = _split(q, 10 ** 7)
    a = _split(b, 10_000)
    a += 100 * neg
    return _cells(x.size, (_LEAD, a), (_QUAD, b), (_QUAD, _split(q, 1000)), (_TAIL, q), (_EXP, p)), ok


# A json cell is 20 bytes gathered from 24 source bytes: the 13 digits, "-",
# ".", "0", the exponent ("+308", "-05" with filler), "e" and filler, through
# one layout per sign, exponent class (-4..15 positional, 20 the e form) and
# significant-digit count k (1..13).
_NEG, _POINT, _ZERO, _EXPONENT, _E, _FILL = 13, 14, 15, 16, 20, 21
_UNIT = _words(_DIGITS[:10, 3], ord("-"), ord("."), ord("0"))
_E_FILL = _words(ord("e"), 0, 0, 0)


def _layout(neg, e, k):
    d = list(range(k))
    if e is None:     # 1.5e-05, 1e+16
        body = d[:1] + [_POINT] * (k > 1) + d[1:] + [_E, *range(_EXPONENT, _EXPONENT + 4)]
    elif e < 0:       # 0.00015
        body = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + d
    else:             # 15.0, 1.5
        body = d[:e + 1] + [_ZERO] * (e + 1 - k) + [_POINT] + (d[e + 1:] or [_ZERO])
    text = [_NEG] * neg + body
    return text + [_FILL] * (20 - len(text))


_LAYOUT = np.array([_layout(neg, e, k) for neg in (0, 1)
                    for e in (*range(-4, 16), None) for k in range(1, 14)], dtype=np.intp)
_n = _E_MAX - np.arange(_E_MAX - _E_MIN + 1)  # the exponent of _EXP row p
_CLASS = np.where((_n >= -4) & (_n < 16), _n + 4, 20) * 13 + 12  # the _LAYOUT row of k = 13
_TRAILING = np.zeros(10 ** 5, np.int8)  # trailing zeros of 00000..99999
for _k in range(1, 6):
    _TRAILING[::10 ** _k] += 1


def _repr(x):
    neg, q, p, ok = _digits(x)
    b1 = _split(q, 10 ** 5)
    b0 = _split(b1, 10_000)
    # Trailing zeros of the last five digits, then of b1 and b0; zero keeps one digit, "0.0".
    zeros = _TRAILING[q] + (q == 0) * (_TRAILING[10 * b1] - 1 + (b1 == 0) * (_TRAILING[10 * b0] - 1))
    np.minimum(zeros, 12, out=zeros)
    src = _cells(x.size, (_QUAD, b0), (_QUAD, b1), (_QUAD, _split(q, 10)), (_UNIT, q), (_EXP, p),
                 _E_FILL)
    row = _CLASS[p]
    row += 21 * 13 * neg
    row -= zeros
    index = np.take(_LAYOUT, row, axis=0)  # 160 bytes a cell: built in place
    index += np.arange(0, 24 * x.size, 24)[:, None]
    return np.take(src.reshape(-1), index, mode="wrap"), ok


def _int(n):
    return np.take(_BLANK, n, mode="clip")[:, None].view(np.uint8), (n >= 0) & (n < 10_000)


# A kernel call costs 4-40 us whatever its size, then about 1 ns a %d cell, 8 ns
# a %.4f, 40 ns a %.12e and 70 ns a json cell; `%` costs 0.5-1.1 us a value, so
# fewer than _FEW values go through it.  json takes ~250 B a cell while it runs,
# and 8192 cells hold a 1,001-row table of 7 columns in one block.
BLOCK_CELLS = 8192
_FEW = 16

_KERNELS = {  # spec: kernel, `%`, the kernel's cell width
    "%.12e": (_sci, "%.12e".__mod__, 20),
    "%.4f": (_fixed, "%.4f".__mod__, 16),
    "%d": (_int, "%d".__mod__, 4),
    "json": (_repr, lambda v: repr(float("%.12e" % v)), 20),
}


def cells(x: np.ndarray, spec: str) -> np.ndarray:
    """ASCII cells, shape x.shape + (width,), of `spec % v` for each v in x.

    spec is "%.12e", "%.4f", "%d" or "json", the JSON number repr(float("%.12e" % v)).
    """
    kernel, fmt, width = _KERNELS[spec]
    flat = x.reshape(-1)
    if flat.size < _FEW:
        out, miss = np.zeros((flat.size, width), np.uint8), np.arange(flat.size)
    else:
        out, ok = kernel(flat)
        miss = np.flatnonzero(~ok)
    if miss.size:
        # numpy pads bytes strings with NUL, the filler byte.
        text = np.array([fmt(v).encode() for v in flat[miss].tolist()])
        if text.itemsize > out.shape[1]:  # %.4f from 9999 up, %d outside [0, 9999]
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out.view(f"S{out.shape[1]}")[miss, 0] = text
    return out.reshape(*x.shape, out.shape[1])


def lines(parts, sep: str) -> list[bytes]:
    """ASCII rows of parts separated by sep, none after the last, as byte chunks.

    A part is str, the same in every row; (values, spec), whose row i is
    `cells(values, spec)[i]` without filler; or (values, spec, index), whose
    row i is `cells(values, spec)[index[i]]`.  A chunk is one block's rows.
    Each distinct (values, spec) is formatted once per block, or once if indexed."""
    gathered = [p for p in parts if not isinstance(p, str) and len(p) == 3]  # indexed parts
    indexed = {(id(p[0]), p[1]): p[:2] for p in gathered}
    indexed = {key: cells(*p) for key, p in indexed.items()}
    groups = {}  # spec: {id(values): (column, values)} of its distinct row parts
    layout = []  # per part and sep: its bytes, (spec, column) or (cells, index)
    for part in (*parts, sep):
        if isinstance(part, str):
            layout.append(part.encode())
        elif len(part) == 3:
            layout.append((indexed[id(part[0]), part[1]], part[2]))
        else:
            group = groups.setdefault(part[1], {})
            layout.append((part[1], group.setdefault(id(part[0]), (len(group), part[0]))[0]))
    n = len(next(p[2] if len(p) == 3 else p[0] for p in parts if not isinstance(p, str)))
    # A row gathers a cell per distinct row part and one per indexed part.
    step = max(1, BLOCK_CELLS // (sum(map(len, groups.values())) + len(gathered)))
    chunks = []
    for lo in range(0, n, step):
        m = min(step, n - lo)
        text = {spec: cells(np.stack([v[lo:lo + m] for _, v in group.values()], axis=1), spec)
                for spec, group in groups.items()}
        block = np.concatenate([np.ndarray((m, len(p)), np.uint8, p, 0, (0, 1))  # zero stride
                                if isinstance(p, bytes) else text[p[0]][:, p[1]]
                                if isinstance(p[0], str) else np.take(p[0], p[1][lo:lo + m], axis=0)
                                for p in layout], axis=1)
        if lo + m == n:  # no sep after the last row: its bytes become filler
            block[-1, block.shape[1] - len(sep):] = 0
        chunks.append(block.tobytes().translate(None, b"\0"))
    return chunks
