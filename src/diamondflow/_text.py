"""Array text kernels: `%.12e`, `%.4f` and `%d` cells, byte-identical to `%`,
and "json" cells, byte-identical to `repr(float("%.12e" % v))`.

A cell is uint32 words of ASCII from tables, filler bytes (0) where the text is
shorter; digits come from `rint(|x| * 10**p)`.  Python's `%` formats a value
within 2**-50 of a tie (the product errs by at most 2**-52), a `%.12e` magnitude
outside zero and [1e-296, DBL_MAX], `%.4f` from 9999 and `%d` outside [0, 9999],
in place of its cell, which only the last two widen.  A json cell re-lays the
13 digits of `%.12e`: a decimal of at most 15 significant digits survives the
round trip through a normal double, so repr gives back those digits without
their trailing zeros.  Zero and whatever `%.12e` leaves to `%` go through repr.

`lines` lays out rows of text and cells in blocks of at most BLOCK_CELLS cells,
a bytes chunk each; a distinct column goes through `cells` once a block, an
indexed one (a vertex lattice, an axis) once a call.
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
_n = abs(np.arange(_E_MIN, _E_MAX + 1))    # "+308", "-05": hundreds as filler below 100
_EXP = _words(np.repeat([ord("-"), ord("+")], [-_E_MIN, _E_MAX + 1]),
              *np.where(_n[:, None] >= [100, 0, 0], _DIGITS[_n, 1:], 0).T)
_MINUS, _DOT = _words(ord("-"), 0, 0, 0), _words(ord("."), 0, 0, 0)
# Correctly rounded 10**p for p = 12 - e over the kernel's exponent range.
_POW10 = np.array([float(f"1e{p}") for p in range(12 - _E_MAX, 13 - _E_MIN)])


def _far_from_tie(m):
    return np.abs(m - np.floor(m) - 0.5) > 2.0 ** -50 * m


def _cells(*words):  # words broadcast together; x.shape + (4 * len(words),) bytes
    return np.stack(np.broadcast_arrays(*words), -1).view(np.uint8)


def _fixed(x):
    y = np.fmin(np.abs(x), 9999.0) * 1e4
    q = np.rint(y).astype(np.int64)
    ok = (np.abs(x) < 9999.0) & _far_from_tie(y)
    return _cells(np.where(np.signbit(x), _MINUS, 0), _BLANK[q // 10_000], _DOT, _QUAD[q % 10_000]), ok


def _digits(x):
    """Sign, 13 significant digits q, exponent e and ok mask of `%.12e`.

    q and e are 0 at zero and where not ok."""
    a = np.abs(x)
    b = np.where((a >= 1e-296) & (a < np.inf), a, 1.0)
    e = np.clip(np.floor(np.log10(b)).astype(np.int64), _E_MIN, _E_MAX)
    m = b * _POW10[_E_MAX - e]
    q = np.rint(m)
    # Digits that round up to 10**13 carry into the next exponent, as do those
    # of a log10 one short; one over (m < 10**12, below a power of ten) falls back.
    ok = ((m >= 1e12) & (q <= 1e13) & (a == b) | (a == 0.0)) & _far_from_tie(m)
    carry, keep = q == 1e13, ok & (a != 0.0)
    q = np.where(keep, np.where(carry, 1e12, q), 0).astype(np.int64)
    return np.signbit(x), q, np.where(keep, e + carry, 0), ok


def _sci(x):
    neg, q, e, ok = _digits(x)
    return _cells(_LEAD[100 * neg + q // 10 ** 11], _QUAD[q // 10 ** 7 % 10_000],
                  _QUAD[q // 1000 % 10_000], _TAIL[q % 1000], _EXP[e - _E_MIN]), ok


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
_n = np.arange(10_000)
_TRAILING = sum(_n % 10 ** j == 0 for j in range(1, 4))  # trailing zeros of 1..9999


def _repr(x):
    neg, q, e, ok = _digits(x)
    b0, b1, b2, b3 = q // 10 ** 9, q // 10 ** 5 % 10_000, q // 10 % 10_000, q % 10
    src = _cells(_QUAD[b0], _QUAD[b1], _QUAD[b2], _UNIT[b3], _EXP[e - _E_MIN], _E_FILL)
    # Trailing zeros of the digits (b0 >= 1000); zero and the cells left to
    # repr get some layout, which the fallback overwrites.
    zeros = np.where(b3, 0, 1 + np.where(b2, _TRAILING[b2], 4 + np.where(
        b1, _TRAILING[b1], 4 + _TRAILING[b0])))
    cls = np.where((e >= -4) & (e < 16), e + 4, 20)
    index = _LAYOUT[(21 * neg + cls) * 13 + 12 - zeros]  # 160 bytes a cell: built in place
    index += 24 * np.arange(q.size).reshape(*q.shape, 1)
    return src.reshape(-1)[index], ok & (q != 0)


# A cells call costs as much as a few thousand cells, and json takes ~300 B a cell.
BLOCK_CELLS = 4096

_KERNELS = {
    "%.12e": (_sci, "%.12e".__mod__),
    "%.4f": (_fixed, "%.4f".__mod__),
    "%d": (lambda n: (_cells(_BLANK[np.clip(n, 0, 9999)]), (n >= 0) & (n < 10_000)), "%d".__mod__),
    "json": (_repr, lambda v: repr(float("%.12e" % v))),
}


def cells(x: np.ndarray, spec: str) -> np.ndarray:
    """ASCII cells, shape x.shape + (width,), of `spec % v` for each v in x.

    spec is "%.12e", "%.4f", "%d" or "json", the JSON number repr(float("%.12e" % v)).
    """
    kernel, fmt = _KERNELS[spec]
    out, ok = kernel(x)
    miss = np.flatnonzero(~ok)
    if miss.size:
        # numpy pads bytes strings with NUL, the filler byte.
        text = np.array([fmt(v).encode() for v in x.ravel()[miss].tolist()])
        flat = out.reshape(x.size, -1)
        if text.itemsize > flat.shape[1]:  # %.4f from 9999 up, %d outside [0, 9999]
            flat = np.pad(flat, ((0, 0), (0, text.itemsize - flat.shape[1])))
        flat.view(f"S{flat.shape[1]}")[miss, 0] = text
        out = flat.reshape(*x.shape, -1)
    return out


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
            layout.append(np.frombuffer(part.encode(), np.uint8))
        elif len(part) == 3:
            layout.append((indexed[id(part[0]), part[1]], part[2]))
        else:
            group = groups.setdefault(part[1], {})
            layout.append((part[1], group.setdefault(id(part[0]), (len(group), part[0]))[0]))
    n = len(next(p[2] if len(p) == 3 else p[0] for p in parts if not isinstance(p, str)))
    # A row gathers a cell per distinct row part and one per indexed part.
    step = max(1, BLOCK_CELLS // (sum(map(len, groups.values())) + len(gathered)))
    layout = [np.broadcast_to(p, (step, len(p))) if isinstance(p, np.ndarray) else p
              for p in layout]
    chunks = []
    for lo in range(0, n, step):
        m = min(step, n - lo)
        text = {spec: cells(np.stack([v[lo:lo + m] for _, v in group.values()], axis=1), spec)
                for spec, group in groups.items()}
        block = np.concatenate([p[:m] if isinstance(p, np.ndarray)
                                else text[p[0]][:, p[1]] if isinstance(p[0], str)
                                else np.take(p[0], p[1][lo:lo + m], axis=0) for p in layout],
                               axis=1)
        chunks.append(block.tobytes().translate(None, b"\0"))
    chunks[-1] = chunks[-1][:len(chunks[-1]) - len(sep)]
    return chunks
