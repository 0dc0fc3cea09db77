"""The array text kernels against Python's own `%`, byte for byte."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import join, lines_reference
from diamondflow import _text
from diamondflow._text import _FEW, BLOCK_CELLS, _fixed, _repr, _sci, cells, lines


def _python(spec, v):
    return repr(float("%.12e" % v)) if spec == "json" else spec % v


def _check(values, spec):
    # As given, and repeated past _FEW values so that the kernel formats them all.
    x = np.asarray(values)
    for v in (x, np.resize(x, x.size + _FEW)):
        text = join([cells(v, spec)], "\n")
        assert text.split("\n") == [_python(spec, a) for a in v.tolist()]


_FINITE = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)


@settings(max_examples=400, deadline=None)
@given(_FINITE)
@example([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
def test_sci_matches_percent(values):
    x = np.array(values)
    _check(x, "%.12e")
    _check(x + 0.0, "%.12e")    # the CLI's -0.0 normalisation


@settings(max_examples=400, deadline=None)
@given(_FINITE)
@example([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
@example([1e-4, 1e-5, 1e15, 1e16, 9999999999999999.0, 123.0, 0.5, -1.5e-05])
def test_json_matches_repr(values):
    x = np.array(values)
    _check(x, "json")
    _check(x + 0.0, "json")


@settings(max_examples=400, deadline=None)
@given(_FINITE)
@example([-0.0, -0.00004, 0.00005, 9998.99995, 9999.0, 1e300])
def test_fixed_matches_percent(values):
    x = np.array(values)
    _check(x, "%.4f")
    _check(x + 0.0, "%.4f")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
def test_int_matches_percent(values):
    _check(np.array(values, dtype=np.int64), "%d")


def test_sci_edge_values():
    powers = [float(f"1e{k}") for k in range(-308, 309)]
    # Ties at the next exponent, and values that round up into it.
    next_exponent = [float(f"9.99999999999{d}e{k}")
                     for d in ("95", "96", "9999") for k in range(-308, 308)]
    _check(powers, "%.12e")
    _check(np.negative(powers), "%.12e")
    _check(next_exponent, "%.12e")
    _check(np.negative(next_exponent), "%.12e")
    # 13-digit ties (999999999999.5 itself has 13 digits) and one ulp beside them.
    ties = np.array([999999999999.5, 1234567890123.5, 10000000000005.0, 99999999999995.0])
    _check(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]), "%.12e")
    _check([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0], "%.12e")
    # Two- and three-digit exponents.
    _check([1e99, 9.99e99, 1.234e100, 1e100, 1e-99, 1.5e-99, 1e-100, 9.9e-101], "%.12e")


def test_json_edge_values():
    # Zero, subnormals and both sides of 1e-296, where %.12e leaves the kernel.
    small = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
             1e-296, np.nextafter(1e-296, 0), np.nextafter(1e-296, 1), 1e-297, 1.0000000000001e-296]
    # Where repr switches between positional and exponent form, and DBL_MAX.
    borders = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e-5, 9.99999999999e-5,
               1e15, 1e16, np.nextafter(1e16, 0), 9999999999999999.0, 9999999999999.5e3,
               1.7976931348623157e308, 123.0, 0.1, 1.0, 10.0]
    for values in (small, borders):
        _check(values, "json")
        _check(np.negative(values), "json")
    # Every exponent, every significant-digit count, and mantissas that
    # round up to 10**13 and carry into the next exponent.
    digits = [float(f"{m}e{k}") for k in range(-300, 308)
              for m in ("1", "1.5", "1.25", "1.234567", "1.234567890123", "9.9999999999995",
                        "9.99999999999949", "9.999999999999951")]
    _check(digits, "json")
    _check(np.negative(digits), "json")
    # Within 2**-50 of a rounding tie of the 13th digit, and one ulp beside it.
    ties = np.array([1.2345678901235, 999999999999.5, 2.0000000000005e-3, 7.7777777777775e20])
    near = [ties * (1.0 + s * 2.0 ** -51) for s in (-1.0, 1.0)]
    _check(np.concatenate([ties, *near, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]), "json")


def test_ties_at_exact_powers_of_ten():
    # With 10**k exact (k = 12 - e in 0..22) |x| * 10**k rounds once, so only a
    # product that lands on a tie is left to `%`: the digits of a value two or
    # three ulps beside a 13-digit tie come from the product alone.
    rng = np.random.default_rng(13)
    exponents = rng.integers(-10, 13, 2000)
    ties = np.array([float(f"{d}5e{e - 13}")
                     for d, e in zip(rng.integers(10 ** 12, 10 ** 13, 2000), exponents)])
    beside = []
    for direction in (0.0, np.inf):
        x = ties
        for _ in range(3):
            x = np.nextafter(x, direction)
            beside.append(x)
    for x in (ties, *beside):
        _check(x, "%.12e")
        _check(-x, "json")
    assert _sci(np.concatenate(beside[1::3] + beside[2::3]))[1].all()


def test_fixed_edge_values():
    # k/32 are the exact %.4f ties; both sides round half to even.
    ties = np.arange(-320, 321) / 32.0
    _check(np.concatenate([ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)]), "%.4f")
    _check([-0.00004, -0.0, 0.0, 0.00005, 639.99995, 9998.99995, 9999.0, 1e8, 5e-324], "%.4f")
    assert join([cells(np.array([-0.00004]), "%.4f")], "\n") == "-0.0000"


def test_int_edge_values():
    _check(np.array([0, 9, 10, 99, 100, 255, 9999, 10_000, -1, 2 ** 63 - 1]), "%d")


def test_nonfinite_cells_fall_back():
    _check([np.inf, -np.inf, np.nan], "%.12e")
    _check([np.inf, -np.inf, np.nan], "json")
    _check([np.inf, -np.inf, np.nan], "%.4f")


def test_kernels_leave_few_cells_to_percent():
    # The fast path covers typical values; only near-ties fall back.
    rng = np.random.default_rng(3)
    x = rng.normal(size=20_000) * 10.0 ** rng.uniform(-200, 200, 20_000)
    assert _sci(x)[1].mean() > 0.97
    assert _repr(x)[1].mean() > 0.97
    assert _repr(np.linspace(-8.0, 8.0, 1001))[1].mean() > 0.99
    assert _fixed(rng.uniform(-700.0, 700.0, 20_000))[1].mean() > 0.999


def test_join_rows_and_constant_text():
    # lines joins rows of constant text and cells, one spec or several.
    x = np.array([[1.5, -2.0], [0.25, 1e10]])
    g = (np.array([7, 255]), "%d")
    text = lines(['<p a="', (x[:, 0], "%.4f"), ",", (x[:, 1], "%.4f"), '" g=', g, "/>"], "\n")
    assert text == [b'<p a="1.5000,-2.0000" g=7/>\n<p a="0.2500,10000000000.0000" g=255/>']
    assert lines([(np.array([1.0, 2.0]), "%.12e")], " ") == [
        b"1.000000000000e+00 2.000000000000e+00"]


@pytest.mark.parametrize("spec", ["%.12e", "%.4f", "json"])
def test_cells_keep_the_array_shape(spec):
    x = np.arange(24.0).reshape(2, 3, 4) - 11.5
    c = cells(x, spec)
    assert c.shape[:3] == x.shape and c.dtype == np.uint8
    assert cells(x[:0], spec).shape[:3] == (0, 3, 4)
    assert join([c.reshape(24, -1)], ",") == ",".join(_python(spec, v) for v in x.ravel().tolist())


# Per spec, two values the kernel leaves to Python's `%`: a subnormal and a
# 13-digit tie, a %.4f value wider than the kernel's cell and a tie, and %d
# values outside 0..9999.
_FALLBACK = {"%.12e": (5e-324, 10000000000005.0), "json": (5e-324, 10000000000005.0),
             "%.4f": (1e300, 5e-05), "%d": (12_345, -7)}


@pytest.mark.parametrize("specs", [("%.12e",), ("json",) * 7, ("%.12e", "%.12e", "%.12e", "%d"),
                                   ("%.4f",) * 8 + ("%d",) * 2])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_lines_block_edges_match_per_column(specs, edge):
    # One row, and step + edge or 2 step + edge rows, where step rows fill a
    # block: for one column, tables of budget - 1, budget and budget + 1
    # cells.  Python-formatted cells sit on both sides of the first edge.
    step = BLOCK_CELLS // len(specs)
    for n in (1, step + edge, 2 * step + edge):
        rng = np.random.default_rng(n)
        parts = ["<"]
        for spec in specs:
            if spec == "%d":
                x = rng.integers(0, 10_000, n)
            else:
                x = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 3.0, n)
            if n > step:
                x[step - 1], x[step] = _FALLBACK[spec]
            parts += [(x, spec), ","]
        parts[-1] = ">"
        for sep in ("\n", ","):
            chunks = lines(parts, sep)
            assert len(chunks) == -(-n // step)
            # Whole rows per chunk.
            assert all(c.startswith(b"<") and c.endswith(b">" + sep.encode()) for c in chunks[:-1])
            assert b"".join(chunks) == lines_reference(parts, sep)[0]


@pytest.mark.parametrize("sep", ["\n", ",", " "])
@pytest.mark.parametrize("last", ["one row", "step rows"])
def test_last_separator_dropped_in_place(sep, last, monkeypatch):
    # The last row's separator is cut from its block in place: with a last
    # block of one row and of a whole step of rows, after one or more blocks.
    step = 5
    monkeypatch.setattr(_text, "BLOCK_CELLS", 3 * step)  # two row parts and one indexed
    rng = np.random.default_rng(len(sep))
    v = rng.normal(size=4)
    for blocks in (1, 2, 3):
        n = (blocks - 1) * step + (1 if last == "one row" else step)
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        parts = ["[", (x, "%.12e"), sep, (v, "json", rng.integers(0, v.size, n)), ":",
                 (x * 3.0, "json"), "]"]
        chunks = lines(parts, sep)
        assert len(chunks) == blocks
        assert chunks[-1].endswith(b"]") and chunks[-1].count(b"[") == n - (blocks - 1) * step
        assert b"".join(chunks) == lines_reference(parts, sep)[0]


_VALUES = {spec: _FINITE for spec in ("%.12e", "%.4f", "json")}
_VALUES["%d"] = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_VALUES)), st.data())
def test_indexed_parts_match_gathered_values(spec, data):
    # (v, spec, index) lays out v[index], byte for byte, also next to a row
    # part, a repeated row part and a second index into the same values.
    v = np.array(data.draw(_VALUES[spec]), dtype=np.int64 if spec == "%d" else np.float64)
    index = np.array(data.draw(st.lists(st.integers(0, v.size - 1), min_size=1, max_size=60)))
    w = np.resize(v[::-1], index.size)
    parts = ["<", (v, spec, index), ",", (w, spec), ",", (v, spec, index[::-1]), ",", (w, spec), ">"]
    gathered = ["<", (v[index], spec), ",", (w, spec), ",", (v[index[::-1]], spec), ",",
                (w.copy(), spec), ">"]
    for sep in ("\n", ","):
        assert lines(parts, sep) == lines(gathered, sep) == lines_reference(parts, sep)


@pytest.mark.parametrize("spec", ["%.12e", "%.4f", "json", "%d"])
def test_indexed_parts_over_several_blocks(spec):
    # Indexed parts count toward BLOCK_CELLS; their values are formatted once,
    # Python-formatted cells among them, and gathered into every block.
    rng = np.random.default_rng(7)
    if spec == "%d":
        v = rng.integers(-20_000, 20_000, 300)
    else:
        v = rng.normal(size=300) * 10.0 ** rng.uniform(-6.0, 6.0, 300)
        v[:2] = _FALLBACK[spec]
    index = rng.integers(0, v.size, (BLOCK_CELLS, 2))
    parts = [(v, spec, index[:, 0]), " ", (v, spec, index[:, 1])]
    chunks = lines(parts, "\n")
    assert len(chunks) == 2
    assert b"".join(chunks) == lines_reference(parts, "\n")[0]


# Per spec, values the kernel leaves to `%` whose text fits its cell, and one
# that does not: only %.4f from 9999 up and %d outside [0, 9999] are wider.
_FIT = {"%.12e": ([5e-324, 10000000000005.0, np.inf, -np.nan], None),
        "json": ([5e-324, -5e-324, 10000000000005.0, np.inf], None),
        "%.4f": ([5e-05, 9999.5, 1e10, np.nan], 1e300),
        "%d": ([-7, -999, -1, -50], 10_000)}


@pytest.mark.parametrize("spec", sorted(_FIT))
def test_fallbacks_written_in_place(spec):
    fit, wide = _FIT[spec]
    rng = np.random.default_rng(11)
    x = (rng.integers(0, 10_000, BLOCK_CELLS) if spec == "%d"
         else rng.normal(size=BLOCK_CELLS) * 10.0 ** rng.uniform(-3.0, 3.0, BLOCK_CELLS))
    x[::1000] = np.resize(fit, x[::1000].size)
    width = cells(x[1:2], spec).shape[-1]  # the kernel's own cell
    assert cells(x, spec).shape == (BLOCK_CELLS, width)
    _check(x, spec)
    if wide is not None:
        x[2047] = wide
        assert cells(x, spec).shape == (BLOCK_CELLS, len(_python(spec, wide)))
        _check(x, spec)
