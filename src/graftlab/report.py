"""Deterministic report serialization.

Reports must be byte-identical across runs of the same inputs and version,
so: dictionary keys are emitted sorted, every float in JSON and CSV is
written as format_float writes it (17 significant digits, round-trip exact
for binary64), and nothing time-dependent enters the files (wall-clock
timings go to the console only).  JSON is strict RFC 8259: a NaN or an
infinity is written as null there, and as NaN or [-]Infinity in CSV cells.

csv_lines is the only CSV writer.  A table is one column per header field,
all of one shape: float64 values, or cells already written as "S" bytes
(step numbers, curve ids), copied as they are, so they must not hold ",",
a newline or NUL.  The table's rows are the columns' elements in
row-major order, so a column may be lattice-shaped, and a broadcast view
(a lattice axis repeated down or along the rows) is never materialized.
The table is written in blocks of about BLOCK_ROWS rows, a slice along
the leading axis each, formatted one at a time and in order.  A block is
one byte array in which every column fills its NUL-padded slot of each
row and a "," or "\n" follows it; the NULs are then dropped, a quarter of
the rows at a time.  A float column is deduplicated on the float64 bit
pattern (so -0.0 and 0.0 stay distinct) of its block's base, the block
with each broadcast axis cut to length 1, and each distinct value is
formatted once; a column broadcast along the leading axis has the same
base in every block and is formatted once per table.  A float slot is as
wide as the widest cell of its block.

The distinct values are formatted in numpy by an exact %.17g: zeros,
infinities and NaN are constant cells, and every other value, subnormals
included, has its 17 significant digits computed as an integer N and laid
out with the same byte gather.  The only exception is a value whose scaled
product lies within the band _BAND = 2**-30 of a tie or of a decade edge at
an inexact scale; it goes to format_float.  In practice that is the 30
values named below (no cell of a grafting trajectory is among them).  Why
every other cell is what f"{x:.17g}" (or "%.1f" for an integral |x| < 1e16)
writes, with E = floor(log10 |x|) in [-324, 308], k = 16 - E in [-292, 340]
and V = |x| * 10**k in [1e16, 1e17):

- Table.  On first use, _tables builds one row per k from integers:
  m = 5**k * 2**(110 - g), rounded to an integer, with g = floor(log2 5**k),
  so 2**110 <= m <= 2**111 and the error is at most 1/2.  H is m / 2**110
  rounded to 53 bits (H_int = round(m / 2**58) <= 2**53) and L is the rest,
  m - H_int * 2**58, rounded to 53 bits (at most 8 more units of m, because
  |m - H_int * 2**58| <= 2**57).  So 10**k = (H + L) * 2**(g + k) to within
  a relative 8.5 * 2**-110.
- Exact scales.  For 0 <= k <= 22, 5**k < 2**53, so m's low 59 bits are
  zero, H = 5**k * 2**-g exactly and L = 0: every step below is exact, so
  no cell of -6 <= E <= 16 needs the band.
- Product.  a = |x| * 2**(g + k) is exact: a power-of-two scaling to a
  normal double, a subnormal x included (np.ldexp, with an int32 exponent).
  Dekker's error-free product (Veltkamp split by 2**27 + 1; T. J. Dekker,
  Numer. Math. 18, 1971) gives p + t == a * H exactly; t += a * L; and
  Fast2Sum makes p = fl(p + t) with p + t unchanged.  For V < 1e17,
  a < 1e17 (H + L >= 1), so |a * L| < 1e17 * 2**-53 < 12 rounds by at most
  2**-50; |t| <= ulp(p) / 2 <= 8 before the sum (p < 2**57), so the sum,
  below 20, rounds by at most 2**-49; and a times the table's error is below
  2**-50.  So |p + t - V| < 2**-48, a margin of 2**18 under the band.
- Exponent.  E starts from floor(log10 |x|), which can be off by one next
  to a power of ten, and is corrected once by testing p + t against 1e16
  and 1e17.  Because p = fl(p + t), p + t lies on p's side of an edge that
  p is not, by at least half the spacing of doubles there (1 next to 1e16,
  8 next to 1e17), so the test reads p, and t's sign only where p is the
  edge.  A test on a rounded product would give the double nearest 1e-6,
  which is 1e-6 (1 - 4.5e-17), E = -6, because its product rounds up to
  1e16 at k = 22.
- Tie parity.  p >= 1e16 > 2**53 is an even integer, so N = p + rint(t),
  with rint rounding half to even, is the round-half-even of p + t, which
  is how CPython's correctly rounded %.17g rounds.  N can reach 1e17 only
  from V in [1e17 - 1/2, 1e17), and only at an inexact scale; %.17g then
  writes 1 at E + 1, and so does the writer.
- Band.  At an inexact scale, t is within 2**-48 of V - p, so rint(t) is
  right unless V - p lies within 2**-48 of a half-integer, and the decade
  test is right unless V lies within 2**-48 of 1e16 or 1e17, where p is the
  edge and |t| < 2**-47.  A cell goes to format_float when its t lies
  within _BAND of a half-integer, when p is an edge and |t| < _BAND, or
  when p + t is still outside [1e16, 1e17) after the correction.  That
  catches every inexact tie, whose V - p is a half-integer exactly, and
  every value on a decade edge, whose V is 1e16 or 1e17 exactly.  Both are
  rare.  A tie needs 2V = m * 5**k * 2**(q + k + 1) odd for x = m * 2**q:
  that is k = 23 with x = 3, 5, .., 15 times 2**-24 and k = 24 with
  x = 1 or 3 times 2**-25, while for k < 0 the digits of x would need an
  odd factor 5**|k| (10 D + 5) >= 1e17 > 2**53.  An edge needs x = 10**E
  exactly, so E in [17, 22].  Any other value lies in the band with a
  chance of about 2**-29.
- Layout.  %.17g uses fixed notation for -4 <= E <= 16 and d.ddde-XX,
  d.ddde+XX or three exponent digits otherwise, and drops trailing zeros
  and then a trailing point.  An integral value below 1e16 keeps one zero
  after its point.  It is told by its digits: 0 <= E <= 15 and no nonzero
  digit after the point, because a non-integral double is at least
  ulp(x) >= 2**-53 * 10**E > 10**(E - 16) / 2 from every integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from typing import Iterator

import numpy as np

from .errors import ScenarioError

__all__ = ["format_float", "dumps", "write_json", "csv_lines", "write_csv"]

BLOCK_ROWS = 1 << 14  # rows formatted and written per block of CSV text
_WIDTH = 24  # bytes of the widest cell, "-2.2250738585072014e-308"
INDENT = 2  # spaces per nesting level of JSON text


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        # Keep integral floats readable but unambiguous.
        return f"{x:.1f}"
    return f"{x:.17g}"


def _render(obj, level: int) -> str:
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            rendered = _render(obj[key], level + 1)
            items.append(f"{pad_in}{json.dumps(str(key))}: {rendered}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_render(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if is_dataclass(obj) and not isinstance(obj, type):
        return _render(asdict(obj), level)
    if isinstance(obj, np.generic):  # np.float64 and np.str_ are float and str already
        return _render(obj.item(), level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17-digit floats, INDENT spaces per level).

    ``obj`` is built of dicts, lists, tuples, str, int, float, bool, None,
    dataclass instances (written as the dict of their fields) and numpy
    scalars (written as the Python value of the same type); anything else,
    an ndarray or a Path included, raises TypeError.
    """
    return _render(obj, 0) + "\n"


def _open(path):
    """``path`` opened for writing bytes; a path that cannot be opened is a ScenarioError
    that names it, and an error while writing stays an OSError."""
    try:
        return open(path, "wb")
    except OSError as exc:
        raise ScenarioError(f"report file {str(path)!r} cannot be written: {exc.strerror}") from exc


def write_json(path, obj) -> None:
    text = dumps(obj).encode()
    with _open(path) as fh:
        fh.write(text)


_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_EMIN, _EMAX = -324, 308  # the decimal exponents of 5e-324 and of the greatest double
# An inexact scaled value this close to a tie or a decade edge goes to format_float.
_BAND = 2.0**-30


_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# Entry g holds the four ASCII digits of g as the four bytes of a uint32.
_DIGITS = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


# A cell is gathered from a source row of 33 bytes: the 17 digits (trailing
# zeros as NUL), the decimal point (NUL when no digit follows it), the sign
# ("-" or NUL), NUL, then the constants "0" to "9", "e", "+" and "-".
_DOT, _SIGN, _NUL, _ZERO, _E, _PLUS, _MINUS = 17, 18, 19, 20, 30, 31, 32
_CONSTANTS = np.frombuffer(b"0123456789e+-", np.uint8)


_TABLES = None  # (shift, H, L, layouts), made by _tables on first use


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(shift, H, L, layouts), each with one row per exponent: row E - _EMIN serves
    k = 16 - E.  Built on first use, so that a command that writes no table makes
    none.

    (H + L) * 2**shift is 10**k to within a relative 8.5 * 2**-110.  From
    integers: 5**k == m * 2**(g - 110) to within 2**(g - 111), with
    2**110 <= m <= 2**111; H is m / 2**110 rounded to 53 bits, L the rest of
    m over 2**110 rounded to 53 bits (an int / int rounds once), and
    shift = g + k (an int32, which np.ldexp takes in one vector loop).
    layouts holds the source columns of a cell, as %.17g lays it out.
    """
    global _TABLES
    if _TABLES is not None:
        return _TABLES
    rows = []  # (k, g, m)
    five = 1
    for k in range(341):  # 5**k, exact, rounded to 111 bits
        b = five.bit_length()
        m = five << (111 - b) if b <= 111 else (five + (1 << (b - 112))) >> (b - 111)
        rows.append((k, b - 1, m))
        five *= 5
    five = 5
    for k in range(1, 293):  # 2**(110 + b) / 5**k rounded to nearest; 5**k is odd, so no tie
        b = five.bit_length()
        q, r = divmod(1 << (110 + b), five)
        rows.append((-k, -b, q + (2 * r > five)))
        five *= 5
    rows.sort(reverse=True)  # k from 340 down to -292: E from _EMIN up to _EMAX
    h = [(m + (1 << 57)) >> 58 for _, _, m in rows]  # at most 2**53, so exact as a double
    layouts = []
    for e in range(_EMIN, _EMAX + 1):
        if e > 16 or e < -4:  # d.dddde+XX or d.dddde-XXX
            exponent = [_ZERO + int(d) for d in f"{abs(e):02d}"]
            cols = [_SIGN, 0, _DOT, *range(1, 17), _E, _MINUS if e < 0 else _PLUS, *exponent]
        elif e >= 0:
            cols = [_SIGN, *range(e + 1), _DOT, *range(e + 1, 17)]
        else:
            cols = [_SIGN, _ZERO, _DOT, *[_ZERO] * (-e - 1), *range(17)]
        layouts.append(bytes(cols).ljust(_WIDTH, bytes([_NUL])))
    _TABLES = (
        np.array([k + g for k, g, _ in rows], np.int32),
        np.array([hm / 2**52 for hm in h]),
        np.array([(m - (hm << 58)) / 2**110 for (_, _, m), hm in zip(rows, h)]),
        np.frombuffer(b"".join(layouts), np.uint8).reshape(-1, _WIDTH),
    )
    return _TABLES


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, t) with p == fl(p + t) and p + t == ax * 10**(16 - e): exactly for
    -6 <= e <= 16, and to within 2**-48 wherever ax * 10**(16 - e) < 1e17.

    Dekker's error-free product of ax * 2**(g + k) and H, plus the product
    with L, then Fast2Sum.
    """
    shift, high, low, _ = _tables()
    row = e - _EMIN
    a = np.ldexp(ax, shift[row])
    h = high[row]
    p = a * h
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(h)
    # a_lo * h_lo - (((p - a_hi * h_hi) - a_lo * h_hi) - a_hi * h_lo), with fewer temporaries
    t = p - a_hi * h_hi
    t -= a_lo * h_hi
    t -= a_hi * h_lo
    np.subtract(a_lo * h_lo, t, out=t)  # p + t == a * H exactly
    del a_hi, a_lo, h_hi, h_lo, h
    t += a * low[row]
    s = p + t
    t -= s - p
    return s, t


def _decade(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as p + t lies below 1e16, in [1e16, 1e17) or at or above 1e17."""
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    return high.astype(np.int64) - ((p < 1e16) | ((p == 1e16) & (t < 0)))


def _exact_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, unsure): the 17 significant digits of each ``ax`` as an integer
    1e16 <= N < 1e17, its decimal exponent, and whether it lies in the band.

    ``ax`` is positive and finite.  Where ``unsure`` is False, N is the
    round-half-even of ax * 10**(16 - E).
    """
    e = np.clip(np.floor(np.log10(ax)), _EMIN, _EMAX).astype(np.int64)
    p, t = _scaled(ax, e)
    shift = _decade(p, t)
    unsure = shift != 0
    if unsure.any():
        e[unsure] = np.clip(e[unsure] + shift[unsure], _EMIN, _EMAX)
        p[unsure], t[unsure] = _scaled(ax[unsure], e[unsure])
        unsure[unsure] = _decade(p[unsure], t[unsure]) != 0  # only next to a decade edge
    del shift
    inexact = (e < -6) | (e > 16)
    if inexact.any():
        pi, ti = p[inexact], t[inexact]
        tie = np.abs(ti - np.floor(ti) - 0.5) < _BAND
        edge = ((pi == 1e16) | (pi == 1e17)) & (np.abs(ti) < _BAND)
        unsure[inexact] |= tie | edge
    n = p.astype(np.int64) + np.rint(t).astype(np.int64)
    carry = n == 10**17  # rounded up to the next decade: one digit and E + 1
    if carry.any():
        n[carry] = 10**16
        e[carry] += 1
    return n, e, unsure


# The cells of 0.0, -0.0, Infinity, -Infinity and NaN.
_SPECIAL = np.array([b"0.0", b"-0.0", b"Infinity", b"-Infinity", b"NaN"], f"S{_WIDTH}")
_SPECIAL = _SPECIAL.view(np.uint8).reshape(-1, _WIDTH)


def _cells(x: np.ndarray) -> np.ndarray:
    """format_float of each float64 in ``x``, as rows of _WIDTH NUL-padded ASCII bytes.

    ``x`` holds distinct values in the order of their bit patterns, as
    np.unique returns them, so on either side of the sign the exponents rise.
    """
    ax = np.abs(x)
    special = ~((ax > 0) & (ax < np.inf))  # zeros, infinities and NaN
    ax[special] = 1.0
    n, e, unsure = _exact_digits(ax)
    del ax
    # The digits in groups of 1, 4, 4, 4 and 4, written in place: the
    # temporaries of this step set the peak memory of a block.
    groups = np.empty((len(x), 5), np.int64)
    high, low = np.divmod(n, 10**8)
    del n
    np.divmod(high, 10**8, out=(groups[:, 0], high))
    np.divmod(high, 10**4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(low, 10**4, out=(groups[:, 3], groups[:, 4]))
    del high, low
    digits = _DIGITS[groups].view(np.uint8)[:, 3:]
    del groups
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # last nonzero digit
    point = np.where((e < -4) | (e > 16), 0, e)  # the digit before the point (< 0 in "0.00d")
    # An integral value below 1e16 keeps one zero after the point, as "%.1f" writes it.
    keep = np.maximum(last, point + ((e <= 15) & (last <= e)))
    del last
    source = np.empty((len(x), _MINUS + 1), np.uint8)
    np.multiply(digits, np.arange(17) <= keep[:, None], out=source[:, :17])
    source[:, _DOT] = np.where(keep > point, ord("."), 0)
    del digits, keep, point
    source[:, _SIGN] = np.where(x < 0, ord("-"), 0)
    source[:, _NUL] = 0
    source[:, _ZERO:] = _CONSTANTS
    layouts = _tables()[3]
    cells = np.empty((len(x), _WIDTH), np.uint8)
    bounds = [*np.flatnonzero(np.diff(e, prepend=e[:1] - 1)).tolist(), len(x)]
    for a, b in zip(bounds, bounds[1:]):  # each run of one exponent
        cells[a:b] = source[a:b, layouts[e[a] - _EMIN]]
    del source
    if special.any():
        s = x[special]
        cells[special] = _SPECIAL[np.where(np.isnan(s), 4, 2 * np.isinf(s) + np.signbit(s))]
    if unsure.any():
        slow = [format_float(v) for v in x[unsure].tolist()]
        cells[unsure] = np.array(slow, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return cells


def _float_cells(column: np.ndarray) -> np.ndarray:
    """The cells of a float column's base, ``column`` with each broadcast axis cut to
    length 1, shaped as the base with a last axis as wide as its widest cell."""
    base = column[tuple(slice(None, 1) if step == 0 else slice(None) for step in column.strides)]
    bits, inverse = np.unique(base.view(np.int64).ravel(), return_inverse=True)
    cells = _cells(bits.view(np.float64))
    width = _WIDTH
    while not cells[:, width - 1].any():  # the last byte any cell uses; no cell is empty
        width -= 1
    return cells[:, :width][inverse.ravel()].reshape(*base.shape, width)


def _block(columns: tuple[np.ndarray, ...], once: dict[int, np.ndarray], start: int, stop: int) -> bytes:
    """The CSV text of the rows at leading indices start .. stop - 1 of ``columns``.

    ``once`` holds the cells of the float columns broadcast along the leading axis.
    """
    slots = []
    for j, column in enumerate(columns):
        if j in once:
            slots.append(once[j])
        elif column.dtype == np.float64:
            slots.append(_float_cells(column[start:stop]))
        else:
            slots.append(column[start:stop][..., None].view(np.uint8))
    widths = [slot.shape[-1] for slot in slots]
    text = np.empty((stop - start, *columns[0].shape[1:], sum(widths) + len(widths)), np.uint8)
    at = 0  # the first byte of the slot in each row
    for slot, width in zip(slots, widths):
        text[..., at : at + width] = slot  # broadcast along the axes the column repeats on
        text[..., at + width] = ord(",")
        at += width + 1
    text[..., -1] = ord("\n")
    del slots, slot
    # The NULs are dropped a quarter of the rows at a time, and each quarter's
    # bytes are moved to the end of the text kept so far, over rows already
    # read, so no mask or copy of the whole text sits beside it.
    flat, kept = text.reshape(-1), 0
    for part in np.array_split(text.reshape(-1, at), 4):
        part = part[part != 0]
        flat[kept : kept + len(part)] = part
        kept += len(part)
    del part
    return flat[:kept].tobytes()


def csv_lines(header: list[str], *columns: np.ndarray) -> Iterator[bytes]:
    """Newline-terminated CSV text of ``columns``: the header line, then one chunk per block.

    A block is max(1, BLOCK_ROWS // row_length) leading indices of the
    columns, where row_length is the number of elements per leading index.
    Each block is formatted when the caller asks for it.
    """
    if not columns or len(header) != len(columns):
        raise ValueError(f"a table needs one column per header field, got {len(columns)}")
    shape = columns[0].shape
    for j, column in enumerate(columns):
        if column.ndim == 0 or (column.dtype != np.float64 and column.dtype.kind != "S"):
            raise ValueError(
                f"column {j} must be a float64 or bytes array with at least one axis, "
                f"got {column.dtype} of shape {column.shape}"
            )
        if column.shape != shape:
            raise ValueError(
                f"column {j} has {column.size} rows (shape {column.shape}), "
                f"column 0 has {columns[0].size} (shape {shape})"
            )
    yield (",".join(header) + "\n").encode()
    if not columns[0].size:
        return
    step = max(1, BLOCK_ROWS // (columns[0].size // shape[0]))
    once = {
        j: _float_cells(column)
        for j, column in enumerate(columns)
        if column.dtype == np.float64 and column.strides[0] == 0
    }
    for start in range(0, shape[0], step):
        yield _block(columns, once, start, min(start + step, shape[0]))


def write_csv(path, header: list[str], *columns: np.ndarray) -> None:
    lines = csv_lines(header, *columns)
    first = next(lines)  # checks the columns before the file is opened and truncated
    with _open(path) as fh:
        fh.write(first)
        fh.writelines(lines)
