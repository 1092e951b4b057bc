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

The distinct values are formatted in numpy by an exact %.17g on the fast
path: finite, non-integral values with 1e-6 < |x| < 1e16.  Every other
value (NaN, infinities, signed zeros, integral values, |x| <= 1e-6 and
subnormals) goes through format_float one at a time.  Why the fast path
writes what f"{x:.17g}" writes:

- Domain.  A non-integral double has |x| < 2**52, so its decimal exponent
  E = floor(log10 |x|) lies in [-6, 15] and k = 16 - E in [1, 22].  (The
  double nearest 1e-6 lies below 1e-6, has E = -7 and takes the slow path.)
- Exact product.  |x| * 2**k is exact, and so is 5**k, because
  5**22 < 2**53.  Dekker's error-free product (Veltkamp split by 2**27 + 1;
  T. J. Dekker, Numer. Math. 18, 1971) gives p + err == |x| * 10**k
  exactly.
- Exponent.  E starts from floor(log10 |x|), which can be off by one next
  to a power of ten, and is corrected by testing the exact p + err against
  1e16 and 1e17, never a rounded value.  A test on the rounded product
  would give the double nearest 1e-6, which is 1e-6 (1 - 4.5e-17), E = -6,
  because its product rounds up to 1e16 at k = 22.
- Tie parity.  p >= 1e16 > 2**53 is an even integer, so
  N = p + rint(err), with rint rounding half to even, is the
  round-half-even of p + err, which is how CPython's correctly rounded
  %.17g rounds.  N < 1e17 because no double below 10**(E+1) lies within
  half a unit of the 17th digit of it (the closest in the domain lies
  8.3e-17 below, relative, against 5e-18).
- Layout.  %.17g uses fixed notation for -4 <= E <= 15 and d.ddde-0X for
  E in {-6, -5}, and drops trailing zeros and then a trailing point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

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


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


_SPLIT = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW5 = (5 ** np.arange(23, dtype=np.int64)).astype(np.float64)  # exact: 5**22 < 2**53
_POW5_HI, _POW5_LO = _split(_POW5)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# Entry g holds the four ASCII digits of g as the four bytes of a uint32.
_DIGITS = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _times_pow10(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p + err == ax * 10**k exactly, for 0 <= k <= 22.

    Dekker's error-free product of ax * 2**k and 5**k, both exact doubles.
    """
    a = np.ldexp(ax, k)
    p = a * _POW5[k]
    a_hi, a_lo = _split(a)
    del a
    b_hi, b_lo = _POW5_HI[k], _POW5_LO[k]
    # a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo), with fewer temporaries
    err = p - a_hi * b_hi
    err -= a_lo * b_hi
    err -= a_hi * b_lo
    return p, np.subtract(a_lo * b_lo, err, out=err)


def _exact_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, E): the 17 significant digits of each ``ax`` as an integer, and its decimal exponent.

    ``ax`` is positive and in the fast-path domain; 1e16 <= N < 1e17 is the
    round-half-even of ax * 10**(16 - E).
    """
    e = np.clip(np.floor(np.log10(ax)), -6, 15).astype(np.int64)
    p, err = _times_pow10(ax, 16 - e)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))  # p + err < 1e16, exactly
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))  # p + err >= 1e17, exactly
    fix = low | high
    if fix.any():
        e[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], err[fix] = _times_pow10(ax[fix], 16 - e[fix])
    return p.astype(np.int64) + np.rint(err).astype(np.int64), e


# A fast cell is gathered from a source row of 25 bytes: the 17 digits
# (trailing zeros as NUL), the decimal point (NUL when no digit follows it),
# the constants "0", "e", "-", "5", "6", the sign ("-" or NUL) and NUL.
_DOT, _ZERO, _E, _MINUS, _FIVE, _SIX, _SIGN, _NUL = range(17, 25)
_LAYOUT = np.full((22, _WIDTH), _NUL)  # row E + 6: source columns of a cell, as %.17g lays it out
for _e in range(-6, 16):
    if _e >= 0:
        _cols = [_SIGN, *range(_e + 1), _DOT, *range(_e + 1, 17)]
    elif _e >= -4:
        _cols = [_SIGN, _ZERO, _DOT, *[_ZERO] * (-_e - 1), *range(17)]
    else:
        _cols = [_SIGN, 0, _DOT, *range(1, 17), _E, _MINUS, _ZERO, _FIVE if _e == -5 else _SIX]
    _LAYOUT[_e + 6, : len(_cols)] = _cols
del _e, _cols


def _fast_cells(x: np.ndarray) -> np.ndarray:
    """The cells of values in the fast-path domain, as rows of _WIDTH NUL-padded bytes."""
    n, e = _exact_digits(np.abs(x))
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
    source = np.empty((len(x), _NUL + 1), np.uint8)
    np.multiply(digits, np.arange(17) <= np.maximum(last, e)[:, None], out=source[:, :17])
    source[:, _DOT] = np.where(last > np.where(e < -4, 0, e), ord("."), 0)
    del digits, last
    source[:, _ZERO:_SIGN] = np.frombuffer(b"0e-56", np.uint8)
    source[:, _SIGN] = np.where(x < 0, ord("-"), 0)
    source[:, _NUL] = 0
    # Distinct values come sorted, so each exponent is one run of rows (no run if x is empty).
    cells = np.empty((len(x), _WIDTH), np.uint8)
    bounds = [*np.flatnonzero(np.diff(e, prepend=e[:1] - 1)).tolist(), len(x)]
    for a, b in zip(bounds, bounds[1:]):
        cells[a:b] = source[a:b, _LAYOUT[e[a] + 6]]
    return cells


def _cells(x: np.ndarray) -> np.ndarray:
    """format_float of each float64 in ``x``, as rows of _WIDTH NUL-padded ASCII bytes."""
    ax = np.abs(x)
    fast = (ax > 1e-6) & (ax < 1e16)
    del ax
    fast[fast] = x[fast] != np.trunc(x[fast])
    if fast.all():
        return _fast_cells(x)
    quick = _fast_cells(x[fast])
    cells = np.empty((len(x), _WIDTH), np.uint8)
    cells[fast] = quick
    del quick
    slow = [format_float(v) for v in x[~fast].tolist()]
    cells[~fast] = np.array(slow, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return cells


def _float_cells(column: np.ndarray) -> np.ndarray:
    """The cells of a float column's base, ``column`` with each broadcast axis cut to
    length 1, shaped as the base with a last axis as wide as its widest cell."""
    base = column[tuple(slice(None, 1) if step == 0 else slice(None) for step in column.strides)]
    bits, inverse = np.unique(base.view(np.int64).ravel(), return_inverse=True)
    cells = _cells(bits.view(np.float64))
    width = _WIDTH - np.argmax(cells.any(axis=0)[::-1])  # the last byte any cell uses
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
    with open(path, "wb") as fh:
        fh.write(first)
        fh.writelines(lines)
