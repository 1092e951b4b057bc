"""Deterministic report serialization.

Reports must be byte-identical across runs of the same inputs and version,
so: dictionary keys are emitted sorted, every float in JSON and CSV is
written as format_float writes it (17 significant digits, round-trip exact
for binary64), and nothing time-dependent enters the files (wall-clock
timings go to the console only).  JSON is strict RFC 8259: a NaN or an
infinity is written as null there, and as NaN or [-]Infinity in CSV cells.

csv_lines is the only CSV writer.  A table is one equal-length 1-D column
per header field: float64 values, or cells already written as "S" bytes
(step numbers, curve ids), copied as they are, so they must not hold ",",
a newline or NUL.  Each block of BLOCK_ROWS rows is one byte array in
which every column fills its NUL-padded slice of each row and a "," or
"\n" follows it; the NULs are then dropped, a quarter of the rows at a
time.  Within a block a float column is deduplicated on the float64 bit
pattern (so -0.0 and 0.0 stay distinct) and each distinct value is
formatted once.

Blocks are formatted concurrently on a pool of WORKERS threads, one per
CPU, and written in order; at most one block per worker is in flight,
the one being written included, so a table's memory grows with the
worker count and not with its length.  Threads pay because nearly all of
a block's time is spent inside numpy calls that release the GIL: the
digit arithmetic and gathers, the NUL compaction and np.unique.  A block's
bytes depend only on its rows, so the file does not depend on the worker
count.

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
import os
from collections import deque
from contextlib import closing
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["format_float", "dumps", "write_json", "csv_lines", "write_csv", "jsonable"]

BLOCK_ROWS = 1 << 14  # rows formatted and written per block of CSV text
# Threads that format blocks: one per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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


def jsonable(obj):
    """Convert dataclasses / numpy / paths to plain containers."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


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
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17-digit floats, INDENT spaces per level)."""
    return _render(jsonable(obj), 0) + "\n"


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
    b_hi, b_lo = _POW5_HI[k], _POW5_LO[k]
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


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
    high, low = np.divmod(n, 10**8)
    lead, high = np.divmod(high, 10**8)
    groups = np.stack([lead, *np.divmod(high, 10**4), *np.divmod(low, 10**4)], axis=1)
    del n, high, low, lead  # blocks are formatted side by side: free temporaries early
    digits = _DIGITS[groups].view(np.uint8)[:, 3:]
    del groups
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # last nonzero digit
    source = np.empty((len(x), _NUL + 1), np.uint8)
    source[:, :17] = digits * (np.arange(17) <= np.maximum(last, e)[:, None])
    source[:, _DOT] = np.where(last > np.where(e < -4, 0, e), ord("."), 0)
    source[:, _ZERO:_SIGN] = np.frombuffer(b"0e-56", np.uint8)
    source[:, _SIGN] = np.where(x < 0, ord("-"), 0)
    source[:, _NUL] = 0
    # Distinct values come sorted, so each exponent is one run of rows.
    cells = np.empty((len(x), _WIDTH), np.uint8)
    bounds = [0, *(np.flatnonzero(np.diff(e)) + 1).tolist(), len(x)]
    for a, b in zip(bounds, bounds[1:]):
        cells[a:b] = source[a:b, _LAYOUT[e[a] + 6]]
    return cells


def _cells(x: np.ndarray) -> np.ndarray:
    """format_float of each float64 in ``x``, as rows of _WIDTH NUL-padded ASCII bytes."""
    ax = np.abs(x)
    fast = (ax > 1e-6) & (ax < 1e16)
    fast[fast] = x[fast] != np.trunc(x[fast])
    cells = np.empty((len(x), _WIDTH), np.uint8)
    if fast.any():
        cells[fast] = _fast_cells(x[fast])
    slow = [format_float(v) for v in x[~fast].tolist()]
    cells[~fast] = np.array(slow, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return cells


def _block(columns: tuple[np.ndarray, ...], widths: list[int], start: int, stop: int) -> bytes:
    """The CSV text of rows start .. stop - 1 of ``columns``."""
    text = np.empty((stop - start, sum(widths) + len(widths)), np.uint8)
    at = 0  # the first byte of the cell in each row
    for column, width in zip(columns, widths):
        block = column[start:stop]
        if block.dtype == np.float64:
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text[:, at : at + width] = _cells(bits.view(np.float64))[inverse]
        else:
            text[:, at : at + width] = block.view(np.uint8).reshape(-1, width)
        text[:, at + width] = ord(",")
        at += width + 1
    text[:, -1] = ord("\n")
    # The NULs are dropped a quarter of the rows at a time and the padded text is
    # freed before the join, so no mask or copy sits beside the whole text: with a
    # block per worker in flight, this step set the peak memory of a table.
    parts = [part[part != 0].tobytes() for part in np.array_split(text, 4)]
    del text
    return b"".join(parts)


def csv_lines(header: list[str], *columns: np.ndarray) -> Iterator[bytes]:
    """Newline-terminated CSV text of ``columns``: the header line, then one chunk per block.

    Blocks are formatted on a pool of WORKERS threads and yielded in order.
    A block is in flight from its submission until the caller has taken it
    and asked for the next, and at most WORKERS blocks are in flight.
    """
    if not columns or len(header) != len(columns):
        raise ValueError(f"a table needs one column per header field, got {len(columns)}")
    n_rows = len(columns[0])
    for j, column in enumerate(columns):
        if column.ndim != 1 or (column.dtype != np.float64 and column.dtype.kind != "S"):
            raise ValueError(f"column {j} must be a 1-D float64 or bytes array, got {column.dtype}")
        if len(column) != n_rows:
            raise ValueError(f"column {j} has {len(column)} rows, column 0 has {n_rows}")
    yield (",".join(header) + "\n").encode()
    widths = [_WIDTH if column.dtype == np.float64 else column.itemsize for column in columns]
    # Imported here, not at the top: concurrent.futures imports logging, about 9 ms
    # added to every CLI start, and verify writes no table.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(WORKERS) as pool:  # leaving it joins every thread
        blocks = deque()
        for start in range(0, n_rows, BLOCK_ROWS):
            if len(blocks) == WORKERS:
                yield blocks.popleft().result()
            stop = min(start + BLOCK_ROWS, n_rows)
            blocks.append(pool.submit(_block, columns, widths, start, stop))
        while blocks:
            yield blocks.popleft().result()


def write_csv(path, header: list[str], *columns: np.ndarray) -> None:
    with closing(csv_lines(header, *columns)) as lines:  # stops the pool if a write fails
        first = next(lines)  # checks the columns before the file is opened and truncated
        with open(path, "wb") as fh:
            fh.write(first)
            fh.writelines(lines)
