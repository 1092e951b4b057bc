"""Deterministic report serialization.

Reports must be byte-identical across runs of the same inputs and version,
so: dictionary keys are emitted sorted, every float in JSON and CSV goes
through format_float (17 significant digits, round-trip exact for binary64),
and nothing time-dependent enters the files (wall-clock timings go to the
console only).

csv_lines is the only CSV writer.  It takes a sequence of equal-length rows
or a 2-D numpy array.  A float array is formatted and yielded in blocks of
BLOCK_ROWS rows, so it is never held as Python objects all at once, and
within a block each column is formatted one distinct value at a time:
values are told apart by their float64 bit pattern (so -0.0 and 0.0 stay
distinct), each is passed to format_float once, and the rows index the
resulting cells.  Row lists and integer or boolean arrays go through _cell
one cell at a time and are yielded line by line.  Both paths write the
same bytes for the same values.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["format_float", "dumps", "write_json", "csv_lines", "write_csv", "jsonable"]

BLOCK_ROWS = 1 << 16  # rows formatted and written per block of CSV text


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
    """Convert dataclasses / numpy / enums / paths to plain containers."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, Enum):
        return obj.value
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


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
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
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            rendered = _render(obj[key], indent, level + 1)
            items.append(f"{pad_in}{json.dumps(str(key))}: {rendered}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_render(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text (sorted keys, 17-digit floats)."""
    return _render(jsonable(obj), indent, 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _float_cells(column: np.ndarray) -> list[str]:
    """format_float of every value of ``column``, called once per distinct bit pattern."""
    bits = column.astype(np.float64, copy=False).view(np.int64)
    bits, inverse = np.unique(bits, return_inverse=True)
    cells = np.array([format_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return cells[inverse].tolist()


def csv_lines(header: list[str], rows) -> Iterator[str]:
    """Newline-terminated CSV text; ``rows`` are equal-length rows or a 2-D array.

    Yields the header line, then one string per block of BLOCK_ROWS lines
    for a float array, or one string per line otherwise.
    """
    yield ",".join(header) + "\n"
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        for start in range(0, len(rows), BLOCK_ROWS):
            cells = [_float_cells(column) for column in rows[start : start + BLOCK_ROWS].T]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
        return
    columns = rows.T.tolist() if isinstance(rows, np.ndarray) else zip(*rows, strict=True)
    cells = [map(_cell, column) for column in columns]
    for line in zip(*cells):
        yield ",".join(line) + "\n"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(csv_lines(header, rows))
