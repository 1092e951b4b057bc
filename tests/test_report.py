import errno
import json
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graftlab import beltrami_estimate, report, shearing_map
from graftlab.cli import main
from graftlab.report import BLOCK_ROWS, dumps, format_float, write_csv
from test_api_surface import cli_runs

# Values whose cells are easy to get wrong: signed zeros, non-finite values,
# the edges of the integral "%.1f" rule and subnormals.
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, -1e16, 9999999999999998.0,
    -9999999999999998.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -5.0, 0.1,
]


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, 123456.789):
            assert float(format_float(x)) == x

    def test_integral_floats_stay_recognizable(self):
        assert format_float(2.0) == "2.0"
        assert format_float(-5.0) == "-5.0"

    def test_non_finite(self):
        assert format_float(math.inf) == "Infinity"
        assert format_float(-math.inf) == "-Infinity"
        assert format_float(math.nan) == "NaN"


class TestDumps:
    def test_sorted_keys_and_nesting(self):
        text = dumps({"b": 1, "a": {"z": [1.5, True, None], "y": "s"}})
        assert text.index('"a"') < text.index('"b"')
        parsed = json.loads(text)
        assert parsed == {"b": 1, "a": {"z": [1.5, True, None], "y": "s"}}

    def test_deterministic(self):
        obj = {"x": [0.1, 0.2], "w": {"k": 3}}
        assert dumps(obj) == dumps(obj)

    def test_dataclasses_and_numpy(self):
        @dataclass
        class Row:
            a: float
            flag: bool

        values = {"row": Row(1.5, True), "t": (1, 0.1), "b": np.bool_(True), "x": np.float64(2.0)}
        text = dumps(values)
        plain = {"row": {"a": 1.5, "flag": True}, "t": [1, 0.1], "b": True, "x": 2.0}
        assert text == dumps(plain)
        assert json.loads(text) == plain

    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), Path("a")])
    def test_arrays_and_paths_raise(self, value):
        with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
            dumps({"k": [value]})

    def test_every_cli_report_renders_to_itself(self, tmp_path, monkeypatch):
        # The bytes depend on the values alone: a report read back as plain
        # JSON values renders to the same text, whether its values were
        # dataclasses, tuples or numpy scalars when it was written.
        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
        for argv in cli_runs(tmp_path):
            main(argv)
        texts = {path: path.read_text(encoding="utf-8") for path in tmp_path.glob("out*/*.json")}
        values = {path: json.loads(text) for path, text in texts.items()}
        assert {p.name for p in texts} == {"verify_all.json", "report.json", "qc_report.json"}
        modes = {v["scenario"]["mode"] for v in values.values() if "scenario" in v}
        assert modes == {"iterate", "counterexample", "cauchy", "ray"}
        kinds = {v["map"]["kind"] for v in values.values() if "map" in v}
        assert kinds == {"twist", "scaling", "shear"}
        for path, text in texts.items():
            assert dumps(values[path]) == text, path


class TestCsv:
    def test_float_columns(self, tmp_path):
        columns = [
            np.array([-0.0, math.inf, 0.1]),
            np.array([0.0, -math.inf, 1e300]),
            np.array([2.0, math.nan, -5.0]),
        ]
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], *columns)
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "a,b,c",
            "-0.0,0.0,2.0",
            "Infinity,-Infinity,NaN",
            "0.10000000000000001,1.0000000000000001e+300,-5.0",
        ]

    def test_mixed_columns(self, tmp_path):
        step, curve = np.array([b"0", b"10"]), np.array(["g".encode(), "γ₁".encode()])
        write_csv(tmp_path / "t.csv", ["step", "curve", "x"], step, curve, np.array([0.5, 3.0]))
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == (
            "step,curve,x\n0,g,0.5\n10,γ₁,3.0\n"
        )

    def test_line_count_matches_len_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], np.zeros(5), np.zeros(5))
        assert len(path.read_text().splitlines()) == 6

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="column 1 has 2 rows"):
            write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros(3), np.zeros(2))

    def test_zero_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="one column per header field, got 0"):
            write_csv(tmp_path / "t.csv", [])

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
    def test_header_length_must_match_columns(self, tmp_path, header):
        with pytest.raises(ValueError, match="one column per header field, got 2"):
            write_csv(tmp_path / "t.csv", header, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize(
        "column", [np.zeros(()), np.arange(3), np.zeros(3, np.float32), np.array(["a"])]
    )
    def test_columns_are_1d_float64_or_bytes(self, tmp_path, column):
        with pytest.raises(ValueError, match="float64 or bytes array with at least one axis"):
            write_csv(tmp_path / "t.csv", ["a"], column)

    def test_malformed_table_leaves_existing_file_unchanged(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], np.array([0.5, 2.0]))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="column 1 has 2 rows"):
            write_csv(path, ["a", "b"], np.zeros(3), np.zeros(2))
        assert path.read_bytes() == before


def reference_csv(header, *columns: np.ndarray) -> bytes:
    """The CSV text of ``columns`` formatted one cell at a time."""
    def cell(value):
        return value if isinstance(value, bytes) else format_float(value).encode()

    lines = [",".join(header).encode()]
    lines += [b",".join(map(cell, row)) for row in zip(*(c.tolist() for c in columns))]
    return b"\n".join(lines) + b"\n"


# Bytes cells as a CSV table holds them: no ",", '"' or control character.
CELL_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=',"'), max_size=4
)


class TestFloatTables:
    """Float columns are formatted once per distinct value and per block, and
    bytes columns are copied; at any block size the bytes must match the
    per-cell reference."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        specials=st.sets(st.sampled_from(range(len(SPECIAL_FLOATS))), min_size=1),
        others=st.lists(st.floats(), max_size=3),
        texts=st.lists(CELL_TEXT, min_size=1, max_size=4),
        n_cols=st.integers(1, 3),
        n_rows=st.integers(0, 40),
        block_rows=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_per_cell_reference(
        self, tmp_path, specials, others, texts, n_cols, n_rows, block_rows, data
    ):
        # Small pools drawn from by index give columns with many repeats.
        pool = [SPECIAL_FLOATS[i] for i in sorted(specials)] + others
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        table = np.array([pool[i] for i in picks], dtype=float).reshape(n_rows, n_cols)
        labels = data.draw(st.lists(st.sampled_from(texts), min_size=n_rows, max_size=n_rows))
        columns = list(table.T)
        columns.insert(
            data.draw(st.integers(0, n_cols)),
            np.array([text.encode() for text in labels], dtype=bytes),
        )
        header = [f"c{j}" for j in range(n_cols + 1)]
        with mock.patch.object(report, "BLOCK_ROWS", block_rows):
            write_csv(tmp_path / "t.csv", header, *columns)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, *columns)

    @pytest.mark.parametrize("n_rows", [4 * BLOCK_ROWS - 1, 4 * BLOCK_ROWS, 4 * BLOCK_ROWS + 1])
    def test_tables_around_the_block_size(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        values = np.array(SPECIAL_FLOATS + rng.normal(size=50).tolist())
        table = values[rng.integers(0, len(values), size=(n_rows, 3))]
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], *table.T)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(["a", "b", "c"], *table.T)

    def test_signed_zeros_in_one_column_stay_distinct(self, tmp_path):
        # 0.0 == -0.0, so deduplicating on the float value would merge them.
        write_csv(tmp_path / "t.csv", ["z"], np.array([0.0, -0.0, 0.0, -0.0]))
        assert (tmp_path / "t.csv").read_text() == "z\n0.0\n-0.0\n0.0\n-0.0\n"


class TestLatticeTables:
    """Columns of one N-D shape are written as the table of their elements in
    row-major order, broadcast views included, with the bytes of the
    per-cell reference of their raveled copies."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
        n_cols=st.integers(1, 4),
        block_rows=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_reference_of_raveled_copies(self, shape, n_cols, block_rows, data):
        pool = SPECIAL_FLOATS + [0.25, -3.5]

        def picks(size):
            return data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))

        columns = []
        for _ in range(n_cols):
            # A column repeated along every axis but one, or a full one.
            axis = data.draw(st.sampled_from([None, *range(len(shape))]))
            base = [1] * len(shape) if axis is not None else list(shape)
            if axis is not None:
                base[axis] = shape[axis]
            values = np.array([pool[i] for i in picks(math.prod(base))]).reshape(base)
            if data.draw(st.booleans()):
                values = np.array([b"%d" % (i % 7) for i in range(values.size)]).reshape(base)
            columns.append(np.broadcast_to(values, shape))
        header = [f"c{j}" for j in range(n_cols)]
        with mock.patch.object(report, "BLOCK_ROWS", block_rows):
            text = b"".join(report.csv_lines(header, *columns))
        assert text == reference_csv(header, *(column.ravel() for column in columns))

    @pytest.mark.parametrize(
        "n_t, n_x, blocks", [(7, 3, 4), (5, 8, 5), (3, 9, 3)], ids=["row-3", "row-8", "row-9"]
    )
    def test_blocks_are_whole_rows_of_the_lattice(self, n_t, n_x, blocks):
        # With BLOCK_ROWS = 8 a block is max(1, 8 // n_x) lattice rows: 2 of 3,
        # 1 of 8, and 1 of 9, which is longer than BLOCK_ROWS.
        field = np.random.default_rng(n_t * n_x).normal(size=(n_t, n_x))
        columns = shearing_map(2.0, 0.3, n_t=n_t, n_x=n_x).grid.table(field)
        with mock.patch.object(report, "BLOCK_ROWS", 8):
            chunks = list(report.csv_lines(["t", "x", "f"], *columns))
        assert len(chunks) == 1 + blocks
        assert b"".join(chunks) == reference_csv(["t", "x", "f"], *(c.ravel() for c in columns))

    def test_signed_zeros_in_broadcast_axes_stay_distinct(self):
        t = np.broadcast_to(np.array([[-0.0], [0.0], [-0.0]]), (3, 2))
        x = np.broadcast_to(np.array([0.0, -0.0]), (3, 2))
        with mock.patch.object(report, "BLOCK_ROWS", 2):
            text = b"".join(report.csv_lines(["t", "x"], t, x))
        assert text == b"t,x\n-0.0,0.0\n-0.0,-0.0\n0.0,0.0\n0.0,-0.0\n-0.0,0.0\n-0.0,-0.0\n"

    @pytest.mark.parametrize("shape", [(2, 3), (6,), (3, 2, 1)])
    def test_unequal_shapes_raise(self, tmp_path, shape):
        with pytest.raises(ValueError) as raised:
            write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((3, 2)), np.zeros(shape))
        assert str(raised.value) == f"column 1 has 6 rows (shape {shape}), column 0 has 6 (shape (3, 2))"
        assert not (tmp_path / "t.csv").exists()

    def test_lattice_axes_are_never_materialized(self, tmp_path):
        # At 513² one lattice float column is 2.1 MB.  Writing the table of
        # a shear's |mu| peaks at 1.89 MB beside |mu| (traced with numpy
        # 2.4); a materialized t or x column would add 2.1 MB each.
        grid = shearing_map(2.0, 0.3, n_t=513, n_x=513).grid
        mu = np.empty((513, 513))
        beltrami_estimate(grid, out=mu)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "mu.csv", ["t", "x", "abs_mu"], *grid.table(mu))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mu.nbytes, f"{peak / 1e6:.2f} MB beside |mu|"


class FullDisk:
    """An open file that takes the header and the first block, then fails as a full disk does."""

    def __init__(self):
        self.chunks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, chunk):
        if len(self.chunks) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.chunks.append(chunk)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


class TestPool:
    """Blocks are formatted one at a time, when the caller asks for them: an
    error reaches the caller, and lines closed early format no further block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self):
        with mock.patch.object(report, "BLOCK_ROWS", 4):
            yield

    def test_write_error_reaches_the_caller(self, tmp_path):
        disk = FullDisk()
        with mock.patch.object(report, "open", create=True, return_value=disk):
            with pytest.raises(OSError) as raised:
                write_csv(tmp_path / "t.csv", ["v"], np.arange(40.0))
        assert raised.value.errno == errno.ENOSPC
        assert disk.chunks == [b"v\n", b"0.0\n1.0\n2.0\n3.0\n"]

    def test_closing_the_lines_early_stops_the_pool(self):
        lines = report.csv_lines(["v"], np.arange(40.0))
        with mock.patch.object(report, "_block", wraps=report._block) as block:
            assert next(lines) == b"v\n"
            assert block.call_count == 0
            assert next(lines) == b"0.0\n1.0\n2.0\n3.0\n"
            lines.close()
        assert block.call_count == 1


def assert_column_matches_reference(tmp_path, values):
    """write_csv of ``values`` as one column writes format_float of each value."""
    column = np.asarray(values, dtype=np.float64).ravel()
    write_csv(tmp_path / "t.csv", ["v"], column)
    written = (tmp_path / "t.csv").read_text().splitlines()[1:]
    expected = list(map(format_float, column.tolist()))
    if written != expected:
        wrong = [(v, w, e) for v, w, e in zip(column.tolist(), written, expected) if w != e]
        pytest.fail(f"{len(written)} cells for {len(expected)} values; "
                    f"(value, written, expected): {wrong[:5]}")


def near_powers_of_ten() -> list[float]:
    """Each power of ten from 1e-7 to 1e16 with its two neighbouring doubles."""
    return [
        math.nextafter(float(f"1e{e}"), direction) if direction else float(f"1e{e}")
        for e in range(-7, 17)
        for direction in (-math.inf, 0, math.inf)
    ]


SIGN_BIT = 1 << 63
# Bit patterns of the positive doubles from 2**-20 to 2**53: the fast path's domain and its edges.
BAND = (int(np.float64(2.0**-20).view(np.uint64)), int(np.float64(2.0**53).view(np.uint64)))
FAST_BAND = st.integers(*BAND)


class TestVectorizedFormat:
    """The numpy %.17g that writes float tables matches format_float on values
    chosen to break it: raw bit patterns, the edges of its domain, the exponent
    steps at each power of ten and exact decimal ties."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        bits=st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1),
                FAST_BAND,
                FAST_BAND.map(lambda b: b | SIGN_BIT),
                st.sampled_from(near_powers_of_ten()).map(
                    lambda x: int(np.float64(x).view(np.uint64))
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_raw_bit_patterns(self, tmp_path, bits):
        assert_column_matches_reference(tmp_path, np.array(bits, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_domain_edges(self, tmp_path):
        edges = near_powers_of_ten() + [
            1e-6,  # the double nearest 1e-6 lies below it: 9.9999999999999995e-07
            1e16, math.nextafter(1e16, 0.0), 2.0**52 - 0.5, 2.0**52, 2.0**52 + 1.0,
            5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0),
            0.0, 1.0, 0.5, 1.5, 0.1, 0.3, 2.0 / 3.0, math.pi, 1e-5, 1.5e-5, 1e-4, 1.5e-4,
        ]
        assert_column_matches_reference(tmp_path, edges + [-x for x in edges])

    def test_exact_decimal_ties(self, tmp_path):
        # m * 2**-17 has exactly 18 significant digits, the last a 5 when m is
        # odd, so every odd m is a tie that %.17g rounds to even.
        ties = np.arange(131072, 1310720) * 2.0**-17
        assert_column_matches_reference(tmp_path, np.concatenate([ties, -ties]))

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20240611)
        raw = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
        # The same number again inside the fast path's band, with either sign.
        band = rng.integers(*BAND, size=100_000, dtype=np.uint64, endpoint=True)
        band |= rng.integers(0, 2, size=band.size, dtype=np.uint64) << np.uint64(63)
        assert_column_matches_reference(tmp_path, np.concatenate([raw, band]).view(np.float64))
