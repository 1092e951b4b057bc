import json
import math

import numpy as np
import pytest

from graftlab.report import dumps, format_float, jsonable, write_csv


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
        import numpy as np
        from dataclasses import dataclass

        @dataclass
        class Row:
            a: float
            flag: bool

        payload = jsonable({"row": Row(1.5, True), "arr": np.array([1.0, 2.0]), "b": np.bool_(True)})
        assert payload == {"row": {"a": 1.5, "flag": True}, "arr": [1.0, 2.0], "b": True}


class TestCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [[1, 0.5, True], [2, 1.0 / 3.0, False]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.5,true"
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_array_and_rows_write_identical_bytes(self, tmp_path):
        values = [[-0.0, 0.0, 2.0], [math.inf, -math.inf, math.nan], [0.1, 1e300, -5.0]]
        write_csv(tmp_path / "rows.csv", ["a", "b", "c"], values)
        write_csv(tmp_path / "array.csv", ["a", "b", "c"], np.array(values))
        text = (tmp_path / "rows.csv").read_text()
        assert (tmp_path / "array.csv").read_text() == text
        assert text.splitlines()[1:] == [
            "-0.0,0.0,2.0",
            "Infinity,-Infinity,NaN",
            "0.10000000000000001,1.0000000000000001e+300,-5.0",
        ]

    def test_mixed_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0, "g", True, np.float64(0.5)], [np.int64(1), "h", False, 3]]
        write_csv(path, ["step", "curve", "ok", "x"], rows)
        assert path.read_text() == "step,curve,ok,x\n0,g,true,0.5\n1,h,false,3\n"

    def test_ragged_rows_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [3.0]])

    def test_line_count_matches_len_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], rows=np.zeros((5, 2)))
        assert len(path.read_text().splitlines()) == 6
