import ast
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import graftlab
from graftlab import verify
from graftlab.beltrami import MAX_LATTICE, MIN_LATTICE
from graftlab.cli import main
from graftlab.errors import ScenarioError
from graftlab.grafting import WeightedMulticurve, graft_factors
from graftlab.scenario import (
    MAX_CELLS,
    MAX_STEPS,
    MODES,
    load_map_spec,
    load_scenario,
    resolve_constants,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

SCENARIO = {
    "name": "t",
    "curves": [{"id": "g", "role": "support"}],
    "lengths": {"g": [0.1, 0.1]},
    "lamination": {"g": 2 * math.pi},
    "mode": "iterate",
    "steps": 5,
}
MAP_SPEC = {"kind": "shear", "params": {"a": 2.0, "amplitude": 0.3}, "lattices": [33, 65]}


def shipped(command: str) -> set[str]:
    """Names of the files in scenarios/ that ``command`` runs: a map spec has a kind."""
    return {
        path.stem
        for path in SCENARIOS.glob("*.json")
        if ("kind" in json.loads(path.read_text())) == (command == "qc-check")
    }


def write_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(SCENARIO, **overrides)))
    return path


def replaced(doc, path, value):
    """A deep copy of ``doc`` with the entry at key/index ``path`` set to ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Scenarios that hold every optional field between them: s_values is read
# in ray mode only, and steps in every other mode.  Each is paired with the
# field paths mutated one at a time; () replaces the whole document and
# "latices" adds an unknown key.
FULL_SCENARIO = dict(SCENARIO, epsilon=0.1, constants={"K2": 1.0})
RAY_SCENARIO = {k: v for k, v in FULL_SCENARIO.items() if k != "steps"}
RAY_SCENARIO.update(mode="ray", s_values=[0.5])
COMMON_PATHS = [
    (), ("name",), ("curves",), ("curves", 0), ("curves", 0, "id"), ("curves", 0, "role"),
    ("lengths",), ("lengths", "g"), ("lengths", "g", 0), ("lengths", "g", 1),
    ("lamination",), ("lamination", "g"), ("mode",),
    ("epsilon",), ("constants",), ("constants", "K2"), ("latices",),
]
SCENARIO_PATHS = [
    *[(FULL_SCENARIO, path) for path in [*COMMON_PATHS, ("steps",), ("s_values",)]],
    *[(RAY_SCENARIO, path) for path in [*COMMON_PATHS, ("s_values",), ("steps",)]],
]
MAP_SPEC_PATHS = [
    (), ("kind",), ("params",), ("params", "a"), ("params", "amplitude"), ("params", "k"),
    ("lattices",), ("lattices", 0), ("lattices", 1), ("latices",),
]
EDGE_VALUES = st.sampled_from(
    [0, -1, 1e-320, sys.float_info.min, 1e308, 10**400, 2**63, 1e9, 33.0, 33, 2049, 2050,
     MAX_STEPS, MAX_STEPS + 1, "2", "twist", "ray"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | EDGE_VALUES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


class TestInputContract:
    """Any JSON document, or a valid one with one field replaced by any JSON
    value, either loads within every bound of the contract or raises
    ScenarioError."""

    @staticmethod
    def load(tmp_path, loader, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        try:
            return loader(path)
        except ScenarioError:
            return None

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc_path=st.sampled_from(SCENARIO_PATHS), value=JSON_VALUES)
    def test_scenario(self, tmp_path, monkeypatch, doc_path, value):
        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
        scenario = self.load(tmp_path, load_scenario, replaced(*doc_path, value))
        if scenario is None:
            return
        for interval in scenario.state.lengths.values():
            assert is_number(interval.hi)
            assert sys.float_info.min <= interval.lo <= interval.hi
        assert all(is_number(w) and w > 0 for w in scenario.lamination.weights.values())
        assert len(scenario.s_values) <= MAX_STEPS
        assert all(is_number(s) and s > 0 for s in scenario.s_values)
        assert type(scenario.steps) is int and 0 <= scenario.steps <= MAX_STEPS
        assert (scenario.mode == "ray") == (scenario.steps == 0) == bool(scenario.s_values)
        assert all(is_number(c) and c > 0 for c in asdict(scenario.constants).values())
        assert scenario.state.epsilon == scenario.constants.epsilon
        for cid in scenario.state.lengths:
            assert not any(c in ',"\x7f' or c < " " for c in cid)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(path=st.sampled_from(MAP_SPEC_PATHS), value=JSON_VALUES)
    def test_map_spec(self, tmp_path, path, value):
        spec = self.load(tmp_path, load_map_spec, replaced(MAP_SPEC, path, value))
        if spec is None:
            return
        assert all(type(n) is int and MIN_LATTICE <= n <= MAX_LATTICE for n in spec.lattices)
        assert set(spec.params) <= {"a", "k", "b", "amplitude"}
        for name, v in spec.params.items():
            assert is_number(v) and (v > 0 or name == "amplitude")

    @pytest.mark.parametrize(
        "command, change, field",
        [
            ("simulate", {"lengths": {"g": [math.inf, math.inf]}}, "lengths.g[0]"),
            ("simulate", {"lamination": {"g": math.inf}}, "lamination.g"),
            ("simulate", {"lengths": {"g": [1e-320, 0.1]}}, "lengths.g[0]"),
            ("simulate", {"epsilon": math.inf}, "epsilon"),
            ("simulate", {"steps": 1e9}, "steps"),
            ("qc-check", {"latices": [33]}, "latices"),
            ("qc-check", {"params": {"a": 1.0, "k": "2"}}, "params.k"),
            ("qc-check", {"params": {"a": 1.0, "k": True}}, "params.k"),
            ("verify", "-1", "--lattice"),
            ("verify", "0", "--lattice"),
            ("verify", "4097", "--lattice"),
            (
                "simulate",
                {"lamination": {"g": 1e200}, "mode": "ray", "s_values": [1, 1e200]},
                "s_values[1]",
            ),
            ("simulate", {"constants": {"K3": 1.0}}, "constants.K3"),
            # Curve ids are written into CSV cells as they are.
            *[
                (
                    "simulate",
                    {
                        "curves": [{"id": cid, "role": "support"}],
                        "lengths": {cid: [0.1, 0.1]},
                        "lamination": {cid: 2 * math.pi},
                    },
                    "curves[0].id",
                )
                for cid in ["g,h", 'g"', "g\nh", "g\r", "\tg", "g\x00", "g\x1f", "g\x7f"]
            ],
            # Appended last so that the ids of the cases above keep their numbers.
            ("qc-check", {"lattices": []}, "lattices"),
            (
                "simulate",
                {
                    "curves": [{"id": c, "role": "support"} for c in "ab"],
                    "lengths": {"a": [0.05, 0.05], "b": [0.05, 0.05]},
                    "lamination": {"a": 2 * math.pi, "b": 2 * math.pi},
                    "mode": "counterexample",
                },
                "unequal lamination weights",
            ),
            (
                "simulate",
                {
                    "curves": [{"id": c, "role": "support"} for c in "gh"],
                    "lengths": {"g": [0.1, 0.1], "h": [0.05, 0.09]},
                },
                "lamination.h",
            ),
            ("simulate", {"s_values": [1000.0]}, "field s_values is not read in mode 'iterate'"),
            (
                "simulate",
                {"mode": "ray", "s_values": [0.5], "steps": 99999},
                "field steps is not read in mode 'ray'",
            ),
            ("qc-check", {"lattices": [33, 33]}, "lattices[1] must be above lattices[0]"),
            ("qc-check", {"lattices": [33, 65, 33]}, "lattices[2] must be above lattices[1]"),
            ("simulate", {"mode": "accumulation"}, "mode"),
        ],
    )
    def test_cli_names_the_field_in_one_line(self, tmp_path, capsys, command, change, field):
        if command == "verify":
            argv = ["verify", "qcmaps", "--lattice", change]
        else:
            twist = {"kind": "twist", "params": {"a": 1.0, "k": 2.0}}
            base = SCENARIO if command == "simulate" else twist
            path = tmp_path / "input.json"
            path.write_text(json.dumps(dict(base, **change)))
            argv = [command, "--scenario", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["a_file", "under_a_file"])
    @pytest.mark.parametrize("command", ["verify", "simulate", "qc-check"])
    def test_out_that_cannot_be_a_directory_is_one_line_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, under_a_file
    ):
        def computed(*args, **kwargs):
            raise AssertionError("work started before --out was made")

        monkeypatch.setattr(graftlab.cli, "run_suite", computed)
        monkeypatch.setattr(graftlab.dynamics, "iterate_grafting", computed)
        monkeypatch.setattr(graftlab.cli, "beltrami_estimate", computed)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "out" if under_a_file else blocker
        if command == "verify":
            argv = ["verify", "all", "--lattice", "1025"]
        else:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(SCENARIO if command == "simulate" else MAP_SPEC))
            argv = [command, "--scenario", str(path)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {str(out)!r} cannot be made a directory: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize(
        "command, blocked",
        [("verify", "verify_grafting.json"), ("simulate", "report.json"),
         ("qc-check", "mu_65.csv")],
    )
    def test_report_file_that_cannot_be_opened_is_one_line(
        self, tmp_path, capsys, command, blocked
    ):
        # A directory where the report file goes: the command exits 2 with one line
        # that names the file, after writing the files before it.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if command == "verify":
            argv = ["verify", "grafting"]
        else:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(SCENARIO if command == "simulate" else MAP_SPEC))
            argv = [command, "--scenario", str(path)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report file {str(out / blocked)!r} cannot be written: ")
        assert err.count("\n") == 1
        written = {"verify": set(), "simulate": {"trajectory.csv"}, "qc-check": {"mu_33.csv"}}
        assert {p.name for p in out.iterdir() if p.is_file()} == written[command]


class TestScenarioLoading:
    def test_load_shipped_scenarios(self):
        assert shipped("simulate") and shipped("qc-check")
        for name in shipped("simulate"):
            scenario = load_scenario(SCENARIOS / f"{name}.json")
            assert (scenario.steps >= 1) != bool(scenario.s_values)
        for name in shipped("qc-check"):
            assert load_map_spec(SCENARIOS / f"{name}.json").lattices

    def test_empty_lamination_rejected(self, tmp_path):
        path = write_scenario(tmp_path, lamination={})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_undeclared_curve_rejected(self, tmp_path):
        path = write_scenario(tmp_path, lamination={"unknown": 1.0})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_disjoint_role_cannot_carry_weight(self, tmp_path):
        path = write_scenario(
            tmp_path,
            curves=[{"id": "g", "role": "disjoint"}],
        )
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_constants_overlay(self, tmp_path, monkeypatch):
        env_file = tmp_path / "constants.json"
        env_file.write_text(json.dumps({"K2": 3.0, "kappa": 0.5}))
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(env_file))
        constants = resolve_constants({"K2": 4.0})
        assert constants.K2 == 4.0          # explicit override wins
        assert constants.kappa == 0.5       # env file layer applies
        assert not constants.kappa_is_placeholder

    def test_bad_constants_file(self, tmp_path, monkeypatch):
        env_file = tmp_path / "constants.json"
        env_file.write_text(json.dumps({"bogus": 1.0}))
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(env_file))
        with pytest.raises(ScenarioError):
            resolve_constants()


class TestVerifyCommand:
    def test_hypgeom_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "hypgeom", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        report = json.loads((tmp_path / "verify_hypgeom.json").read_text())
        assert report["passed"] is True
        assert report["constants"]["epsilon"] == 0.1

    def test_qcmaps_suite_passes_small_lattice(self, tmp_path):
        code = main(["verify", "qcmaps", "--lattice", "65", "--out", str(tmp_path)])
        assert code == 0

    def test_checks_use_the_constants_they_echo(self, tmp_path, monkeypatch):
        def untwist_details(out):
            assert main(["verify", "qcmaps", "--lattice", "33", "--out", str(out)]) == 0
            report = json.loads((out / "verify_qcmaps.json").read_text())
            (check,) = [
                c for c in report["checks"]
                if c["name"] == "untwist_chain_effective_constant_bounded"
            ]
            return report["constants"]["T_radius"], check["details"]

        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
        default_radius, default = untwist_details(tmp_path / "default")
        env_file = tmp_path / "constants.json"
        env_file.write_text(json.dumps({"T_radius": 3.0}))
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(env_file))
        radius, details = untwist_details(tmp_path / "custom")
        assert (default_radius, radius) == (1.0, 3.0)
        assert details["max"] > default["max"]

    def test_shear_check_uses_the_echoed_c_shear(self, tmp_path, monkeypatch, capsys):
        # log K of each shear lies above 0.01 (B - 1), so the linearized bound fails.
        env_file = tmp_path / "constants.json"
        env_file.write_text(json.dumps({"C_shear": 0.01}))
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(env_file))
        code = main(["verify", "qcmaps", "--lattice", "33", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "verify_qcmaps.json").read_text())
        assert report["constants"]["C_shear"] == 0.01
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["shear_numeric_below_analytic_bounds"]
        assert failed[0]["margin"] < 0.0

    # The grafting and dynamics checks whose lengths start at l = 0.1, so that an
    # epsilon below 0.1 fails them, and only them, besides the comparison budget.
    SHORT_AT_ONE_TENTH = [
        "grafting.sandwich_lo_leq_hi_and_hi_strictly_decreases",
        "grafting.lower_bound_below_scaled_lower_endpoint",
        "dynamics.trajectory_upper_chain_exact",
        "dynamics.cauchy_consecutive_ratio_exact",
        "dynamics.cauchy_tails_match_closed_form",
        "dynamics.tube_radius_at_equal_weights_is_first_lift_term",
    ]

    @pytest.mark.parametrize(
        "constants, name, reason",
        [
            ({"epsilon": 0.05}, "qcmaps.comparison_budget_eighth_power_law",
             "above short-curve threshold 0.05"),
            ({"T_radius": 100.0}, "qcmaps.untwist_chain_effective_constant_bounded",
             "bounding annulus exits collar"),
        ],
    )
    def test_unmet_precondition_fails_its_check_only(
        self, tmp_path, monkeypatch, capsys, constants, name, reason
    ):
        env_file = tmp_path / "constants.json"
        env_file.write_text(json.dumps(constants))
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(env_file))
        code = main(["verify", "all", "--lattice", "33", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "verify_all.json").read_text())
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        shortness = self.SHORT_AT_ONE_TENTH if "epsilon" in constants else []
        assert [c["name"] for c in failed] == [name, *shortness]
        assert reason in failed[0]["details"]["precondition_failed"]
        for check in failed[1:]:
            assert "> epsilon 0.05: shortness hypothesis violated" in (
                check["details"]["precondition_failed"]
            )

    def test_tolerance_override_can_fail_suite(self, tmp_path):
        code = main(
            [
                "verify",
                "grafting",
                "--out",
                str(tmp_path),
                "--tolerance",
                "wolpert_collapse_chain=1e-30",
            ]
        )
        assert code == 1

    def test_bad_tolerance_syntax_is_exit_2(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "hypgeom", "--out", str(out), "--tolerance", "oops"])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            "bogus=1",
            "modulus_scale_invariance=1e-12",  # names whose checks are gone
            "core_length_roundtrip=1e-12",
            "modulus_additivity=1e-12",
            "log_coords_roundtrip=1e-12",
            "sector_angle_sum=1e-14",
            "threshold_linear=1e-12",
            "h_width_identity=nan",
            "h_width_identity=inf",
            "h_width_identity=-1e-3",
        ],
    )
    def test_bad_tolerance_name_or_value_is_exit_2(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        code = main(["verify", "hypgeom", "--out", str(out), "--tolerance", override])
        assert code == 2
        assert "h_width_identity" in capsys.readouterr().err
        assert not out.exists()

    def test_every_tolerance_is_read_by_a_check(self):
        # A TOLERANCES entry that no check reads would be a --tolerance name
        # that is accepted and changes nothing.
        tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
        read = {
            node.slice.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "tolerances"
        }
        assert read == verify.TOLERANCES.keys()

    def test_verify_imports_no_numpy_random(self, tmp_path):
        # No check draws random inputs: a run loads neither numpy.random nor
        # the hashlib and secrets modules it imports.
        probe = (
            "import sys; from graftlab.cli import main; "
            "code = main(['verify', 'all', '--lattice', '33', '--out', sys.argv[1]]); "
            "loaded = [m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules]; "
            "print('loaded:', *loaded); sys.exit(code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(graftlab.__file__).resolve().parents[1])),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded:"

    def test_seed_fixes_the_report(self, tmp_path, monkeypatch):
        # No check draws from the seed, so it changes only its own echo.
        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)

        def run(seed: int, out: str) -> bytes:
            argv = ["verify", "all", "--lattice", "33", "--seed", str(seed)]
            assert main([*argv, "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "verify_all.json").read_bytes()

        first, again, other = run(0, "a"), run(0, "b"), run(1, "c")
        assert first == again
        changed = [
            (a, b) for a, b in zip(first.splitlines(), other.splitlines(), strict=True) if a != b
        ]
        assert changed == [(b'  "seed": 0,', b'  "seed": 1,')]

    def test_negative_seed_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "qcmaps", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()


class TestSimulateCommand:
    def test_iterate_trajectory_csv(self, tmp_path):
        code = main(
            [
                "simulate",
                "--scenario",
                str(SCENARIOS / "iterate_two_pi.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "step,curve,lo,hi,decay_factor"
        assert len(lines) == 12  # header + 11 states
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(0.1 * 3.0**-10, rel=1e-12)

    def test_counterexample_ratio_monotone(self, tmp_path):
        code = main(
            [
                "simulate",
                "--scenario",
                str(SCENARIOS / "counterexample.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        ratios = report["counterexample"]["ratios"]
        assert all(b < a for a, b in zip(ratios[2:], ratios[3:]))
        assert ratios[-1] < 0.05
        assert report["counterexample"]["heavy_curve"] == "gamma2"
        ratio_lines = (tmp_path / "ratios.csv").read_text().strip().splitlines()
        assert ratio_lines[0] == "step,ratio"
        assert len(ratio_lines) == len(ratios) + 1

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "simulate",
                        "--scenario",
                        str(SCENARIOS / "cauchy_endpoints.json"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_every_mode_grafts_the_scenario_curves(self, tmp_path):
        scenario = {
            "curves": [{"id": "g", "role": "support"}, {"id": "d", "role": "disjoint"}],
            "lengths": {"g": [0.05, 0.1], "d": [0.02, 0.03]},
            "lamination": {"g": 2 * math.pi},
            "steps": 3,
        }
        ray = {k: v for k, v in scenario.items() if k != "steps"}
        docs = {
            "iterate": scenario,
            "cauchy": scenario,
            "ray": dict(ray, s_values=[0.5, 1.0]),
            "counterexample": dict(
                scenario,
                curves=[*scenario["curves"], {"id": "h", "role": "support"}],
                lengths=dict(scenario["lengths"], h=[0.05, 0.1]),
                lamination={"g": 2 * math.pi, "h": math.pi},
            ),
        }
        assert set(docs) == set(MODES)
        tables = set()
        for mode, doc in docs.items():
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(dict(doc, mode=mode)))
            out = tmp_path / mode
            assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            # The scenario block echoes only the field that the mode reads.
            echoed = {"s_values"} if mode == "ray" else {"steps"}
            assert {"steps", "s_values"} & set(report["scenario"]) == echoed
            assert set(report["final_lengths"]) == {c["id"] for c in doc["curves"]}
            if doc is not scenario:
                continue
            tables.add((out / "trajectory.csv").read_bytes())
            step_1_g = (out / "trajectory.csv").read_text().splitlines()[4].split(",")
            assert step_1_g[:2] == ["1", "g"]
            assert float(step_1_g[2]) == graft_factors(0.1, 2 * math.pi).lower * 0.05
        assert len(tables) == 1

    def test_ray_mode(self, tmp_path):
        path = tmp_path / "ray.json"
        path.write_text(json.dumps(dict(RAY_SCENARIO, s_values=[0.5, 1.0, 2.0])))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["scenario"]["s_values"] == [0.5, 1.0, 2.0]
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + initial + one state per s value

    @staticmethod
    def wide_scenario(tmp_path, mode: str, curves: int, rows: int) -> Path:
        """A ``mode`` scenario of ``curves`` support curves whose trajectory has ``rows`` rows."""
        ids = [f"c{i}" for i in range(curves)]
        doc = {
            "curves": [{"id": cid, "role": "support"} for cid in ids],
            "lengths": {cid: [0.01, 0.01] for cid in ids},
            "lamination": {cid: 1.0 for cid in ids},
            "mode": mode,
        }
        doc.update({"s_values": [1.0] * (rows - 1)} if mode == "ray" else {"steps": rows - 1})
        path = tmp_path / f"{mode}_{curves}x{rows}.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("mode, size", [("iterate", "steps"), ("ray", "len(s_values)")])
    def test_too_many_cells_exit_2_before_any_trajectory(
        self, tmp_path, capsys, monkeypatch, mode, size
    ):
        # MAX_CELLS + 1 = 11 x 909 091, so with at most MAX_STEPS + 1 rows the
        # least product above MAX_CELLS is 141 curves x 70 922 rows, 2 cells over.
        path = self.wide_scenario(tmp_path, mode, 141, 70_922)

        def computed(*args):
            raise AssertionError("a trajectory was computed")

        monkeypatch.setattr(graftlab.dynamics, "iterate_grafting", computed)
        monkeypatch.setattr(graftlab.dynamics, "ray_grafting", computed)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: ({size} + 1) x curves = 70922 x 141 = 10000002 exceeds MAX_CELLS 10000000\n"
        )
        assert not out.exists()

    def test_exactly_max_cells_loads(self, tmp_path):
        scenario = load_scenario(self.wide_scenario(tmp_path, "iterate", 100, 100_000))
        assert (scenario.steps + 1) * len(scenario.state.lengths) == MAX_CELLS

    @pytest.mark.parametrize(
        "weight, bad", [(1e300, 1e10), (1e-30, 1e-300)], ids=["overflow", "underflow"]
    )
    def test_first_bad_s_value_is_named_without_scaling_per_entry(
        self, tmp_path, monkeypatch, weight, bad
    ):
        path = self.wide_scenario(tmp_path, "ray", 3, 1001)
        doc = json.loads(path.read_text())
        doc["lamination"]["c1"] = weight
        doc["s_values"][500] = doc["s_values"][700] = bad
        path.write_text(json.dumps(doc))
        scaled, calls = WeightedMulticurve.scaled, []

        def spy(self, s):
            calls.append(s)
            return scaled(self, s)

        monkeypatch.setattr(WeightedMulticurve, "scaled", spy)
        with pytest.raises(ScenarioError) as raised:
            load_scenario(path)
        assert str(raised.value) == (
            "s_values[500] must be a number whose product with each lamination weight is "
            f"positive and finite, got {bad!r}"
        )
        assert calls == []

    def test_malformed_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "iterate"}))
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2

    def test_empty_lamination_exit_2(self, tmp_path):
        path = write_scenario(tmp_path, lamination={})
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_huge_weight_runs(self, tmp_path):
        # The collar sector angle pi/2 - phi used to cancel to 0 here.
        path = write_scenario(tmp_path, lamination={"g": 1e30})
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0

    def test_short_enclosures_run_to_the_end(self, tmp_path):
        # A step propagates lengths only: no bounding annulus is built from
        # the width of the new enclosure, so neither a zero width nor a wide
        # one stops the run.
        t = SCENARIO["lamination"]["g"]
        for i, lengths in enumerate([{"g": [1e-20, 1e-20]}, {"g": [1e-3, 0.1], "d": [0.05, 0.1]}]):
            run = tmp_path / str(i)
            run.mkdir()
            curves = [{"id": c, "role": "support" if c == "g" else "disjoint"} for c in lengths]
            path = write_scenario(run, curves=curves, lengths=lengths, epsilon=0.1)
            assert main(["simulate", "--scenario", str(path), "--out", str(run)]) == 0
            hi = json.loads((run / "report.json").read_text())["final_lengths"]["g"][1]
            expected = lengths["g"][1] * (math.pi / (math.pi + t)) ** SCENARIO["steps"]
            assert hi == pytest.approx(expected, rel=1e-14)

    def test_lower_bound_rounding_to_0_stops_with_one_line(self, tmp_path, capsys):
        # lo drops from a normal float straight to 0.0 at step 8.
        path = write_scenario(
            tmp_path, lengths={"g": [1e-25, 2.7e-22]}, lamination={"g": 3.4e38}, steps=50
        )
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 8: lower length bound 0.0 of curve 'g'")
        assert err.count("\n") == 1

    def test_cauchy_ratio_rounding_to_one_runs(self, tmp_path):
        # decay_factor(7.6e-19) rounds to 1.0, so every step bound is the same.
        path = write_scenario(tmp_path, lamination={"g": 7.6e-19}, mode="cauchy")
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        cauchy = json.loads((tmp_path / "report.json").read_text())["cauchy"]
        assert cauchy["expected_ratio"] == 1.0
        assert cauchy["tail_sums"] == cauchy["tail_closed_forms"]

    def test_underflow_stops_with_one_line(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "iterate_two_pi.json").read_text())
        doc["steps"] = 800
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 643: ") and "'gamma'" in err
        assert err.count("\n") == 1


class TestQcCheckCommand:
    def test_twist_refinement_series(self, tmp_path):
        code = main(
            [
                "qc-check",
                "--scenario",
                str(SCENARIOS / "qc_twist_refinement.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "qc_report.json").read_text())
        assert [s["lattice"] for s in report["series"]] == [33, 65, 129]
        for entry in report["series"]:
            assert entry["relative_error"] < 1e-6
        assert report["exact_at_resolution"] is True
        assert (tmp_path / "mu_33.csv").exists()

    def test_error_grown_from_zero_is_not_exact(self, tmp_path, monkeypatch):
        # convergence_order gives -inf when the coarse error is exactly 0 and
        # the fine one is not; the report writes it as null like +inf, but
        # only an order of +inf at every step counts as exact.
        monkeypatch.setattr(graftlab.cli, "convergence_order", lambda e, r: [-math.inf, math.inf])
        spec = SCENARIOS / "qc_twist_refinement.json"
        assert main(["qc-check", "--scenario", str(spec), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "qc_report.json").read_text())
        assert report["observed_orders"] == [None, None]
        assert report["exact_at_resolution"] is False

    def test_shear_bound_margin(self, tmp_path):
        spec = tmp_path / "shear.json"
        spec.write_text(json.dumps({"kind": "shear", "params": {"a": 2.0, "amplitude": 0.3}}))
        code = main(
            ["qc-check", "--scenario", str(spec), "--lattice", "65", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "qc_report.json").read_text())
        assert report["series"][0]["bound_margin"] > 0.0

    @pytest.mark.parametrize(
        "amplitude, expected", [(-0.3, 0), (0.5, 2), (1.0, 2), (1.5, 2), (1e20, 2)]
    )
    def test_shear_amplitude_edges(self, tmp_path, capsys, amplitude, expected):
        # B = 2 at |amplitude| = 0.5; from 1 on the distortion is not increasing.
        path = tmp_path / "shear.json"
        spec = {"kind": "shear", "params": {"a": 2.0, "amplitude": amplitude}, "lattices": [33]}
        path.write_text(json.dumps(spec))
        argv = ["qc-check", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == expected
        err = capsys.readouterr().err
        if expected == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_precondition_violation_exit_2(self, tmp_path):
        spec = tmp_path / "shear.json"
        spec.write_text(json.dumps({"kind": "shear", "params": {"a": 0.5, "amplitude": 0.1}}))
        assert (
            main(["qc-check", "--scenario", str(spec), "--lattice", "65", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "twist", "params": {"a": 1.0}}, "params.k"),
            ({"kind": "twist", "params": {"a": 1.0, "k": 2.0}, "lattices": ["x"]}, "lattices"),
        ],
    )
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["qc-check", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    def test_lattice_flag_and_spec_lattices_exit_2(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "qc_twist_refinement.json")
        argv = ["qc-check", "--scenario", scenario, "--lattice", "257", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lists lattices" in err and "--lattice 257" in err
        assert not list(tmp_path.iterdir())

    def test_lattice_defaults_without_flag_or_spec_lattices(self, tmp_path):
        spec = tmp_path / "twist.json"
        spec.write_text(json.dumps({"kind": "twist", "params": {"a": 1.0, "k": 2.0}}))
        out = tmp_path / "out"
        assert main(["qc-check", "--scenario", str(spec), "--out", str(out)]) == 0
        report = json.loads((out / "qc_report.json").read_text())
        assert report["lattices"] == [129]

    @pytest.mark.filterwarnings("error")  # a warning printed beside the error line fails
    @pytest.mark.parametrize("k", [1e9, 1e200, 1e-200, 1e308])
    def test_extreme_twist_finishes_or_exits_2(self, tmp_path, capsys, k):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "twist", "params": {"a": 1, "k": k}, "lattices": [33]}))
        code = main(["qc-check", "--scenario", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("twist", {"a": 1e308, "k": 1.0}),
            ("twist", {"a": 1.0, "k": 1e308}),
            ("scaling", {"a": 1e308, "b": 1e308}),
            ("shear", {"a": 1e308, "amplitude": 0.1}),
            ("twist", {"a": 1e-300, "k": 1e300}),
            ("scaling", {"a": 1e308, "b": 1e-300}),
        ],
        ids=["twist_a", "twist_k", "scaling", "shear", "twist_tiny_a", "scaling_ratio"],
    )
    def test_overflowing_map_exits_2_with_one_line(self, tmp_path, kind, params):
        # In a child process, so that a warning numpy prints reaches stderr.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": kind, "params": params, "lattices": [33]}))
        argv = ["qc-check", "--scenario", str(path), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "graftlab.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(graftlab.__file__).resolve().parents[1])),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "sense-preserving" not in proc.stderr
        assert "overflow float64" in proc.stderr and "not consistent" not in proc.stderr

    def test_mu_rounding_to_one_is_named(self, tmp_path, capsys):
        specs = [
            {"kind": "twist", "params": {"a": 1, "k": 1e9}},  # sup |mu| rounds to 1.0
            # Affine and sense-preserving; its sup |mu| rounds to one ulp above 1.
            {"kind": "scaling", "params": {"a": 1e300, "b": 1e-8}},
        ]
        for spec in specs:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(dict(spec, lattices=[33])))
            assert main(["qc-check", "--scenario", str(path), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "cannot separate |mu| from 1 in float64" in err
            assert "not a sense-preserving" not in err

    def test_unknown_kind_exit_2(self, tmp_path):
        spec = tmp_path / "unknown.json"
        spec.write_text(json.dumps({"kind": "mystery"}))
        assert (
            main(["qc-check", "--scenario", str(spec), "--out", str(tmp_path)]) == 2
        )


def reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


class TestStrictJson:
    """Every JSON report loads under a parse_constant that rejects NaN and Infinity."""

    def test_reports_hold_no_bare_constants(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
        # At amplitude 0.46, B = 1 / 0.54 < 2 but the closed-form bound on K is infinite.
        shear = tmp_path / "shear.json"
        shear.write_text(json.dumps({"kind": "shear", "params": {"a": 2.0, "amplitude": 0.46}}))
        runs = [
            (["verify", "all", "--lattice", "33"], "verify_all.json"),
            (["qc-check", "--scenario", str(shear), "--lattice", "33"], "qc_report.json"),
        ]
        for path in sorted(SCENARIOS.glob("*.json")):
            if "kind" in json.loads(path.read_text()):
                runs.append((["qc-check", "--scenario", str(path)], "qc_report.json"))
            else:
                runs.append((["simulate", "--scenario", str(path)], "report.json"))
        docs = []
        for i, (argv, report) in enumerate(runs):
            out = tmp_path / f"out{i}"
            assert main([*argv, "--out", str(out)]) == 0
            docs.append(json.loads((out / report).read_text(), parse_constant=reject_constant))
        assert docs[1]["series"][0]["analytic_k"] is None
        assert docs[1]["series"][0]["bound_margin"] is None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    """SHA-256 digests of report files, frozen before the Wirtinger kernel was
    rewritten; any change to the kernel's floating-point operations, the map
    sampling, the closed forms or the serializers shows up here as a digest
    mismatch.

    The qc_report.json digests are those of the earlier reports with their
    "kernel" key removed.  The twist qc_report.json and verify_all.json
    digests were retaken when the twist dilatation moved to its
    cancellation-free form and the hypgeom suite began calling the library,
    which changed a few last digits (analytic_k, relative_error, two margins
    and the untwist effective constants).  verify_all.json was retaken again
    when the collar sector angle stopped being computed as pi/2 - phi, which
    changed the sector_angles_sum_half_pi margin, and once more when the
    qcmaps suite gained comparison_budget_eighth_power_law; every other
    line stayed the same.  The four report.json digests and verify_all.json
    were retaken when Constants.K3 was removed; the dropped "K3" line of
    the constants echo is their only change.  The three report.json
    digests and verify_all.json were retaken again when the accumulation
    mode was folded into cauchy: report.json lost its "s_values" echo and
    its "kappa_is_placeholder" line, which moved to verify_all.json (the
    one report whose run reads kappa), and the cauchy report gained its
    "reparametrization" entry.  No other line of any of them changed, and
    every trajectory.csv and ratios.csv digest stayed as it was.
    verify_all.json was retaken once more when verify began drawing its
    random inputs from random.Random(seed) in place of numpy's generator:
    the margins of modulus_scale_invariance and modulus_additive_on_splits
    are its only changed lines (log_coords_roundtrip, whose inputs are
    drawn too, kept its margin).  verify_all.json was retaken again when
    nine checks that restated one formula gave way to three that compare
    two functions (37 checks became 31, and 352 random draws 256): besides
    the entries removed and added, the margin of log_coords_roundtrip, whose
    draws now come earlier in the stream, is its only changed line.
    verify_all.json was retaken once more when the four checks that restated
    one formula's own algebra (modulus_additive_on_splits,
    log_coords_roundtrip, sector_angles_sum_half_pi and
    convergence_threshold_linear_in_l) were deleted: their four entries are
    its only removed lines, and no line changed.

    The lattice-257 digests (66 049 rows, more than one block of
    report.BLOCK_ROWS) were taken at the parent of the change that made
    csv_lines format each distinct float once per block, before it.
    """

    SHEAR_SPEC = {"kind": "shear", "params": {"a": 2.0, "amplitude": 0.3}, "lattices": [33, 65]}

    QC_TWIST = {
        "mu_33.csv": "db85b6c259a88dd439a263a250cf70bc97cf3a599383f45cff1385407340763a",
        "mu_65.csv": "7dbe9a8376ac775bb06d804a0bf0794ed66ce0342916158b2c24451f7fce80b1",
        "mu_129.csv": "1987edf511d89d697164a2e015dd4acf5e2f48d495000e43e9cdff892060883c",
        "qc_report.json": "5b456979676ab7103de14c10f517832f82b669dcbb038d02ff4de9393b0e6877",
    }
    QC_SHEAR = {
        "mu_33.csv": "11b0a0ecbc12526a28371aba52f35aeea9a5603a20c08ba0bb485474be189814",
        "mu_65.csv": "42da1af35b8ba0d24c800cd4015527147e5626f61f9b549b2e4fa7ee34ec8245",
        "qc_report.json": "01725107be4e5b9ddddb6593e1a9cc30ae1cf0dc324a8092e84003bac8d65ce8",
    }
    QC_257 = {
        "twist": {
            "mu_257.csv": "b2ecdd3e3a9199315fdee530668843918e8ea01cde3bd911cbd5811944a1d652",
            "qc_report.json": "6f43ce62cfde4ad51a111570a1b923dd0379b3177245c167f387335dd0987331",
        },
        "shear": {
            "mu_257.csv": "7921a225cfe7fb9c7a22671d268cdd108ad662488ecca05c7d530b5f60a91d32",
            "qc_report.json": "cb3a034e21a37d487b6e8657db8c7249e4a90b19fb163d70a6eb9e9909b58b2b",
        },
    }
    VERIFY_ALL = "ad4d50d299bfe59956f6c591dd719d00b7a5a5abd48ba1347854fd78e3dcc23d"

    @pytest.fixture(autouse=True)
    def _default_constants(self, monkeypatch):
        monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)

    def test_qc_twist_refinement_tables(self, tmp_path):
        scenario = SCENARIOS / "qc_twist_refinement.json"
        assert main(["qc-check", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        assert {name: sha256(tmp_path / name) for name in self.QC_TWIST} == self.QC_TWIST

    def test_qc_shear_tables(self, tmp_path):
        spec = tmp_path / "shear.json"
        spec.write_text(json.dumps(self.SHEAR_SPEC))
        out = tmp_path / "out"
        assert main(["qc-check", "--scenario", str(spec), "--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in self.QC_SHEAR} == self.QC_SHEAR

    @pytest.mark.parametrize("kind", sorted(QC_257))
    def test_qc_tables_span_several_blocks(self, tmp_path, kind):
        shipped = {
            "twist": json.loads((SCENARIOS / "qc_twist_refinement.json").read_text()),
            "shear": self.SHEAR_SPEC,
        }[kind]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(shipped, lattices=[257])))
        out = tmp_path / "out"
        assert main(["qc-check", "--scenario", str(spec), "--out", str(out)]) == 0
        expected = self.QC_257[kind]
        assert {name: sha256(out / name) for name in expected} == expected

    SIMULATE = {
        "iterate_two_pi": {
            "trajectory.csv": "4b4ffb672ae26b2b8c41ef7a02bfced7bbbd8410824dd32e59387b91062676af",
            "report.json": "8caa3f9037c492c91be1b00fe8dc3f0bf77c4f215c684dda270378687a9b305a",
        },
        "counterexample": {
            "trajectory.csv": "7d5ff37ebbc5cd04a0c76454171c2fb2d7a9acdec8e43587b6d667cbeee6cdf8",
            "report.json": "ea73a8e8879ecbd54abcb8fcf285ad01b273f5cd1a4337c5d1b4dd0c3e8a5c9e",
            "ratios.csv": "389fefa2a4a3651779745846ccdf6d4363bdd9ae589cc724253f2372dae1db7d",
        },
        "cauchy_endpoints": {
            "trajectory.csv": "c450da3238aa92c94007f05ffd9a2208caa8711664467418b243817f58fee117",
            "report.json": "9218cb5f717a8a25349b7aac6a0e59e199620dd0d09eb65dd9e5b4c491e22da2",
        },
    }

    # trajectory.csv digests taken before the table moved to columns: ray
    # mode, whose decay_factor is relative to step 0 and not to the step
    # before, and curve ids outside ASCII, which are written as UTF-8.
    TRAJECTORIES = {
        "ray": (
            {
                "curves": [{"id": "g", "role": "support"}, {"id": "d", "role": "disjoint"}],
                "lengths": {"g": [0.08, 0.1], "d": [0.05, 0.05]},
                "lamination": {"g": 2 * math.pi},
                "mode": "ray",
                "s_values": [0.5, 1.0, 2.0],
            },
            "37ae5c7fd13746e00603dc03c308aa0549de9489a044b9e9260d45d86e307ba7",
        ),
        "non_ascii_ids": (
            {
                "curves": [
                    {"id": "γ₁", "role": "support"},
                    {"id": "δ", "role": "disjoint"},
                    {"id": "a b", "role": "support"},
                    {"id": "Z", "role": "disjoint"},
                ],
                "lengths": {
                    "γ₁": [0.05, 0.06], "δ": [0.02, 0.03], "a b": [0.01, 0.011], "Z": [0.07, 0.07]
                },
                "lamination": {"γ₁": 3.0, "a b": 1.0},
                "mode": "iterate",
                "steps": 4,
            },
            "ac47c9ec0814e279d9cbcaf1a8369788b748b439824f4f0150ee53f97151ae9f",
        ),
    }

    def test_every_shipped_scenario_has_goldens(self):
        assert set(self.SIMULATE) == shipped("simulate")

    @pytest.mark.parametrize("name", sorted(SIMULATE))
    def test_simulate_shipped_scenarios(self, tmp_path, monkeypatch, name):
        # report.json echoes the scenario path, so run from a copy by relative name.
        (tmp_path / f"{name}.json").write_bytes((SCENARIOS / f"{name}.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", f"{name}.json", "--out", "out"]) == 0
        expected = self.SIMULATE[name]
        assert {f: sha256(tmp_path / "out" / f) for f in expected} == expected

    @pytest.mark.parametrize("name", sorted(TRAJECTORIES))
    def test_simulate_trajectory(self, tmp_path, name):
        scenario, digest = self.TRAJECTORIES[name]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sha256(tmp_path / "out" / "trajectory.csv") == digest

    def test_verify_all_report(self, tmp_path):
        code = main(["verify", "all", "--lattice", "65", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert sha256(tmp_path / "verify_all.json") == self.VERIFY_ALL


class TestHashSeed:
    """Runs do not depend on the string hash seed: the curve an error names
    and the files a run writes are the same under every PYTHONHASHSEED."""

    @staticmethod
    def simulate(tmp_path, scenario: dict, seed: int) -> subprocess.CompletedProcess:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = str(Path(graftlab.__file__).resolve().parents[1])
        env.pop("GRAFTLAB_CONSTANTS", None)
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / f"out{seed}")]
        return subprocess.run(
            [sys.executable, "-m", "graftlab.cli", *argv], env=env, capture_output=True, text=True
        )

    def test_same_error_and_same_files_under_two_seeds(self, tmp_path):
        too_long = dict(
            SCENARIO,
            curves=[{"id": c, "role": "support"} for c in "abc"],
            lengths={"a": [0.2, 0.2], "b": [0.3, 0.3], "c": [0.4, 0.4]},
            lamination={"a": 1.0, "b": 1.0, "c": 1.0},
        )
        runs = [self.simulate(tmp_path, too_long, seed) for seed in (1, 2)]
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stderr.startswith("error: curve 'a' has upper length bound 0.2")

        scenario, _ = TestGoldenOutputs.TRAJECTORIES["non_ascii_ids"]
        for seed in (1, 2):
            assert self.simulate(tmp_path, scenario, seed).returncode == 0
        for name in ("trajectory.csv", "report.json"):
            assert sha256(tmp_path / "out1" / name) == sha256(tmp_path / "out2" / name)
