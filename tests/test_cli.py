import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import graftlab
from graftlab.beltrami import MAX_LATTICE, MIN_LATTICE
from graftlab.cli import main
from graftlab.errors import ScenarioError
from graftlab.grafting import graft_factors
from graftlab.scenario import MAX_STEPS, load_map_spec, load_scenario, resolve_constants

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
        assert all(is_number(c) and c > 0 for c in scenario.constants.as_dict().values())
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


class TestScenarioLoading:
    def test_load_shipped_scenarios(self):
        for name in ("iterate_two_pi", "counterexample", "cauchy_endpoints", "accumulation"):
            scenario = load_scenario(SCENARIOS / f"{name}.json")
            assert scenario.steps >= 1

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
        "dynamics.trajectory_lower_chain_positive_and_product",
        "dynamics.cauchy_consecutive_ratio_exact",
        "dynamics.cauchy_tails_match_closed_form",
        "dynamics.tube_radius_is_sum_of_terms",
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
        code = main(["verify", "hypgeom", "--out", str(tmp_path), "--tolerance", "oops"])
        assert code == 2

    @pytest.mark.parametrize(
        "override",
        ["bogus=1", "h_width_identity=nan", "h_width_identity=inf", "h_width_identity=-1e-3"],
    )
    def test_bad_tolerance_name_or_value_is_exit_2(self, tmp_path, capsys, override):
        code = main(["verify", "hypgeom", "--out", str(tmp_path), "--tolerance", override])
        assert code == 2
        assert "h_width_identity" in capsys.readouterr().err
        assert not (tmp_path / "verify_hypgeom.json").exists()


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
        tables = set()
        for mode in ("iterate", "cauchy", "accumulation"):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(dict(scenario, mode=mode)))
            out = tmp_path / mode
            assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
            tables.add((out / "trajectory.csv").read_bytes())
            report = json.loads((out / "report.json").read_text())
            assert set(report["final_lengths"]) == {"d", "g"}
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

    def test_mu_rounding_to_one_is_named(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        spec = {"kind": "twist", "params": {"a": 1, "k": 1e9}, "lattices": [33]}
        path.write_text(json.dumps(spec))
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
    the constants echo is their only change.

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
    VERIFY_ALL = "8ab4d8ce15466ebfcb6558dbb966aa8c4a657dce929c77f716c441123d8a13ac"

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
            "report.json": "7f0f3d8f314c1ac04402cb1082d63936dd719b89fd9340d80a8050cc48d5b79a",
        },
        "counterexample": {
            "trajectory.csv": "7d5ff37ebbc5cd04a0c76454171c2fb2d7a9acdec8e43587b6d667cbeee6cdf8",
            "report.json": "99a5345dcf6309e3bb4ab57379d68c06a2df22bea01d62f9e882b5e2c2e9ccd1",
            "ratios.csv": "389fefa2a4a3651779745846ccdf6d4363bdd9ae589cc724253f2372dae1db7d",
        },
        "cauchy_endpoints": {
            "trajectory.csv": "c450da3238aa92c94007f05ffd9a2208caa8711664467418b243817f58fee117",
            "report.json": "082e5d9a9c8c4943e12e7312638b1e65fb1bba4dac565059e1a1911cc7f375f0",
        },
        "accumulation": {
            "trajectory.csv": "4b4ffb672ae26b2b8c41ef7a02bfced7bbbd8410824dd32e59387b91062676af",
            "report.json": "24fa3605a83b3a59b4f377e09fc95b9458ab0caad18dbdefd199c4429a994d54",
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
