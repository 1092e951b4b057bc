import hashlib
import json
import math
from pathlib import Path

import pytest

from graftlab.cli import main
from graftlab.errors import ScenarioError
from graftlab.scenario import load_scenario, resolve_constants, scenario_schema

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, **overrides):
    doc = {
        "name": "t",
        "curves": [{"id": "g", "role": "support"}],
        "lengths": {"g": [0.1, 0.1]},
        "lamination": {"g": 2 * math.pi},
        "mode": "iterate",
        "steps": 5,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestScenarioLoading:
    def test_schema_is_valid_json_schema(self):
        schema = scenario_schema()
        assert schema["type"] == "object"

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

    def test_ray_mode(self, tmp_path):
        path = write_scenario(
            tmp_path, mode="ray", steps=0, s_values=[0.5, 1.0, 2.0]
        )
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

    @pytest.mark.parametrize("k", [1e9, 1e200, 1e-200])
    def test_extreme_twist_finishes_or_exits_2(self, tmp_path, capsys, k):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "twist", "params": {"a": 1, "k": k}, "lattices": [33]}))
        code = main(["qc-check", "--scenario", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)

    def test_unknown_kind_exit_2(self, tmp_path):
        spec = tmp_path / "unknown.json"
        spec.write_text(json.dumps({"kind": "mystery"}))
        assert (
            main(["qc-check", "--scenario", str(spec), "--out", str(tmp_path)]) == 2
        )


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
    and the untwist effective constants).
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
    VERIFY_ALL = "d0dd38808d5a44e34d9b1694a977f22b861d9e53ce9b2d577d85b1dc20712417"

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

    SIMULATE = {
        "iterate_two_pi": {
            "trajectory.csv": "4b4ffb672ae26b2b8c41ef7a02bfced7bbbd8410824dd32e59387b91062676af",
            "report.json": "f117ba384dee4d500c61375de895e0d2690978ecfe08d931cce7b9129898da27",
        },
        "counterexample": {
            "trajectory.csv": "7d5ff37ebbc5cd04a0c76454171c2fb2d7a9acdec8e43587b6d667cbeee6cdf8",
            "report.json": "57ebb28de38f64672f270c32676d81e717d66ed8b7c8d31337ac59465dcddfd9",
            "ratios.csv": "389fefa2a4a3651779745846ccdf6d4363bdd9ae589cc724253f2372dae1db7d",
        },
        "cauchy_endpoints": {
            "trajectory.csv": "c450da3238aa92c94007f05ffd9a2208caa8711664467418b243817f58fee117",
            "report.json": "1cfba3a6ea9cc84059e2d67335f272bff95d75091180a9c1fad86319e4fc2311",
        },
        "accumulation": {
            "trajectory.csv": "4b4ffb672ae26b2b8c41ef7a02bfced7bbbd8410824dd32e59387b91062676af",
            "report.json": "4930d8c6a193a1ad54e13693749a5d9ef1c6ce1877ed37fdf6034c7cc4d7618e",
        },
    }

    @pytest.mark.parametrize("name", sorted(SIMULATE))
    def test_simulate_shipped_scenarios(self, tmp_path, monkeypatch, name):
        # report.json echoes the scenario path, so run from a copy by relative name.
        (tmp_path / f"{name}.json").write_bytes((SCENARIOS / f"{name}.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", f"{name}.json", "--out", "out"]) == 0
        expected = self.SIMULATE[name]
        assert {f: sha256(tmp_path / "out" / f) for f in expected} == expected

    def test_verify_all_report(self, tmp_path):
        code = main(["verify", "all", "--lattice", "65", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert sha256(tmp_path / "verify_all.json") == self.VERIFY_ALL
