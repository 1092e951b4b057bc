"""A traced CLI run, as ``perfbench/run.py --trace 1`` makes it, still works.

``perfbench/spans.py`` wraps graftlab functions by name and reads what
they return: the trajectory's ``steps``, an estimate's lattice and a built
map's ``samples``.  A change to those names breaks traced runs.  These
tests make such a break fail here, not only in the benchmark.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import graftlab
from graftlab.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_runs_count_curve_steps(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
    support, disjoint, steps = ["s0", "s1", "s2"], ["d0", "d1"], 7
    scenario = {
        "curves": [{"id": c, "role": "support"} for c in support]
        + [{"id": c, "role": "disjoint"} for c in disjoint],
        "lengths": {c: [0.05, 0.06] for c in support + disjoint},
        "lamination": {c: math.pi * (i + 1) for i, c in enumerate(support)},
        "mode": "iterate",
        "steps": steps,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))

    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    original = graftlab.grafting.graft_length_bounds
    tracer.install()
    try:
        simulate = tracer.run(
            "cli", main, ["simulate", "--scenario", str(path), "--out", str(tmp_path / "sim")]
        )
        simulated = spans.summarise(tracer)
        verify = tracer.run(
            "cli", main, ["verify", "dynamics", "--lattice", "33", "--out", str(tmp_path / "ver")]
        )
        verified = spans.summarise(tracer)
    finally:
        tracer.uninstall()
    assert graftlab.grafting.graft_length_bounds is original
    assert (simulate, verify) == (0, 0)
    assert simulated["dynamics.curve_steps"] == steps * (len(support) + len(disjoint))
    assert simulated["grafting.calls"] == 0  # a trajectory steps the array rule itself
    assert simulated["report.rows"] == (steps + 1) * (len(support) + len(disjoint))
    # suite_dynamics iterates one curve 20 steps, and two curves 14 steps twice.
    assert verified["dynamics.curve_steps"] == 20 * 1 + 2 * 14 * 2


def test_traced_qc_runs_count_lattice_points(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
    spec = tmp_path / "shear.json"
    spec.write_text(json.dumps({"kind": "shear", "params": {"a": 2.0, "amplitude": 0.3}}))
    n = 33

    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        qc = tracer.run(
            "cli",
            main,
            ["qc-check", "--scenario", str(spec), "--lattice", str(n), "--out", str(tmp_path / "qc")],
        )
        checked = spans.summarise(tracer)
        verify = tracer.run(
            "cli", main, ["verify", "qcmaps", "--lattice", str(n), "--out", str(tmp_path / "ver")]
        )
        verified = spans.summarise(tracer)
    finally:
        tracer.uninstall()
    assert (qc, verify) == (0, 0)
    assert (checked["beltrami.calls"], checked["beltrami.points"]) == (1, n * n)
    assert checked["qcmaps.points"] == n * n
    # suite_qcmaps estimates 3 twists, 4 scalings, 3 shears and one composed map;
    # it builds those and the composed map's two factors, each sampled once by spans.py.
    assert (verified["beltrami.calls"], verified["beltrami.points"]) == (11, 11 * n * n)
    assert verified["qcmaps.points"] == 13 * n * n
