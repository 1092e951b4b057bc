"""Workload definitions: seeded input generation and output checks.

Each workload has a fixed size; the seed chooses only its parameters.
The program under test sees nothing but the files written here and the
command line built here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

QC_LATTICES = [129, 257, 513, 1025]
VERIFY_LATTICE = 1025
SIM_SUPPORT = 64
SIM_DISJOINT = 64
SIM_STEPS = 300
SIM_EPSILON = 0.1


# Work unit of each workload; why each was chosen is in BENCHMARK.json.
WORK_UNITS = {
    "qc_twist": "lattice points",
    "qc_shear": "lattice points",
    "verify_1025": "checks",
    "simulate_multicurve": "curve-steps",
}


@dataclass
class Inputs:
    """Generated inputs of one workload and seed."""

    argv_for: Callable[[Path], list[str]]  # output directory -> graftlab CLI arguments
    params: dict
    work: int                              # work units of one invocation
    expect: dict                           # what the output check needs


def generate(name: str, seed: int, in_dir: Path) -> Inputs:
    """Write the inputs of workload ``name`` for ``seed`` into ``in_dir``."""
    rng = random.Random(f"{name}:{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    if name in ("qc_twist", "qc_shear"):
        if name == "qc_twist":
            params = {"a": rng.uniform(0.5, 2.0), "k": rng.uniform(0.5, 4.0)}
            spec = {"kind": "twist", "params": params, "lattices": QC_LATTICES}
        else:
            params = {"a": rng.uniform(1.5, 3.0), "amplitude": rng.uniform(0.1, 0.4)}
            spec = {"kind": "shear", "params": params, "lattices": QC_LATTICES}
        spec_path = in_dir / "map_spec.json"
        spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        return Inputs(
            argv_for=lambda out: ["qc-check", "--scenario", str(spec_path), "--out", str(out)],
            params=spec,
            work=sum(n * n for n in QC_LATTICES),
            expect={"kind": spec["kind"], "lattices": QC_LATTICES},
        )
    if name == "verify_1025":
        cli_seed = rng.randrange(2**31)
        return Inputs(
            argv_for=lambda out: [
                "verify", "all", "--lattice", str(VERIFY_LATTICE),
                "--seed", str(cli_seed), "--out", str(out),
            ],
            params={"lattice": VERIFY_LATTICE, "seed": cli_seed},
            work=0,  # the number of checks, set from the first output
            expect={},
        )
    if name == "simulate_multicurve":
        scenario = _multicurve_scenario(rng)
        path = in_dir / "scenario.json"
        path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
        return Inputs(
            argv_for=lambda out: ["simulate", "--scenario", str(path), "--out", str(out)],
            params={"support": SIM_SUPPORT, "disjoint": SIM_DISJOINT, "steps": SIM_STEPS},
            work=(SIM_SUPPORT + SIM_DISJOINT) * SIM_STEPS,
            expect={"scenario": scenario},
        )
    raise KeyError(name)


def _multicurve_scenario(rng: random.Random) -> dict:
    curves, lengths, lamination = [], {}, {}
    for role, prefix, count in (("support", "s", SIM_SUPPORT), ("disjoint", "d", SIM_DISJOINT)):
        for i in range(count):
            cid = f"{prefix}{i:02d}"
            lo = rng.uniform(0.01, 0.09)
            # hi = lo * [1, 1.1] stays below epsilon = 0.1, so every curve is short.
            lengths[cid] = [lo, lo * rng.uniform(1.0, 1.1)]
            curves.append({"id": cid, "role": role})
            if role == "support":
                lamination[cid] = rng.uniform(math.pi / 2, 2 * math.pi)
    return {
        "name": "bench-multicurve",
        "curves": curves,
        "lengths": lengths,
        "lamination": lamination,
        "mode": "iterate",
        "steps": SIM_STEPS,
        "epsilon": SIM_EPSILON,
    }


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file, by file name."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = h.hexdigest()
    return out


def check(name: str, inputs: Inputs, out_dir: Path) -> tuple[str | None, int]:
    """Check one invocation's outputs.

    Returns (error message or None, work units done).
    """
    try:
        if name in ("qc_twist", "qc_shear"):
            return _check_qc(inputs, out_dir), inputs.work
        if name == "verify_1025":
            return _check_verify(out_dir)
        return _check_simulate(inputs, out_dir), inputs.work
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}", 0


def _check_qc(inputs: Inputs, out_dir: Path) -> str | None:
    report = json.loads((out_dir / "qc_report.json").read_text(encoding="utf-8"))
    if [s["lattice"] for s in report["series"]] != inputs.expect["lattices"]:
        return "qc_report.json series does not match the lattices asked for"
    for entry in report["series"]:
        if inputs.expect["kind"] == "twist":
            if not entry["relative_error"] <= 1e-6:
                return f"lattice {entry['lattice']}: relative_error {entry['relative_error']} > 1e-6"
        elif not entry["bound_margin"] >= 0.0:
            return f"lattice {entry['lattice']}: bound_margin {entry['bound_margin']} < 0"
    for n in inputs.expect["lattices"]:
        lines = _count_lines(out_dir / f"mu_{n}.csv")
        if lines != n * n + 1:
            return f"mu_{n}.csv has {lines} lines, expected {n * n + 1}"
    return None


def _count_lines(path: Path) -> int:
    count = 0
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            count += block.count(b"\n")
    return count


def _check_verify(out_dir: Path) -> tuple[str | None, int]:
    report = json.loads((out_dir / "verify_all.json").read_text(encoding="utf-8"))
    checks = len(report["checks"])
    if report["passed"] is not True:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return f"verify reported failures: {failed}", checks
    return None, checks


def _check_simulate(inputs: Inputs, out_dir: Path) -> str | None:
    scenario = inputs.expect["scenario"]
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    final = report["final_lengths"]
    for curve in scenario["curves"]:
        cid = curve["id"]
        hi0 = scenario["lengths"][cid][1]
        hi = final[cid][1]
        if curve["role"] == "support":
            t = scenario["lamination"][cid]
            want = (math.pi / (math.pi + t)) ** scenario["steps"]
            got = hi / hi0
            if not abs(got - want) <= 1e-12 * want:
                return f"support curve {cid}: hi ratio {got!r}, expected {want!r}"
        elif hi != hi0:
            return f"disjoint curve {cid}: hi changed from {hi0!r} to {hi!r}"
    rows = _count_lines(out_dir / "trajectory.csv") - 1
    expected_rows = (scenario["steps"] + 1) * len(scenario["curves"])
    if rows != expected_rows:
        return f"trajectory.csv has {rows} rows, expected {expected_rows}"
    return None


def abs_mu_distinct_share(out_dir: Path) -> tuple[int, int]:
    """(distinct |mu| strings, rows) over every mu_<n>.csv in ``out_dir``."""
    distinct = rows = 0
    for path in sorted(out_dir.glob("mu_*.csv")):
        values = set()
        with path.open("rb") as fh:
            next(fh)
            for line in fh:
                values.add(line[line.rindex(b",") + 1:])
                rows += 1
        distinct += len(values)
    return distinct, rows
