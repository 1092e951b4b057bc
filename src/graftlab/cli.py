"""Batch front end: verification suites, scenario simulation, map checks.

Exit codes: 0 = all checks passed / run completed; 1 = at least one check
failed; 2 = an input that breaks the contract checked in graftlab.scenario
(scenario file, map spec, --lattice, an --out that cannot be made a
directory, or a report file in it that cannot be opened), or a failed
precondition.
Report files are deterministic; timing is printed to the console only.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, dynamics
from .beltrami import beltrami_estimate, convergence_order
from .errors import GraftLabError, ScenarioError
from .qcmaps import DEFAULT_LATTICE, scaling_map, shearing_map, twist_map
from .report import write_csv, write_json
from .scenario import MapSpec, check_lattice, load_map_spec, load_scenario, resolve_constants
from .verify import check_tolerances, run_suite

__all__ = ["main"]


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ScenarioError(f"--tolerance expects NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ScenarioError(f"tolerance {name!r} has non-numeric value {value!r}") from exc
    return out


def _out_dir(path: str) -> Path:
    """The --out directory, made with its parents once the inputs are checked."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {path!r} cannot be made a directory: {exc.strerror}") from exc
    return out_dir


def _cmd_verify(args) -> int:
    check_lattice(args.lattice, "--lattice")
    overrides = _parse_tolerances(args.tolerance)
    tolerances = check_tolerances(overrides)
    if args.seed < 0:  # the report echoes the seed; no check draws from it
        raise ScenarioError(f"seed must be an integer >= 0, got {args.seed}")
    constants = resolve_constants()
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    results = run_suite(
        args.suite, lattice=args.lattice, tolerances=tolerances, constants=constants
    )
    elapsed = time.perf_counter() - started
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        margin = "" if r.margin is None else f"  margin={r.margin:.3e}"
        print(f"[{status}] {r.name}{margin}")
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed ({elapsed:.2f}s)"
    )
    write_json(
        out_dir / f"verify_{args.suite}.json",
        {
            "tool": "graftlab",
            "version": __version__,
            "suite": args.suite,
            "lattice": args.lattice,
            "seed": args.seed,
            "constants": asdict(constants),
            "kappa_is_placeholder": constants.kappa_is_placeholder,
            "tolerance_overrides": overrides,
            "checks": results,
            "passed": len(failed) == 0,
        },
    )
    return 0 if not failed else 1


def _steps(n: int) -> np.ndarray:
    """The CSV cells of the step numbers 0 .. n - 1."""
    return np.array([b"%d" % k for k in range(n)])


def _trajectory_columns(traj) -> list[np.ndarray]:
    """Columns step, curve, lo, hi and the realized upper factor, one row per
    step and curve, curves sorted within a step."""
    hi = traj.hi
    factor = np.ones_like(hi)
    factor[1:] = hi[1:] / (hi[:1] if traj.s_values else hi[:-1])
    step = np.repeat(_steps(len(hi)), len(traj.ids))
    curve = np.tile(np.array([cid.encode() for cid in traj.ids]), len(hi))
    return [step, curve, traj.lo.ravel(), hi.ravel(), factor.ravel()]


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = _out_dir(args.out)
    constants = scenario.constants

    report: dict = {
        "tool": "graftlab",
        "version": __version__,
        "scenario": {
            "name": scenario.name,
            "source": scenario.source,
            "mode": scenario.mode,
            "epsilon": scenario.state.epsilon,
            "lamination": dict(scenario.lamination.weights),
        },
        "constants": asdict(constants),
    }

    if scenario.mode == "ray":
        report["scenario"]["s_values"] = list(scenario.s_values)
        traj = dynamics.ray_grafting(scenario.state, scenario.lamination, scenario.s_values)
    else:
        report["scenario"]["steps"] = scenario.steps
        traj = dynamics.iterate_grafting(scenario.state, scenario.lamination, scenario.steps)
    if scenario.mode == "counterexample":
        block = dynamics.counterexample_analysis(traj)
        report["counterexample"] = {**block, "weights": dict(scenario.lamination.weights)}
        ratios = block["ratios"]
        write_csv(out_dir / "ratios.csv", ["step", "ratio"], _steps(len(ratios)), np.array(ratios))
    elif scenario.mode == "cauchy":
        cauchy = dynamics.endpoint_cauchy_analysis(traj, constants.C)
        support = sorted(scenario.lamination.support)
        report["cauchy"] = {
            **asdict(cauchy),
            "cusp_pairs": support,
            "boundary_count": 2 * len(support),
            "reparametrization": {
                cid: {"slope": (math.pi + t) / math.pi, "offset": t}
                for cid, t in scenario.lamination.items()
            },
        }

    report["final_lengths"] = {
        cid: [lo, hi] for cid, lo, hi in zip(traj.ids, traj.lo[-1].tolist(), traj.hi[-1].tolist())
    }
    write_csv(
        out_dir / "trajectory.csv",
        ["step", "curve", "lo", "hi", "decay_factor"],
        *_trajectory_columns(traj),
    )
    write_json(out_dir / "report.json", report)
    print(f"wrote {out_dir / 'trajectory.csv'} and {out_dir / 'report.json'}")
    return 0


def _build_map(spec: MapSpec, lattice: int):
    p = {name: float(value) for name, value in spec.params.items()}
    if spec.kind == "twist":
        return twist_map(p["a"], p["k"], n_t=lattice, n_x=lattice)
    if spec.kind == "scaling":
        return scaling_map(p["a"], p["b"], n_t=lattice, n_x=lattice)
    return shearing_map(p["a"], p.get("amplitude", 0.1), n_t=lattice, n_x=lattice)


def _cmd_qc_check(args) -> int:
    lattice = None if args.lattice is None else check_lattice(args.lattice, "--lattice")
    spec = load_map_spec(args.scenario, lattice)
    out_dir = _out_dir(args.out)
    series = []
    errors = []
    for n in spec.lattices:
        built = _build_map(spec, n)
        abs_mu = np.empty((n, n))
        est = beltrami_estimate(built.grid, out=abs_mu)
        analytic_k = built.analytic_k
        entry = {
            "lattice": n,
            "sup_k": est.sup_k,
            "sup_abs_mu": est.sup_abs_mu,
            "mu_spread": est.mu_spread,
            "analytic_k": built.analytic_k,
            "k_is_exact": built.k_is_exact,
        }
        if built.k_is_exact:
            err = abs(est.sup_k - built.analytic_k) / built.analytic_k
            entry["relative_error"] = err
            errors.append(err)
        else:
            entry["bound_margin"] = built.analytic_k - est.sup_k
        series.append(entry)
        write_csv(out_dir / f"mu_{n}.csv", ["t", "x", "abs_mu"], *built.grid.table(abs_mu))
        del built, abs_mu  # so the next, larger lattice is not sampled beside this one's arrays

    report = {
        "tool": "graftlab",
        "version": __version__,
        "map": {"kind": spec.kind, "params": spec.params},
        "lattices": spec.lattices,
        "series": series,
    }
    if len(errors) >= 2:
        orders = convergence_order(errors, analytic_k)
        report["observed_orders"] = orders  # an infinite order is written as null
        report["exact_at_resolution"] = all(o == math.inf for o in orders)
    write_json(out_dir / "qc_report.json", report)
    print(f"wrote {out_dir / 'qc_report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graftlab",
        description="Collar geometry, quasiconformal dilatation bounds and grafting dynamics",
    )
    parser.add_argument("--version", action="version", version=f"graftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument(
        "suite", choices=["hypgeom", "qcmaps", "grafting", "dynamics", "all"]
    )
    p_verify.add_argument("--lattice", type=int, default=DEFAULT_LATTICE)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default="out")
    p_verify.add_argument("--tolerance", action="append", default=[], metavar="NAME=VALUE")
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.set_defaults(func=_cmd_simulate)

    p_qc = sub.add_parser("qc-check", help="numerical dilatation check of a building-block map")
    p_qc.add_argument("--scenario", required=True, help="JSON map spec {kind, params, lattices}")
    p_qc.add_argument(
        "--lattice", type=int, help=f"lattice of a spec without lattices (default {DEFAULT_LATTICE})"
    )
    p_qc.add_argument("--out", default="out")
    p_qc.set_defaults(func=_cmd_qc_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
