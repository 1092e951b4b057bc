#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the graftlab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qc_twist --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

With ``--trace 0`` each workload runs as a closed loop with one client:
one ``python -m graftlab.cli`` child process at a time, the next started
when the previous has exited, until ``--seconds`` have passed.  It
reports the ``end_to_end`` metrics of BENCHMARK.json.  With ``--trace 1``
the same command runs in this process, alternating untraced and traced
invocations, and the ``per_layer`` metrics are reported from the spans
recorded by ``perfbench/spans.py``.

Every invocation gets a fresh, empty output directory, and its outputs
are checked and hashed outside the timed interval; a failed invocation is
counted, never retried or dropped.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every invocation passed its check, 1 when one
did not, and 2 when the program could not be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, summarise  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5


class SetupError(Exception):
    """The program under test cannot be found or imported."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_env() -> dict:
    """Environment of every child: graftlab from this checkout, bytecode cached.

    Children compile graftlab once and then load the cached bytecode, as
    an installed package does, whatever PYTHONDONTWRITEBYTECODE says here.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(env: dict) -> dict:
    """Import graftlab.cli once in a child (this also writes bytecode caches)."""
    code = (
        "import json, graftlab.cli, numpy, jsonschema, importlib.metadata as md; "
        "print(json.dumps({'graftlab': graftlab.cli.__file__, 'numpy': numpy.__version__, "
        "'jsonschema': md.version('jsonschema')}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import graftlab.cli from {SRC}: {proc.stderr.strip()[-400:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(info["graftlab"]).resolve() != (SRC / "graftlab" / "cli.py").resolve():
        raise SetupError(f"graftlab.cli resolved to {info['graftlab']}, not under {SRC}")
    return info


def measure_setup(env: dict) -> tuple[float, list[float]]:
    """Median wall time of a fresh ``python -c "import graftlab.cli"``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import graftlab.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, jsonschema and the graftlab package.

    ``graftlab`` is the cumulative time of the top-level graftlab imports
    minus the numpy and jsonschema imports nested in them.
    """
    cumulative: dict[str, float] = {}
    graftlab_total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, field = line[len("import time:"):].split("|")
        name = field.strip()
        seconds = int(cum) * 1e-6
        cumulative.setdefault(name, seconds)
        top_level = len(field) - len(field.lstrip()) == 1
        if top_level and name.split(".")[0] == "graftlab":
            graftlab_total += seconds
    numpy_s = cumulative.get("numpy", 0.0)
    jsonschema_s = cumulative.get("jsonschema", 0.0)
    return {
        "setup.numpy_s": numpy_s,
        "setup.jsonschema_s": jsonschema_s,
        "setup.graftlab_s": graftlab_total - numpy_s - jsonschema_s,
    }


def measure_importtime(env: dict) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import graftlab.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def filesystem_of(path: Path) -> str:
    proc = subprocess.run(
        ["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def spawn_and_wait(argv: list[str], env: dict, err_path: Path) -> tuple[float, int, float]:
    """Run one CLI child; return (wall seconds, exit code, peak RSS in MB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    full = [sys.executable, "-m", "graftlab.cli", *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, full, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


class Outcomes:
    """Per-invocation results of one run, with the byte-identity check."""

    def __init__(self, name: str, inputs: workloads.Inputs):
        self.name = name
        self.inputs = inputs
        self.walls: list[float] = []
        self.work = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def record(self, wall: float, out_dir: Path, error: str | None) -> None:
        """Check ``out_dir`` unless ``error`` is already known, and count the outcome."""
        if error is None:
            error, work = workloads.check(self.name, self.inputs, out_dir)
            if error is None:
                found = workloads.digests(out_dir)
                if self.reference is None:
                    self.reference = found
                elif found != self.reference:
                    error = "outputs are not byte-identical to the first invocation's"
            if error is None:
                self.work += work
        if error is not None:
            self.failures.append(f"invocation {len(self.walls)}: {error}")
        self.walls.append(wall)


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with min(10, n // 4) samples beyond it.

    Returns (value, percentile, samples beyond).  From 40 samples on this
    is the highest percentile with ten samples beyond it; shorter runs keep
    a quarter of the samples beyond, so the value is neither the median nor
    a single outlier.
    """
    ordered = sorted(walls)
    beyond = min(10, len(ordered) // 4)
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def run_cli_loop(name: str, seed: int, seconds: float, work_dir: Path) -> tuple[Outcomes, dict]:
    env = child_env()
    info = probe(env)
    setup_s, setup_samples = measure_setup(env)
    inputs = workloads.generate(name, seed, work_dir / "inputs")
    outcomes = Outcomes(name, inputs)
    rss: list[float] = []
    err_path = work_dir / "stderr.txt"
    deadline = time.perf_counter() + seconds
    while not outcomes.walls or time.perf_counter() < deadline:
        out_dir = work_dir / f"out{len(outcomes.walls)}"
        out_dir.mkdir()
        wall, code, peak = spawn_and_wait(inputs.argv_for(out_dir), env, err_path)
        error = None
        if code != 0:
            message = err_path.read_text(encoding="utf-8", errors="replace").strip()
            error = f"exit code {code}: {message[-300:]}"
        outcomes.record(wall, out_dir, error)
        rss.append(peak)
        shutil.rmtree(out_dir)
    walls = outcomes.walls
    tail_value, tail_pct, tail_beyond = tail(walls)
    metrics = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "work_per_s": outcomes.work / sum(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup_s,
    }
    details = {
        "versions": info,
        "samples": len(walls),
        "wall_tail": {"percentile": round(tail_pct, 2), "samples": len(walls),
                      "samples_beyond": tail_beyond},
        "walls_s": walls,
        "peak_rss_mb_all": rss,
        "setup_samples_s": setup_samples,
        "work_total": outcomes.work,
    }
    return outcomes, {"metrics": metrics, "details": details}


def import_graftlab_cli():
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("graftlab.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import graftlab.cli from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve() != (SRC / "graftlab" / "cli.py").resolve():
        raise SetupError(f"graftlab.cli resolved to {cli.__file__}, not under {SRC}")
    return cli


def run_traced(name: str, seed: int, seconds: float, work_dir: Path) -> tuple[Outcomes, dict]:
    """Alternate untraced and traced in-process invocations (ABBA order).

    The first invocation warms the process up (allocator, caches): its
    output is checked and counted like every other, its time is not used.
    After it, invocations 2k and 2k+1 are one untraced and one traced run
    next to each other; the tracing overhead is the median difference
    within these pairs, so a drift of the machine's speed cancels out.
    """
    env = child_env()
    info = probe(env)
    setup = measure_importtime(env)
    cli = import_graftlab_cli()
    inputs = workloads.generate(name, seed, work_dir / "inputs")
    outcomes = Outcomes(name, inputs)
    tracer = Tracer()
    timed: list[tuple[bool, float]] = []   # (traced?, wall) after the warm-up
    summaries: list[dict] = []
    distinct = None
    deadline = time.perf_counter() + seconds
    i = 0
    while len(timed) < 2 or time.perf_counter() < deadline:
        use_trace = i > 0 and (i - 1) % 4 in (1, 2)
        out_dir = work_dir / f"out{i}"
        out_dir.mkdir()
        gc.collect()
        error = None
        if use_trace:
            tracer.install()
        try:
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                start = time.perf_counter()
                try:
                    if use_trace:
                        code = tracer.run("cli", cli.main, inputs.argv_for(out_dir))
                    else:
                        code = cli.main(inputs.argv_for(out_dir))
                except Exception:  # a crash is a counted failure, not a benchmark error
                    code = None
                    error = traceback.format_exc(limit=3)
                wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if error is None and code != 0:
            error = f"exit code {code}"
        outcomes.record(wall, out_dir, error)
        if i > 0:
            timed.append((use_trace, wall))
        if use_trace:
            summary = summarise(tracer)
            summary["_wall_s"] = wall
            summaries.append(summary)
            if distinct is None:
                distinct = workloads.abs_mu_distinct_share(out_dir)
        shutil.rmtree(out_dir)
        i += 1

    traced = [wall for is_traced, wall in timed if is_traced]
    untraced = [wall for is_traced, wall in timed if not is_traced]

    def med(key):
        return statistics.median(s[key] for s in summaries)

    metrics = {key: med(key) for key in summaries[0] if not key.startswith("_")}
    io_s = [s["report.write_csv_s"] + s["report.write_json_s"] for s in summaries]
    metrics["report.mb_per_s"] = statistics.median(
        s["report.bytes_written"] / t / 1e6 for s, t in zip(summaries, io_s)
    )
    metrics["report.abs_mu_distinct_share"] = distinct[0] / distinct[1] if distinct[1] else 0.0
    metrics["beltrami.mpts_per_s"] = statistics.median(
        s["beltrami.points"] / s["beltrami.estimate_s"] / 1e6 if s["beltrami.calls"] else 0.0
        for s in summaries
    )
    metrics["beltrami.bytes_computed"] = 24 * metrics["beltrami.points"]
    metrics.update(setup)
    pairs = zip(timed[0::2], timed[1::2])
    metrics["trace.overhead_s"] = statistics.median(
        (a - b) if a_traced else (b - a) for (a_traced, a), (_, b) in pairs
    )
    metrics["trace.unattributed_s"] = statistics.median(
        s["_wall_s"] - s["_wall_in_spans_s"] for s in summaries
    )
    layers = {
        layer: statistics.median(s["_layers_s"].get(layer, 0.0) for s in summaries)
        for layer in sorted({k for s in summaries for k in s["_layers_s"]})
    }
    self_sum = sum(layers.values())
    details = {
        "versions": info,
        "samples": {"traced": len(traced), "untraced": len(untraced)},
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "layer_self_s": layers,
        "layer_share": {k: v / self_sum for k, v in layers.items()} if self_sum else {},
        "layer_self_sum_s": self_sum,
        "traced_wall_p50_s": statistics.median(traced),
        "abs_mu_table": {"distinct": distinct[0], "rows": distinct[1]},
        "beltrami.bytes_computed": "computed from array sizes: 16 B complex128 input "
                                   "+ 8 B float64 |mu| output per point",
        "wrapped_sites": tracer.sites,
    }
    return outcomes, {"metrics": metrics, "details": details}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 units: dict[str, str]) -> tuple[Outcomes, dict]:
    work_dir = work_root / name
    work_dir.mkdir(parents=True)
    try:
        runner = run_traced if trace else run_cli_loop
        outcomes, result = runner(name, seed, seconds, work_dir)
        missing = set(units) - set(result["metrics"])
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        result["details"].update({
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "inputs": outcomes.inputs.params,
            "output_digests_sha256": outcomes.reference,
            "filesystem": filesystem_of(work_dir),
            "environment": environment(),
            "work_unit": workloads.WORK_UNITS[name],
            "failures": outcomes.failures,
        })
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return outcomes, result


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client: this process runs one graftlab CLI child at a time",
        "machine": platform.machine(),
    }


def print_block(name: str, outcomes: Outcomes, result: dict, units: dict[str, str]) -> None:
    attempted = len(outcomes.walls)
    failed = len(outcomes.failures)
    print(f"== {name}: {attempted} invocations, {failed} failed")
    details = result["details"]
    for metric, unit in units.items():
        if metric == "work_per_s":
            unit = f"{unit} ({details['work_unit']}/s)"
        print(f"{metric:32s} {result['metrics'][metric]:.6g} {unit}")
    print(f"{'failed_ops':32s} {failed / attempted:.6g} fraction")
    if "wall_tail" in details:
        t = details["wall_tail"]
        print(f"  wall_tail_s is p{t['percentile']:g} of {t['samples']} samples, "
              f"{t['samples_beyond']} beyond it")
    if "layer_share" in details:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in details["layer_share"].items())
        print(f"  layer self-time shares: {shares}")
    for failure in outcomes.failures:
        print(f"  FAILED {failure}")
    print("details: " + json.dumps(details, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORK_UNITS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graftlab" / "cli.py").is_file():
        print(f"error: {SRC / 'graftlab' / 'cli.py'} not found; run from a graftlab checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads.WORK_UNITS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work" / f"run-{os.getpid()}"
    blocks = []
    try:
        for name in names:
            outcomes, result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), work_root, units
            )
            print_block(name, outcomes, result, units)
            blocks.append((name, outcomes, result))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    attempted = sum(len(o.walls) for _, o, _ in blocks)
    failed = sum(len(o.failures) for _, o, _ in blocks)
    prefix = (lambda n: "") if len(blocks) == 1 else (lambda n: f"{n}.")
    metrics = {
        f"{prefix(name)}{metric}": {"value": result["metrics"][metric], "unit": unit}
        for name, _, result in blocks
        for metric, unit in units.items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
