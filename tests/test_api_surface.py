"""Every function and method of graftlab is reached from the command line.

The CLI runs in-process under ``sys.setprofile``, and its threads under
``threading.setprofile``, over a set of runs that covers its surface:
``verify all``, every shipped scenario, a ray-mode scenario with a
disjoint curve, ``qc-check`` for each map kind, one malformed scenario and
``verify all`` again under constants whose epsilon fails the stated
preconditions of some checks.  Every ``def`` that an ``ast`` walk finds in the
package must be entered at least once.  A function that no command
reaches is either dead or serves only the tests: give it a CLI caller
(a ``verify`` check, say) or delete it.
"""

import ast
import json
import math
import sys
import threading
from pathlib import Path

import graftlab
from graftlab.cli import main

PACKAGE = Path(graftlab.__file__).resolve().parent
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

RAY_WITH_DISJOINT = {
    "curves": [{"id": "g", "role": "support"}, {"id": "d", "role": "disjoint"}],
    "lengths": {"g": [0.08, 0.1], "d": [0.05, 0.05]},
    "lamination": {"g": 2 * math.pi},
    "mode": "ray",
    "s_values": [0.5, 1.0],
}
MAP_SPECS = [
    {"kind": "twist", "params": {"a": 1.0, "k": 2.0}},
    {"kind": "scaling", "params": {"a": 2.0, "b": 1.0}},
    {"kind": "shear", "params": {"a": 2.0, "amplitude": 0.3}},
]


def _defs(node, prefix=""):
    """(qualified name, node) of every function or method below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def defined_functions() -> dict[tuple[str, int], str]:
    """Map (file, first line) -> name; a decorated def starts at its first decorator,
    as its code object's ``co_firstlineno`` does."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _defs(tree):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[(str(path), first)] = f"{path.stem}.{name}"
    return out


def cli_runs(tmp_path: Path) -> list[list[str]]:
    def written(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    runs = [["verify", "all", "--lattice", "33"]]
    for path in sorted(SCENARIOS.glob("*.json")):
        command = "qc-check" if "kind" in json.loads(path.read_text()) else "simulate"
        runs.append([command, "--scenario", str(path)])
    runs.append(["simulate", "--scenario", written("ray.json", RAY_WITH_DISJOINT)])
    for spec in MAP_SPECS:
        path = written(f"{spec['kind']}.json", spec)
        runs.append(["qc-check", "--scenario", path, "--lattice", "33"])
    malformed = {"curves": [], "lengths": {}, "lamination": {}, "mode": "iterate"}
    runs.append(["simulate", "--scenario", written("malformed.json", malformed)])
    return [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]


def test_every_function_is_reached_from_the_cli(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAFTLAB_CONSTANTS", raising=False)
    runs = cli_runs(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    unmet = tmp_path / "constants.json"
    unmet.write_text(json.dumps({"epsilon": 0.05}))  # below the verify grids' l = 0.1

    previous, previous_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)  # the CSV writer's worker threads
    try:
        codes = [main(argv) for argv in runs]
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(unmet))
        codes.append(main(["verify", "all", "--lattice", "33", "--out", str(tmp_path / "unmet")]))
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
    assert codes == [0] * (len(runs) - 1) + [2, 1]

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    missed = sorted(name for key, name in defined_functions().items() if key not in reached)
    assert not missed, f"functions no CLI run enters: {', '.join(missed)}"


def test_the_walk_finds_nested_and_decorated_functions():
    names = set(defined_functions().values())
    assert {"cli.main", "qcmaps.GridMap.dt", "qcmaps._lift.lifted"} <= names
