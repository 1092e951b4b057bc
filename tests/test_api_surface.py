"""Every function and method of graftlab is reached from the command line.

The CLI runs in-process under ``sys.setprofile`` over a set of runs that
covers its surface: ``verify all``, every shipped scenario, a ray-mode
scenario with a disjoint curve, ``qc-check`` for each map kind, one
malformed scenario and ``verify all`` again under constants whose epsilon
fails the stated preconditions of some checks.  Every ``def`` that an ``ast`` walk finds in the
package must be entered at least once.  A function that no command
reaches is either dead or serves only the tests: give it a CLI caller
(a ``verify`` check, say) or delete it.

The same rule holds for parameters, statically: a parameter with a default
that no call in the package passes takes one value only, so it is a
constant, not a parameter.
"""

import ast
import json
import math
import sys
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

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
        monkeypatch.setenv("GRAFTLAB_CONSTANTS", str(unmet))
        codes.append(main(["verify", "all", "--lattice", "33", "--out", str(tmp_path / "unmet")]))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(runs) - 1) + [2, 1]

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    missed = sorted(name for key, name in defined_functions().items() if key not in reached)
    assert not missed, f"functions no CLI run enters: {', '.join(missed)}"


def test_the_walk_finds_nested_and_decorated_functions():
    names = set(defined_functions().values())
    assert {"cli.main", "qcmaps.GridMap.dt", "qcmaps._lift.lifted"} <= names


def _calls(tree, classes: set[str]) -> list[tuple[str | None, str, float, set[str], bool]]:
    """(class, callee name, positional count, keyword names, has a ** splat) of every call.

    The class is set for a call written ``Class.name(...)`` with a class of the
    package, and None otherwise.  A ``*`` splat counts as passing every position."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = getattr(getattr(func, "value", None), "id", None)
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        positional = math.inf if starred else len(node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        splat = any(k.arg is None for k in node.keywords)
        out.append((owner if owner in classes else None, name, positional, keywords, splat))
    return out


def _defaulted(node, method: bool) -> list[tuple[str, int | None]]:
    """(name, index among the arguments a caller writes) of each parameter with a default;
    the index is None for a keyword-only one.  A method's self or cls is not written."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    skip = 1 if method and not static else 0
    out = [
        (a.arg, i - skip)
        for i, a in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    ]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unpassed_parameters() -> list[str]:
    """``module.function(parameter)`` for each parameter with a default that no call
    in the package passes.  Calls resolve by function name, and a call
    ``Class.name(...)`` only to a method of that class."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    classes = {c.name for t in trees.values() for c in ast.walk(t) if isinstance(c, ast.ClassDef)}
    calls, params = [], []
    for module, tree in trees.items():
        calls += _calls(tree, classes)
        owner = {
            id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        }
        for name, node in _defs(tree):
            for param, index in _defaulted(node, id(node) in owner):
                params.append((f"{module}.{name}", owner.get(id(node)), node.name, param, index))
    missed = []
    for qualified, cls, short, param, index in params:
        if qualified == "cli.main":
            continue  # the entry point's argv is set by the interpreter, not by a call
        if not any(
            name == short
            and call_cls in (None, cls)
            and (splat or param in keywords or (index is not None and positional > index))
            for call_cls, name, positional, keywords, splat in calls
        ):
            missed.append(f"{qualified}({param})")
    return missed


def test_every_defaulted_parameter_is_passed_by_a_call():
    missed = unpassed_parameters()
    assert not missed, f"parameters with a default that no call passes: {', '.join(missed)}"


def test_the_parameter_walk_sees_methods_keywords_and_positions():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, x, y=1, *, z=2): pass\n"
        "    @staticmethod\n"
        "    def s(x=0): pass\n"
        "A().m(0, 1)\n"
        "A.s(z=3)\n"
    )
    cls = tree.body[0]
    assert _defaulted(cls.body[0], method=True) == [("y", 1), ("z", None)]
    assert _defaulted(cls.body[1], method=True) == [("x", 0)]
    assert (None, "m", 2, set(), False) in _calls(tree, {"A"})
    assert ("A", "s", 0, {"z"}, False) in _calls(tree, {"A"})
