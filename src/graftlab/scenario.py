"""Scenario files and map specs: the one typed input contract.

A scenario declares curves with roles, initial length intervals, the
lamination weights, a run mode (one of MODES: ``iterate``, ``ray``,
``counterexample`` and ``cauchy``) and optional constant overrides.  A map
spec names a building-block map, its parameters and the lattices to
sample it on.  Constants resolve in three layers: built-in defaults, then
the JSON file named by the GRAFTLAB_CONSTANTS environment variable, then
the scenario's own ``constants`` block.

Every check on these inputs lives here and fails with a ScenarioError that
names the JSON path of the field (``lengths.g[0]``, ``params.k``,
``lattices[2]``).  Every number must be finite (Python's json reads NaN
and Infinity, which RFC 8259 section 6 forbids) and a bool is not a
number.  Lengths, weights, ``s_values``, ``epsilon``, constants and the map
parameters ``a``, ``k`` and ``b`` must be > 0, and lengths at least the
smallest normal float64, below which they have lost relative precision.
``steps`` and the number of ``s_values`` are at most MAX_STEPS, the
trajectory's (rows x curves) cells at most MAX_CELLS, each
``s_values`` entry times every lamination weight is a positive finite
float64, only mode ``ray`` reads ``s_values`` and every other mode reads
``steps`` (a field the mode does not read is an error), ``lattices`` is a
non-empty, strictly increasing list of values in [MIN_LATTICE, MAX_LATTICE], a
counterexample's two lamination weights differ, every
``support`` curve and no ``disjoint`` curve has a lamination weight, curve
ids hold no ",", '"' or control character (below U+0020, or U+007F),
since they are written into CSV cells as they are, and unknown keys are
errors.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .beltrami import MAX_LATTICE, MIN_LATTICE
from .config import DEFAULT_CONSTANTS, Constants
from .errors import ScenarioError
from .grafting import LengthInterval, LengthState, WeightedMulticurve
from .qcmaps import DEFAULT_LATTICE

__all__ = [
    "MAX_CELLS",
    "MAX_STEPS",
    "MapSpec",
    "Scenario",
    "check_lattice",
    "load_map_spec",
    "load_scenario",
    "resolve_constants",
]

MAX_STEPS = 100_000
# A trajectory cell costs about 90 B of RSS end to end, so this caps a run near 0.9 GB.
MAX_CELLS = 10_000_000
MODES = ("iterate", "ray", "counterexample", "cauchy")
# Required and optional parameters of each map kind.
MAP_PARAMS = {
    "twist": (("a", "k"), ()),
    "scaling": (("a", "b"), ()),
    "shear": (("a",), ("amplitude",)),
}
_CONSTANT_NAMES = tuple(f.name for f in fields(Constants))


def _key(where: str, key: str) -> str:
    """JSON path of ``key`` inside the object at path ``where``."""
    if not key.isidentifier():
        return f"{where}[{json.dumps(key)}]"
    return f"{where}.{key}" if where else key


def _fail(where: str, expected: str, value) -> ScenarioError:
    return ScenarioError(f"{where} must be {expected}, got {reprlib.repr(value)}")


def _object(value, where: str, required=(), optional=()) -> dict:
    """A JSON object holding every ``required`` key and no key outside
    ``required`` and ``optional``; ``optional=None`` admits any other key."""
    if not isinstance(value, dict):
        raise _fail(where or "the document", "a JSON object", value)
    if optional is not None:
        known = (*required, *optional)
        for key in value:
            if key not in known:
                raise ScenarioError(
                    f"unknown field {_key(where, key)}; expected one of {', '.join(known)}"
                )
    for key in required:
        if key not in value:
            raise ScenarioError(f"missing field {_key(where, key)}")
    return value


def _list(value, where: str, min_items: int = 0, max_items: int | None = None) -> list:
    if not isinstance(value, list):
        raise _fail(where, "a JSON list", value)
    if len(value) < min_items or (max_items is not None and len(value) > max_items):
        bounds = f"{min_items} to {max_items}" if max_items is not None else f"at least {min_items}"
        raise _fail(where, f"a list of {bounds} entries", value)
    return value


def _string(value, where: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(where, "a non-empty string", value)
    if choices is not None and value not in choices:
        raise _fail(where, f"one of {', '.join(choices)}", value)
    return value


def _number(value, where: str, positive: bool = True):
    """A finite JSON number, > 0 when ``positive``; returned as the file gave it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float64 range
            x = math.inf
        if math.isfinite(x) and (x > 0.0 or not positive):
            return value
    raise _fail(where, "a positive finite number" if positive else "a finite number", value)


def _length(value, where: str):
    if _number(value, where) < sys.float_info.min:
        raise _fail(where, f"at least the smallest normal float64 {sys.float_info.min!r}", value)
    return value


def _integer(value, where: str, low: int, high: int) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    raise _fail(where, f"an integer in [{low}, {high}]", value)


def check_lattice(value, where: str) -> int:
    """The one lattice rule: an integer in [MIN_LATTICE, MAX_LATTICE] per side."""
    return _integer(value, where, MIN_LATTICE, MAX_LATTICE)


def _constants(value, where: str) -> dict:
    block = _object(value, where, optional=_CONSTANT_NAMES)
    for name, v in block.items():
        _number(v, _key(where, name))
    return block


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ScenarioError(f"{what} {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    state: LengthState
    lamination: WeightedMulticurve
    steps: int
    s_values: tuple[float, ...]
    constants: Constants
    source: str = ""


@dataclass(frozen=True)
class MapSpec:
    """A checked qc-check map spec; ``params`` and ``lattices`` are as the file gave them."""

    kind: str
    params: dict
    lattices: list[int]


def resolve_constants(overrides: dict | None = None) -> Constants:
    """Defaults <- GRAFTLAB_CONSTANTS file <- explicit overrides."""
    values = asdict(DEFAULT_CONSTANTS)
    env_path = os.environ.get("GRAFTLAB_CONSTANTS")
    if env_path:
        values.update(_constants(_read_json(env_path, "constants file"), "GRAFTLAB_CONSTANTS"))
    if overrides:
        values.update(overrides)
    try:
        return Constants(**values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    """Parse and check a scenario file against the input contract."""
    path = Path(path)
    raw = _object(
        _read_json(path, "scenario"),
        "",
        ("curves", "lengths", "lamination", "mode"),
        ("name", "steps", "s_values", "epsilon", "constants"),
    )

    roles: dict[str, str] = {}
    for i, entry in enumerate(_list(raw["curves"], "curves", min_items=1)):
        where = f"curves[{i}]"
        entry = _object(entry, where, ("id", "role"))
        cid = _string(entry["id"], f"{where}.id")
        if any(c in ',"\x7f' or c < " " for c in cid):
            raise _fail(f"{where}.id", 'an id without ",", \'"\' or control characters', cid)
        if cid in roles:
            raise ScenarioError(f"duplicate curve id {cid!r}")
        roles[cid] = _string(entry["role"], f"{where}.role", ("support", "disjoint"))

    lengths: dict[str, LengthInterval] = {}
    for cid, pair in _object(raw["lengths"], "lengths", optional=None).items():
        if cid not in roles:
            raise ScenarioError(f"length given for undeclared curve {cid!r}")
        where = _key("lengths", cid)
        lo, hi = (_length(x, f"{where}[{i}]") for i, x in enumerate(_list(pair, where, 2, 2)))
        if not lo <= hi:
            raise ScenarioError(f"curve {cid!r}: lo {lo!r} exceeds hi {hi!r}")
        lengths[cid] = LengthInterval(lo, hi)
    undeclared = set(roles) - set(lengths)
    if undeclared:
        raise ScenarioError(f"curves without initial lengths: {sorted(undeclared)}")

    weights = _object(raw["lamination"], "lamination", optional=None)
    if not weights:
        raise ScenarioError("lamination must give a weight to at least one curve")
    for cid, weight in weights.items():
        if cid not in roles:
            raise ScenarioError(f"lamination references undeclared curve {cid!r}")
        if roles[cid] != "support":
            raise ScenarioError(f"lamination curve {cid!r} must have role 'support'")
        _number(weight, _key("lamination", cid))
    for cid, role in roles.items():
        if role == "support" and cid not in weights:
            raise ScenarioError(
                f"missing field {_key('lamination', cid)}: support curve {cid!r} needs a weight"
            )
    lamination = WeightedMulticurve(weights)

    constants = resolve_constants(_constants(raw.get("constants", {}), "constants"))
    # A top-level epsilon overrides the constants bundle so the state
    # threshold and the budget threshold cannot drift apart.
    epsilon = _number(raw["epsilon"], "epsilon") if "epsilon" in raw else constants.epsilon
    constants = replace(constants, epsilon=epsilon)
    state = LengthState(lengths, epsilon)

    mode = _string(raw["mode"], "mode", MODES)
    steps = _integer(raw.get("steps", 0), "steps", 0, MAX_STEPS)
    items = _list(raw["s_values"], "s_values", 1, MAX_STEPS) if "s_values" in raw else []
    rows, size = (len(items) + 1, "len(s_values)") if mode == "ray" else (steps + 1, "steps")
    if rows * len(roles) > MAX_CELLS:
        raise ScenarioError(
            f"({size} + 1) x curves = {rows} x {len(roles)} = {rows * len(roles)} "
            f"exceeds MAX_CELLS {MAX_CELLS}"
        )
    s_values: tuple[float, ...] = ()
    if "s_values" in raw:
        s_values = tuple(float(_number(s, f"s_values[{i}]")) for i, s in enumerate(items))
        i = lamination.first_unscalable(s_values)
        if i < len(s_values):
            raise _fail(
                f"s_values[{i}]",
                "a number whose product with each lamination weight is positive and finite",
                items[i],
            )
    unread = "steps" if mode == "ray" else "s_values"
    if unread in raw:
        raise ScenarioError(f"field {unread} is not read in mode {mode!r}")
    if mode == "ray":
        if not s_values:
            raise ScenarioError("mode 'ray' requires s_values")
    elif steps < 1:
        raise ScenarioError(f"mode {mode!r} requires steps >= 1")
    if mode == "counterexample":
        if len(weights) != 2:
            raise ScenarioError("mode 'counterexample' needs exactly two support curves")
        if len(set(weights.values())) != 2:
            raise ScenarioError("mode 'counterexample' needs two unequal lamination weights")

    return Scenario(
        name=_string(raw["name"], "name") if "name" in raw else path.stem,
        mode=mode,
        state=state,
        lamination=lamination,
        steps=steps,
        s_values=s_values,
        constants=constants,
        source=str(path),
    )


def load_map_spec(path, lattice: int | None = None) -> MapSpec:
    """Parse and check a map spec ``{kind, params, lattices}``.

    ``lattice`` is the ``--lattice`` flag, if one was given.  ``lattices``
    defaults to ``[lattice]``, or to ``[DEFAULT_LATTICE]`` without the flag;
    a spec that lists ``lattices`` while the flag is given is an error.  The
    lattices must strictly increase: ``convergence_order`` reads them as a
    refinement sequence.
    """
    raw = _object(_read_json(path, "map spec"), "", ("kind",), ("params", "lattices"))
    kind = _string(raw["kind"], "kind", tuple(MAP_PARAMS))
    required, optional = MAP_PARAMS[kind]
    params = _object(raw.get("params", {}), "params", required, optional)
    for name, value in params.items():
        # The shear amplitude may take either sign; shearing_map checks it.
        _number(value, _key("params", name), positive=name != "amplitude")
    if "lattices" in raw and lattice is not None:
        raise ScenarioError(
            f"the map spec lists lattices and --lattice {lattice} was given; give only one of them"
        )
    default = DEFAULT_LATTICE if lattice is None else lattice
    lattices = _list(raw.get("lattices", [default]), "lattices", min_items=1)
    for i, n in enumerate(lattices):
        check_lattice(n, f"lattices[{i}]")
        if i and not n > lattices[i - 1]:  # the observed orders assume a refinement sequence
            raise _fail(f"lattices[{i}]", f"above lattices[{i - 1}] = {lattices[i - 1]}", n)
    return MapSpec(kind=kind, params=params, lattices=lattices)
