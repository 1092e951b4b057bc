"""Scenario files: JSON schema validation and loading.

A scenario declares curves with roles, initial length intervals, the
lamination weights, a run mode and optional constant overrides.
Constants resolve in three layers: built-in defaults, then the JSON file
named by the GRAFTLAB_CONSTANTS environment variable, then the scenario's
own ``constants`` block.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema

from .config import DEFAULT_CONSTANTS, Constants
from .errors import ScenarioError
from .grafting import LengthInterval, LengthState, Role, WeightedMulticurve

__all__ = ["Scenario", "load_scenario", "scenario_schema", "resolve_constants"]

_CONSTANT_KEYS = ("C", "K2", "K3", "C_shear", "T_radius", "kappa", "epsilon")


def scenario_schema() -> dict:
    text = resources.files("graftlab.schemas").joinpath("scenario.schema.json").read_text()
    return json.loads(text)


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


def resolve_constants(overrides: dict | None = None) -> Constants:
    """Defaults <- GRAFTLAB_CONSTANTS file <- explicit overrides."""
    values = DEFAULT_CONSTANTS.as_dict()
    env_path = os.environ.get("GRAFTLAB_CONSTANTS")
    if env_path:
        try:
            env_values = json.loads(Path(env_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read constants file {env_path!r}: {exc}") from exc
        if not isinstance(env_values, dict):
            raise ScenarioError(f"constants file {env_path!r} must hold a JSON object")
        unknown = set(env_values) - set(_CONSTANT_KEYS)
        if unknown:
            raise ScenarioError(f"unknown constants in {env_path!r}: {sorted(unknown)}")
        values.update(env_values)
    if overrides:
        values.update(overrides)
    try:
        return Constants(**values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    """Parse, schema-validate and semantically check a scenario file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, scenario_schema())
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"scenario {path} violates the schema: {exc.message}") from exc

    roles: dict[str, Role] = {}
    for entry in raw["curves"]:
        cid = entry["id"]
        if cid in roles:
            raise ScenarioError(f"duplicate curve id {cid!r}")
        roles[cid] = Role(entry["role"])

    lengths: dict[str, LengthInterval] = {}
    for cid, pair in raw["lengths"].items():
        if cid not in roles:
            raise ScenarioError(f"length given for undeclared curve {cid!r}")
        lo, hi = pair
        if not lo <= hi:
            raise ScenarioError(f"curve {cid!r}: lo {lo!r} exceeds hi {hi!r}")
        lengths[cid] = LengthInterval(lo, hi)
    undeclared = set(roles) - set(lengths)
    if undeclared:
        raise ScenarioError(f"curves without initial lengths: {sorted(undeclared)}")

    for cid in raw["lamination"]:
        if cid not in roles:
            raise ScenarioError(f"lamination references undeclared curve {cid!r}")
        if roles[cid] is not Role.SUPPORT:
            raise ScenarioError(f"lamination curve {cid!r} must have role 'support'")
    lamination = WeightedMulticurve(raw["lamination"])

    constants = resolve_constants(raw.get("constants"))
    # A top-level epsilon overrides the constants bundle so the state
    # threshold and the budget threshold cannot drift apart.
    epsilon = raw.get("epsilon", constants.epsilon)
    constants = constants.updated(epsilon=epsilon)
    state = LengthState(roles=roles, lengths=lengths, epsilon=epsilon)

    mode = raw["mode"]
    steps = int(raw.get("steps", 0))
    s_values = tuple(float(s) for s in raw.get("s_values", ()))
    if mode == "ray":
        if not s_values:
            raise ScenarioError("mode 'ray' requires s_values")
    elif steps < 1:
        raise ScenarioError(f"mode {mode!r} requires steps >= 1")
    if mode == "counterexample":
        support = [cid for cid, r in roles.items() if r is Role.SUPPORT]
        if len(support) != 2:
            raise ScenarioError("mode 'counterexample' needs exactly two support curves")

    return Scenario(
        name=raw.get("name", path.stem),
        mode=mode,
        state=state,
        lamination=lamination,
        steps=steps,
        s_values=s_values,
        constants=constants,
        source=str(path),
    )
