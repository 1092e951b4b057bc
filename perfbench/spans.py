"""In-process tracing of one CLI invocation, by wrapping graftlab's public functions.

Spans are recorded only from this file: each traced function is replaced,
at every module attribute that refers to it, by a wrapper that records
(name, start, end, parent, attributes).  ``cli``, ``verify`` and
``dynamics`` bind their callees with ``from .x import f``, so wrapping
only the defining module would miss those calls.  Spans stay in memory
and are summarised after the invocation ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (span name, defining module, function, attributes from (args, kwargs, result))
TRACED = [
    ("report.write_csv", "graftlab.report", "write_csv",
     lambda a, kw, r: {"rows": len(_arg(a, kw, 2, "rows")), "path": str(_arg(a, kw, 0, "path"))}),
    ("report.write_json", "graftlab.report", "write_json",
     lambda a, kw, r: {"path": str(_arg(a, kw, 0, "path"))}),
    ("beltrami.estimate", "graftlab.beltrami", "beltrami_estimate",
     lambda a, kw, r: {"points": r.n_t * r.n_x}),
    ("qcmaps.twist_map", "graftlab.qcmaps", "twist_map",
     lambda a, kw, r: {"points": r.grid.samples.size}),
    ("qcmaps.scaling_map", "graftlab.qcmaps", "scaling_map",
     lambda a, kw, r: {"points": r.grid.samples.size}),
    ("qcmaps.shearing_map", "graftlab.qcmaps", "shearing_map",
     lambda a, kw, r: {"points": r.grid.samples.size}),
    ("qcmaps.compose_maps", "graftlab.qcmaps", "compose_maps",
     lambda a, kw, r: {"points": r.samples.size}),
    ("scenario.load", "graftlab.scenario", "load_scenario", None),
    ("grafting.bounds", "graftlab.grafting", "graft_length_bounds", None),
    ("dynamics.iterate", "graftlab.dynamics", "iterate_grafting",
     lambda a, kw, r: {"curve_steps": (len(r.steps) - 1) * len(r.steps[0].lengths)}),
    ("hypgeom.scan", "graftlab.hypgeom", "scan_small_length_thresholds", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, parent=self._stack[-1] if self._stack else None))
            self._stack.append(idx)
            span = self.spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def run(self, name, fn, *args):
        """Call fn(*args) inside a span called ``name``."""
        return self._wrap(name, fn, None)(*args)

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "graftlab"}
        for name, mod_name, attr, attrs_of in TRACED:
            original = getattr(modules[mod_name], attr)
            wrapper = self._wrap(name, original, attrs_of)
            self.sites[name] = []
            for key, module in sorted(modules.items()):
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    self.sites[name].append(f"{key}.{attr}")
        suites = modules["graftlab.verify"].SUITES
        for suite, original in list(suites.items()):
            self._patched.append((suites, suite, original))
            suites[suite] = self._wrap(f"verify.suite.{suite}", original, None)
            self.sites[f"verify.suite.{suite}"] = [f"graftlab.verify.SUITES[{suite!r}]"]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def layer_of(span_name: str) -> str:
    """'qcmaps.twist_map' -> 'qcmaps'; 'verify.suite.x' -> 'verify'."""
    return span_name.split(".")[0]


def summarise(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced invocation (spans cleared afterwards)."""
    own = tracer.self_times()
    m = {
        "cli.self_s": 0.0,
        "report.write_csv_s": 0.0, "report.write_json_s": 0.0,
        "report.rows": 0, "report.bytes_written": 0,
        "beltrami.estimate_s": 0.0, "beltrami.calls": 0, "beltrami.points": 0,
        "qcmaps.sample_s": 0.0, "qcmaps.points": 0,
        "scenario.load_s": 0.0,
        "grafting.bounds_s": 0.0, "grafting.calls": 0,
        "dynamics.iterate_s": 0.0, "dynamics.curve_steps": 0,
        "hypgeom.scan_s": 0.0,
    }
    for suite in ("hypgeom", "qcmaps", "grafting", "dynamics"):
        m[f"verify.suite.{suite}_s"] = 0.0
    layers: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, own):
        layers[layer_of(span.name)] = layers.get(layer_of(span.name), 0.0) + self_s
        n = span.name
        if n == "cli":
            m["cli.self_s"] += self_s
        elif n.startswith("report."):
            m[n + "_s"] += self_s
            m["report.rows"] += span.attrs.get("rows", 0)
            m["report.bytes_written"] += Path(span.attrs["path"]).stat().st_size
        elif n == "beltrami.estimate":
            m["beltrami.estimate_s"] += self_s
            m["beltrami.calls"] += 1
            m["beltrami.points"] += span.attrs["points"]
        elif n.startswith("qcmaps."):
            m["qcmaps.sample_s"] += self_s
            if span.parent is None or not tracer.spans[span.parent].name.startswith("qcmaps."):
                m["qcmaps.points"] += span.attrs["points"]
        elif n == "scenario.load":
            m["scenario.load_s"] += self_s
        elif n == "grafting.bounds":
            m["grafting.bounds_s"] += self_s
            m["grafting.calls"] += 1
        elif n == "dynamics.iterate":
            m["dynamics.iterate_s"] += self_s
            m["dynamics.curve_steps"] += span.attrs["curve_steps"]
        elif n == "hypgeom.scan":
            m["hypgeom.scan_s"] += self_s
        elif n.startswith("verify.suite."):
            m[n + "_s"] += self_s
    root = [s for s in tracer.spans if s.parent is None]
    m["_wall_in_spans_s"] = sum(s.duration for s in root)
    m["_layers_s"] = layers
    tracer.spans.clear()
    return m
