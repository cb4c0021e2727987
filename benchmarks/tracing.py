"""Spans around the calls into each scvx layer, and the per-layer metrics.

The library has no timers of its own, so the traced run wraps public
functions from outside.  ``driver`` and ``linearize`` import ``assemble``,
``extract``, ``build_feasible_region`` and ``project`` by name, so each
wrapper is installed where the caller looks the name up, not where the
function is defined.  ``problem`` and ``penalty`` are evaluated thousands
of times inside their callers and stay unwrapped: they count in their
callers' self time.

Each span records its layer, its name, start and end, and the index of the
span that was open when it began.  A layer's self time is the duration of
its spans minus the part their direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# (module the caller looks the name up in, name, layer, defining module)
TARGETS = (
    ("scvx.bench", "solve_quadrotor", "bench", "scvx.bench"),
    ("scvx.bench", "build_quadrotor_problem", "bench", "scvx.bench"),
    ("scvx.bench", "write_outputs", "bench", "scvx.bench"),
    ("scvx.bench", "find_feasible_start", "driver", "scvx.driver"),
    ("scvx.bench", "scvx", "driver", "scvx.driver"),
    ("scvx.driver", "fixed_point_residual", "driver", "scvx.driver"),
    ("scvx.driver", "build_feasible_region", "linearize", "scvx.linearize"),
    ("scvx.linearize", "project", "projection", "scvx.projection"),
    ("scvx.driver", "assemble", "subproblem", "scvx.subproblem"),
    ("scvx.driver", "extract", "subproblem", "scvx.subproblem"),
    ("scvx.conic", "solve", "conic", "scvx.conic"),
)
SPAN_NAMES = tuple(f"{layer}.{name}" for _, name, layer, _ in TARGETS)
LAYERS = ("bench", "driver", "linearize", "projection", "subproblem", "conic")


class TracingError(RuntimeError):
    """A wrapper could not be installed where its caller looks it up."""


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _conic_attrs(args, kwargs, sol):
    program = kwargs["program"] if "program" in kwargs else args[0]
    soc_dims = [k.dim for k in program.cones if k.kind == "soc"]
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        "kkt_dim": program.n_rows + program.n_cols,
        "soc_blocks": len(soc_dims),
        "soc_max_dim": max(soc_dims, default=0),
    }


_ATTRS = {
    "conic.solve": _conic_attrs,
    "linearize.build_feasible_region": lambda a, k, region: {
        "halfspaces": len(region.halfspaces)
    },
    "projection.project": lambda a, k, result: {"method": result.method},
    "subproblem.assemble": lambda a, k, art: {"nnz": art.program.A.nnz},
}


class Tracer:
    """Spans of one operation, kept in memory in the order they began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, layer, name, fn):
        span_name = f"{layer}.{name}"
        attrs = _ATTRS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, span_name, self._open[-1] if self._open else None,
                        time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers at every call site, restore on exit."""
    saved = []
    try:
        for where, name, layer, home in TARGETS:
            module = importlib.import_module(where)
            original = getattr(module, name, None)
            defined = getattr(importlib.import_module(home), name, None)
            if original is None or original is not defined:
                raise TracingError(
                    f"{where}.{name} is not {home}.{name}: the "
                    f"{layer}.{name} spans would silently vanish"
                )
            saved.append((module, name, original))
            setattr(module, name, tracer.wrap(layer, name, original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def missing_spans(spans) -> list:
    """Wrapped functions that recorded no span in this operation."""
    seen = {s.name for s in spans}
    return [name for name in SPAN_NAMES if name not in seen]


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield p
        p = spans[p].parent


def _conic_phase(spans, i):
    """init, floor, succession, certificate or projection, from the ancestry."""
    for a in _ancestors(spans, i):
        name = spans[a].name
        if name == "driver.find_feasible_start":
            return "init"
        if name == "driver.fixed_point_residual":
            return "certificate"
        if name == "projection.project":
            return "projection"
        if name == "driver.scvx":
            # the floor is solved before the first region is built
            built = any(
                s.parent == a and s.name == "linearize.build_feasible_region"
                and s.start < spans[i].start
                for s in spans
            )
            return "succession" if built else "floor"
    return "other"


def layer_metrics(spans) -> dict:
    """Per-layer totals, self times and counts for one operation."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    outermost = [
        all(spans[a].layer != s.layer for a in _ancestors(spans, i))
        for i, s in enumerate(spans)
    ]

    def total(layer):
        return sum(s.duration for i, s in enumerate(spans) if s.layer == layer and outermost[i])

    def self_time(layer):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.layer == layer)

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.duration for s in named(name))

    conic = named("conic.solve")
    phases = [_conic_phase(spans, i) for i, s in enumerate(spans) if s.name == "conic.solve"]
    conic_s = sum(s.duration for s in conic)
    iters = sum(s.attrs["iterations"] for s in conic)

    def phase_s(phase):
        return sum(s.duration for s, p in zip(conic, phases) if p == phase)

    m = {
        "bench.build_s": seconds("bench.build_quadrotor_problem"),
        "bench.write_s": seconds("bench.write_outputs"),
        "driver.init_s": seconds("driver.find_feasible_start"),
        "driver.init_rounds": phases.count("init"),
        "driver.scvx_s": seconds("driver.scvx"),
        "driver.certificate_s": seconds("driver.fixed_point_residual"),
        "linearize.region_s": seconds("linearize.build_feasible_region"),
        "linearize.region_calls": len(named("linearize.build_feasible_region")),
        "linearize.halfspaces": sum(
            s.attrs["halfspaces"] for s in named("linearize.build_feasible_region")
        ),
        "projection.project_s": seconds("projection.project"),
        "projection.project_calls": len(named("projection.project")),
        "projection.conic_fallbacks": sum(
            s.attrs["method"] == "conic" for s in named("projection.project")
        ),
        "subproblem.assemble_s": seconds("subproblem.assemble"),
        "subproblem.assemble_calls": len(named("subproblem.assemble")),
        "subproblem.program_nnz": max(
            (s.attrs["nnz"] for s in named("subproblem.assemble")), default=0
        ),
        "subproblem.extract_s": seconds("subproblem.extract"),
        "conic.solve_s": conic_s,
        "conic.calls": len(conic),
        "conic.ipm_iters": iters,
        "conic.s_per_iter": conic_s / iters if iters else 0.0,
        "conic.init_s": phase_s("init"),
        "conic.floor_s": phase_s("floor"),
        "conic.succession_s": phase_s("succession"),
        "conic.certificate_s": phase_s("certificate"),
        "conic.kkt_dim": max((s.attrs["kkt_dim"] for s in conic), default=0),
        "conic.soc_blocks": max((s.attrs["soc_blocks"] for s in conic), default=0),
        "conic.soc_max_dim": max((s.attrs["soc_max_dim"] for s in conic), default=0),
        "conic.nonoptimal": sum(s.attrs["status"] != "optimal" for s in conic),
    }
    for layer in ("bench", "driver", "subproblem"):
        m[f"{layer}.total_s"] = total(layer)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time(layer)
    return m
