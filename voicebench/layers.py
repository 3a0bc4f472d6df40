"""Outside-in per-layer tracing for the traced benchmark run.

The benchmark does not use the program's own tracer.  It wraps public
entry points of each layer from outside, for the duration of one traced
request, and records one span per call in memory.  A layer's self time
is its spans' durations minus the part of each interval that child
spans cover; the request root (``Muve.ask_voice`` / ``Muve.ask_trend``)
keeps whatever no wrapped layer claimed.  Without overlapping children
the self times of one request add up to the root span exactly.
"""

from __future__ import annotations

import contextvars
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: (module, owner attribute or None for a module function, function,
#: layer name).  Layer names are ``src/repro`` module names.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.muve", "Muve", "ask_voice", "muve"),
    ("repro.muve", "Muve", "ask_trend", "muve"),
    ("repro.nlq.speech", "SpeechSimulator", "transcribe", "nlq.speech"),
    ("repro.nlq.text_to_sql", "TextToSql", "translate",
     "nlq.text_to_sql"),
    ("repro.nlq.text_to_sql", "TextToSql", "translate_trend",
     "nlq.text_to_sql"),
    ("repro.nlq.candidates", "CandidateGenerator", "candidates",
     "nlq.candidates"),
    ("repro.phonetics.index", "PhoneticIndex", "most_similar",
     "phonetics.index"),
    ("repro.core.planner", "VisualizationPlanner", "plan", "core.planner"),
    ("repro.core.greedy", "GreedySolver", "solve", "core.greedy"),
    ("repro.core.ilp", "IlpSolver", "solve", "core.ilp"),
    ("repro.execution.engine", "MuveExecutor", "run", "execution.engine"),
    ("repro.sqldb.database", "Database", "execute",
     "sqldb.database.execute"),
    ("repro.sqldb.database", "Database", "estimated_cost",
     "sqldb.database.estimated_cost"),
    ("repro.timeseries", "SeriesPlanner", "plan", "timeseries.planner"),
    ("repro.timeseries", None, "execute_series_multiplot",
     "timeseries.execution"),
    ("repro.muve", None, "assess_response", "observability.quality"),
    ("repro.muve", None, "assess_trend_response", "observability.quality"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e[3] for e in ENTRY_POINTS))

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "voicebench_span", default=None)


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    result: Any = None
    children: list["Span"] = field(default_factory=list)

    def self_seconds(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (self.end - self.start) - covered


class LayerTracer:
    """Collects spans of traced requests; patches only while tracing."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._targets = []
        for module_name, owner_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = (getattr(module, owner_name) if owner_name is not None
                     else module)
            original = owner.__dict__[attr]
            self._targets.append((owner, attr, original,
                                  self._wrap(original, layer)))

    def _wrap(self, original: Callable, layer: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            parent = _current.get()
            span = Span(layer, parent)
            token = _current.set(span)
            span.start = time.perf_counter()
            try:
                span.result = original(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                if parent is None:
                    tracer.roots.append(span)
                else:
                    parent.children.append(span)

        return traced

    @contextmanager
    def tracing(self):
        """Install every wrapper, and remove them all on exit."""
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)

    def installed(self) -> bool:
        """True while any wrapper is still in place."""
        return any(owner.__dict__[attr] is not original
                   for owner, attr, original, _ in self._targets)

    def report(self) -> dict[str, float]:
        """Per-layer metrics, as means per traced request."""
        requests = len(self.roots)
        self_seconds = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        ilp_solves = ilp_timeouts = ilp_wins = queries = 0
        stack = list(self.roots)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            self_seconds[span.layer] += span.self_seconds()
            calls[span.layer] += 1
            if span.result is None:
                continue  # the call raised; the run counts it as failed
            if span.layer == "core.ilp":
                ilp_solves += 1
                ilp_timeouts += bool(span.result.timed_out)
            elif span.layer == "core.planner":
                ilp_wins += _ilp_wins(span)
            elif span.layer == "execution.engine":
                queries += len(span.result[-1].multiplot
                               .displayed_queries())
            elif span.layer == "timeseries.execution":
                queries += sum(len(plot.series)
                               for plot in span.result.plots())
        per = 1.0 / requests if requests else 0.0
        out = {f"{layer}.self_ms": self_seconds[layer] * 1000.0 * per
               for layer in LAYERS
               if not layer.startswith("sqldb.database")}
        out.update({
            "nlq.candidates.per_request": calls["nlq.candidates"] * per,
            "phonetics.index.calls": calls["phonetics.index"] * per,
            "core.greedy.calls": calls["core.greedy"] * per,
            "core.ilp.calls": calls["core.ilp"] * per,
            "core.ilp.timeout_frac": (ilp_timeouts / ilp_solves
                                      if ilp_solves else 0.0),
            "core.ilp.win_frac": (ilp_wins / ilp_solves
                                  if ilp_solves else 0.0),
            "execution.queries_per_request": queries * per,
            "sqldb.database.execute_ms":
                self_seconds["sqldb.database.execute"] * 1000.0 * per,
            "sqldb.database.execute_calls":
                calls["sqldb.database.execute"] * per,
            "sqldb.database.estimated_cost_ms":
                self_seconds["sqldb.database.estimated_cost"]
                * 1000.0 * per,
            "trace.request_ms": sum(r.end - r.start for r in self.roots)
                                * 1000.0 * per,
            "trace.sum_self_ms": sum(self_seconds.values()) * 1000.0 * per,
        })
        return out


def _ilp_wins(planner_span: Span) -> int:
    """1 when this plan's ILP solve beat its greedy solve, else 0."""
    greedy = [c.result.expected_cost for c in planner_span.children
              if c.layer == "core.greedy" and c.result is not None]
    ilp = [c.result.expected_cost for c in planner_span.children
           if c.layer == "core.ilp" and c.result is not None]
    if not greedy or not ilp:
        return 0
    return int(ilp[0] < greedy[0] * (1.0 - 1e-9))
