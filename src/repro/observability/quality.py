"""Per-request answer-quality telemetry (the signal MUVE exists for).

Latency histograms say how fast a multiplot shipped; nothing in the
mechanical telemetry says whether it was any *good*.  MUVE's whole
contribution is minimising expected user disambiguation time under the
Section 4 cost model, so quality is measurable per request:

* **truth coverage** — the candidate probability mass actually shown in
  the final multiplot (and the mass highlighted red).  This is the
  probability the user's intended query is on screen at all.
* **expected vs. realized cost** — the planner's expected
  disambiguation cost against the cost model re-evaluated on the
  multiplot that actually shipped.  They differ exactly when a
  degradation rung rewrote the answer after planning (single-plot
  shrink, truncated candidates), so the drift is the price the
  resilience ladder charged in answer quality.
* **optimality gap** — ``(greedy - ilp) / ilp`` when the "best"
  strategy ran greedy and an optimiser (the exact one-row search or
  the ILP): how far the fast heuristic was from the optimum on live
  traffic, the Figure 9 comparison as a serving metric.  It is signed:
  a time-limited ILP can lose to greedy, and the histogram shows it.
* **intended-query outcome** — when the caller knows the ground truth
  (the workload generator and user simulator do), the rank of the
  intended query in the candidate distribution and whether the shipped
  multiplot highlighted / showed / missed it.
* **degradation depth** — how many resilience rungs fired.

:func:`assess_response` computes a :class:`QualityRecord` from a
finished response (bar and series multiplots both satisfy the duck
protocol the cost model needs); :func:`record_quality` folds it into
labeled histograms/counters; :func:`quality_summary` distils those
instruments for ``GET /api/quality`` and the regression sentinel.

Everything here is arithmetic over data the response already carries —
no extra query execution, no tracer dependency, so quality telemetry
works with ``MUVE_TRACING=off``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.observability.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sqldb.query import AggregateQuery

__all__ = [
    "COVERAGE_BUCKETS",
    "QualityRecord",
    "assess_response",
    "assess_trend_response",
    "quality_summary",
    "record_quality",
    "render_quality",
]

#: Probability-mass buckets: dense near 1.0 where answers should live.
COVERAGE_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)

#: Disambiguation-cost buckets in milliseconds of estimated user time
#: (the miss penalty alone is 30 s, hence the long tail).
COST_BUCKETS_MS: tuple[float, ...] = (
    500.0, 1000.0, 2000.0, 4000.0, 8000.0, 15000.0, 30000.0, 60000.0)

#: Signed realized-minus-expected drift: negative when the shipped
#: answer is cheaper than planned (rare), positive when degradation or
#: estimation error made it worse.
DRIFT_BUCKETS_MS: tuple[float, ...] = (
    -1000.0, -100.0, 0.0, 100.0, 1000.0, 5000.0, 15000.0, 30000.0)

#: Signed relative greedy-vs-optimiser gap buckets: 0 = greedy matched
#: the optimiser's plan, negative = greedy beat a time-limited ILP (the
#: exact one-row search never yields a negative gap).
GAP_BUCKETS: tuple[float, ...] = (
    -1.0, -0.5, -0.25, -0.1, -0.05, -0.01, -0.001, 0.0,
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class QualityRecord:
    """Answer quality of one request, attached to the response."""

    truth_coverage: float
    highlight_coverage: float
    expected_cost_ms: float
    realized_cost_ms: float
    optimality_gap: float | None
    degradation_depth: int
    intended_rank: int | None
    intended_outcome: str  # highlighted | shown | missing | unknown

    @property
    def cost_drift_ms(self) -> float:
        """Realized minus expected: what degradation/estimation cost."""
        return self.realized_cost_ms - self.expected_cost_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "truth_coverage": round(self.truth_coverage, 6),
            "highlight_coverage": round(self.highlight_coverage, 6),
            "expected_cost_ms": round(self.expected_cost_ms, 3),
            "realized_cost_ms": round(self.realized_cost_ms, 3),
            "cost_drift_ms": round(self.cost_drift_ms, 3),
            "optimality_gap": (round(self.optimality_gap, 6)
                               if self.optimality_gap is not None
                               else None),
            "degradation_depth": self.degradation_depth,
            "intended_rank": self.intended_rank,
            "intended_outcome": self.intended_outcome,
        }


def _coverage(multiplot, candidates) -> tuple[float, float]:
    """(shown mass, highlighted mass) of *candidates* in *multiplot*."""
    shown = highlighted = 0.0
    for candidate in candidates:
        bar = multiplot.bar_for(candidate.query)
        if bar is None:
            continue
        shown += candidate.probability
        if bar.highlighted:
            highlighted += candidate.probability
    return shown, highlighted


def _intended_outcome(multiplot, candidates,
                      intended: "AggregateQuery | None",
                      ) -> tuple[int | None, str]:
    if intended is None:
        return None, "unknown"
    rank = None
    for position, candidate in enumerate(candidates, start=1):
        if candidate.query == intended:
            rank = position
            break
    bar = multiplot.bar_for(intended)
    if bar is None:
        return rank, "missing"
    return rank, "highlighted" if bar.highlighted else "shown"


def _optimality_gap(planning) -> float | None:
    greedy = getattr(planning, "greedy_cost", None)
    ilp = getattr(planning, "ilp_cost", None)
    if greedy is None or ilp is None or ilp <= 0.0:
        return None
    return (greedy - ilp) / ilp


def assess_response(response,
                    intended: "AggregateQuery | None" = None,
                    cost_model=None) -> QualityRecord:
    """The quality record of a finished :class:`~repro.muve.MuveResponse`.

    *intended* is the ground-truth query when the caller knows it (the
    simulated workload does; live traffic does not).  The realized cost
    re-evaluates the Section 4 model on the multiplot that actually
    shipped — after any degradation rung — against the full candidate
    distribution the planner saw.
    """
    if cost_model is None:
        from repro.core.cost_model import UserCostModel
        cost_model = UserCostModel()
    multiplot = (response.updates[-1].multiplot if response.updates
                 else response.planning.multiplot)
    shown, highlighted = _coverage(multiplot, response.candidates)
    rank, outcome = _intended_outcome(multiplot, response.candidates,
                                      intended)
    return QualityRecord(
        truth_coverage=shown,
        highlight_coverage=highlighted,
        expected_cost_ms=response.planning.expected_cost,
        realized_cost_ms=cost_model.expected_cost(multiplot,
                                                  response.candidates),
        optimality_gap=_optimality_gap(response.planning),
        degradation_depth=len(response.degradations),
        intended_rank=rank,
        intended_outcome=outcome,
    )


def assess_trend_response(response,
                          intended: "AggregateQuery | None" = None,
                          cost_model=None) -> QualityRecord:
    """The quality record of a :class:`~repro.muve.TrendResponse` —
    series multiplots duck-type the protocol the cost model reads."""
    if cost_model is None:
        from repro.core.cost_model import UserCostModel
        cost_model = UserCostModel()
    multiplot = response.multiplot
    shown, highlighted = _coverage(multiplot, response.candidates)
    rank, outcome = _intended_outcome(multiplot, response.candidates,
                                      intended)
    return QualityRecord(
        truth_coverage=shown,
        highlight_coverage=highlighted,
        expected_cost_ms=response.expected_cost,
        realized_cost_ms=cost_model.expected_cost(multiplot,
                                                  response.candidates),
        optimality_gap=None,  # the series planner has one solver
        degradation_depth=len(response.degradations),
        intended_rank=rank,
        intended_outcome=outcome,
    )


def record_quality(record: QualityRecord,
                   metrics: MetricsRegistry | None = None,
                   request: str = "ask",
                   exemplar: str | None = None) -> None:
    """Fold one record into the ``quality_*`` instrument family."""
    registry = metrics if metrics is not None else get_registry()
    registry.histogram("quality_truth_coverage", COVERAGE_BUCKETS,
                       request=request).observe(record.truth_coverage,
                                                exemplar=exemplar)
    registry.histogram("quality_highlight_coverage", COVERAGE_BUCKETS,
                       request=request).observe(
                           record.highlight_coverage)
    registry.histogram("quality_expected_cost_ms", COST_BUCKETS_MS,
                       request=request).observe(record.expected_cost_ms)
    registry.histogram("quality_realized_cost_ms", COST_BUCKETS_MS,
                       request=request).observe(
                           record.realized_cost_ms, exemplar=exemplar)
    registry.histogram("quality_cost_drift_ms", DRIFT_BUCKETS_MS,
                       request=request).observe(record.cost_drift_ms)
    if record.optimality_gap is not None:
        registry.histogram("quality_optimality_gap", GAP_BUCKETS,
                           ).observe(record.optimality_gap)
    registry.counter("quality_requests", request=request).inc()
    registry.counter("quality_intended", request=request,
                     outcome=record.intended_outcome).inc()
    if record.degradation_depth:
        registry.counter("quality_degraded", request=request).inc()
        registry.histogram("quality_degradation_depth",
                           (1.0, 2.0, 3.0, 5.0, 8.0),
                           request=request).observe(
                               float(record.degradation_depth))


def quality_summary(metrics: MetricsRegistry | None = None,
                    ) -> dict[str, Any]:
    """The ``quality_*`` family distilled to scalars — the payload of
    ``GET /api/quality`` and the input of the regression sentinel."""
    registry = metrics if metrics is not None else get_registry()
    histograms: dict[str, Any] = {}
    for name, labels, histogram in registry.iter_histograms():
        if not name.startswith("quality_") or histogram.count == 0:
            continue
        label_map = dict(labels)
        key = name[len("quality_"):]
        if "request" in label_map:
            key = f"{key}.{label_map['request']}"
        histograms[key] = {
            "count": histogram.count,
            "mean": round(histogram.mean, 6),
            "p50": round(histogram.percentile(0.50), 6),
            "p95": round(histogram.percentile(0.95), 6),
            "min": round(histogram.min, 6),
            "max": round(histogram.max, 6),
        }
    counters: dict[str, float] = {}
    requests_total = 0.0
    degraded_total = 0.0
    outcomes: dict[str, float] = {}
    for name, labels, value in registry.iter_counters():
        if not name.startswith("quality_"):
            continue
        label_map = dict(labels)
        if name == "quality_requests":
            requests_total += value
        elif name == "quality_degraded":
            degraded_total += value
        elif name == "quality_intended":
            outcome = label_map.get("outcome", "unknown")
            outcomes[outcome] = outcomes.get(outcome, 0.0) + value
        counters[_flat_key(name, label_map)] = value
    known = sum(count for outcome, count in outcomes.items()
                if outcome != "unknown")
    return {
        "requests": requests_total,
        "degraded_rate": (degraded_total / requests_total
                          if requests_total else 0.0),
        "intended_outcomes": outcomes,
        "intended_highlighted_rate": (
            outcomes.get("highlighted", 0.0) / known if known else None),
        "histograms": histograms,
        "counters": counters,
    }


def _flat_key(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def render_quality(metrics: MetricsRegistry | None = None) -> str:
    """The quality summary as terminal lines (``muve.cli --profile``)."""
    summary = quality_summary(metrics)
    if not summary["requests"]:
        return "quality telemetry: no requests assessed yet"
    lines = [f"quality telemetry ({summary['requests']:.0f} requests, "
             f"{summary['degraded_rate']:.1%} degraded):"]
    for key, stats in sorted(summary["histograms"].items()):
        lines.append(f"  {key:<32} mean {stats['mean']:>10.3f}  "
                     f"p95 {stats['p95']:>10.3f}  "
                     f"(n={stats['count']})")
    if summary["intended_outcomes"]:
        shares = ", ".join(
            f"{outcome}={count:.0f}" for outcome, count
            in sorted(summary["intended_outcomes"].items()))
        lines.append(f"  intended outcomes: {shares}")
    return "\n".join(lines)
