"""The exact one-row planner against the ILP, plus its planner wiring.

The differential suite draws random one-row problems (at most 10
candidates over overlapping templates, varied screen widths, and a
candidate mass of 0.5 to 1, so a residual miss usually remains) and
checks that
the "best" strategy's exact search reaches the optimum the ILP proves
without a time limit, with a feasible plan no worse than greedy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import exact_row
from repro.core.cost_model import UserCostModel
from repro.core.exact_row import exact_row_applies, solve_exact_row
from repro.core.ilp import IlpSolver, ProcessingGroup
from repro.core.model import ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import DeadlineExceeded
from repro.nlq.candidates import CandidateQuery
from repro.observability import trace_span
from repro.resilience import Deadline
from repro.sqldb.query import AggregateQuery
from repro.testing.faults import inject_faults

#: Queries sharing aggregates, columns and predicate values, so that
#: candidates instantiate overlapping templates.
QUERY_POOL = tuple(
    AggregateQuery.build("t", func, column,
                         {"borough": borough, **({"kind": kind}
                                                 if kind else {})})
    for func, column, borough, kind in itertools.product(
        ("avg", "sum", "max"), ("hours", "cost"),
        ("north", "south", "east"), (None, "noise", "heat")))


@st.composite
def one_row_problems(draw, max_candidates: int = 10):
    picks = draw(st.lists(st.integers(0, len(QUERY_POOL) - 1),
                          min_size=1, max_size=max_candidates,
                          unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(picks),
                            max_size=len(picks)))
    mass = draw(st.floats(0.5, 1.0))
    total = sum(weights)
    candidates = tuple(CandidateQuery(QUERY_POOL[i], mass * w / total)
                       for i, w in zip(picks, weights))
    width = draw(st.integers(300, 1500))
    return MultiplotSelectionProblem(
        candidates, geometry=ScreenGeometry(width_pixels=width))


def small_problem(width: int = 1125,
                  num_rows: int = 1) -> MultiplotSelectionProblem:
    candidates = tuple(CandidateQuery(query, 0.9 / 8)
                       for query in QUERY_POOL[:8])
    return MultiplotSelectionProblem(
        candidates,
        geometry=ScreenGeometry(width_pixels=width, num_rows=num_rows))


@given(one_row_problems())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_matches_ilp_optimum(problem):
    assert exact_row_applies(problem)
    planned = VisualizationPlanner(strategy="best").plan(problem)
    oracle = IlpSolver(timeout_seconds=None).solve(problem)
    assert oracle.optimal
    assert planned.solver_name == "exact"
    assert planned.optimal and not planned.timed_out
    assert planned.expected_cost == pytest.approx(oracle.expected_cost,
                                                  rel=1e-9, abs=1e-9)
    assert problem.is_feasible(planned.multiplot)
    assert planned.expected_cost == pytest.approx(
        problem.evaluate(planned.multiplot), rel=1e-12)
    assert planned.expected_cost <= planned.greedy_cost
    # Without an incumbent every set is open to the search, so the
    # enumeration and the construction are checked on every problem,
    # not only where greedy misses the optimum.
    unaided = solve_exact_row(problem, math.inf)
    assert unaided.multiplot is not None
    assert problem.is_feasible(unaided.multiplot)
    assert unaided.expected_cost == pytest.approx(oracle.expected_cost,
                                                  rel=1e-9, abs=1e-9)


@given(one_row_problems())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bound_never_exceeds_a_sets_optimum(problem):
    """Bound-order pruning is sound only if every set's bound is at most
    the exact minimum over that set's red subsets and bar counts."""
    search = exact_row._Search(problem)
    sets = search.plot_sets()
    if not len(sets):
        return  # nothing fits; the search returns before bounding
    bounds, max_bars = search.bounds(sets)
    for s in range(len(sets)):
        found = search.best_in_set(np.nonzero(sets[s])[0],
                                   int(max_bars[s]))
        if found is None:
            assert bounds[s] == math.inf
        else:
            assert bounds[s] <= found[0] * (1.0 + 1e-12)


class TestPlannerWiring:
    def test_repeated_plans_are_identical(self):
        problem = small_problem()
        planner = VisualizationPlanner(strategy="best")
        first = planner.plan(problem)
        second = planner.plan(problem)
        assert first.solver_name == "exact"
        assert first.multiplot == second.multiplot
        assert first.expected_cost == second.expected_cost

    def test_above_the_cap_falls_back_to_the_ilp(self, monkeypatch):
        monkeypatch.setattr(exact_row, "MAX_PLOT_SETS", 1)
        problem = small_problem()
        result = VisualizationPlanner(strategy="best",
                                      timeout_seconds=10.0).plan(problem)
        assert result.solver_name.startswith("ilp-")
        search = solve_exact_row(problem, float("inf"))
        assert search.capped and search.multiplot is None

    def test_two_rows_take_the_ilp(self):
        problem = small_problem(width=900, num_rows=2)
        assert not exact_row_applies(problem)
        result = VisualizationPlanner(strategy="best",
                                      timeout_seconds=10.0).plan(problem)
        assert result.solver_name.startswith("ilp-")

    def test_processing_groups_take_the_ilp(self):
        problem = small_problem()
        groups = [ProcessingGroup(1.0, frozenset({k}))
                  for k in range(len(problem.candidates))]
        result = VisualizationPlanner(strategy="best",
                                      timeout_seconds=10.0).plan(
                                          problem, processing_groups=groups)
        assert result.solver_name.startswith("ilp-")

    def test_weak_miss_cost_takes_the_ilp(self):
        # Reading a full screen would cost more than a miss: Assumption 1
        # fails, the lemma does not hold, and the search must not run.
        problem = replace(small_problem(), cost_model=UserCostModel(
            bar_cost=400.0, plot_cost=1800.0, miss_cost=5000.0))
        assert not exact_row_applies(problem)
        result = VisualizationPlanner(strategy="best",
                                      timeout_seconds=10.0).plan(problem)
        assert result.solver_name.startswith("ilp-")

    def test_planner_fault_still_degrades_to_greedy(self):
        with inject_faults("planner.solve:error=SolverError"):
            result = VisualizationPlanner(strategy="best").plan(
                small_problem())
        assert result.solver_name == "greedy"

    def test_expired_deadline_stops_the_search(self):
        deadline = Deadline(1.0)
        deadline.exhaust()
        with pytest.raises(DeadlineExceeded):
            solve_exact_row(small_problem(), float("inf"), deadline)

    def test_search_span_and_decision(self):
        with trace_span("request") as root:
            VisualizationPlanner(strategy="best").plan(small_problem())
        (plan,) = root.children
        assert plan.attributes["decision"] == "exact"
        exact = [c for c in plan.children if c.name == "planner.exact"]
        assert len(exact) == 1
        attributes = exact[0].attributes
        assert attributes["plot_sets"] >= attributes["sets_examined"]
        assert attributes["capped"] is False
