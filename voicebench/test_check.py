"""Self-test of the benchmark's checker: it must flag corrupted answers.

Run from the repository root::

    python3 -m pytest -q voicebench/test_check.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from check import (  # noqa: E402
    SqliteOracle,
    check_bar_response,
    check_trend_response,
)
from repro.core.model import Multiplot  # noqa: E402
from repro.datasets.generators import (  # noqa: E402
    make_flights_table,
    make_nyc311_table,
)
from repro.muve import Muve  # noqa: E402
from repro.sqldb.database import Database  # noqa: E402


@pytest.fixture(scope="module")
def voice():
    table = make_nyc311_table(2_000, seed=7)
    database = Database()
    database.register_table(table)
    muve = Muve(database, "nyc311")
    response = muve.ask_voice("average resolution hours for borough "
                              "Brooklyn")
    oracle = SqliteOracle(table)
    yield response, oracle
    oracle.close()


@pytest.fixture(scope="module")
def trend():
    table = make_flights_table(5_000, seed=7)
    database = Database()
    database.register_table(table)
    muve = Muve(database, "flights")
    response = muve.ask_trend("average arr delay for carrier Delta "
                              "by month")
    oracle = SqliteOracle(table)
    yield response, oracle
    oracle.close()


def _with_multiplot(response, multiplot):
    last = replace(response.updates[-1], multiplot=multiplot)
    return replace(response, updates=response.updates[:-1] + (last,))


def _map_first_bar(multiplot, change):
    rows = []
    done = False
    for row in multiplot.rows:
        plots = []
        for plot in row:
            if not done and plot.bars:
                bars = (change(plot.bars[0]),) + plot.bars[1:]
                plot = replace(plot, bars=bars)
                done = True
            plots.append(plot)
        rows.append(tuple(plots))
    return Multiplot(tuple(rows))


def test_unmodified_answer_passes(voice):
    response, oracle = voice
    assert check_bar_response(response, oracle) == []


def test_perturbed_bar_value_fails(voice):
    response, oracle = voice
    bad = _map_first_bar(response.multiplot,
                         lambda bar: bar.with_value(bar.value * (1 + 1e-6)))
    problems = check_bar_response(_with_multiplot(response, bad), oracle)
    assert any("sqlite" in p for p in problems)


def test_missing_bar_value_fails(voice):
    response, oracle = voice
    bad = _map_first_bar(response.multiplot,
                         lambda bar: bar.with_value(None))
    assert check_bar_response(_with_multiplot(response, bad), oracle)


def test_infeasible_multiplot_fails(voice):
    response, oracle = voice
    served = response.multiplot
    plot = next(served.plots())
    # The same plot twice shows its queries twice: infeasible.
    bad = Multiplot(((plot, plot),) + served.rows[1:])
    problems = check_bar_response(_with_multiplot(response, bad), oracle)
    assert "served multiplot is infeasible" in problems


def test_overstated_cost_claim_fails(voice):
    response, oracle = voice
    planning = replace(response.planning,
                       expected_cost=response.planning.expected_cost + 1.0)
    assert check_bar_response(replace(response, planning=planning),
                              oracle)


def test_plan_worse_than_greedy_fails(voice):
    response, oracle = voice
    planning = replace(response.planning,
                       greedy_cost=response.planning.expected_cost * 0.9)
    problems = check_bar_response(replace(response, planning=planning),
                                  oracle)
    assert any("worse than greedy" in p for p in problems)


def test_unmodified_trend_answer_passes(trend):
    response, oracle = trend
    assert check_trend_response(response, oracle) == []


def test_perturbed_series_point_fails(trend):
    response, oracle = trend
    plots = [plot for row in response.multiplot.rows for plot in row]
    line = plots[0].series[0]
    (x, value), *rest = line.points
    bad_line = line.with_points(((x, value * (1 + 1e-6)), *rest))
    bad_plot = replace(plots[0], series=(bad_line,) + plots[0].series[1:])
    rows = tuple(tuple(bad_plot if plot is plots[0] else plot
                       for plot in row)
                 for row in response.multiplot.rows)
    bad = replace(response,
                  multiplot=replace(response.multiplot, rows=rows))
    assert any("sqlite" in p for p in check_trend_response(bad, oracle))
