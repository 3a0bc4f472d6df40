"""Correctness checks for benchmark answers, run outside the timed region.

Two independent standards judge every answer:

* **SQL results** come from stdlib :mod:`sqlite3` over the same generated
  rows.  Every bar value and every series point must match within a
  relative tolerance of ``REL_TOL``, and the engine must report ``None``
  exactly where sqlite returns NULL (one documented display rule aside,
  see :func:`bar_value`).  Exact equality would be wrong: the
  engine and sqlite sum floats in different orders, which moves the last
  digits (up to ~5e-14 relative at 1M rows).
* **Planner claims** are re-derived from the problem the planner saw:
  the served multiplot is feasible, its cost under the Section 4 model
  matches the claimed expected cost, "best" never returns a plan worse
  than the greedy plan it computed, and the reported truth coverage is
  the candidate mass actually on screen.

The chosen plan itself is never compared with a stored value: the ILP
runs under a wall-clock limit, so which plan wins depends on timing.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any

from repro.core.cost_model import UserCostModel
from repro.core.problem import MultiplotSelectionProblem
from repro.sqldb.types import DataType

#: Relative tolerance for every numeric comparison against sqlite.
REL_TOL = 1e-9

_SQLITE_TYPES = {DataType.INT: "INTEGER", DataType.FLOAT: "REAL",
                 DataType.TEXT: "TEXT"}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0)


class SqliteOracle:
    """The generated table loaded into an in-memory sqlite database."""

    def __init__(self, table) -> None:
        self.table_name = table.schema.name
        columns = table.schema.columns
        numeric = [c.name for c in columns
                   if c.dtype in (DataType.INT, DataType.FLOAT)]
        self._conn = sqlite3.connect(":memory:")
        declared = ", ".join(f"{_quote(c.name)} {_SQLITE_TYPES[c.dtype]}"
                             for c in columns)
        self._conn.execute(
            f"CREATE TABLE {_quote(self.table_name)} ({declared})")
        data = [table.column(c.name).tolist() for c in columns]
        marks = ", ".join("?" for _ in columns)
        self._conn.executemany(
            f"INSERT INTO {_quote(self.table_name)} VALUES ({marks})",
            zip(*data))
        self._standard = ["COUNT(*)"] + [
            f"{func}({_quote(name)})" for name in numeric
            for func in ("COUNT", "SUM", "AVG", "MIN", "MAX")]
        self._answers: dict[tuple, dict] = {}

    def close(self) -> None:
        self._conn.close()

    def _aggregate_sql(self, call) -> str:
        if call.column is None:
            return "COUNT(*)"
        distinct = "DISTINCT " if call.distinct else ""
        return (f"{call.func.value.upper()}"
                f"({distinct}{_quote(call.column)})")

    def _query(self, keys: list[str], columns: tuple[str, ...],
               values: tuple, aggregates: list[str]) -> dict:
        """``{group key tuple: {aggregate sql: value}}``."""
        select = [_quote(k) for k in keys] + aggregates
        sql = f"SELECT {', '.join(select)} FROM {_quote(self.table_name)}"
        if columns:
            sql += " WHERE " + " AND ".join(f"{_quote(c)} = ?"
                                            for c in columns)
        if keys:
            sql += " GROUP BY " + ", ".join(_quote(k) for k in keys)
        return {tuple(row[:len(keys)]): dict(zip(aggregates,
                                                 row[len(keys):]))
                for row in self._conn.execute(sql, values)}

    def _lookup(self, query, x_column: str | None,
                aggregate: str | None = None) -> dict:
        """``{x (None for a scalar): value}`` for *query*.

        Single-predicate questions on a standard aggregate are answered
        from one bulk ``GROUP BY`` per (predicate column, x-axis): it
        computes every aggregate of every numeric column for every value
        of the column at once, so a run's checks cost a few scans.
        Anything else runs its own filtered query.
        """
        columns = tuple(p.column for p in query.predicates)
        values = tuple(p.value for p in query.predicates)
        if aggregate is None:
            aggregate = self._aggregate_sql(query.aggregate)
        x_keys = [x_column] if x_column is not None else []
        if len(columns) == 1 and aggregate in self._standard:
            key = (columns[0], x_column)
            if key not in self._answers:
                self._answers[key] = self._query(
                    [columns[0], *x_keys], (), (), self._standard)
            groups = self._answers[key]
            return {(group[1] if x_column is not None else None):
                    row[aggregate]
                    for group, row in groups.items()
                    if group[0] == values[0]}
        groups = self._query(x_keys, columns, values, [aggregate])
        return {(group[0] if x_column is not None else None):
                row[aggregate] for group, row in groups.items()}

    def scalar(self, query) -> float | None:
        """The value of an aggregate query, with SQL semantics for no
        qualifying rows: ``COUNT`` is 0, every other aggregate NULL."""
        by_x = self._lookup(query, None)
        if None in by_x:
            return by_x[None]
        return 0 if query.aggregate.func.value == "count" else None

    def qualifying_rows(self, query) -> int:
        """``COUNT(*)`` under *query*'s predicates."""
        return self._lookup(query, None, "COUNT(*)").get(None, 0)

    def series(self, query, x_column: str) -> dict[Any, float | None]:
        """``{x: value}`` of ``query GROUP BY x_column``."""
        return self._lookup(query, x_column)


def bar_value(query, oracle: SqliteOracle) -> float | None:
    """The value a bar for *query* must show.

    Standard SQL through sqlite, plus the one display rule the program
    documents (``repro.execution.merging._normalize``): a SUM bar over
    zero qualifying rows shows 0 where SQL says NULL.  The rule applies
    only when sqlite confirms that no row qualifies.
    """
    expected = oracle.scalar(query)
    if expected is None and query.aggregate.func.value == "sum" and \
            oracle.qualifying_rows(query) == 0:
        return 0.0
    return expected


def check_bar_response(response, oracle: SqliteOracle) -> list[str]:
    """Every violated invariant of one ``ask_voice`` answer (empty: ok)."""
    problems: list[str] = []
    planning = response.planning
    served = response.multiplot
    problem = MultiplotSelectionProblem(response.candidates,
                                        geometry=response.geometry)
    if response.degradations:
        problems.append(f"degraded answer: {response.degradations}")
    if not problem.is_feasible(served):
        problems.append("served multiplot is infeasible")
    if _layout(served) != _layout(planning.multiplot):
        problems.append("served multiplot differs from the planned one")
    evaluated = problem.evaluate(planning.multiplot)
    if not _close(evaluated, planning.expected_cost):
        problems.append(f"claimed expected cost {planning.expected_cost!r}"
                        f" but the plan evaluates to {evaluated!r}")
    if planning.greedy_cost is not None and \
            planning.expected_cost > planning.greedy_cost * (1 + REL_TOL):
        problems.append(f"plan cost {planning.expected_cost!r} is worse "
                        f"than greedy's {planning.greedy_cost!r}")
    problems.extend(_coverage_problems(response, served))
    for plot in served.plots():
        for bar in plot.bars:
            expected = bar_value(bar.query, oracle)
            problems.extend(_value_problems(bar.query, bar.value,
                                            expected))
    return problems


def check_trend_response(response, oracle: SqliteOracle) -> list[str]:
    """Every violated invariant of one ``ask_trend`` answer."""
    problems: list[str] = []
    if response.degradations:
        problems.append(f"degraded answer: {response.degradations}")
    evaluated = UserCostModel().expected_cost(response.multiplot,
                                              response.candidates)
    if not _close(evaluated, response.expected_cost):
        problems.append(f"claimed expected cost {response.expected_cost!r}"
                        f" but the plot evaluates to {evaluated!r}")
    problems.extend(_coverage_problems(response, response.multiplot))
    for plot in response.multiplot.plots():
        for line in plot.series:
            expected = oracle.series(line.query, plot.x_column)
            actual = dict(line.points)
            for x in sorted(set(expected) | set(actual), key=repr):
                problems.extend(_value_problems(
                    line.query, actual.get(x), expected.get(x),
                    where=f" at {plot.x_column}={x!r}"))
    return problems


def _layout(multiplot) -> tuple:
    """Plots, bars and highlights, without result values."""
    return tuple(tuple((plot.template, tuple((bar.query, bar.highlighted)
                                             for bar in plot.bars))
                       for plot in row)
                 for row in multiplot.rows)


def _coverage_problems(response, multiplot) -> list[str]:
    shown = sum(c.probability for c in response.candidates
                if multiplot.shows(c.query))
    reported = response.quality.truth_coverage
    if not _close(reported, shown):
        return [f"truth coverage reported {reported!r}, shown mass is "
                f"{shown!r}"]
    return []


def _value_problems(query, actual, expected, where: str = "") -> list[str]:
    if expected is None and actual is None:
        return []
    if expected is None or actual is None or \
            not _close(float(actual), float(expected)):
        return [f"{query.to_sql()}{where}: engine {actual!r}, "
                f"sqlite {expected!r}"]
    return []
