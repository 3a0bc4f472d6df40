"""Exact multiplot planning for one-row screens (plot-set enumeration).

The Section 4 cost of a multiplot depends on the candidates only through
two probability masses -- ``m_R`` highlighted, ``m_V`` shown but plain --
and four counts: red bars ``b_R``, all bars ``b``, plots with a red bar
``p_R`` and all plots ``p``.  With the miss mass ``t - m_R - m_V``
(``t = max(1, sum of candidate probabilities)``)::

    E = d_M * t - m_R * (d_M - D_R) - m_V * (d_M - D_V)

Assumption 1 (the miss dominates reading) makes both weights
non-negative, and ``D_V >= D_R`` makes the red weight the larger one.
So once a set ``S`` of plots, its red subset ``S_R``, ``b`` and ``b_R``
are fixed, an exchange argument gives the best bars: red = the ``b_R``
most probable candidates a plot of ``S_R`` can show, plain = the next
``b - b_R`` most probable candidates any plot of ``S`` can show.  Bars
only need room in the row (``sum of base widths + b <= W``), and a
construction that leaves a plot empty, or a red plot without red, only
costs less than the formula with ``|S|`` and ``|S_R|`` says.  The
minimum of the formula over every ``(S, S_R, b, b_R)`` is therefore the
optimum, and the multiplot built from its argument attains it.

The search enumerates every set of non-dominated templates
(:func:`~repro.core.ilp.translate.prune_dominated_templates`) that fits
one bar per plot, computes an optimistic bound for all of them at once
(every member may be red, one red plot), and examines sets in bound
order until the bound reaches the incumbent (the greedy plan).  Above
:data:`MAX_PLOT_SETS` sets it gives up and the caller uses the ILP.
DESIGN.md ("Exact single-row planner") records the derivation and the
measurement behind the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.core.ilp.translate import prune_dominated_templates
from repro.core.model import Bar, Multiplot, Plot
from repro.core.problem import MultiplotSelectionProblem
from repro.nlq.templates import QueryTemplate

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience import Deadline

__all__ = ["MAX_PLOT_SETS", "ExactRowResult", "exact_row_applies",
           "solve_exact_row"]

#: Plot sets above which the search returns ``capped`` instead of
#: running.  Set from the exact-time vs set-count curve in DESIGN.md:
#: the default 1125 px screen stays far below it, and at the cap the
#: search still ends well inside the ILP's one-second budget.
MAX_PLOT_SETS = 20_000

#: Width slack, matching :meth:`ScreenGeometry.fits`.
_WIDTH_EPS = 1e-9

#: A set is examined only while its bound is below the incumbent by
#: more than this relative margin (ties keep the incumbent).
_REL_TOL = 1e-12

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.intp]
BoolArray = NDArray[np.bool_]


@dataclass(frozen=True)
class ExactRowResult:
    """The outcome of one search.

    ``multiplot`` is the optimum when it beats the incumbent, and None
    when the search proved that nothing does (the incumbent is optimal)
    or did not run because there were more than :data:`MAX_PLOT_SETS`
    plot sets (``capped``; the two counts are then 0).
    """

    multiplot: Multiplot | None
    expected_cost: float
    plot_sets: int
    sets_examined: int
    capped: bool


def exact_row_applies(problem: MultiplotSelectionProblem) -> bool:
    """Whether the enumeration's lemma holds for *problem*.

    It needs one row, no processing budget, and Assumption 1 over the
    whole screen: the miss cost must be at least ``b * c_B + p * c_P``
    for the most bars and plots that fit, which bounds ``D_V``.
    """
    geometry = problem.geometry
    if geometry.num_rows != 1 or problem.processing_budget is not None:
        return False
    bases = [geometry.plot_base_units(t) for t in problem.templates()]
    if not bases:
        return False
    width = geometry.width_units
    narrowest = min(bases)
    max_bars = max(0.0, width - narrowest)
    max_plots = width // (narrowest + 1.0)
    model = problem.cost_model
    return model.miss_cost >= (model.bar_cost * max_bars
                               + model.plot_cost * max_plots)


def solve_exact_row(problem: MultiplotSelectionProblem,
                    incumbent_cost: float,
                    deadline: "Deadline | None" = None) -> ExactRowResult:
    """The optimal one-row multiplot, if it beats *incumbent_cost*.

    *incumbent_cost* is the expected cost of a known feasible plan;
    sets whose bound cannot beat it are never examined.  *deadline* is
    polled once per examined set, so an exhausted request budget raises
    :class:`~repro.errors.DeadlineExceeded` from inside the search.
    """
    return _Search(problem).run(incumbent_cost, deadline)


def _prefix_masses(masks: BoolArray, probs: FloatArray) -> FloatArray:
    """``out[..., k]``: the mass of the *k* most probable members of each
    mask (``probs`` sorted descending; ``k`` from 0 to ``n``)."""
    ordered = -np.sort(-np.where(masks, probs, 0.0), axis=-1)
    out = np.zeros(masks.shape[:-1] + (masks.shape[-1] + 1,))
    out[..., 1:] = np.cumsum(ordered, axis=-1)
    return out


class _Search:
    """The state of one search: candidates in probability order, the
    non-dominated templates, and every plot set that fits."""

    def __init__(self, problem: MultiplotSelectionProblem) -> None:
        self.problem = problem
        probabilities = [c.probability for c in problem.candidates]
        #: Candidate indices, most probable first; positions below are
        #: positions in this order.
        self.order = sorted(range(len(probabilities)),
                            key=lambda k: (-probabilities[k], k))
        position = {k: p for p, k in enumerate(self.order)}
        self.probs: FloatArray = np.array(
            [probabilities[k] for k in self.order], dtype=np.float64)
        self.total = max(1.0, float(sum(probabilities)))
        kept = prune_dominated_templates(problem)
        self.templates: list[QueryTemplate] = [t for t, _ in kept]
        self.members: BoolArray = np.zeros(
            (len(kept), len(self.order)), dtype=bool)
        for i, (_, members) in enumerate(kept):
            self.members[i, [position[k] for k in members]] = True
        geometry = problem.geometry
        self.bases: FloatArray = np.array(
            [geometry.plot_base_units(t) for t in self.templates],
            dtype=np.float64)
        self.width = geometry.width_units
        model = problem.cost_model
        self.half_bar = model.bar_cost / 2.0
        self.half_plot = model.plot_cost / 2.0
        self.miss = model.miss_cost

    # -- plot sets ------------------------------------------------------

    def plot_sets(self) -> BoolArray | None:
        """Every template set whose base widths plus one bar per plot
        fit the row, as rows of a (sets x templates) matrix, built one
        size at a time; None once there are more than the cap."""
        need = self.bases + 1.0
        limit = self.width + _WIDTH_EPS
        count = len(need)
        index = np.arange(count)
        fits = need <= limit
        chosen = np.eye(count, dtype=bool)[fits]
        used = need[fits]
        last = index[fits]
        levels = [chosen]
        total = len(chosen)
        while len(chosen):
            grow = ((index[None, :] > last[:, None])
                    & (used[:, None] + need[None, :] <= limit))
            total += int(grow.sum())
            if total > MAX_PLOT_SETS:
                return None
            parents, nxt = np.nonzero(grow)
            chosen = chosen[parents]
            chosen[np.arange(len(nxt)), nxt] = True
            used = used[parents] + need[nxt]
            last = nxt
            levels.append(chosen)
        if total > MAX_PLOT_SETS:
            return None
        return np.concatenate(levels)

    # -- search ---------------------------------------------------------

    def run(self, incumbent: float,
            deadline: "Deadline | None") -> ExactRowResult:
        sets = self.plot_sets()
        if sets is None:
            return ExactRowResult(None, incumbent, 0, 0, capped=True)
        best_cost = incumbent
        best: Multiplot | None = None
        empty_cost = self.miss * self.total
        if empty_cost < best_cost * (1.0 - _REL_TOL):
            best_cost, best = empty_cost, Multiplot.empty(1)
        if not len(sets):
            return ExactRowResult(best, best_cost, 0, 0, capped=False)

        bounds, max_bars = self.bounds(sets)
        examined = 0
        argument: tuple[IntArray, BoolArray, int, int] | None = None
        for s in np.argsort(bounds, kind="stable"):
            if bounds[s] >= best_cost * (1.0 - _REL_TOL):
                break
            if deadline is not None:
                deadline.check("planner.exact")
            examined += 1
            chosen = np.nonzero(sets[s])[0]
            found = self.best_in_set(chosen, int(max_bars[s]))
            if found is not None and \
                    found[0] < best_cost * (1.0 - _REL_TOL):
                best_cost = found[0]
                argument = (chosen,) + found[1:]
        if argument is not None:
            best = self._build(*argument)
        if best is not None:
            best_cost = self.problem.evaluate(best)
        return ExactRowResult(best, best_cost, len(sets), examined,
                              capped=False)

    def bounds(self, sets: BoolArray) -> tuple[FloatArray, IntArray]:
        """Per set: a lower bound on its cost, and the most bars it can
        show (room in the row, capped by its member count).

        The bound lets any member be red and puts all red bars in one
        plot.  It loops over ``b_R`` with all sets and all ``b`` at
        once."""
        union = (sets.astype(np.int64) @ self.members.astype(np.int64)) > 0
        sizes = sets.sum(axis=1)
        room = np.floor(self.width - sets @ self.bases + _WIDTH_EPS)
        max_bars = np.minimum(room, union.sum(axis=1)).astype(np.intp)
        masses = _prefix_masses(union, self.probs)
        top = int(max_bars.max())
        bounds = np.full(len(sizes), np.inf)
        for red in range(top + 1):
            bars = np.arange(max(red, 1), top + 1)
            red_plots = min(1, red)
            m_red = masses[:, red][:, None]
            m_plain = masses[:, bars] - m_red
            d_red = red * self.half_bar + red_plots * self.half_plot
            d_plain = (2.0 * d_red + (bars[None, :] - red) * self.half_bar
                       + (sizes[:, None] - red_plots) * self.half_plot)
            cost = (self.miss * self.total
                    - m_red * (self.miss - d_red)
                    - m_plain * (self.miss - d_plain))
            valid = ((bars[None, :] >= sizes[:, None])
                     & (bars[None, :] <= max_bars[:, None]))
            cost = np.where(valid, cost, np.inf)
            np.minimum(bounds, cost.min(axis=1), out=bounds)
        return bounds, max_bars

    def best_in_set(self, chosen: IntArray, max_bars: int,
                     ) -> tuple[float, BoolArray, int, int] | None:
        """The exact minimum over one set's red subsets and bar counts:
        ``(cost, red flags of chosen, b_R, b)``, or None when nothing
        fits."""
        size = len(chosen)
        subsets = ((np.arange(1 << size)[:, None] >> np.arange(size))
                   & 1).astype(bool)
        red_members = (subsets.astype(np.int64)
                       @ self.members[chosen].astype(np.int64)) > 0
        shown = red_members[-1]          # the subset of every plot
        red_plots = subsets.sum(axis=1)
        red_counts = red_members.sum(axis=1)
        reds = bars = np.arange(max_bars + 1)
        # red[j, r, :]: the r most probable members of subset j's plots.
        ranks = np.cumsum(red_members, axis=1)
        red = red_members[:, None, :] & (ranks[:, None, :]
                                         <= reds[None, :, None])
        plain_masses = _prefix_masses(shown[None, None, :] & ~red,
                                      self.probs)
        red_masses = _prefix_masses(red_members, self.probs)[:, reds]
        plain_count = bars[None, :] - reds[:, None]         # (r, b)
        m_plain = np.take_along_axis(
            plain_masses, np.maximum(plain_count, 0)[None, :, :], axis=2)
        d_red = (reds[None, :] * self.half_bar
                 + red_plots[:, None] * self.half_plot)     # (j, r)
        d_plain = (2.0 * d_red[:, :, None]
                   + plain_count[None, :, :] * self.half_bar
                   + (size - red_plots)[:, None, None] * self.half_plot)
        cost = (self.miss * self.total
                - red_masses[:, :, None] * (self.miss - d_red[:, :, None])
                - m_plain * (self.miss - d_plain))
        valid = ((plain_count >= 0)[None, :, :]
                 & (bars >= size)[None, None, :]
                 & (reds[None, :, None] >= red_plots[:, None, None])
                 & (reds[None, :, None] <= red_counts[:, None, None]))
        cost = np.where(valid, cost, np.inf)
        flat = int(np.argmin(cost))
        if not np.isfinite(cost.flat[flat]):
            return None
        j, r, b = np.unravel_index(flat, cost.shape)
        return float(cost.flat[flat]), subsets[j], int(r), int(b)

    def _build(self, chosen: IntArray, red_flags: BoolArray,
               num_red: int, num_bars: int) -> Multiplot:
        """The multiplot of the lemma: the *num_red* most probable
        members of the red templates in red, then the next most probable
        members of any chosen template up to *num_bars* bars.  Each bar
        goes to the first chosen template that can show it; plots left
        empty are dropped."""
        red_templates = chosen[red_flags]
        red_positions = np.nonzero(
            self.members[red_templates].any(axis=0))[0][:num_red]
        plain = self.members[chosen].any(axis=0)
        plain[red_positions] = False
        plain_positions = np.nonzero(plain)[0][:num_bars - num_red]
        placed: dict[int, list[Bar]] = {int(i): [] for i in chosen}
        for positions, owners, highlighted in (
                (red_positions, red_templates, True),
                (plain_positions, chosen, False)):
            for position in positions:
                owner = int(owners[self.members[owners, position]][0])
                candidate = self.problem.candidates[self.order[position]]
                placed[owner].append(Bar(
                    query=candidate.query,
                    probability=candidate.probability,
                    label=self.templates[owner].x_label(candidate.query),
                    highlighted=highlighted))
        plots = []
        for owner, bars in placed.items():
            if bars:
                bars.sort(key=lambda bar: (-bar.probability, bar.label))
                plots.append(Plot(self.templates[owner], tuple(bars)))
        return Multiplot((tuple(plots),))
