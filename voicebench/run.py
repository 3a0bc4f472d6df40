"""voicebench: one seeded end-to-end benchmark of the default MUVE pipeline.

Runs the shipped default configuration -- ``Muve(database, table)`` with
no ``MUVE_*`` variable set, so the "best" planner, no deadline and no
degradation -- as a closed loop with one client in this process::

    python3 voicebench/run.py --workload voice_cold --seed 1 \\
        --seconds 20 --trace 0 [--out result.json]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics in a separate, paired traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run context.  Every answer is checked against a sqlite3 oracle and
the planner invariants after the timed region, and a failed check counts
as a failed request.  See ``voicebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Seed of the question design.  It is fixed: the run seed varies the
#: generated rows and the request order (README.md, "Inputs").
DESIGN_SEED = 20210620

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Per-layer self times must add up to the traced request time within
#: this share of it.
TRACE_SUM_TOLERANCE = 0.01

#: Caches whose hit rates the traced run reports (``Muve.cache_stats``).
CACHES = ("plans", "query_results", "phonetic_probes", "statements")


@dataclass(frozen=True)
class Workload:
    name: str
    table: str
    rows: int
    #: Questions per (aggregate function, predicate column) stratum.
    per_stratum: int
    #: Trend questions ("... by <x_column>") through ``ask_trend``.
    x_column: str | None = None

    @property
    def trend(self) -> bool:
        return self.x_column is not None


WORKLOADS = {w.name: w for w in (
    Workload("voice_cold", "nyc311", 20_000, per_stratum=3),
    Workload("trend_500k", "flights", 500_000, per_stratum=1,
             x_column="month"),
)}


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    for key in [k for k in os.environ if k.startswith("MUVE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"voicebench: cannot import the program from "
                         f"{SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"voicebench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


def question_design(table, workload: Workload) -> list:
    """``per_stratum`` distinct questions per (aggregate function,
    predicate column) stratum.

    Questions come from a :class:`WorkloadGenerator` with one equality
    predicate, dealt into strata in the order the generator draws them.
    Predicates on the trend x-axis are invalid input ("x-axis column is
    fixed by a predicate") and are not generated.
    """
    from repro.datasets.workload import WorkloadGenerator
    from repro.sqldb.expressions import AggregateFunction
    columns = [c.name for c in table.schema.text_columns()
               if c.name != workload.x_column]
    picked: dict = {(func, column): [] for column in columns
                    for func in AggregateFunction}
    generator = WorkloadGenerator(table, seed=DESIGN_SEED)
    while any(len(q) < workload.per_stratum for q in picked.values()):
        query = generator.random_query(exact_predicates=1)
        queries = picked.get((query.aggregate.func,
                              query.predicates[0].column))
        if queries is not None and query not in queries and \
                len(queries) < workload.per_stratum:
            queries.append(query)
    return [query for queries in picked.values() for query in queries]


def utterance(query, workload: Workload) -> str:
    from repro.experiments.robustness import _speak
    text = _speak(query)
    return f"{text} by {workload.x_column}" if workload.trend else text


class Run:
    """One benchmark run: set-ups, timed rounds, then the checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.setups: list[dict[str, float]] = []
        #: Per round: untraced latencies (ms) and the round's wall time.
        self.rounds: list[tuple[list[float], float]] = []
        self.traced_latencies: list[float] = []
        self.answers: list = []        # every answer (None: it raised)
        self.log: list[tuple[str, float]] = []
        self.errors: list[str] = []
        #: phase -> [sent, failed]
        self.phases = {"timed": [0, 0], "traced": [0, 0]}
        self.cache_deltas = {name: [0.0, 0.0] for name in CACHES}
        self.tracer = None
        if traced:
            from layers import LayerTracer
            self.tracer = LayerTracer()

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """Generate the data, warm it, build the pipeline (timed)."""
        from repro.datasets.generators import DATASET_GENERATORS
        from repro.execution.parallel import warm_database
        from repro.muve import Muve
        from repro.sqldb.database import Database
        w = self.workload
        begin = time.perf_counter()
        table = DATASET_GENERATORS[w.table](num_rows=w.rows,
                                            seed=self.seed)
        generated = time.perf_counter()
        database = Database()
        database.register_table(table)
        warm_database(database)
        warmed = time.perf_counter()
        muve = Muve(database, w.table)
        ready = time.perf_counter()
        self.setups.append({"generate_s": generated - begin,
                            "warm_s": warmed - generated,
                            "pipeline_s": ready - warmed,
                            "total_s": ready - begin})
        return muve

    def setup_elsewhere(self) -> None:
        """One timed set-up in a child interpreter, for the median.

        It runs in a child process because a discarded pipeline would
        leave its memory to this process's allocator and inflate
        ``peak_rss_mb``.
        """
        child = subprocess.run(
            [sys.executable, __file__, "--workload", self.workload.name,
             "--seed", str(self.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=600, check=True)
        self.setups.append(json.loads(child.stdout.splitlines()[-1]))

    # -- requests -------------------------------------------------------

    def ask(self, muve, query, traced: bool = False):
        """One request; returns (latency ms, response or None)."""
        text = utterance(query, self.workload)
        before = muve.cache_stats() if self.tracer and not traced else None
        begin = time.perf_counter()
        try:
            if traced:
                with self.tracer.tracing():
                    response = self._call(muve, text, query)
            else:
                response = self._call(muve, text, query)
        except Exception as exc:  # a failed request is a result
            response = None
            self.errors.append(f"{text!r}: {type(exc).__name__}: {exc}")
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        counts = self.phases["traced" if traced else "timed"]
        counts[0] += 1
        counts[1] += response is None
        self.answers.append(response)
        if before is not None:
            after = muve.cache_stats()
            for name, delta in self.cache_deltas.items():
                delta[0] += after[name]["hits"] - before[name]["hits"]
                delta[1] += after[name]["misses"] - before[name]["misses"]
        return elapsed_ms, response

    def _call(self, muve, text, query):
        if self.workload.trend:
            return muve.ask_trend(text, intended=query)
        return muve.ask_voice(text, intended=query)

    # -- rounds ---------------------------------------------------------

    def execute(self) -> None:
        """Whole rounds of the question design until ``seconds`` of
        untraced request time are measured.

        A voice round runs on fresh pipelines, so every question misses
        the plan and result caches.  Trend rounds share one pipeline:
        the trend path has no plan or result cache.  A traced run asks
        each question on an untraced pipeline and then on a traced twin
        with the same history.
        """
        sides = 2 if self.traced else 1
        pipelines = [self.setup() for _ in range(sides)]
        pending_setups = SETUPS - sides
        self.table = pipelines[0].database.table(pipelines[0].table_name)
        design = question_design(self.table, self.workload)
        self.design_size = len(design)
        order = random.Random(self.seed)
        measured_ms = 0.0
        while measured_ms < self.seconds * 1000.0:
            if self.rounds and not self.workload.trend:
                pipelines = []
                gc.collect()
                pipelines = [self.setup() for _ in range(sides)]
            questions = list(design)
            order.shuffle(questions)
            latencies: list[float] = []
            start = time.perf_counter()
            for query in questions:
                latency, _ = self.ask(pipelines[0], query)
                latencies.append(latency)
                self.log.append((utterance(query, self.workload),
                                 latency))
                if self.traced:
                    traced_ms, _ = self.ask(pipelines[1], query,
                                            traced=True)
                    self.traced_latencies.append(traced_ms)
            self.rounds.append((latencies,
                                time.perf_counter() - start))
            measured_ms += sum(latencies)
            if pending_setups:
                # Between rounds, so the rounds spread over more of
                # the run and average over more of the host's speed
                # swings (README.md, "Rounds and steadiness").
                self.setup_elsewhere()
                pending_setups -= 1
        for _ in range(pending_setups):
            self.setup_elsewhere()

    # -- results --------------------------------------------------------

    def check(self) -> list[str]:
        """Check every answer; returns failure descriptions."""
        from check import (
            SqliteOracle,
            check_bar_response,
            check_trend_response,
        )
        checker = (check_trend_response if self.workload.trend
                   else check_bar_response)
        oracle = SqliteOracle(self.table)
        failures = []
        try:
            for response in self.answers:
                if response is None:
                    continue
                problems = checker(response, oracle)
                if problems:
                    failures.append(f"{response.utterance!r}: "
                                    + "; ".join(problems[:3]))
        finally:
            oracle.close()
        return failures


def end_to_end_metrics(run: Run, peak_rss_mb: float) -> dict[str, float]:
    """What a user of the pipeline sees, from the untraced requests of
    every round."""
    latencies = [ms for round_ms, _ in run.rounds for ms in round_ms]
    wall = sum(seconds for _, seconds in run.rounds)
    answered = [r for r in run.answers if r is not None]
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
        "throughput_rps": len(latencies) / wall,
        "expected_cost_ms_mean": statistics.fmean(
            r.quality.expected_cost_ms for r in answered),
        "truth_coverage_mean": statistics.fmean(
            r.quality.truth_coverage for r in answered),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s["total_s"] for s in run.setups),
    }


def layer_metrics(run: Run, failures: list[str]) -> dict[str, float]:
    """Per-layer metrics of the traced twin, plus the untraced side's
    cache, resilience and set-up figures.  Appends to *failures* when
    the self times do not add up to the traced request time."""
    metrics = run.tracer.report()
    for name, (hits, misses) in run.cache_deltas.items():
        metrics[f"caching.{name}.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    untraced = run.answers[0::2]
    metrics["resilience.degraded_frac"] = (
        sum(1 for r in untraced if r is not None and r.degraded)
        / len(untraced))
    metrics["failed_frac"] = len(failures) / len(run.answers)
    for part in ("generate_s", "warm_s", "pipeline_s"):
        metrics[f"setup.{part}"] = statistics.median(
            s[part] for s in run.setups)
    untraced_ms = sum(sum(latencies) for latencies, _ in run.rounds)
    metrics["trace.overhead_frac"] = (
        sum(run.traced_latencies) / untraced_ms - 1.0)
    total = metrics["trace.request_ms"]
    if abs(metrics["trace.sum_self_ms"] - total) > \
            TRACE_SUM_TOLERANCE * total:
        failures.append("per-layer self times do not add up to the "
                        "traced request time")
    return metrics


def unit_of(name: str) -> str:
    """The unit of a reported metric, from its name."""
    if name.endswith(("_ms", "_ms_mean")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", ".hit_rate", "coverage_mean")):
        return "fraction"
    return "count"


def layer_table(metrics: dict[str, float]) -> str:
    """Self times per layer, then their sum beside the request total."""
    rows = [f"{name:<36} {value:>12.4f}"
            for name, value in sorted(metrics.items())
            if name.endswith(("self_ms", "execute_ms",
                              "estimated_cost_ms"))
            and name != "trace.sum_self_ms"]
    rows.append(f"{'sum of self times (ms/request)':<36} "
                f"{metrics['trace.sum_self_ms']:>12.4f}")
    rows.append(f"{'traced request time (ms/request)':<36} "
                f"{metrics['trace.request_ms']:>12.4f}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full result (context, "
                             "metrics, failures, request log) as JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    import numpy
    import scipy
    from repro.core.planner import VisualizationPlanner

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        run.setup()
        print(json.dumps(run.setups[0]))
        return 0
    run.execute()
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.tracer is not None and run.tracer.installed():
        raise SystemExit("voicebench: layer wrappers left installed")
    check_start = time.perf_counter()
    failures = run.errors + run.check()
    check_s = time.perf_counter() - check_start
    if args.trace:
        metrics = layer_metrics(run, failures)
        print(layer_table(metrics), file=sys.stderr)
    else:
        metrics = end_to_end_metrics(run, peak_rss_mb)

    context = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "table": workload.table, "rows": workload.rows,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "ilp_time_limit_s": VisualizationPlanner().timeout_seconds,
        "design_questions": run.design_size,
        "rounds": len(run.rounds),
        "latency_samples": sum(len(r) for r, _ in run.rounds),
        "setups": len(run.setups),
        "requests": {phase: {"sent": sent, "succeeded": sent - failed,
                             "failed": failed}
                     for phase, (sent, failed) in run.phases.items()},
        "failed_checks": len(failures) - len(run.errors),
        "check_s": check_s,
    }
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(run.answers),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"context": context, **result,
                       "failures": failures, "requests_ms": run.log},
                      handle, indent=2)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
