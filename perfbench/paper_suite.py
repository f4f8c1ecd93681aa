"""``paper_suite``: the paper's own benchmark, embedded, one client.

Each pass runs the 24 ``topology_queries()`` (J-T1), the 20
``analysis_queries()`` (J-T2) and the six macro scenarios through one
DB-API cursor on a loaded greenwood database, closed loop. The suite is
the paper's fixed benchmark definition: the scenarios draw their
statements with the harness's default seed, and ``--seed`` shuffles the
order of the 50 queries and scenarios in each pass. A speed probe runs
before each set-up and between the items of a pass, and every time is
scaled by it (see :class:`perfbench.common.SpeedProbe`). Every micro
answer of every pass is checked against the ironbark profile's full
DE-9IM evaluation of the same query, and every pass must return the
same macro row counts as the warm-up pass.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Dict, List, Optional

import repro.datagen as datagen
import repro.dbapi as dbapi
import repro.engines as engines
from repro.core.macro import ALL_SCENARIOS, Scenario
from repro.core.micro import analysis_queries, bind_dataset, topology_queries
from repro.errors import ReproError

from perfbench.common import (
    DATASET_SEED,
    ENGINE,
    SCALE,
    SETUP_REPEATS,
    Outcome,
    SpeedProbe,
    Timing,
    latency_line,
)
from perfbench.tracer import ROOT, Recorder

INTERACTIVE = ("map_search", "geocoding", "reverse_geocoding",
               "land_information")
ANALYTIC = ("flood_risk", "toxic_spill")
#: the reference profile for micro answers (full-matrix evaluation)
ORACLE = "ironbark"


def _setup():
    start = time.perf_counter()
    dataset = datagen.generate(seed=DATASET_SEED, scale=SCALE)
    db = engines.Database(ENGINE)
    dataset.load_into(db)
    connection = dbapi.connect(database=db)
    return time.perf_counter() - start, dataset, db, connection


def _micro_queries(dataset):
    return topology_queries() + bind_dataset(analysis_queries(), dataset)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _oracle_answers(dataset) -> Dict[str, object]:
    db = engines.Database(ORACLE)
    dataset.load_into(db)
    cursor = dbapi.connect(database=db).cursor()
    return {q.query_id: q.run(cursor) for q in _micro_queries(dataset)}


def run(root: str, seed: int, seconds: float,
        recorder: Optional[Recorder] = None) -> Outcome:
    probe = SpeedProbe()
    setups = []
    for _ in range(1 if recorder is not None else SETUP_REPEATS):
        scale = probe.measure(5)
        setup_s, dataset, db, connection = _setup()
        setups.append(setup_s * scale)
    setup_end = recorder.mark() if recorder is not None else 0
    cursor = connection.cursor()
    queries = _micro_queries(dataset)
    topology_ids = {q.query_id for q in topology_queries()}
    scenarios = [cls() for cls in ALL_SCENARIOS]

    def call(fn, *args, **kwargs):
        if recorder is None:
            return fn(*args, **kwargs)
        return recorder.span(ROOT, fn, *args, **kwargs)

    order = random.Random(seed)
    items = queries + scenarios

    def one_pass():
        """Micro answers, seconds per operation (a micro query or a whole
        scenario, by id or name), scenario results, failure count, and
        the scale of each operation's time by the same key."""
        answers, spent, results, failures = {}, {}, {}, 0
        order.shuffle(items)
        first_gap = len(probe.times)
        for item in items:
            probe.measure()
            start = time.perf_counter()
            if isinstance(item, Scenario):
                result = call(item.run, connection, dataset,
                              seed=DATASET_SEED, engine_name=ENGINE)
                spent[item.name] = time.perf_counter() - start
                results[item.name] = result
                failures += result.failed + result.skipped
                continue
            try:
                answers[item.query_id] = call(item.run, cursor)
            except ReproError as exc:
                answers[item.query_id] = f"error: {exc}"
                failures += 1
            spent[item.query_id] = time.perf_counter() - start
        probe.measure()
        scales = {}
        for gap, item in enumerate(items, first_gap):
            key = item.name if isinstance(item, Scenario) else item.query_id
            scales[key] = probe.scale(gap)
        return answers, spent, results, failures, scales

    # warm-up pass, untimed: fills the parse/plan caches and per-geometry
    # feature caches a long-running engine has warm, and fixes the macro
    # row counts every timed pass must reproduce
    warm_answers, _, warm_results, _, _ = one_pass()
    warm_rows = {name: [s.rows for s in result.steps]
                 for name, result in warm_results.items()}

    span_mark = recorder.mark() if recorder is not None else 0
    stats_before = db.stats.snapshot()
    statements = Timing()
    per_pass: Dict[str, List[float]] = {
        "topology": [], "analysis": [], "interactive": [], "analytic": [],
        "ops_s": [], "raw_ops_s": [],
    }
    mismatches: List[str] = []
    all_answers = [warm_answers]
    attempted = failed = rows_returned = 0
    raw_s = scaled_s = 0.0
    start = time.perf_counter()
    while len(all_answers) == 1 or time.perf_counter() - start < seconds:
        answers, spent, results, failures, scales = one_pass()
        all_answers.append(answers)
        latencies = [spent[k] * scales[k] for k in answers] + [
            step.seconds * scales[name] for name, result in results.items()
            for step in result.steps]
        busy_s = sum(spent[k] * scales[k] for k in spent)
        raw_s += sum(spent.values())
        scaled_s += busy_s
        per_pass["ops_s"].append(len(latencies) / busy_s)
        per_pass["raw_ops_s"].append(len(latencies) / sum(spent.values()))
        failed += failures
        attempted += len(queries)
        for query_id, answer in answers.items():
            statements.add(spent[query_id] * scales[query_id])
            rows_returned += len(answer) if isinstance(answer, list) else 1
        per_pass["topology"].append(sum(
            spent[k] * scales[k] for k in answers if k in topology_ids))
        per_pass["analysis"].append(sum(
            spent[k] * scales[k] for k in answers if k not in topology_ids))
        for key, names in (("interactive", INTERACTIVE),
                           ("analytic", ANALYTIC)):
            executed = sum(results[n].executed for n in names)
            busy = sum(results[n].total_seconds * scales[n] for n in names)
            per_pass[key].append(60.0 * executed / busy)
        for name, result in results.items():
            attempted += len(result.steps)
            for step in result.steps:
                statements.add(step.seconds * scales[name])
                rows_returned += step.rows
            if [s.rows for s in result.steps] != warm_rows[name]:
                mismatches.append(
                    f"pass {len(all_answers) - 1}: {name} row counts moved")
    elapsed = time.perf_counter() - start
    stats_after = db.stats.snapshot()
    if recorder is not None:
        recorder.uninstall()
        outcome_spans = (recorder.spans[:setup_end],
                         recorder.spans[span_mark:])

    # correctness, outside the timed window
    oracle = _oracle_answers(dataset)
    for index, answers in enumerate(all_answers):
        for query_id, expected in oracle.items():
            if not _same(answers.get(query_id), expected):
                mismatches.append(
                    f"pass {index}: {query_id} = {answers.get(query_id)!r}, "
                    f"{ORACLE} says {expected!r}")

    passes = len(all_answers) - 1
    outcome = Outcome(
        setup_s=statistics.median(setups),
        attempted=attempted,
        failed=failed,
        correct=not mismatches,
        mismatches=mismatches,
        op_mean_s=scaled_s / len(statements),
    )
    # an operation is a statement: a micro query or a scenario step (per
    # whole scenario, the 50 operations of a pass leave ~2x gaps around
    # p90). The rate per pass, then the median over passes, counting the
    # time spent in the operations, not in the probes between them;
    # percentiles over every statement of the run: a pass's 26 statements
    # beyond p90 straddle the step from short to long statements, and its
    # p90 moved with the pass order.
    outcome.metrics = {
        "ops_s": (statistics.median(per_pass["ops_s"]), "1/s"),
        "p50_ms": (1e3 * statements.p(50), "ms"),
        "p90_ms": (1e3 * statements.p(90), "ms"),
    }
    median = {k: statistics.median(v) for k, v in per_pass.items()}
    outcome.lines = [
        f"passes: {passes} in {elapsed:.3f} s ({len(queries)} micro "
        f"queries + {len(scenarios)} scenarios each)",
        f"speed: operations took {raw_s:.3f} s as measured, "
        f"{scaled_s:.3f} s scaled to the reference speed; unscaled "
        f"ops_s {median['raw_ops_s']:.1f} (median of {passes} passes)",
        f"scaled set-ups: {', '.join(f'{x:.4f}' for x in setups)} s",
        f"topology_s: {median['topology']:.6f} s "
        f"(median of {passes} passes, 24 queries each)",
        f"analysis_s: {median['analysis']:.6f} s "
        f"(median of {passes} passes, 20 queries each)",
        f"interactive_qpm: {median['interactive']:.1f} "
        f"(median of {passes} passes over {', '.join(INTERACTIVE)})",
        f"analytic_qpm: {median['analytic']:.1f} "
        f"(median of {passes} passes over {', '.join(ANALYTIC)})",
        latency_line("statement latency", statements, 99),
    ]
    if recorder is not None:
        outcome.setup_spans, outcome.path_spans = outcome_spans
        outcome.counters = {
            name: stats_after[name] - stats_before[name]
            for name in stats_after
        }
        outcome.counters.update(ops=len(statements),
                                rows_returned=rows_returned)
    return outcome
