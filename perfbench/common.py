"""Shared pieces of the three workloads: input sizing, sample statistics
and the result record every workload returns."""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: every workload runs on the same generated dataset: scale 0.25 (640
#: rows, the repo's BENCH_SCALE and ``jackpine serve`` default) from
#: generator seed 42. The ``--seed`` argument drives what the workloads
#: *ask* (browse and mixed operation streams, paper-suite order), not the
#: data: at scale 0.25 the data seed alone moves the paper suite's cost
#: by up to 2x, which would swamp every regression bound.
SCALE = 0.25
DATASET_SEED = 42
ENGINE = "greenwood"

#: paper_suite set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 11

#: where runs keep storage directories and span files (inside the
#: checkout, listed in .gitignore)
WORK_DIR = ".perfbench_work"


def work_dir(root: str) -> str:
    path = os.path.join(root, WORK_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); ``inf`` samples -- a
    failed request -- sort last and miss every limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    return count - max(1, math.ceil(p / 100.0 * count))


@dataclass
class Timing:
    """One latency distribution, reported with its sample count."""

    samples: List[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def p(self, pct: float) -> float:
        return percentile(self.samples, pct)


#: nominal duration of the reference work: every timing metric is scaled
#: to a machine that runs :func:`reference_work` in this time
REFERENCE_S = 2.5e-3
#: probes on each side of a gap that set the gap's scale
PROBE_REACH = 3

_RNG = random.Random(7)
_POINTS = [(_RNG.random(), _RNG.random()) for _ in range(64)]


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def reference_work() -> int:
    """Fixed pure-Python work of the kinds the program spends its time
    on: float arithmetic on coordinate tuples, calls, tuple building,
    sorting and dict updates. It uses nothing of the program."""
    points = _POINTS
    boxes = sorted((min(p[0], q[0]), min(p[1], q[1]),
                    max(p[0], q[0]), max(p[1], q[1]))
                   for p in points for q in points[::4])
    counts = {True: 0, False: 0}
    for _ in range(60):
        for i in range(len(points) - 2):
            turn = _orient(points[i], points[i + 1], points[i + 2]) > 0
            counts[turn] = counts[turn] + 1
    return len(boxes) + counts[True]


class SpeedProbe:
    """How fast the machine runs right now, read from fixed work.

    The host's cores are shared, and its speed drifts by up to a third
    within a minute: a fixed loop's throughput per second ranged 45-65
    in one 40-s run, and the same code's paper-suite rate went from 131
    to 82 operations per second in 50 s. So the workloads time the
    reference work in the gaps between operations and scale the
    operations timed between two probes by ``REFERENCE_S / t``, ``t``
    the median reference time of the :data:`PROBE_REACH` probes on each
    side; the metrics then read as on a machine of constant speed. The
    reference work uses nothing of the program and runs with the
    garbage collector off while no operation is in flight, so a change
    to the program does not move it; a program that got slower is
    slower in the scaled figures by the same share.
    """

    def __init__(self, work: Callable[[], object] = reference_work,
                 reference_s: float = REFERENCE_S) -> None:
        self.work = work
        self.reference_s = reference_s
        #: one entry per probe: the median time of its ``count`` runs
        self.times: List[float] = []

    def measure(self, count: int = 1) -> float:
        """Probe: run the reference work ``count`` times, record the
        median time and return the scale it gives alone."""
        runs = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                self.work()
                runs.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(statistics.median(runs))
        return self.reference_s / self.times[-1]

    def scale(self, gap: int, reach: int = PROBE_REACH) -> float:
        """Scale of the time spent between probe ``gap`` and the next."""
        near = self.times[max(0, gap - reach + 1):gap + reach + 1]
        return self.reference_s / statistics.median(near)


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    setup_s: float
    attempted: int
    failed: int
    correct: bool
    #: end-to-end metrics: name -> (value, unit)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: report lines (workload-specific figures with sample counts)
    lines: List[str] = field(default_factory=list)
    #: mean operation time, the base for the tracing-overhead figure
    op_mean_s: float = 0.0
    #: what a mismatch was, for the report
    mismatches: List[str] = field(default_factory=list)
    #: traced phase only: public counter deltas over the measured window
    #: plus ``ops``, the operation count
    counters: Dict[str, float] = field(default_factory=dict)
    #: traced phase only: spans of the set-up, of this process in the
    #: measured window, and -- when the engine ran in another process --
    #: of the engine in the measured window
    setup_spans: List[tuple] = field(default_factory=list)
    path_spans: List[tuple] = field(default_factory=list)
    engine_spans: Optional[List[tuple]] = None


def window_line(name: str, split: List[List[float]], pct: float) -> str:
    """Percentiles per window, then their median over windows, with the
    sample counts, for the report."""
    fewest = min(len(window) for window in split)

    def median_p(p: float) -> float:
        return statistics.median(percentile(window, p) for window in split)

    return (
        f"{name}: p50={1e3 * median_p(50):.3f} ms "
        f"p{pct:g}={1e3 * median_p(pct):.3f} ms "
        f"(medians of {len(split)} windows of >= {fewest} samples, "
        f">= {samples_beyond(fewest, pct)} beyond p{pct:g} in each)"
    )


def latency_line(name: str, timing: Timing, pct: float) -> str:
    """``name p50=… pNN=… ms (n=…, m beyond pNN)`` for the report."""
    if not len(timing):
        return f"{name}: no samples"
    n = len(timing)
    return (
        f"{name}: p50={1e3 * timing.p(50):.3f} ms "
        f"p{pct:g}={1e3 * timing.p(pct):.3f} ms "
        f"(n={n}, {samples_beyond(n, pct)} beyond p{pct:g})"
    )
