"""Jackpine repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_suite --seed 42 \\
        --seconds 30 --trace 0

Run from the repository root. The workload runs in one worker process
with a fixed string-hash seed (:data:`HASH_SEED`). ``--trace 0``
measures the end-to-end metrics with nothing wrapped; every time is
scaled to a machine of constant speed (see
:class:`perfbench.common.SpeedProbe`). ``--trace 1`` measures the
workload twice, untraced and then traced, and reports the per-layer
metrics of the traced half plus the tracing overhead (traced minus
untraced operation time). Either way the outputs are checked for
correctness, report lines go to standard output, and the last line is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A correctness mismatch prints the result with ``"correct": false`` and
exits 1. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_suite", "serve_browse", "durable_mixed")
#: PYTHONHASHSEED of the worker process, fixed so that the iteration
#: order of string-keyed sets and dicts, and with it the work done,
#: repeats from run to run
HASH_SEED = "1"
#: set in a worker's environment
WORKER = "PERFBENCH_WORKER"
#: a run must end within 180 s
BUDGET_S = 170.0
E2E_UNITS = {
    "setup_s": "s",
    "completed_share": "share",
    "ops_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_repro() -> bool:
    """Put the checkout's ``src`` (the program) and root (this package)
    on the import path; False when the program's sources are missing."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        return False
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _e2e(outcome) -> dict:
    metrics = dict(outcome.metrics)
    metrics["setup_s"] = (outcome.setup_s, "s")
    metrics["completed_share"] = (
        (outcome.attempted - outcome.failed) / outcome.attempted, "share")
    return {name: {"value": metrics[name][0], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def _traced(module, args):
    """Untraced half, then traced half; per-layer metrics of the latter."""
    from perfbench import layers
    from perfbench.common import work_dir
    from perfbench.tracer import Recorder, Summary

    half = args.seconds / 2.0
    base = module.run(ROOT, args.seed, half)
    recorder = Recorder()
    recorder.install()
    try:
        traced = module.run(ROOT, args.seed, half, recorder)
    finally:
        recorder.uninstall()
    engine_spans = traced.engine_spans
    if engine_spans is None:
        engine_spans = traced.path_spans
    values = layers.derive(
        Summary(traced.setup_spans), Summary(engine_spans),
        Summary(layers.under_root(traced.path_spans)), traced.counters,
    )
    values["trace.overhead_share"] = traced.op_mean_s / base.op_mean_s - 1.0
    recorder.write(os.path.join(
        work_dir(ROOT), f"{args.workload}.spans.jsonl"))
    traced.attempted += base.attempted
    traced.failed += base.failed
    traced.correct = traced.correct and base.correct
    traced.mismatches = base.mismatches + traced.mismatches
    traced.lines = (
        [f"untraced op mean {1e6 * base.op_mean_s:.1f} us, traced "
         f"{1e6 * traced.op_mean_s:.1f} us"]
        + [f"{name}: {values[name]:.6g} {unit}"
           for name, unit in layers.PER_LAYER]
    )
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layers.PER_LAYER}
    return traced, metrics


def _worker(args, deadline: float):
    """Run the worker process; its report lines and parsed result, or
    ``None`` when it ended without one."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{WORKER: "1"})
    # its own process group: a worker overrunning the budget is killed
    # together with any server it started
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        output, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return [], None
    lines = output.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, ValueError):
        return lines, None


def _orchestrate(args) -> int:
    lines, result = _worker(args, time.monotonic() + BUDGET_S)
    for line in lines:
        print(line)
    if result is None:
        print("perfbench: the worker ended without a result",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not _load_repro():
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    if os.environ.get(WORKER) is None:
        return _orchestrate(args)
    import importlib

    module = importlib.import_module(f"perfbench.{args.workload}")
    started = time.perf_counter()
    if args.trace:
        outcome, metrics = _traced(module, args)
    else:
        outcome = module.run(ROOT, args.seed, args.seconds)
        metrics = _e2e(outcome)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.perf_counter() - started:.1f} s wall")
    for line in outcome.lines:
        print(f"  {line}")
    if not args.trace:
        for name, entry in metrics.items():
            print(f"  {name}: {entry['value']:.6g} {entry['unit']}")
    for mismatch in outcome.mismatches[:20]:
        print(f"  MISMATCH {mismatch}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
