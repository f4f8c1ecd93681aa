"""``serve_browse``: map browsing against an out-of-process server.

The benchmark starts ``jackpine serve`` as a subprocess (through
perfbench/serve.py), drives it with ``BrowseMix`` through
``ServiceClient`` from this one process over :data:`CONNECTIONS`
connections, and stops it with SIGINT. Two phases:

1. a third of the run: open loop at :data:`RATE` requests per second,
   well below the knee:
   the requests are due on a fixed schedule, dealt round-robin to the
   connections, and each is timed from when it was due, so a stall
   charges every request queued behind it. How late the generator sent
   requests is reported, and a run whose generator fell behind is
   flagged. A failed or refused request counts as missing every latency
   limit. The rate leaves headroom for a shared machine slowing down:
   at 400/s over one connection the fixed-rate p90 grew tenfold when it
   did, and at 400/s over two it moved 2x between runs.
2. two thirds of the run: closed loop, one request in flight per
   connection. The gated rate and percentiles come from this phase; the
   open loop's are report lines. Timed from its due time, an open-loop
   request also waits for the generator's thread to wake: in the same
   sets of runs of the same code on a shared 2-core host the open-loop
   p90 spread 0.23-0.99 of its median, the closed-loop p90 0.18-0.58.

Each phase runs as windows of about :data:`WINDOW_S`, over the same
connections. A request's time is part computation and part the two
processes waking each other over loopback TCP, which the CPU speed probe
does not see. So between windows, while no request is in flight, a
probe times a reference request (:meth:`_Echo.reference_request`): the
CPU reference work plus :data:`ECHO_ROUND_TRIPS` round trips of a
200-byte message to an echo process of the benchmark's own
(perfbench/echo.py), about half and half on the reference machine; every
request's time is scaled by ``REFERENCE_REQUEST_S / t``, ``t`` the
median of the probes on either side of its window. Over twelve runs
while the host slowed down by half, the run medians of the closed-loop
p50 and p90 spread 0.39 and 0.34 of their medians unscaled, 0.09 and
0.13 scaled by the CPU probe, 0.14 and 0.14 by round trips alone, and
0.08 and 0.05 by an equal mix of the two, which the reference request
measures. A server start is mostly a new Python process importing
modules, so its time is scaled by a probe that times a Python process
importing a fixed set of standard-library modules (see
:func:`_reference_start`).

Correctness: every distinct statement served, cached or not, is run on
an embedded database of the same data after the run; every response to
it must equal that answer.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.datagen as datagen
import repro.engines as engines
from repro.errors import ServiceError
from repro.service import ServiceClient
from repro.service.protocol import decode_rows, jsonable_rows
from repro.workload.mixes import BrowseMix

from perfbench.common import (
    DATASET_SEED,
    ENGINE,
    SCALE,
    Outcome,
    SpeedProbe,
    reference_work,
    Timing,
    percentile,
    window_line,
    work_dir,
)
from perfbench.tracer import ROOT, Recorder, Summary, read_spans

#: offered rate of the open-loop phase, requests per second over all
#: connections (the closed loop completes ~2,000/s on the reference
#: machine)
RATE = 200.0
#: one connection per core of the 2-core reference machine
CONNECTIONS = 2
#: server starts per untraced run; ``setup_s`` is their median
SERVER_STARTS = 5
#: a generator sending its p99 request later than this fell behind
LATE_LIMIT_S = 0.005
#: about how long one window of a phase lasts
WINDOW_S = 0.5
#: echo round trips in a reference request: as long as the CPU reference
#: work on the reference machine (round trips of ~25 us)
ECHO_ROUND_TRIPS = 100
#: nominal reference request: request times are scaled to a machine that
#: runs it in this time
REFERENCE_REQUEST_S = 5e-3
#: reference requests per probe between two windows
PROBE_RUNS = 3
_ECHO_MESSAGE = b"x" * 200
#: reference process starts per probe before a server start
START_RUNS = 3
#: nominal reference process start: ``setup_s`` is scaled to it
REFERENCE_START_S = 0.1
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def _reference_start() -> None:
    """Start a Python process that imports a fixed set of standard-library
    modules, and wait for it to end."""
    subprocess.run(
        [sys.executable, "-c",
         "import argparse, asyncio, concurrent.futures, json, selectors"],
        check=True)


class _Echo:
    """perfbench/echo.py as a subprocess, and one connection to it."""

    def __init__(self, root: str):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "echo.py")],
            stdout=subprocess.PIPE, text=True)
        try:
            port = int(self.process.stdout.readline())
            self.socket = socket.create_connection(("127.0.0.1", port))
            self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.process.kill()
            self.process.communicate()
            raise

    def reference_request(self) -> None:
        """Fixed work, half computation and half loopback round trips
        between two processes, as a request to the server is."""
        reference_work()
        for _ in range(ECHO_ROUND_TRIPS):
            self.socket.sendall(_ECHO_MESSAGE)
            received = 0
            while received < len(_ECHO_MESSAGE):
                chunk = self.socket.recv(4096)
                if not chunk:
                    raise RuntimeError(
                        "the echo process closed the connection")
                received += len(chunk)

    def close(self) -> None:
        """Close the connection (the echo process then exits) and wait."""
        self.socket.close()
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class _Server:
    """One ``jackpine serve`` subprocess, from launch to first ping."""

    def __init__(self, root: str, spans_path: Optional[str]):
        command = [sys.executable, os.path.join(root, "perfbench", "serve.py")]
        if spans_path is not None:
            command += ["--spans", spans_path]
        command += ["serve", "--port", "0", "--engine", ENGINE,
                    "--seed", str(DATASET_SEED), "--scale", str(SCALE)]
        self.log_path = os.path.join(work_dir(root), "serve.log")
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=root, stdout=subprocess.PIPE, stderr=log,
            )
        try:
            self.host, self.port = self._address()
            with ServiceClient(self.host, self.port, trace=False) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _address(self) -> Tuple[str, int]:
        """The bound address from the server's ``listening on`` line. Reads
        the pipe's bytes directly: a buffered reader could hold that line
        while ``select`` waits on the empty pipe."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        fd = self.process.stdout.fileno()
        seen = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                found = re.search(rb"listening on (\S+):(\d+)", seen)
                if found:
                    return found.group(1).decode(), int(found.group(2))
        raise RuntimeError(
            f"jackpine serve did not start; see {self.log_path}")

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port, trace=False)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class _Served:
    """Every response per distinct statement, for the correctness check."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.first: Dict[tuple, list] = {}
        self.differing: List[str] = []

    def add(self, sql: str, params: tuple, rows: list) -> None:
        key = (sql, params)
        with self.lock:
            first = self.first.setdefault(key, rows)
            if first is not rows and first != rows:
                self.differing.append(
                    f"{sql} {params}: served {rows!r} after {first!r}")


def _window(server: _Server, clients: List[ServiceClient], call, mix,
            rngs: List[random.Random], served: _Served, seconds: float,
            open_loop: bool):
    """Run one window: ``(latencies, lateness, failures, elapsed)`` with
    one latency per request, inf if it failed."""
    results = [None] * CONNECTIONS
    start = time.perf_counter() + 0.01
    end = start + seconds

    def worker(index: int) -> None:
        rng = rngs[index]
        latencies, late, failures = [], [], 0
        slot = index
        try:
            while True:
                if open_loop:
                    due = start + slot / RATE
                    if due >= end:
                        break
                    slot += CONNECTIONS
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                    late.append(sent - due)
                else:
                    due = sent = time.perf_counter()
                    if sent >= end:
                        break
                operation = mix.next_operation(rng, index)
                sql, params = operation.statements[0]
                try:
                    result = call(clients[index].execute, sql, params)
                except ServiceError as exc:
                    failures += 1
                    latencies.append(math.inf)
                    if exc.code == "service":  # connection lost
                        clients[index].close()
                        clients[index] = server.client()
                    continue
                latencies.append(time.perf_counter() - due)
                served.add(sql, tuple(params), result.rows)
        finally:
            results[index] = (latencies, late, failures)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return ([x for r in results for x in r[0]],
            [x for r in results for x in r[1]],
            sum(r[2] for r in results), elapsed)


def _phase(server: _Server, call, seed: int, phase: int, served: _Served,
           probe: SpeedProbe, seconds: float, open_loop: bool):
    """Run one phase as windows over the same connections, probing the
    speed after each: per window ``(latencies, lateness, failures,
    elapsed, scale)``, latencies scaled."""
    mix = BrowseMix(seed=seed)
    rngs = [random.Random(f"{seed}/{phase}/{index}")
            for index in range(CONNECTIONS)]
    count = max(2, round(seconds / WINDOW_S))
    clients = [server.client() for _ in range(CONNECTIONS)]
    windows = []
    try:
        first_gap = len(probe.times)
        probe.measure(PROBE_RUNS)
        for _ in range(count):
            windows.append(_window(server, clients, call, mix, rngs, served,
                                   seconds / count, open_loop))
            probe.measure(PROBE_RUNS)
    finally:
        for client in clients:
            client.close()
    scaled = []
    for gap, (latencies, late, failures, elapsed) in enumerate(
            windows, first_gap):
        scale = probe.scale(gap, reach=1)
        scaled.append(([x * scale for x in latencies], late, failures,
                       elapsed, scale))
    return scaled


def _check(served: _Served) -> List[str]:
    """Embedded execution of every distinct served statement."""
    db = engines.Database(ENGINE)
    datagen.generate(seed=DATASET_SEED, scale=SCALE).load_into(db)
    mismatches = list(served.differing)
    for (sql, params), rows in served.first.items():
        expected = decode_rows(jsonable_rows(db.execute(sql, params).rows))
        if rows != expected:
            mismatches.append(
                f"{sql} {params}: served {rows!r}, embedded {expected!r}")
    return mismatches


def run(root: str, seed: int, seconds: float,
        recorder: Optional[Recorder] = None) -> Outcome:
    spans_path = None
    if recorder is not None:
        spans_path = os.path.join(work_dir(root), "serve.spans.jsonl")
    starts = SpeedProbe(_reference_start, REFERENCE_START_S)
    setups = []
    for attempt in range(1 if recorder is not None else SERVER_STARTS):
        scale = starts.measure(START_RUNS)
        server = _Server(root, spans_path)
        setups.append(server.setup_s * scale)
        if attempt < SERVER_STARTS - 1 and recorder is None:
            server.stop()

    def call(fn, *args):
        if recorder is None:
            return fn(*args)
        return recorder.span(ROOT, fn, *args)

    served = _Served()
    echo = None
    try:
        echo = _Echo(root)
        probe = SpeedProbe(echo.reference_request, REFERENCE_REQUEST_S)
        with server.client() as client:
            before = client.server_stats()
        span_mark = recorder.mark() if recorder is not None else 0
        window_start = time.perf_counter()
        opened = _phase(server, call, seed, 0, served, probe,
                        seconds / 3.0, open_loop=True)
        closed = _phase(server, call, seed, 1, served, probe,
                        2.0 * seconds / 3.0, open_loop=False)
        window_end = time.perf_counter()
        with server.client() as client:
            after = client.server_stats()
    finally:
        server.stop()
        if echo is not None:
            echo.close()
    if recorder is not None:
        recorder.uninstall()

    open_split = [w[0] for w in opened]
    closed_split = [w[0] for w in closed]
    late = Timing([x for w in opened for x in w[1]])
    failed = sum(w[2] for w in opened + closed)
    attempted = sum(len(w[0]) for w in opened + closed)
    completed = attempted - failed
    open_s = sum(w[3] for w in opened)
    closed_s = sum(w[3] for w in closed)
    # closed-loop completions per second, per window
    rates = [(len(w[0]) - w[2]) / (w[3] * w[4]) for w in closed]
    raw_rates = [(len(w[0]) - w[2]) / w[3] for w in closed]
    rate = statistics.median(rates)
    mismatches = _check(served)

    def limit_ms(windows, pct: float) -> float:
        """Percentile per window, then the median over windows; a failed
        request misses every limit: it reads as its window."""
        return 1e3 * statistics.median(
            min(percentile(w[0], pct), w[3] * w[4]) for w in windows)

    behind = late.p(99) > LATE_LIMIT_S
    outcome = Outcome(
        setup_s=statistics.median(setups),
        attempted=attempted,
        failed=failed,
        correct=not mismatches,
        mismatches=mismatches,
        op_mean_s=CONNECTIONS * sum(w[3] * w[4] for w in closed)
        / max(1, sum(len(w[0]) - w[2] for w in closed)),
    )
    outcome.metrics = {
        "ops_s": (rate, "1/s"),
        "p50_ms": (limit_ms(closed, 50), "ms"),
        "p90_ms": (limit_ms(closed, 90), "ms"),
    }
    cache = {k: after["cache"][k] - before["cache"][k]
             for k in ("hits", "misses")}
    scales = [w[4] for w in opened + closed]
    outcome.lines = [
        f"server starts: {len(setups)}, scaled set-up "
        f"{', '.join(f'{s:.3f}' for s in setups)} s",
        f"speed: scale {min(scales):.3f}-{max(scales):.3f} over "
        f"{len(scales)} windows; unscaled serve_ops_s "
        f"{statistics.median(raw_rates):.1f}",
        f"open loop at {RATE:g}/s over {CONNECTIONS} connections: "
        f"{sum(len(w) for w in open_split)} requests in {open_s:.3f} s",
        window_line("serve (from due time)", open_split, 99),
        f"generator lateness p99 {1e3 * late.p(99):.3f} ms"
        + (" -- FELL BEHIND, open-loop figures unreliable" if behind else ""),
        f"serve_ops_s: {rate:.1f} (closed loop, "
        f"{CONNECTIONS} connections, "
        f"{sum(len(w) for w in closed_split)} requests in "
        f"{closed_s:.3f} s, median of {len(closed)} windows)",
        window_line("closed loop", closed_split, 99),
        f"result cache: {cache['hits']} hits, {cache['misses']} misses; "
        f"{len(served.first)} distinct statements checked",
    ]
    if recorder is not None:
        outcome.path_spans = recorder.spans[span_mark:]
        _server_layers(outcome, spans_path, window_start, window_end,
                       before, after, completed, late, cache)
    return outcome


def _server_layers(outcome, spans_path, window_start, window_end,
                   before, after, completed, late, cache):
    """Split the server's spans at the window; the service figures."""
    spans = read_spans(spans_path)
    with open(spans_path + ".counters.json") as handle:
        server_counters = json.load(handle)
    outcome.setup_spans = [s for s in spans if s[3] < window_start]
    outcome.engine_spans = [
        s for s in spans if window_start <= s[3] <= window_end]
    server = Summary(outcome.engine_spans)
    client = Summary(outcome.path_spans)
    frames = server.calls.get("service.decode", 0)
    server_side = sum(seconds for name, seconds in server.root_total.items()
                      if name.startswith("service."))
    roundtrip = client.mean_us("service.client", inclusive=True)
    server_request = 1e6 * server_side / frames if frames else 0.0
    looked = cache["hits"] + cache["misses"]
    outcome.counters = dict(server_counters)
    outcome.counters.update({
        "ops": completed,
        "service.client_roundtrip_us": roundtrip,
        "service.server_request_us": server_request,
        "service.unaccounted_us": roundtrip - server_request,
        "service.execute_us": server.mean_us("service.execute",
                                             inclusive=True),
        "service.cache_hit_ratio": cache["hits"] / looked if looked else 0.0,
        "service.pool_acquire_waits": (after["pool"]["acquire_waits"]
                                       - before["pool"]["acquire_waits"]),
        "service.peak_queue": after["admission"]["peak_queue"],
        "service.shed": sum(after["admission"][k] - before["admission"][k]
                            for k in ("shed_queue_full", "shed_deadline")),
        "loadgen.late_p99_ms": 1e3 * percentile(late.samples, 99),
    })
