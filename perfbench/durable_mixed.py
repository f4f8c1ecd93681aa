"""``durable_mixed``: reads beside durable write transactions, one client.

Embedded greenwood with ``attach_storage`` in a directory of the
checkout, running ``MixedMix`` (80% reads, 20% ``BEGIN..COMMIT`` writes
on ``pointlm``) closed loop through one DB-API connection. Every
:data:`ROLLBACK_EVERY`-th operation is a transaction that inserts and
renames, then rolls back. A checkpointer thread checkpoints after every
:data:`CHECKPOINT_EVERY` operations -- by count, not on a timer, so the
checkpoint count repeats exactly -- and contends with the client for the
statement latch the way a background checkpointer does.

The run is a series of rounds of :data:`ROUND_OPS` timed operations,
each on a freshly set-up database, until the rounds have measured the
requested time. The mix's inserts grow ``pointlm`` and its
``WHERE gid = ?`` updates scan it, so an operation's cost depends on how
far the run got; equal rounds keep every round the same work however
fast the machine is, and keep the heap inside the buffer pool.

A speed probe runs before each set-up and after every
:data:`PROBE_EVERY` timed operations, and every time is scaled by it (see
:class:`perfbench.common.SpeedProbe`); the time spent in ``os.fsync`` is
scaled by a disk probe instead (see :class:`_FsyncClock`).

Correctness, per round: the storage is closed without a checkpoint and
reopened with ``Database.open``, which recovers from the WAL. Every
acknowledged write must be there and every rolled-back one absent.
"""

from __future__ import annotations

import math
import os
import queue
import random
import shutil
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.datagen as datagen
import repro.dbapi as dbapi
import repro.engines as engines
from repro.errors import ReproError, TransientError
from repro.workload.mixes import get_mix

from perfbench.common import (
    DATASET_SEED,
    ENGINE,
    SCALE,
    Outcome,
    SpeedProbe,
    Timing,
    latency_line,
    percentile,
    window_line,
    work_dir,
)
from perfbench.tracer import ROOT, Recorder

ROUND_OPS = 3000
CHECKPOINT_EVERY = 1000
ROLLBACK_EVERY = 50
#: untimed operations at the start of a round (plan caches, buffer pool)
WARMUP_OPS = 100
#: timed operations between two speed probes (divides ROUND_OPS)
PROBE_EVERY = 100
#: nominal duration of the reference fsync: the time the client spends
#: in ``os.fsync`` is scaled to a disk that syncs a 512-byte append in it
REFERENCE_FSYNC_S = 2.5e-4
#: reference fsyncs per disk probe
FSYNC_PROBE_RUNS = 3
_PROBE_RECORD = b"x" * 511 + b"\n"
RETRIES = 3
#: gids of rolled-back inserts, far from the mix's own insert range
ROLLBACK_GID_BASE = 90_000_000
_UPDATE = "UPDATE pointlm SET name = ? WHERE gid = ?"
_INSERT = "INSERT INTO pointlm VALUES (?, ?, ?, ?, ?)"


def _setup(directory: str):
    start = time.perf_counter()
    dataset = datagen.generate(seed=DATASET_SEED, scale=SCALE)
    db = engines.Database(ENGINE)
    dataset.load_into(db)
    db.attach_storage(directory)
    connection = dbapi.connect(database=db)
    return time.perf_counter() - start, db, connection


class _Checkpointer(threading.Thread):
    """Runs ``Database.checkpoint`` once per request, in order."""

    def __init__(self, db):
        super().__init__(name="perfbench-checkpointer", daemon=True)
        self.db = db
        self.requests: "queue.Queue[bool]" = queue.Queue()
        self.intervals: List[Tuple[float, float]] = []
        self.failures: List[str] = []
        self.running = False
        self.started = 0

    def run(self) -> None:
        while self.requests.get():
            self.running = True
            self.started += 1
            start = time.perf_counter()
            try:
                self.db.checkpoint()
            except ReproError as exc:
                self.failures.append(f"checkpoint: {exc}")
            finally:
                self.intervals.append((start, time.perf_counter()))
                self.running = False

    def stop(self) -> None:
        self.requests.put(False)
        self.join(timeout=60)


class _FsyncClock:
    """Time the client thread spends in ``os.fsync``, and a disk probe.

    The host's disk is shared too: the WAL's fsync averaged 0.2-0.3 ms
    in most rounds and 0.6-0.8 ms in others, which the CPU probe does
    not see. So while a round runs, ``os.fsync`` (which the storage
    modules look up on each call) is timed for the client thread, and
    :attr:`probe` times a reference fsync -- a 512-byte append to a
    file of the benchmark's own, about a WAL commit record's size, on
    the same file system.
    """

    def __init__(self, path: str):
        self.path = path
        self.spent = 0.0
        self._thread = threading.get_ident()
        self._real = os.fsync
        self._file = open(path, "ab")
        self.probe = SpeedProbe(self._reference_fsync, REFERENCE_FSYNC_S)
        os.fsync = self._timed

    def close(self) -> None:
        os.fsync = self._real
        self._file.close()
        os.remove(self.path)

    def _timed(self, fd):
        if threading.get_ident() != self._thread:
            return self._real(fd)
        start = time.perf_counter()
        try:
            return self._real(fd)
        finally:
            self.spent += time.perf_counter() - start

    def _reference_fsync(self) -> None:
        self._file.write(_PROBE_RECORD)
        self._file.flush()
        self._real(self._file.fileno())


class _Round:
    """One round: set-up, warm-up, :data:`ROUND_OPS` timed operations,
    recovery check."""

    def __init__(self, directory: str, seed: int, number: int,
                 recorder: Optional[Recorder]):
        self.recorder = recorder
        setup_mark = recorder.mark() if recorder is not None else 0
        self.probe = SpeedProbe()
        scale = self.probe.measure(5)
        setup_s, self.db, self.connection = _setup(directory)
        self.setup_s = setup_s * scale
        self.setup_spans = (recorder.spans[setup_mark:]
                            if recorder is not None else [])
        self.cursor = self.connection.cursor()
        self.initial = dict(
            self.db.execute("SELECT gid, name FROM pointlm").rows)
        self.mix = get_mix("mixed", self.db)
        self.rng = random.Random(f"{seed}/{number}")
        self.committed: Dict[int, str] = {}
        self.number = 0
        self.rows_returned = 0
        #: per timed operation: (kind, start, seconds); inf if it failed
        self.ops: List[Tuple[str, float, float]] = []
        #: per timed operation, its seconds scaled to the reference speed
        self.scaled: List[float] = []
        #: time spent in the timed operations, measured and scaled, and
        #: the part of it the client spent in ``os.fsync``
        self.busy_s = self.scaled_s = self.synced_s = 0.0
        self.window_spans: list = []
        self.counters: Dict[str, float] = {}
        self.mismatches: List[str] = []
        self.fsyncs = _FsyncClock(directory + ".fsync-probe")
        try:
            self._run()
        finally:
            self.fsyncs.close()
            self.db.durability.close()
        # recovery check, outside the timed window: reopen from the WAL
        if recorder is not None:
            recorder.uninstall()
        try:
            self._check(directory)
        finally:
            if recorder is not None:
                recorder.install()

    def _call(self, fn, statements):
        if self.recorder is None:
            return fn(statements)
        return self.recorder.span(ROOT, fn, statements)

    def _transaction(self, statements, finish) -> None:
        self.cursor.execute("BEGIN")
        for sql, params in statements:
            self.cursor.execute(sql, params)
        finish()

    def _commit(self, statements) -> None:
        self._transaction(statements, self.connection.commit)

    def _roll_back(self, statements) -> None:
        self._transaction(statements, self.connection.rollback)

    def _read(self, statements) -> None:
        for sql, params in statements:
            self.cursor.execute(sql, params)
            self.cursor.fetchall()

    def _one(self) -> Tuple[str, float, float]:
        """Run the next operation: (kind, start, seconds or inf)."""
        number = self.number
        self.number += 1
        if number % ROLLBACK_EVERY == ROLLBACK_EVERY - 1:
            gid = ROLLBACK_GID_BASE + number
            kind, body = "rollback", self._roll_back
            statements = (
                (_INSERT, (gid, f"rolled-back-{gid}", "workload", "000",
                           "POINT(1.0 1.0)")),
                (_UPDATE, (f"rolled-back-{gid}",
                           self.rng.choice(self.mix.hot_gids))),
            )
        else:
            op = self.mix.next_operation(self.rng, 0)
            kind, statements = op.kind, op.statements
            body = self._commit if kind == "write" else self._read
        start = time.perf_counter()
        for attempt in range(RETRIES + 1):
            try:
                self._call(body, statements)
                break
            except TransientError:
                self.connection.rollback()
                if attempt == RETRIES:
                    return kind, start, math.inf
            except ReproError:
                self.connection.rollback()
                return kind, start, math.inf
        seconds = time.perf_counter() - start
        if kind == "write":
            for sql, params in statements:
                if sql == _UPDATE:
                    self.committed[params[1]] = params[0]
                elif sql == _INSERT:
                    self.committed[params[0]] = params[1]
        # every statement of the mix yields or changes exactly one row
        self.rows_returned += len(statements)
        return kind, start, seconds

    def _run(self) -> None:
        db, recorder = self.db, self.recorder
        wal, buffer = db.durability.wal, db.durability.buffer
        checkpointer = _Checkpointer(db)
        checkpointer.start()
        try:
            for _ in range(WARMUP_OPS):
                self._one()
            mark = recorder.mark() if recorder is not None else 0
            stats_before = db.stats.snapshot()
            syncs, hits, misses = wal.syncs_total, buffer.hits, buffer.misses
            checkpoints_before = len(checkpointer.intervals)
            self.rows_returned = 0
            wal_bytes = wal_byte_commits = 0
            start = time.perf_counter()
            disk = self.fsyncs.probe
            first_gap = len(self.probe.times)
            gaps = []
            synced = []
            self.probe.measure()
            disk.measure()
            gap_start = time.perf_counter()
            for timed in range(1, ROUND_OPS + 1):
                size, ckpts = wal.size_bytes(), checkpointer.started
                spent = self.fsyncs.spent
                op = self._one()
                self.ops.append(op)
                synced.append(self.fsyncs.spent - spent)
                if timed % CHECKPOINT_EVERY == 0:
                    checkpointer.requests.put(True)
                if op[0] == "write" and op[2] != math.inf \
                        and ckpts == checkpointer.started \
                        and not checkpointer.running:
                    wal_bytes += wal.size_bytes() - size
                    wal_byte_commits += 1
                if timed % PROBE_EVERY == 0:
                    gaps.append(time.perf_counter() - gap_start)
                    self.probe.measure()
                    disk.measure()
                    gap_start = time.perf_counter()
            self.elapsed = time.perf_counter() - start
        finally:
            checkpointer.stop()

        def scaled(seconds: float, in_fsync: float, gap: int) -> float:
            return ((seconds - in_fsync) * self.probe.scale(first_gap + gap)
                    + in_fsync * disk.scale(gap))

        self.busy_s = sum(gaps)
        self.synced_s = sum(synced)
        self.scaled_s = sum(
            scaled(seconds, sum(synced[g * PROBE_EVERY:(g + 1) * PROBE_EVERY]),
                   g)
            for g, seconds in enumerate(gaps))
        self.scaled = [scaled(op[2], io, i // PROBE_EVERY)
                       for i, (op, io) in enumerate(zip(self.ops, synced))]
        self.mismatches.extend(checkpointer.failures)
        if recorder is None:
            return
        self.window_spans = recorder.spans[mark:]
        stats_after = db.stats.snapshot()
        self.counters = {name: stats_after[name] - stats_before[name]
                         for name in stats_after}
        self.counters.update(
            rows_returned=self.rows_returned,
            wal_bytes=wal_bytes,
            wal_byte_commits=wal_byte_commits,
            wal_syncs=wal.syncs_total - syncs,
            buffer_hits=buffer.hits - hits,
            buffer_misses=buffer.misses - misses,
            checkpoint_stall_s=_stall_s(
                self.ops, checkpointer.intervals[checkpoints_before:]),
            checkpoints=len(checkpointer.intervals) - checkpoints_before,
        )

    def _check(self, directory: str) -> None:
        reopened = engines.Database.open(directory, profile=ENGINE)
        try:
            found_rows = reopened.execute(
                "SELECT gid, name FROM pointlm").rows
        finally:
            reopened.close()
        expected = dict(self.initial)
        expected.update(self.committed)
        found = dict(found_rows)
        if len(found_rows) != len(found):
            self.mismatches.append("duplicate gids after recovery")
        for gid, name in expected.items():
            if found.get(gid) != name:
                self.mismatches.append(
                    f"gid {gid}: acknowledged {name!r}, recovered "
                    f"{found.get(gid)!r}")
        for gid in set(found) - set(expected):
            self.mismatches.append(
                f"gid {gid}: present after recovery but never acknowledged "
                f"({found[gid]!r})")


def _stall_s(ops, checkpoints) -> float:
    """Foreground stall: the latency above its kind's median of every
    operation that overlapped a checkpoint."""
    medians = {}
    for kind in {op[0] for op in ops}:
        medians[kind] = statistics.median(
            op[2] for op in ops if op[0] == kind and op[2] != math.inf)
    stall = 0.0
    for ck_start, ck_end in checkpoints:
        for kind, start, seconds in ops:
            if seconds != math.inf and start < ck_end \
                    and start + seconds > ck_start:
                stall += max(0.0, seconds - medians[kind])
    return stall


def run(root: str, seed: int, seconds: float,
        recorder: Optional[Recorder] = None) -> Outcome:
    rounds: List[_Round] = []
    directory = os.path.join(work_dir(root), f"durable-{os.getpid()}")
    try:
        while not rounds or sum(r.elapsed for r in rounds) < seconds:
            shutil.rmtree(directory, ignore_errors=True)
            rounds.append(_Round(directory, seed, len(rounds), recorder))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if recorder is not None:
            recorder.uninstall()

    split = [r.scaled for r in rounds]
    done = [[x for x in window if x != math.inf] for window in split]
    attempted = sum(len(window) for window in split)
    failed = attempted - sum(len(window) for window in done)
    mismatches = [m for r in rounds for m in r.mismatches]
    elapsed = sum(r.elapsed for r in rounds)
    busy_s = sum(r.busy_s for r in rounds)
    scaled_s = sum(r.scaled_s for r in rounds)
    outcome = Outcome(
        setup_s=statistics.median(r.setup_s for r in rounds),
        attempted=attempted,
        failed=failed,
        correct=not mismatches,
        mismatches=mismatches,
        op_mean_s=scaled_s / max(1, attempted - failed),
    )
    # rate and percentiles per round, then the median over rounds; the
    # rate counts the time spent in the operations, not in the probes
    outcome.metrics = {
        "ops_s": (statistics.median(
            len(ok) / r.scaled_s for ok, r in zip(done, rounds)), "1/s"),
        "p50_ms": (1e3 * statistics.median(
            percentile(window, 50) for window in split), "ms"),
        "p90_ms": (1e3 * statistics.median(
            percentile(window, 90) for window in split), "ms"),
    }
    kinds = {kind: Timing([x for r in rounds
                           for op, x in zip(r.ops, r.scaled)
                           if op[0] == kind and x != math.inf])
             for kind in ("read", "write", "rollback")}
    outcome.lines = [
        f"rounds: {len(rounds)} x {ROUND_OPS} operations in {elapsed:.3f} s "
        f"({len(kinds['read'])} reads, {len(kinds['write'])} commits, "
        f"{len(kinds['rollback'])} rolled back, {failed} failed; "
        f"{ROUND_OPS // CHECKPOINT_EVERY} checkpoints a round)",
        f"speed: operations took {busy_s:.3f} s as measured "
        f"({sum(r.synced_s for r in rounds):.3f} s in fsync), "
        f"{scaled_s:.3f} s scaled to the reference speed; unscaled "
        f"mixed_ops_s {(attempted - failed) / busy_s:.1f}",
        f"mixed_ops_s: {(attempted - failed) / scaled_s:.1f}",
        f"scaled set-ups: "
        f"{', '.join(f'{r.setup_s:.4f}' for r in rounds)} s",
        latency_line("commit (BEGIN..COMMIT)", kinds["write"], 99),
        latency_line("read", kinds["read"], 99),
        window_line("every operation", split, 99),
    ]
    if recorder is not None:
        counters: Dict[str, float] = {}
        for r in rounds:
            for name, value in r.counters.items():
                counters[name] = counters.get(name, 0) + value
        checkpoints = counters.pop("checkpoints")
        stall_s = counters.pop("checkpoint_stall_s")
        counters["checkpoint_stall_ms"] = (
            1e3 * stall_s / checkpoints if checkpoints else 0.0)
        counters["ops"] = attempted - failed
        outcome.counters = counters
        outcome.setup_spans = [s for r in rounds for s in r.setup_spans]
        outcome.path_spans = [s for r in rounds for s in r.window_spans]
    return outcome
