"""Per-layer metrics of a traced phase.

Every workload reports every metric below; a layer the workload does not
reach reads 0. Units: ``count/op`` and ``s/op`` are per operation of the
workload (a statement on ``paper_suite``, a request on ``serve_browse``,
a read or transaction on ``durable_mixed``); ``us`` is mean self time
per call of the named entry point; ``share`` metrics split the traced
operation time along the blocking path, so the ``*.self_share`` values
and ``trace.unaccounted_share`` add up to 1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from perfbench.tracer import ROOT, Span, Summary

#: the layers of ``repro`` the benchmark times, in call order
LAYERS = ("dbapi", "engines", "sql", "index", "algorithms", "geometry",
          "txn", "storage", "service")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("datagen.generate_s", "s"),
    ("datagen.load_s", "s"),
    ("datagen.index_build_s", "s"),
    ("sql.parse_calls", "count/op"),
    ("sql.parse_us", "us"),
    ("sql.plan_calls", "count/op"),
    ("sql.plan_us", "us"),
    ("sql.rows_scanned_per_row", "ratio"),
    ("engines.execute_self_us", "us"),
    ("engines.plan_cache_hit_ratio", "ratio"),
    ("dbapi.cursor_self_us", "us"),
    ("index.search_calls", "count/op"),
    ("index.search_self_us", "us"),
    ("index.join_self_s", "s/op"),
    ("index.candidates_per_probe", "ratio"),
    ("index.insert_self_us", "us"),
    ("algorithms.relate_calls", "count/op"),
    ("algorithms.relate_self_s", "s/op"),
    ("algorithms.predicate_calls", "count/op"),
    ("algorithms.predicate_self_s", "s/op"),
    ("algorithms.overlay_self_s", "s/op"),
    ("algorithms.refine_pass_ratio", "ratio"),
    ("geometry.wkt_parse_calls", "count/op"),
    ("geometry.wkt_parse_us", "us"),
    ("txn.commits", "count/op"),
    ("txn.aborts", "count/op"),
    ("txn.commit_self_us", "us"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.fsyncs_per_commit", "ratio"),
    ("storage.wal_sync_us", "us"),
    ("storage.buffer_hit_ratio", "ratio"),
    ("storage.checkpoint_s", "s"),
    ("storage.checkpoint_stall_ms", "ms"),
    ("service.client_roundtrip_us", "us"),
    ("service.server_request_us", "us"),
    ("service.unaccounted_us", "us"),
    ("service.execute_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.pool_acquire_waits", "count"),
    ("service.peak_queue", "count"),
    ("service.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS) + (
    ("trace.unaccounted_share", "share"),
    ("trace.op_us", "us"),
    ("trace.overhead_share", "share"),
)


def under_root(spans: Iterable[Span]) -> List[Span]:
    """The spans on the blocking path: benchmark operations and their
    descendants (a checkpointer thread's spans are not)."""
    spans = list(spans)
    parent_of = {span[0]: span[1] for span in spans}
    name_of = {span[0]: span[2] for span in spans}
    verdict: Dict[int, bool] = {}

    def on_path(sid: int) -> bool:
        chain = []
        while sid and sid not in verdict:
            if name_of.get(sid) == ROOT:
                verdict[sid] = True
                break
            chain.append(sid)
            sid = parent_of.get(sid, 0)
        result = verdict.get(sid, False) if sid else False
        for link in chain:
            verdict[link] = result
        return result

    return [span for span in spans if on_path(span[0])]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(setup: Summary, engine: Summary, path: Summary,
           counters: Dict[str, float]) -> Dict[str, float]:
    """``setup``: spans of the traced set-up; ``engine``: the measured
    window's spans wherever the engine ran (in process, or the server);
    ``path``: the window's spans in this process under benchmark
    operations; ``counters``: public counter deltas and ``ops``."""
    ops = counters.get("ops", 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def self_us(*names: str) -> float:
        """Mean self time per call of the first name, in microseconds,
        counting the self time of every listed name."""
        return 1e6 * _ratio(sum(engine.self_time.get(n, 0.0) for n in names),
                            engine.calls.get(names[0], 0))

    # per set-up (durable_mixed sets up once a round)
    setups = setup.calls.get("datagen.load_into", 0)
    build = _ratio(setup.total.get("index.bulk_load", 0.0), setups)
    commits = engine.calls.get("txn.commit", 0)
    out = {
        "datagen.generate_s": _ratio(setup.total.get("datagen.generate", 0.0),
                                     setup.calls.get("datagen.generate", 0)),
        "datagen.load_s": _ratio(setup.total.get("datagen.load_into", 0.0),
                                 setups) - build,
        "datagen.index_build_s": build,
        "sql.parse_calls": per_op(engine.calls.get("sql.parse", 0)),
        "sql.parse_us": self_us("sql.parse"),
        "sql.plan_calls": per_op(engine.calls.get("sql.plan_select", 0)),
        "sql.plan_us": self_us("sql.plan_select"),
        "sql.rows_scanned_per_row": _ratio(
            counters.get("rows_scanned", 0), counters.get("rows_returned", 0)),
        "engines.execute_self_us": self_us("engines.execute"),
        "engines.plan_cache_hit_ratio": _ratio(
            counters.get("plan_cache_hits", 0),
            counters.get("plan_cache_hits", 0)
            + counters.get("plan_cache_misses", 0)),
        "dbapi.cursor_self_us": self_us("dbapi.execute", "dbapi.fetch"),
        "index.search_calls": per_op(engine.calls.get("index.search", 0)),
        "index.search_self_us": self_us("index.search"),
        "index.join_self_s": per_op(engine.self_time.get("index.join", 0.0)),
        "index.candidates_per_probe": _ratio(
            counters.get("index_candidates", 0),
            counters.get("index_probes", 0)),
        "index.insert_self_us": self_us("index.insert"),
        "algorithms.relate_calls": per_op(
            engine.calls.get("algorithms.relate", 0)),
        "algorithms.relate_self_s": per_op(
            engine.self_time.get("algorithms.relate", 0.0)),
        "algorithms.predicate_calls": per_op(
            engine.calls.get("algorithms.predicate", 0)),
        "algorithms.predicate_self_s": per_op(
            engine.self_time.get("algorithms.predicate", 0.0)),
        "algorithms.overlay_self_s": per_op(
            engine.self_time.get("algorithms.overlay", 0.0)),
        "algorithms.refine_pass_ratio": _ratio(
            counters.get("join_pairs_emitted", 0),
            counters.get("join_pairs_considered", 0)),
        "geometry.wkt_parse_calls": per_op(
            engine.calls.get("geometry.wkt_loads", 0)),
        "geometry.wkt_parse_us": self_us("geometry.wkt_loads"),
        "txn.commits": per_op(commits),
        "txn.aborts": per_op(engine.calls.get("txn.rollback", 0)),
        "txn.commit_self_us": self_us("txn.commit"),
        "storage.wal_bytes_per_commit": _ratio(
            counters.get("wal_bytes", 0), counters.get("wal_byte_commits", 0)),
        "storage.fsyncs_per_commit": _ratio(
            counters.get("wal_syncs", 0), commits),
        "storage.wal_sync_us": self_us("storage.wal_sync"),
        "storage.buffer_hit_ratio": _ratio(
            counters.get("buffer_hits", 0),
            counters.get("buffer_hits", 0) + counters.get("buffer_misses", 0)),
        "storage.checkpoint_s": _ratio(
            engine.total.get("storage.checkpoint", 0.0),
            engine.calls.get("storage.checkpoint", 0)),
        "storage.checkpoint_stall_ms": counters.get("checkpoint_stall_ms", 0.0),
    }
    for name in ("service.client_roundtrip_us", "service.server_request_us",
                 "service.unaccounted_us", "service.execute_us",
                 "service.cache_hit_ratio", "service.pool_acquire_waits",
                 "service.peak_queue", "service.shed", "loadgen.late_p99_ms"):
        out[name] = float(counters.get(name, 0.0))

    op_total = path.root_total.get(ROOT, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(
            sum(seconds for name, seconds in path.self_time.items()
                if name.split(".", 1)[0] == layer), op_total)
    out["trace.unaccounted_share"] = _ratio(
        path.self_time.get(ROOT, 0.0), op_total)
    out["trace.op_us"] = 1e6 * per_op(op_total)
    return out
