"""Execution machinery: compiled expressions and iterator plan operators.

Expressions compile to Python closures over ``(row, ctx)`` where ``row``
maps table aliases to stored tuples and ``ctx`` carries parameters, the
engine profile, the function registry and runtime statistics. Plans are
trees of operators, each exposing ``rows(ctx)`` as a restartable
generator — the executor is a plain Volcano-style iterator model.
"""

from __future__ import annotations

import copy
import math
import re
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlPlanError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.obs.waits import CPU_INDEX_PROBE, CPU_SORT, WAITS
from repro.sql import ast
from repro.sql.functions import (
    AGGREGATES,
    DUAL_ROLE_AGGREGATES,
    SPATIAL_PREDICATES,
    FunctionRegistry,
)
from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.table import Table

Row = Dict[str, tuple]
Evaluator = Callable[[Row, "ExecContext"], Any]

#: expensive pure geometry functions memoised per statement execution
_CACHEABLE_FUNCTIONS = frozenset(
    {
        "st_buffer",
        "st_convexhull",
        "st_simplify",
        "st_union",
        "st_intersection",
        "st_difference",
        "st_symdifference",
        "st_centroid",
        "st_pointonsurface",
        "st_boundary",
    }
)


class Stats:
    """Runtime counters, exposed on the connection for the benchmark."""

    __slots__ = (
        "rows_scanned",
        "index_probes",
        "index_candidates",
        "pages_read",
        "join_pairs_considered",
        "join_pairs_emitted",
        "partitions_built",
        "plan_cache_hits",
        "plan_cache_misses",
        "degraded_results",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.rows_scanned = 0
        self.index_probes = 0
        self.index_candidates = 0
        self.pages_read = 0
        self.join_pairs_considered = 0
        self.join_pairs_emitted = 0
        self.partitions_built = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.degraded_results = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "rows_scanned": self.rows_scanned,
            "index_probes": self.index_probes,
            "index_candidates": self.index_candidates,
            "pages_read": self.pages_read,
            "join_pairs_considered": self.join_pairs_considered,
            "join_pairs_emitted": self.join_pairs_emitted,
            "partitions_built": self.partitions_built,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "degraded_results": self.degraded_results,
        }

    def merge(self, other: "Stats") -> None:
        """Fold a per-statement shard into this (shared) Stats object —
        the caller serialises concurrent merges with a lock."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class ExecContext:
    """Everything an operator needs at run time."""

    __slots__ = ("params", "profile", "registry", "catalog", "stats",
                 "cache", "guard", "snapshot")

    def __init__(self, params, profile, registry: FunctionRegistry,
                 catalog: Catalog, stats: Stats, guard=None, snapshot=None):
        self.params = params
        self.profile = profile
        self.registry = registry
        self.catalog = catalog
        self.stats = stats
        # per-statement memo for expensive pure geometry functions, keyed
        # by (function, argument identities) — geometries are immutable
        self.cache: Dict[tuple, Any] = {}
        #: armed :class:`repro.guard.ExecutionGuard` (None = no limits);
        #: operators skip all accounting when it is None
        self.guard = guard
        #: MVCC :class:`repro.txn.Snapshot` (None = no open transactions
        #: anywhere); scans skip visibility checks when it is None or the
        #: scanned table carries no live version stamps
        self.snapshot = snapshot


class Scope:
    """Alias → table map used during compilation for name resolution."""

    def __init__(self) -> None:
        self._aliases: Dict[str, Table] = {}
        self.order: List[str] = []

    def add(self, alias: str, table: Table) -> None:
        key = alias.lower()
        if key in self._aliases:
            raise SqlPlanError(f"duplicate table alias {alias!r}")
        self._aliases[key] = table
        self.order.append(key)

    def resolve(self, ref: ast.ColumnRef) -> Tuple[str, int]:
        if ref.table is not None:
            alias = ref.table.lower()
            if alias not in self._aliases:
                raise SqlPlanError(f"unknown table alias {ref.table!r}")
            return alias, self._aliases[alias].column_index(ref.name)
        hits = [
            (alias, table.column_index(ref.name))
            for alias, table in self._aliases.items()
            if table.has_column(ref.name)
        ]
        if not hits:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise SqlPlanError(f"ambiguous column {ref.name!r}")
        return hits[0]

    def table(self, alias: str) -> Table:
        return self._aliases[alias.lower()]

    def aliases(self) -> List[str]:
        return list(self.order)


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)
    return lambda text: compiled.match(text) is not None


def referenced_aliases(expr: ast.Expr, scope: Scope) -> set:
    """All table aliases an expression touches (for placement decisions)."""
    found: set = set()

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            alias, _idx = scope.resolve(node)
            found.add(alias)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.Between):
            walk(node.value)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.InList):
            walk(node.value)
            for option in node.options:
                walk(option)
        elif isinstance(node, ast.IsNull):
            walk(node.value)
        elif isinstance(node, ast.Star):
            raise SqlPlanError("'*' is only valid in the select list or COUNT(*)")

    walk(expr)
    return found


def subexpressions(expr: ast.Expr) -> Sequence[ast.Expr]:
    """The direct operands of an expression node."""
    if isinstance(expr, ast.FuncCall):
        return expr.args
    if isinstance(expr, ast.BinaryOp):
        return (expr.left, expr.right)
    if isinstance(expr, ast.UnaryOp):
        return (expr.operand,)
    if isinstance(expr, ast.Between):
        return (expr.value, expr.low, expr.high)
    if isinstance(expr, ast.InList):
        return (expr.value, *expr.options)
    if isinstance(expr, ast.IsNull):
        return (expr.value,)
    return ()


def contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall) and is_aggregate_call(expr):
        return True
    return any(contains_aggregate(e) for e in subexpressions(expr))


def is_aggregate_call(expr: ast.FuncCall) -> bool:
    name = expr.name
    if name not in AGGREGATES:
        return False
    if name in DUAL_ROLE_AGGREGATES:
        return len(expr.args) == 1
    return True


class Compiler:
    """Compiles AST expressions into closures."""

    def __init__(self, scope: Scope, registry: FunctionRegistry, profile,
                 agg_slots: Optional[Dict[int, int]] = None):
        self.scope = scope
        self.registry = registry
        self.profile = profile
        # id(FuncCall-node) -> slot index in the aggregate row suffix
        self.agg_slots = agg_slots

    def compile(self, expr: ast.Expr) -> Evaluator:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda row, ctx: value
        if isinstance(expr, ast.Param):
            index = expr.index
            return lambda row, ctx: ctx.params[index]
        if isinstance(expr, ast.ColumnRef):
            alias, idx = self.scope.resolve(expr)
            return lambda row, ctx: row[alias][idx]
        if isinstance(expr, ast.FuncCall):
            return self._compile_func(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                return lambda row, ctx: (
                    None if (v := operand(row, ctx)) is None else -v
                )
            if expr.op == "not":
                return lambda row, ctx: (
                    None if (v := operand(row, ctx)) is None else not v
                )
            raise SqlPlanError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Between):
            value = self.compile(expr.value)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            negated = expr.negated

            def between(row: Row, ctx: ExecContext) -> Optional[bool]:
                v = value(row, ctx)
                lo = low(row, ctx)
                hi = high(row, ctx)
                if v is None or lo is None or hi is None:
                    return None
                result = lo <= v <= hi
                return not result if negated else result

            return between
        if isinstance(expr, ast.InList):
            value = self.compile(expr.value)
            options = [self.compile(o) for o in expr.options]
            negated = expr.negated

            def in_list(row: Row, ctx: ExecContext) -> Optional[bool]:
                v = value(row, ctx)
                if v is None:
                    return None
                result = any(v == o(row, ctx) for o in options)
                return not result if negated else result

            return in_list
        if isinstance(expr, ast.IsNull):
            value = self.compile(expr.value)
            negated = expr.negated
            return lambda row, ctx: (value(row, ctx) is None) != negated
        if isinstance(expr, ast.Star):
            raise SqlPlanError("'*' is only valid in the select list or COUNT(*)")
        raise SqlPlanError(f"cannot compile {type(expr).__name__}")

    def _compile_func(self, expr: ast.FuncCall) -> Evaluator:
        if self.agg_slots is not None and id(expr) in self.agg_slots:
            slot = self.agg_slots[id(expr)]
            return lambda row, ctx: row["__agg__"][slot]
        if is_aggregate_call(expr):
            raise SqlPlanError(
                f"aggregate {expr.name}() not allowed in this clause"
            )
        name = expr.name
        if name in SPATIAL_PREDICATES:
            self.profile.check_supported(name)
            if len(expr.args) != 2:
                raise SqlPlanError(f"{name} takes exactly two arguments")
            arg_a = self.compile(expr.args[0])
            arg_b = self.compile(expr.args[1])

            def predicate(row: Row, ctx: ExecContext) -> Optional[bool]:
                ga = arg_a(row, ctx)
                gb = arg_b(row, ctx)
                if ga is None or gb is None:
                    return None
                if not isinstance(ga, Geometry) or not isinstance(gb, Geometry):
                    raise SqlPlanError(f"{name} expects geometry arguments")
                return ctx.profile.refine_predicate(name, ga, gb, ctx.stats)

            return predicate
        if name.startswith("st_"):
            self.profile.check_supported(name)
        impl = self.registry.lookup(name)
        arg_fns = [self.compile(a) for a in expr.args]

        if name in _CACHEABLE_FUNCTIONS:
            def cached_call(row: Row, ctx: ExecContext) -> Any:
                args = [fn(row, ctx) for fn in arg_fns]
                key = (name,) + tuple(
                    id(a) if isinstance(a, Geometry) else a for a in args
                )
                try:
                    return ctx.cache[key]
                except KeyError:
                    value = impl(*args)
                    ctx.cache[key] = value
                    return value

            return cached_call

        def call(row: Row, ctx: ExecContext) -> Any:
            return impl(*[fn(row, ctx) for fn in arg_fns])

        return call

    def _compile_binary(self, expr: ast.BinaryOp) -> Evaluator:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "and":
            # short-circuit: a False left operand decides the conjunction,
            # so the planner's cheap-first order skips the costly right side
            def and_(row: Row, ctx: ExecContext) -> Optional[bool]:
                a = left(row, ctx)
                if a is False:
                    return False
                return _and3(a, right(row, ctx))

            return and_
        if op == "or":
            return lambda row, ctx: _or3(left(row, ctx), right(row, ctx))
        if op == "like":
            def like(row: Row, ctx: ExecContext) -> Optional[bool]:
                text = left(row, ctx)
                pattern = right(row, ctx)
                if text is None or pattern is None:
                    return None
                return _like_matcher(str(pattern))(str(text))

            return like
        if op == "&&":
            def env_overlap(row: Row, ctx: ExecContext) -> Optional[bool]:
                a = left(row, ctx)
                b = right(row, ctx)
                if a is None or b is None:
                    return None
                return _as_envelope(a).intersects(_as_envelope(b))

            return env_overlap
        if op == "<->":
            def knn_distance(row: Row, ctx: ExecContext) -> Optional[float]:
                a = left(row, ctx)
                b = right(row, ctx)
                if a is None or b is None:
                    return None
                if not isinstance(a, Geometry) or not isinstance(b, Geometry):
                    raise SqlPlanError("'<->' expects geometry operands")
                from repro.algorithms.distance import distance

                return distance(a, b)

            return knn_distance
        if op == "||":
            return lambda row, ctx: _concat(left(row, ctx), right(row, ctx))

        simple = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
            "%": lambda a, b: a % b,
        }
        if op not in simple:
            raise SqlPlanError(f"unknown operator {op!r}")
        fn = simple[op]

        def binary(row: Row, ctx: ExecContext) -> Any:
            a = left(row, ctx)
            b = right(row, ctx)
            if a is None or b is None:
                return None
            return fn(a, b)

        return binary


def _and3(a: Any, b: Any) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _or3(a: Any, b: Any) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


def _concat(a: Any, b: Any) -> Optional[str]:
    if a is None or b is None:
        return None
    return str(a) + str(b)


def _as_envelope(value: Any) -> Envelope:
    if isinstance(value, Geometry):
        return value.envelope
    if isinstance(value, Envelope):
        return value
    raise SqlPlanError(f"expected a geometry for '&&', got {value!r}")


# ---------------------------------------------------------------------------
# plan operators
# ---------------------------------------------------------------------------


class PlanNode:
    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> List[str]:
        lines = ["  " * depth + self.describe()]
        for child in self.children():
            lines.extend(child.explain(depth + 1))
        return lines

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> Sequence["PlanNode"]:
        return ()


class SpanNode(PlanNode):
    """Wraps a plan node to record a :class:`repro.obs.span.Span`.

    Each wrapper measures emitted rows, cumulative wall time and the
    *inclusive* delta of the engine counters over the operator's
    lifetime (children included; exclusive figures are derived from the
    span tree). This is the machinery behind ``EXPLAIN ANALYZE``,
    ``Database.last_trace()`` and the trace exporters.

    Wrapping is copy-on-trace: each wrapper runs a shallow copy of its
    node whose ``child``/``outer``/``inner`` pointers are re-aimed at the
    child wrappers, so the wrapped plan — usually the shared, cached one
    — is never mutated. This holds because plan nodes keep no
    per-execution state and keep every child pointer in those three
    attributes.
    """

    __slots__ = ("inner", "span", "_children", "_on_close")

    def __init__(self, inner: PlanNode, on_close=None):
        from repro.obs.span import Span

        node = copy.copy(inner)
        for attr in ("child", "outer", "inner"):
            original = getattr(node, attr, None)
            if isinstance(original, PlanNode):
                setattr(node, attr, SpanNode(original, on_close))
        self.inner = node
        self._on_close = on_close
        self._children = node.children()
        self.span = Span(
            type(inner).__name__,
            inner.describe(),
            [child.span for child in self._children],
        )

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        perf_counter = time.perf_counter
        span = self.span
        stats = ctx.stats
        start = perf_counter()
        span.begin(start, stats.snapshot())
        emitted = 0
        elapsed = 0.0
        inner_rows = self.inner.rows(ctx)
        try:
            for row in inner_rows:
                elapsed += perf_counter() - start
                emitted += 1
                yield row
                start = perf_counter()
            elapsed += perf_counter() - start
        finally:
            # close the inner iterator first so every descendant flushes
            # its buffered counters before this span snapshots them
            close = getattr(inner_rows, "close", None)
            if close is not None:
                close()
            span.finish(emitted, elapsed, stats.snapshot())
            if self._on_close is not None:
                self._on_close(span)

    def children(self) -> Sequence[PlanNode]:
        return self._children


class OneRow(PlanNode):
    """Source for SELECT without FROM."""

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        yield {}

    def describe(self) -> str:
        return "Result (no table)"


class SeqScan(PlanNode):
    def __init__(self, table: Table, alias: str):
        self.table = table
        self.alias = alias

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        stats = ctx.stats
        stats.pages_read += self.table.page_count
        self.table.seq_scans += 1
        alias = self.alias
        guard = ctx.guard
        snapshot = ctx.snapshot
        scanned = 0
        try:
            if snapshot is not None and self.table.mvcc_versions:
                xmin, xmax = self.table.version_arrays()
                row_visible = snapshot.row_visible
                for row_id, row in enumerate(self.table.rows):
                    if row is None:
                        continue
                    if not row_visible(xmin[row_id], xmax[row_id]):
                        continue
                    scanned += 1
                    if guard is not None:
                        guard.tick()
                    yield {alias: row}
                return
            for row in self.table.rows:
                if row is not None:
                    scanned += 1
                    if guard is not None:
                        guard.tick()
                    yield {alias: row}
        finally:
            stats.rows_scanned += scanned

    def describe(self) -> str:
        return f"SeqScan {self.table.name} AS {self.alias}"


class IndexScan(PlanNode):
    """Envelope probe of a spatial index, yielding candidate rows.

    The probe envelope comes from a compiled expression evaluated once per
    execution (it may reference parameters but no tables).
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        entry: IndexEntry,
        probe: Callable[[ExecContext], Optional[Envelope]],
        label: str = "",
    ):
        self.table = table
        self.alias = alias
        self.entry = entry
        self.probe = probe
        self.label = label

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        envelope = self.probe(ctx)
        if envelope is None:
            return
        if FAULTS.active:
            FAULTS.hit("index.probe")
        stats = ctx.stats
        stats.index_probes += 1
        self.entry.probes += 1
        if WAITS.enabled:
            _started = time.perf_counter()
            row_ids = self.entry.index.search(envelope)
            WAITS.record(CPU_INDEX_PROBE, time.perf_counter() - _started)
        else:
            row_ids = self.entry.index.search(envelope)
        stats.index_candidates += len(row_ids)
        per_page = self.table.ROWS_PER_PAGE
        stats.pages_read += len({rid // per_page for rid in row_ids})
        alias = self.alias
        heap = self.table.rows
        guard = ctx.guard
        snapshot = ctx.snapshot
        scanned = 0
        try:
            if snapshot is not None and self.table.mvcc_versions:
                # probes apply the same visibility rule as scans: the
                # index keeps superseded versions until vacuum, and may
                # hold uncommitted inserts from open transactions
                row_visible = self.table.row_visible
                for row_id in row_ids:
                    row = heap[row_id]
                    if row is None or not row_visible(row_id, snapshot):
                        continue
                    scanned += 1
                    if guard is not None:
                        guard.tick()
                    yield {alias: row}
                return
            for row_id in row_ids:
                scanned += 1
                if guard is not None:
                    guard.tick()
                yield {alias: heap[row_id]}
        finally:
            stats.rows_scanned += scanned

    def describe(self) -> str:
        return (
            f"IndexScan {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} ({self.entry.index.kind}) {self.label}"
        )


class KNNScan(PlanNode):
    """Exact k-nearest-neighbour scan (Hjaltason-Samet best-first).

    Streams index entries in envelope-distance order (a lower bound on the
    exact geometry distance) and holds back each candidate until no
    unseen entry could beat it — yielding rows in *exact* distance order
    without ranking the whole table. Serves ``ORDER BY geom <-> <point>
    LIMIT k`` over an indexed column.
    """

    def __init__(
        self,
        table,
        alias: str,
        entry,
        geom_index: int,
        probe: Callable[[ExecContext], Any],
        k_fn: Callable[[ExecContext], int],
    ):
        self.table = table
        self.alias = alias
        self.entry = entry
        self.geom_index = geom_index
        self.probe = probe
        self.k_fn = k_fn

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        import heapq

        from repro.algorithms.distance import distance as exact_distance
        from repro.geometry.point import Point

        probe_geom = self.probe(ctx)
        if probe_geom is None:
            return
        if not isinstance(probe_geom, Geometry):
            raise SqlPlanError("KNN probe must be a geometry")
        k = self.k_fn(ctx)
        if k <= 0:
            return
        if not isinstance(probe_geom, Point):
            # envelope-to-point bounds only hold for point probes; fall
            # back to an exact full ranking for other probe geometries
            ranked = sorted(
                (
                    (exact_distance(row[self.geom_index], probe_geom), row_id)
                    for row_id, row in self.table.scan(ctx.snapshot)
                    if isinstance(row[self.geom_index], Geometry)
                ),
            )
            for _d, row_id in ranked[:k]:
                ctx.stats.rows_scanned += 1
                yield {self.alias: self.table.get_row(row_id)}
            return
        cx, cy = probe_geom.x, probe_geom.y
        ctx.stats.index_probes += 1
        self.entry.probes += 1
        guard = ctx.guard
        snapshot = ctx.snapshot
        versioned = snapshot is not None and self.table.mvcc_versions
        emitted = 0
        pending: List[tuple] = []  # (exact_dist, seq, row_id)
        seq = 0
        for row_id, lower_bound in self.entry.index.nearest_iter(cx, cy):
            if guard is not None:
                guard.tick()
            if versioned and not self.table.row_visible(row_id, snapshot):
                continue
            while pending and pending[0][0] <= lower_bound:
                _d, _s, ready_id = heapq.heappop(pending)
                yield {self.alias: self.table.get_row(ready_id)}
                emitted += 1
                if emitted >= k:
                    return
            ctx.stats.rows_scanned += 1
            row = self.table.get_row(row_id)
            geom = row[self.geom_index]
            if not isinstance(geom, Geometry):
                continue
            d = exact_distance(geom, probe_geom)
            seq += 1
            heapq.heappush(pending, (d, seq, row_id))
        while pending and emitted < k:
            _d, _s, ready_id = heapq.heappop(pending)
            yield {self.alias: self.table.get_row(ready_id)}
            emitted += 1

    def describe(self) -> str:
        return (
            f"KNNScan {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} ({self.entry.index.kind})"
        )


class Filter(PlanNode):
    def __init__(self, child: PlanNode, predicate: Evaluator, label: str = ""):
        self.child = child
        self.predicate = predicate
        self.label = label

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.rows(ctx):
            if predicate(row, ctx) is True:
                yield row

    def describe(self) -> str:
        return f"Filter {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class NestedLoopJoin(PlanNode):
    """Materialising nested loop (inner side buffered once)."""

    def __init__(self, outer: PlanNode, inner: PlanNode,
                 condition: Optional[Evaluator], label: str = ""):
        self.outer = outer
        self.inner = inner
        self.condition = condition
        self.label = label

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        inner_rows = list(self.inner.rows(ctx))
        guard = ctx.guard
        if guard is not None and inner_rows:
            guard.reserve(len(inner_rows), inner_rows[0])
        condition = self.condition
        stats = ctx.stats
        considered = 0
        emitted = 0
        try:
            if condition is None:
                for outer_row in self.outer.rows(ctx):
                    considered += len(inner_rows)
                    emitted += len(inner_rows)
                    if guard is not None:
                        guard.tick(len(inner_rows))
                    for inner_row in inner_rows:
                        yield {**outer_row, **inner_row}
                return
            # evaluate the condition against one reused scratch dict and
            # only copy it for rows that actually survive
            scratch: Row = {}
            for outer_row in self.outer.rows(ctx):
                considered += len(inner_rows)
                for inner_row in inner_rows:
                    if guard is not None:
                        guard.tick()
                    scratch.clear()
                    scratch.update(outer_row)
                    scratch.update(inner_row)
                    if condition(scratch, ctx) is True:
                        emitted += 1
                        yield dict(scratch)
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted

    def describe(self) -> str:
        return f"NestedLoopJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


class HashJoin(PlanNode):
    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_key: Evaluator,
        inner_key: Evaluator,
        residual: Optional[Evaluator] = None,
        label: str = "",
    ):
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.residual = residual
        self.label = label

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        guard = ctx.guard
        buckets: Dict[Any, List[Row]] = {}
        for inner_row in self.inner.rows(ctx):
            key = self.inner_key(inner_row, ctx)
            if key is None:
                continue
            if guard is not None:
                guard.reserve(1, inner_row)
            buckets.setdefault(key, []).append(inner_row)
        residual = self.residual
        for outer_row in self.outer.rows(ctx):
            key = self.outer_key(outer_row, ctx)
            if key is None:
                continue
            for inner_row in buckets.get(key, ()):
                merged = {**outer_row, **inner_row}
                if residual is None or residual(merged, ctx) is True:
                    yield merged

    def describe(self) -> str:
        return f"HashJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


class IndexNestedLoopJoin(PlanNode):
    """For each outer row, probe the inner table's spatial index."""

    def __init__(
        self,
        outer: PlanNode,
        table: Table,
        alias: str,
        entry: IndexEntry,
        probe: Callable[[Row, ExecContext], Optional[Envelope]],
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer = outer
        self.table = table
        self.alias = alias
        self.entry = entry
        self.probe = probe
        self.residual = residual
        self.label = label

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        alias = self.alias
        residual = self.residual
        probe = self.probe
        search = self.entry.index.search
        heap = self.table.rows
        stats = ctx.stats
        guard = ctx.guard
        snapshot = ctx.snapshot
        row_visible = (
            self.table.row_visible
            if snapshot is not None and self.table.mvcc_versions else None
        )
        faults_hit = FAULTS.hit
        # read once per execution: per-probe timing only when the wait
        # monitor was on as the loop started
        waits_on = WAITS.enabled
        probes = 0
        candidates = 0
        emitted = 0
        try:
            for outer_row in self.outer.rows(ctx):
                envelope = probe(outer_row, ctx)
                if envelope is None:
                    continue
                if FAULTS.active:
                    faults_hit("index.probe")
                probes += 1
                if waits_on:
                    _started = time.perf_counter()
                    row_ids = search(envelope)
                    WAITS.record(
                        CPU_INDEX_PROBE, time.perf_counter() - _started
                    )
                else:
                    row_ids = search(envelope)
                candidates += len(row_ids)
                for row_id in row_ids:
                    if guard is not None:
                        guard.tick()
                    inner_row = heap[row_id]
                    if inner_row is None or (
                        row_visible is not None
                        and not row_visible(row_id, snapshot)
                    ):
                        continue
                    merged = dict(outer_row)
                    merged[alias] = inner_row
                    if residual is None or residual(merged, ctx) is True:
                        emitted += 1
                        yield merged
        finally:
            stats.index_probes += probes
            stats.index_candidates += candidates
            stats.rows_scanned += candidates
            stats.join_pairs_considered += candidates
            stats.join_pairs_emitted += emitted
            self.entry.probes += probes

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} {self.label}"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.outer,)


class SpatialTreeJoin(PlanNode):
    """Synchronized index-traversal join of two indexed tables.

    Both sides must be bare table scans with spatial indexes on the
    joined geometry columns; candidate pairs come from
    ``SpatialIndex.join`` (a lockstep descent of both trees), so neither
    side is re-probed per row. The spatial predicate is refined directly
    through the engine profile — preserving exact / MBR-only / DE-9IM
    semantics. The remaining join conjuncts run as two compiled residuals:
    ``cheap`` (no geometry function) before the refinement, so a pair it
    rejects is never refined, and ``residual`` (the costly rest) after it.
    """

    def __init__(
        self,
        outer_table: Table,
        outer_alias: str,
        outer_entry: IndexEntry,
        inner_table: Table,
        inner_alias: str,
        inner_entry: IndexEntry,
        cheap: Optional[Evaluator],
        refine: Callable[[Any, Any, "ExecContext"], Optional[bool]],
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer_table = outer_table
        self.outer_alias = outer_alias
        self.outer_entry = outer_entry
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_entry = inner_entry
        self.cheap = cheap
        self.refine = refine
        self.residual = residual
        self.label = label
        self._outer_geom = outer_table.column_index(outer_entry.column_name)
        self._inner_geom = inner_table.column_index(inner_entry.column_name)

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        stats = ctx.stats
        self.outer_entry.probes += 1
        self.inner_entry.probes += 1
        outer_heap = self.outer_table.rows
        inner_heap = self.inner_table.rows
        outer_alias = self.outer_alias
        inner_alias = self.inner_alias
        outer_geom = self._outer_geom
        inner_geom = self._inner_geom
        cheap = self.cheap
        refine = self.refine
        residual = self.residual
        guard = ctx.guard
        snapshot = ctx.snapshot
        outer_visible = (
            self.outer_table.row_visible
            if snapshot is not None and self.outer_table.mvcc_versions
            else None
        )
        inner_visible = (
            self.inner_table.row_visible
            if snapshot is not None and self.inner_table.mvcc_versions
            else None
        )
        considered = 0
        emitted = 0
        try:
            for outer_id, inner_id in self.outer_entry.index.join(
                self.inner_entry.index
            ):
                considered += 1
                if guard is not None:
                    guard.tick()
                outer_row = outer_heap[outer_id]
                inner_row = inner_heap[inner_id]
                if outer_row is None or inner_row is None:
                    continue
                if outer_visible is not None and not outer_visible(
                    outer_id, snapshot
                ):
                    continue
                if inner_visible is not None and not inner_visible(
                    inner_id, snapshot
                ):
                    continue
                merged = {outer_alias: outer_row, inner_alias: inner_row}
                if cheap is not None and cheap(merged, ctx) is not True:
                    continue
                if refine(
                    outer_row[outer_geom], inner_row[inner_geom], ctx
                ) is not True:
                    continue
                if residual is None or residual(merged, ctx) is True:
                    emitted += 1
                    yield merged
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted
            stats.rows_scanned += considered

    def describe(self) -> str:
        return (
            f"SpatialTreeJoin {self.outer_table.name} AS {self.outer_alias} "
            f"x {self.inner_table.name} AS {self.inner_alias} "
            f"USING ({self.outer_entry.name}, {self.inner_entry.name}) "
            f"{self.label}"
        ).rstrip()


class PBSMJoin(PlanNode):
    """Partition-based spatial-merge join (Patel & DeWitt).

    Materialises both inputs, grid-partitions their envelopes over the
    joint extent, plane-sweeps within each cell, and deduplicates pairs
    replicated into several cells with the reference-point test (a pair
    counts only in the cell owning the top-left corner of its envelope
    intersection). Needs no index on either side. Residual conjuncts run
    as in :class:`SpatialTreeJoin`: ``cheap`` before the refinement,
    ``residual`` after it.
    """

    #: aim for roughly this many items per grid cell
    TARGET_PER_CELL = 32
    MAX_CELLS_PER_AXIS = 64

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_geom: Evaluator,
        inner_geom: Evaluator,
        cheap: Optional[Evaluator],
        refine: Callable[[Any, Any, "ExecContext"], Optional[bool]],
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer = outer
        self.inner = inner
        self.outer_geom = outer_geom
        self.inner_geom = inner_geom
        self.cheap = cheap
        self.refine = refine
        self.residual = residual
        self.label = label

    def _materialise(
        self, plan: PlanNode, geom_fn: Evaluator, ctx: ExecContext
    ) -> List[Tuple[Envelope, Any, Row]]:
        items = []
        guard = ctx.guard
        for row in plan.rows(ctx):
            geom = geom_fn(row, ctx)
            if geom is None:
                continue
            if not isinstance(geom, Geometry):
                raise SqlPlanError(
                    f"spatial join expects geometry operands, got {geom!r}"
                )
            if guard is not None:
                guard.reserve(1, row)
            items.append((geom.envelope, geom, row))
        return items

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        outer_items = self._materialise(self.outer, self.outer_geom, ctx)
        inner_items = self._materialise(self.inner, self.inner_geom, ctx)
        if not outer_items or not inner_items:
            return
        universe = Envelope.union_all(
            [env for env, _g, _r in outer_items]
            + [env for env, _g, _r in inner_items]
        )
        total = len(outer_items) + len(inner_items)
        per_axis = max(
            1,
            min(
                self.MAX_CELLS_PER_AXIS,
                int(math.sqrt(total / self.TARGET_PER_CELL)) + 1,
            ),
        )
        min_x, min_y = universe.min_x, universe.min_y
        cell_w = (universe.width / per_axis) or 1.0
        cell_h = (universe.height / per_axis) or 1.0
        last = per_axis - 1

        cells: Dict[Tuple[int, int], Tuple[list, list]] = {}
        for side, items in ((0, outer_items), (1, inner_items)):
            for item in items:
                env = item[0]
                x0 = min(int((env.min_x - min_x) / cell_w), last)
                x1 = min(int((env.max_x - min_x) / cell_w), last)
                y0 = min(int((env.min_y - min_y) / cell_h), last)
                y1 = min(int((env.max_y - min_y) / cell_h), last)
                for gx in range(x0, x1 + 1):
                    for gy in range(y0, y1 + 1):
                        bucket = cells.get((gx, gy))
                        if bucket is None:
                            bucket = ([], [])
                            cells[(gx, gy)] = bucket
                        bucket[side].append(item)

        stats = ctx.stats
        stats.partitions_built += len(cells)
        cheap = self.cheap
        refine = self.refine
        residual = self.residual
        guard = ctx.guard
        considered = 0
        emitted = 0
        try:
            for (gx, gy), (cell_outer, cell_inner) in cells.items():
                if not cell_outer or not cell_inner:
                    continue
                cell_outer.sort(key=_env_min_x)
                cell_inner.sort(key=_env_min_x)
                for ea, ga, row_a, eb, gb, row_b in _plane_sweep(
                    cell_outer, cell_inner
                ):
                    if guard is not None:
                        guard.tick()
                    # reference-point dedup for pairs spanning cells
                    rx = ea.min_x if ea.min_x > eb.min_x else eb.min_x
                    ry = ea.min_y if ea.min_y > eb.min_y else eb.min_y
                    if min(int((rx - min_x) / cell_w), last) != gx:
                        continue
                    if min(int((ry - min_y) / cell_h), last) != gy:
                        continue
                    considered += 1
                    merged = {**row_a, **row_b}
                    if cheap is not None and cheap(merged, ctx) is not True:
                        continue
                    if refine(ga, gb, ctx) is not True:
                        continue
                    if residual is None or residual(merged, ctx) is True:
                        emitted += 1
                        yield merged
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted

    def describe(self) -> str:
        return f"PBSMJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


def _env_min_x(item: Tuple[Envelope, Any, Row]) -> float:
    return item[0].min_x


def _plane_sweep(side_a: list, side_b: list):
    """Forward plane sweep over two min_x-sorted envelope lists.

    Yields each x/y-overlapping pair exactly once: the item with the
    smaller ``min_x`` scans forward through the other list while the x
    ranges still overlap.
    """
    i = 0
    j = 0
    len_a = len(side_a)
    len_b = len(side_b)
    while i < len_a and j < len_b:
        item_a = side_a[i]
        item_b = side_b[j]
        if item_a[0].min_x <= item_b[0].min_x:
            ea = item_a[0]
            max_x = ea.max_x
            min_y = ea.min_y
            max_y = ea.max_y
            k = j
            while k < len_b:
                eb = side_b[k][0]
                if eb.min_x > max_x:
                    break
                if eb.min_y <= max_y and min_y <= eb.max_y:
                    item_b_k = side_b[k]
                    yield ea, item_a[1], item_a[2], eb, item_b_k[1], item_b_k[2]
                k += 1
            i += 1
        else:
            eb = item_b[0]
            max_x = eb.max_x
            min_y = eb.min_y
            max_y = eb.max_y
            k = i
            while k < len_a:
                ea = side_a[k][0]
                if ea.min_x > max_x:
                    break
                if ea.min_y <= max_y and min_y <= ea.max_y:
                    item_a_k = side_a[k]
                    yield ea, item_a_k[1], item_a_k[2], eb, item_b[1], item_b[2]
                k += 1
            j += 1


class Aggregate(PlanNode):
    """Hash aggregation with optional grouping."""

    def __init__(
        self,
        child: PlanNode,
        group_keys: List[Evaluator],
        agg_specs: List[Tuple[str, Optional[Evaluator], bool]],
        # (name, argument evaluator or None for COUNT(*), distinct)
        always_one_group: bool,
    ):
        self.child = child
        self.group_keys = group_keys
        self.agg_specs = agg_specs
        self.always_one_group = always_one_group

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        guard = ctx.guard
        groups: Dict[Any, Tuple[Row, list]] = {}
        for row in self.child.rows(ctx):
            key = tuple(_hashable(k(row, ctx)) for k in self.group_keys)
            if key not in groups:
                if guard is not None:
                    guard.reserve(1, row)
                accs = []
                for name, _arg, distinct in self.agg_specs:
                    factory = AGGREGATES[name]
                    accs.append(
                        factory(distinct) if name == "count" else factory()
                    )
                groups[key] = (row, accs)
            _first, accs = groups[key]
            for (name, arg, _d), acc in zip(self.agg_specs, accs):
                acc.add(1 if arg is None else arg(row, ctx))
        if not groups and self.always_one_group:
            accs = []
            for name, _arg, distinct in self.agg_specs:
                factory = AGGREGATES[name]
                accs.append(factory(distinct) if name == "count" else factory())
            groups[()] = ({}, accs)
        for _key, (first_row, accs) in groups.items():
            out = dict(first_row)
            out["__agg__"] = tuple(acc.result() for acc in accs)
            yield out

    def describe(self) -> str:
        kind = "grouped" if self.group_keys else "plain"
        return f"Aggregate ({kind}, {len(self.agg_specs)} aggs)"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _hashable(value: Any) -> Any:
    if isinstance(value, Geometry):
        return value.wkb()
    return value


class Project(PlanNode):
    def __init__(self, child: PlanNode, outputs: List[Tuple[str, Evaluator]]):
        self.child = child
        self.outputs = outputs

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        for row in self.child.rows(ctx):
            yield {
                "__out__": tuple(fn(row, ctx) for _name, fn in self.outputs)
            }

    @property
    def column_names(self) -> List[str]:
        return [name for name, _fn in self.outputs]

    def describe(self) -> str:
        return f"Project [{', '.join(self.column_names)}]"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Sort(PlanNode):
    def __init__(self, child: PlanNode,
                 keys: List[Tuple[Evaluator, bool]]):
        self.child = child
        self.keys = keys  # (evaluator, descending)

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        materialised = list(self.child.rows(ctx))
        guard = ctx.guard
        if guard is not None and materialised:
            guard.reserve(len(materialised), materialised[0])
        if WAITS.enabled:
            _started = time.perf_counter()
            try:
                self._sort(materialised, ctx)
            finally:
                WAITS.record(CPU_SORT, time.perf_counter() - _started)
        else:
            self._sort(materialised, ctx)
        yield from materialised

    def _sort(self, materialised: List[Row], ctx: ExecContext) -> None:
        # stable multi-key sort: apply keys right-to-left
        for evaluator, descending in reversed(self.keys):
            materialised.sort(
                key=lambda row: _sort_key(evaluator(row, ctx)),
                reverse=descending,
            )

    def describe(self) -> str:
        return f"Sort ({len(self.keys)} keys)"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _sort_key(value: Any) -> tuple:
    # None sorts first ascending (→ last descending); mixed types by name
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, "", value)
    return (2, str(value), 0)


class Distinct(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        seen = set()
        for row in self.child.rows(ctx):
            key = tuple(_hashable(v) for v in row["__out__"])
            if key not in seen:
                seen.add(key)
                yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: Optional[Evaluator],
                 offset: Optional[Evaluator]):
        self.child = child
        self.limit = limit
        self.offset = offset

    def rows(self, ctx: ExecContext) -> Iterator[Row]:
        n = self.limit({}, ctx) if self.limit is not None else None
        skip = self.offset({}, ctx) if self.offset is not None else 0
        if n is not None and (not isinstance(n, int) or n < 0):
            raise SqlPlanError(f"LIMIT must be a non-negative integer, got {n!r}")
        if not isinstance(skip, int) or skip < 0:
            raise SqlPlanError(f"OFFSET must be a non-negative integer, got {skip!r}")
        emitted = 0
        for i, row in enumerate(self.child.rows(ctx)):
            if i < skip:
                continue
            if n is not None and emitted >= n:
                return
            emitted += 1
            yield row

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)
