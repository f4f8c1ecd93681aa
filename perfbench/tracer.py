"""Span recorder for the traced benchmark run.

The benchmark measures each layer of ``repro`` from outside: it wraps a
fixed set of public entry points (:data:`ENTRY_POINTS`) with a timing
wrapper that records one span per call -- ``(span_id, parent_id, name,
start, end)`` -- in memory. Parent ids come from a per-thread stack, so a
layer's *self* time is its spans' durations minus the part their child
spans cover. Spans are written out when the run ends.

A name is patched everywhere it is looked up: every ``repro`` module
global and every module-level dict value that *is* the original function
(``from x import f`` copies and dispatch tables such as the engine
profile's predicate table) is replaced, so no call path slips past the
wrapper. Methods are patched on each class that defines them.

Nothing as hot as ``predicates.orientation`` is wrapped: every entry
point below runs at most a few thousand times per second of work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (module, attribute, span name). ``Class.method`` attributes patch that
#: method on the class; a bare name patches a module-level function in
#: every module that refers to it.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.datagen.tiger", "generate", "datagen.generate"),
    ("repro.datagen.tiger", "TigerDataset.load_into", "datagen.load_into"),
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.sql.planner", "Planner.plan_select", "sql.plan_select"),
    ("repro.engines.database", "Database.execute", "engines.execute"),
    ("repro.dbapi.connection", "Cursor.execute", "dbapi.execute"),
    ("repro.dbapi.connection", "Cursor.fetchone", "dbapi.fetch"),
    ("repro.dbapi.connection", "Cursor.fetchall", "dbapi.fetch"),
    ("repro.algorithms.de9im", "relate", "algorithms.relate"),
    ("repro.algorithms.de9im", "relate_pattern", "algorithms.predicate"),
    ("repro.algorithms.de9im", "equals", "algorithms.predicate"),
    ("repro.algorithms.de9im", "disjoint", "algorithms.predicate"),
    ("repro.algorithms.de9im", "intersects", "algorithms.predicate"),
    ("repro.algorithms.de9im", "touches", "algorithms.predicate"),
    ("repro.algorithms.de9im", "crosses", "algorithms.predicate"),
    ("repro.algorithms.de9im", "within", "algorithms.predicate"),
    ("repro.algorithms.de9im", "contains", "algorithms.predicate"),
    ("repro.algorithms.de9im", "overlaps", "algorithms.predicate"),
    ("repro.algorithms.de9im", "covers", "algorithms.predicate"),
    ("repro.algorithms.de9im", "covered_by", "algorithms.predicate"),
    ("repro.algorithms.overlay", "intersection", "algorithms.overlay"),
    ("repro.algorithms.overlay", "union", "algorithms.overlay"),
    ("repro.algorithms.overlay", "union_all", "algorithms.overlay"),
    ("repro.algorithms.overlay", "difference", "algorithms.overlay"),
    ("repro.algorithms.overlay", "sym_difference", "algorithms.overlay"),
    ("repro.algorithms.buffer", "buffer", "algorithms.overlay"),
    ("repro.geometry.wkt", "loads", "geometry.wkt_loads"),
    ("repro.txn.manager", "TxnManager.commit", "txn.commit"),
    ("repro.txn.manager", "TxnManager.rollback", "txn.rollback"),
    ("repro.storage.wal", "WriteAheadLog.sync", "storage.wal_sync"),
    ("repro.storage.durability", "DurabilityManager.checkpoint",
     "storage.checkpoint"),
    ("repro.service.client", "ServiceClient.execute", "service.client"),
    ("repro.service.protocol", "decode_body", "service.decode"),
    ("repro.service.protocol", "encode_frame", "service.encode"),
    ("repro.service.protocol", "jsonable_rows", "service.encode"),
    ("repro.service.admission", "AdmissionControl.try_admit",
     "service.admission"),
    ("repro.service.admission", "AdmissionControl.begin",
     "service.admission"),
    ("repro.service.admission", "AdmissionControl.done", "service.admission"),
    ("repro.service.pool", "SessionPool.acquire", "service.pool"),
    ("repro.service.pool", "SessionPool.release", "service.pool"),
    ("repro.service.cache", "CachedExecutor.execute", "service.execute"),
)

#: index structures: every class that defines one of these methods gets
#: it wrapped (subclasses override the base implementations)
INDEX_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.index.base", "SpatialIndex"),
    ("repro.index.rtree", "RTree"),
    ("repro.index.quadtree", "QuadTree"),
    ("repro.index.grid", "GridIndex"),
    ("repro.index.noindex", "LinearScanIndex"),
)
INDEX_METHODS: Tuple[Tuple[str, str], ...] = (
    ("search", "index.search"),
    ("search_point", "index.search"),
    ("nearest_iter", "index.search"),
    ("join", "index.join"),
    ("insert", "index.insert"),
    ("bulk_load", "index.bulk_load"),
)

#: names the benchmark itself opens spans with (one per operation)
ROOT = "bench.op"

Span = Tuple[int, int, str, float, float]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """Run ``fn`` inside a span (the benchmark's own root spans)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        if inspect.isgeneratorfunction(fn):
            # a generator's span covers only the time spent inside it:
            # the consumer runs between resumptions and is not its child
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                sid = next(ids)
                stack = stack_of()
                parent = stack[-1] if stack else 0
                inner = fn(*args, **kwargs)
                inside = 0.0
                first = None
                try:
                    while True:
                        stack.append(sid)
                        t0 = perf_counter()
                        if first is None:
                            first = t0
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            inside += perf_counter() - t0
                            stack.pop()
                        yield item
                finally:
                    inner.close()
                    if first is not None:
                        spans.append((sid, parent, name, first,
                                      first + inside))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        if self._undo:
            return
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                self._patch_method(getattr(module, class_name), method, name)
            else:
                self._patch_function(getattr(module, attr), name)
        for module_name, class_name in INDEX_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method, name in INDEX_METHODS:
                if method in vars(cls):
                    self._patch_method(cls, method, name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, cls: type, method: str, name: str) -> None:
        original = vars(cls)[method]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(original.__func__, name))
        else:
            wrapped = self._wrap(original, name)
        setattr(cls, method, wrapped)
        self._undo.append(lambda: setattr(cls, method, original))

    def _patch_function(self, original: Callable, name: str) -> None:
        wrapped = self._wrap(original, name)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        functools.partial(setattr, module, key, original)
                    )
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped
                            self._undo.append(functools.partial(
                                value.__setitem__, dkey, original
                            ))

    # -- output ------------------------------------------------------------

    def mark(self) -> int:
        """Position to pass to :func:`summarize` as ``since``."""
        return len(self.spans)

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent, name, start, end."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def read_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


class Summary:
    """Per-name call counts, inclusive time and self time (seconds)."""

    def __init__(self, spans: Iterable[Span]):
        spans = list(spans)
        child_time: Dict[int, float] = defaultdict(float)
        name_of: Dict[int, str] = {}
        for sid, parent, name, start, end in spans:
            name_of[sid] = name
            if parent:
                child_time[parent] += end - start
        #: calls and inclusive time count only the outermost span of a
        #: name (``search_point`` calling ``search`` is one index search)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: spans with no recorded parent: the blocking path's entries
        self.root_total: Dict[str, float] = defaultdict(float)
        for sid, parent, name, start, end in spans:
            duration = end - start
            self.self_time[name] += duration - child_time.get(sid, 0.0)
            if name_of.get(parent) != name:
                self.calls[name] += 1
                self.total[name] += duration
            if not parent:
                self.root_total[name] += duration

    def mean_us(self, name: str, inclusive: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        seconds = (self.total if inclusive else self.self_time)[name]
        return 1e6 * seconds / calls
