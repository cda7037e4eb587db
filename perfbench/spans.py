"""Spans around the program's layer entry points, recorded from outside.

The benchmark does not touch the program: :meth:`Tracer.install` replaces
each layer's public entry point (a class method or a module function,
wherever it was imported) with a wrapper that records one span per call.
A span is ``[name, start, end, parent, query_id]``; ``parent`` is the index
of the enclosing span on the same thread.  Spans stay in memory and are
written once, when the run ends.

While ``enabled`` is false a wrapper only forwards the call, so the
benchmark can alternate traced and untraced rounds in one process and
report the difference as the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (owner, attribute, span name).  Owners are resolved lazily from the
#: program's modules; a module function is re-bound in every ``repro``
#: module that imported it by name.
LAYERS = [
    ("repro.workloads.ldbc.generator", "generate_ldbc", "setup.generate"),
    ("repro.workloads.job.generator", "generate_imdb", "setup.generate"),
    ("repro.graph.index", "build_graph_index", "setup.index"),
    ("repro.relational.catalog:Catalog", "analyze", "setup.analyze"),
    ("repro.core.framework:RelGoFramework", "prepare", "setup.glogue"),
    ("repro.core.sqlpgq", "parse_and_bind", "sqlpgq.parse_bind"),
    ("repro.core.rules", "apply_filter_into_match", "rules"),
    ("repro.core.rules", "apply_trim_and_fuse", "rules"),
    ("repro.graph.optimizer:GraphOptimizer", "optimize", "graph_opt"),
    ("repro.relational.optimizer.planner:RelationalOptimizer", "optimize", "rel_opt"),
    ("repro.relational.lowering:PhysicalPlanner", "lower", "lowering"),
    ("repro.exec.context", "execute_plan", "exec"),
    ("repro.relational.table:Table", "extend", "storage.append"),
    ("repro.serving.database:PendingQuery", "run", "serving.server"),
]

#: Join trees the relational DP builds: counted, not timed.
COUNTED = [
    ("repro.relational.optimizer.dp", "combine", "rel_opt.trees"),
    ("repro.relational.optimizer.dp", "cross_combine", "rel_opt.trees"),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: id(pool task) -> submit time, and the measured queue waits.
        self._submitted: dict[int, float] = {}
        self.queue_waits: list[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_query(self, query_id) -> None:
        self._local.query = query_id

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                getattr(self._local, "query", None)]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    # -- installing wrappers --------------------------------------------- #

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                with self._lock:
                    self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner: str, attr: str, wrapper) -> None:
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapped = wrapper(original)
        if isinstance(target, type):
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.startswith("repro") and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped)

    def install(self) -> "Tracer":
        for owner, attr, name in LAYERS:
            self._patch(owner, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self._patch("repro.serving.pool:WorkerPool", "submit", self._submit_wrapper)
        self._patch("repro.serving.database:PendingQuery", "run", self._run_wrapper)
        return self

    def _submit_wrapper(self, fn):
        @functools.wraps(fn)
        def submit(pool, task):
            if self.enabled:
                self._submitted[id(task)] = time.perf_counter()
            return fn(pool, task)

        return submit

    def _run_wrapper(self, fn):
        @functools.wraps(fn)
        def run(task):
            submitted = self._submitted.pop(id(task), None)
            if submitted is not None and self.enabled:
                self.queue_waits.append(time.perf_counter() - submitted)
            return fn(task)

        return run

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------- #

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] if s[2] is not None else 0.0 for s in self.spans]
        for s in self.spans:
            if s[3] is not None and s[2] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "query"],
                 "spans": self.spans, "counts": dict(self.counts)},
                fh,
            )
