"""Span tracer that wraps simcores' public entry points from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, wall and thread-CPU
seconds).  Spans stay in memory; `Tracer.summary()` folds them into
per-name totals when the traced command ends.

Fidelity rules:

* A name bound by `from .x import y` is a separate binding in every module
  that imports it, so each wrapper is rebound wherever the original object
  is bound in any `simcores.*` namespace (for methods: under every alias in
  the class, such as `__rmul__ = __mul__`).
* Generators are timed only inside each `next()`, so time the consumer
  spends between items stays with the caller.
* Only the outermost call of a self-recursive function is recorded, and
  `multi_catalan` is never rebound in its defining module: an extra frame
  per recursion level would change how deep it can recurse.
* Spans started in a `--jobs` worker thread get the span that submitted the
  task (a `verify.report`) as parent.  Self time subtracts only children on
  the span's own thread, so the time a report spends blocked on its pool is
  its `wait_s`, and `busy_s` (thread CPU) never double-counts under the GIL.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (span name, module, attribute, kind); kind "gen" marks generator functions
TARGETS = (
    ("cli.main", "simcores.cli", "main", "call"),
    ("verify.report", "simcores.verify", "check_symmetry_range", "call"),
    ("verify.report", "simcores.verify", "check_popoviciu_range", "call"),
    ("verify.report", "simcores.verify", "check_catalan_identity_range", "call"),
    ("verify.report", "simcores.verify", "check_gf_range", "call"),
    ("verify.report", "simcores.verify", "check_conjecture_range", "call"),
    ("verify.report", "simcores.verify", "check_motzkin_range", "call"),
    ("verify.report", "simcores.verify", "equinumerosity_suite", "call"),
    ("posets.build", "simcores.posets", "GapPoset.__init__", "call"),
    ("posets.enum", "simcores.posets", "GapPoset.iter_lower_ideals", "gen"),
    ("posets.count", "simcores.posets", "GapPoset.count_lower_ideals", "call"),
    ("posets.ideal_to_core", "simcores.posets", "ideal_to_core", "call"),
    ("posets.multi_catalan", "simcores.posets", "multi_catalan", "call"),
    ("partitions.from_hooks", "simcores.partitions", "partition_from_hooks", "call"),
    ("partitions.multicore", "simcores.partitions", "Partition.is_multicore", "call"),
    ("partitions.multicore", "simcores.partitions", "Partition.check_multicore", "call"),
    ("paths.gd_enum", "simcores.paths", "enumerate_gd", "gen"),
    ("paths.rect_enum", "simcores.paths", "enumerate_rect_paths", "gen"),
    ("paths.gd_to_ideal", "simcores.paths", "gd_to_ideal", "call"),
    ("exact.det", "simcores.exact", "det_exact", "call"),
    ("exact.qdet", "simcores.exact", "det_qpoly", "call"),
    ("qpoly.q_binomial", "simcores.qpoly", "q_binomial", "call"),
    ("series.mul", "simcores.series", "PowerSeries.__mul__", "call"),
    ("series.divide", "simcores.series", "PowerSeries.divide", "call"),
    ("series.sqrt", "simcores.series", "PowerSeries.sqrt", "call"),
)

# self-recursive through their own module-level name; see the module docstring
NOT_IN_DEFINING_MODULE = {"multi_catalan"}

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))
# spans whose `items` is meaningful: values yielded, or check instances for reports
ITEM_SPANS = ("verify.report", "posets.enum", "paths.gd_enum", "paths.rect_enum")


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "wall", "busy",
                 "child_wall", "child_busy", "items")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.start = self.end = 0.0
        self.wall = self.busy = self.child_wall = self.child_busy = 0.0
        self.items = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pool_task_busy: list[float] = []  # list.append is atomic across threads
        self.pool_capacity = 0.0
        self.build_gap_poset_calls = 0
        self._build_lock = threading.Lock()  # build_gap_poset runs on pool threads too
        self._local = threading.local()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[Span]) -> Span | None:
        for open_span in stack:
            if open_span.name == name:
                return None  # a recursive call: only the outermost one is recorded
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        return span

    @staticmethod
    def _charge(span: Span, t0: float, c0: float) -> None:
        t1 = time.perf_counter()
        wall = t1 - t0
        busy = time.thread_time() - c0
        if not span.wall:
            span.start = t0
        span.end = t1
        span.wall += wall
        span.busy += busy
        parent = span.parent
        if parent is not None and parent.tid == span.tid:
            parent.child_wall += wall
            parent.child_busy += busy

    def _wrap_call(self, name: str, fn):
        tracer = self
        count_items = name == "verify.report"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._open(name, stack)
            if span is None:
                return fn(*args, **kwargs)
            stack.append(span)
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._charge(span, t0, c0)
            if count_items:
                span.items += result.total
            return result

        return traced

    def _wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)  # creating a generator runs none of its body
            span = tracer._open(name, tracer._stack())
            return gen if span is None else tracer._segments(span, gen)

        return traced

    def _segments(self, span: Span, gen):
        try:
            while True:
                stack = self._stack()
                stack.append(span)
                t0, c0 = time.perf_counter(), time.thread_time()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    self._charge(span, t0, c0)
                span.items += 1
                yield item
        finally:
            gen.close()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every simcores namespace that binds it."""
        import simcores  # noqa: F401  (imports every submodule)
        import simcores.cli  # noqa: F401

        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "simcores" or name.startswith("simcores.")]
        for span_name, module_name, attr, kind in TARGETS:
            module = sys.modules[module_name]
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            if "." in attr:
                cls_name, method = attr.split(".")
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[method]
            else:
                original = getattr(module, attr)
                owners = [ns for ns in namespaces
                          if not (ns is module and attr in NOT_IN_DEFINING_MODULE)]
            wrapper = wrap(span_name, original)
            for owner in owners:
                self._rebind(owner, original, wrapper)
        self._count_builds(namespaces)
        self._trace_pool(sys.modules["simcores.verify"])

    @staticmethod
    def _rebind(namespace, original, wrapper) -> None:
        """Point every name in a module or class that is bound to `original` at `wrapper`."""
        for name in [name for name, value in vars(namespace).items() if value is original]:
            setattr(namespace, name, wrapper)

    def _count_builds(self, namespaces) -> None:
        original = sys.modules["simcores.posets"].build_gap_poset
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with tracer._build_lock:
                tracer.build_gap_poset_calls += 1
            return original(*args, **kwargs)

        for ns in namespaces:
            self._rebind(ns, original, counted)

    def _trace_pool(self, verify_module) -> None:
        """Give pool tasks their submitter's span as parent and time their CPU."""
        base = getattr(verify_module, "ThreadPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._traced_since = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                submitter = tracer._stack()
                parent = submitter[-1] if submitter else None

                def task():
                    stack = tracer._stack()
                    if parent is not None:
                        stack.append(parent)
                    c0 = time.thread_time()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.pool_task_busy.append(time.thread_time() - c0)
                        if parent is not None:
                            stack.pop()

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.pool_capacity += self._max_workers * (time.perf_counter() - self._traced_since)

        verify_module.ThreadPoolExecutor = TracedPool

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls, items, self_s, busy_s and wait_s (= self_s - busy_s)."""
        totals = {name: {"calls": 0, "items": 0, "self_s": 0.0, "busy_s": 0.0}
                  for name in SPAN_NAMES}
        cross_thread = 0
        for span in self.spans:
            row = totals[span.name]
            row["calls"] += 1
            row["items"] += span.items
            row["self_s"] += span.wall - span.child_wall
            row["busy_s"] += span.busy - span.child_busy
            if span.parent is not None and span.parent.tid != span.tid:
                cross_thread += 1
        for row in totals.values():
            row["wait_s"] = row["self_s"] - row["busy_s"]
        inits = totals["posets.build"]["calls"]
        return {
            "spans": totals,
            "cross_thread_spans": cross_thread,
            "pool_task_busy_s": sum(self.pool_task_busy),
            "pool_capacity_s": self.pool_capacity,
            "posets_inits": inits,
            "build_gap_poset_calls": self.build_gap_poset_calls,
        }
