"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public layer-boundary functions from
outside (the program itself carries no instrumentation) and records one
span per call: layer name, ``perf_counter`` start and end, parent layer,
operation id and thread.  Spans nest per thread; a layer's *self* time is
its span's duration minus the time covered by its child spans, so a
``Database.execute`` issued from inside a UDTF body is charged to its own
span and subtracted from the caller's.

Garbage collection is traced through ``gc.callbacks`` as a ``python.gc``
child span of whatever was running when the collector started.

Timed runs never call :meth:`Tracer.install`, so they run the program's
functions unwrapped; :func:`unwrapped` lets tests prove it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, class or None for module functions, attribute names).
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("core.server", "repro.core.server", "IntegrationServer", ("call",)),
    ("fdbs.parse", "repro.fdbs.parser", None, ("parse_statement",)),
    ("fdbs.plan", "repro.fdbs.planner", "Planner", ("plan_select",)),
    ("fdbs.execute", "repro.fdbs.engine", "Database", ("execute",)),
    ("fdbs.udtf_body", "repro.fdbs.engine", "Database", ("run_sql_function",)),
    ("fdbs.federation", "repro.fdbs.federation", "RemoteTableFetcher", ("fetch", "count")),
    (
        "wrapper.udtf_runtime",
        "repro.wrapper.udtf_runtime",
        "FencedFunctionRuntime",
        ("invoke_sql", "invoke_external", "invoke_batch"),
    ),
    ("wrapper.wfms_wrapper", "repro.wrapper.wfms_wrapper", "WfmsWrapper", ("invoke_foreign",)),
    # SQL reaches the WfMS through the connecting UDTF, which enters the
    # client here; ``invoke_foreign`` is the SQL-bypassing entry.
    ("wrapper.wfms_wrapper", "repro.wfms.api", "WfmsClient", ("run_process",)),
    ("wfms.engine", "repro.wfms.engine", "WorkflowEngine", ("run_process",)),
    ("sysmodel.rmi", "repro.sysmodel.rmi", "RmiChannel", ("invoke",)),
    ("sysmodel.controller", "repro.sysmodel.controller", "Controller", ("dispatch",)),
    ("appsys.call", "repro.appsys.base", "ApplicationSystem", ("call",)),
    ("serving.admission", "repro.serving.server", "AdmissionController", ("admit",)),
    ("serving.wire", "repro.serving.wire", None, ("encode_frame", "decode_frame")),
)

#: Layers measured without a wrapper: the serving session's own time is
#: derived from submit/result timestamps, gc time from ``gc.callbacks``.
DERIVED_LAYERS = ("serving.session", "python.gc")

LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS)) + DERIVED_LAYERS

#: Spans kept for the output file; totals count every span regardless.
MAX_SPANS = 20_000


def _originals() -> list[tuple[str, object, str, object]]:
    """(layer, owner, attribute, current function) for every target.

    Module functions are also looked up in every loaded ``repro`` module
    that imported them by name, since those call their own binding.
    """
    found = []
    for layer, module_name, class_name, attributes in TARGETS:
        module = importlib.import_module(module_name)
        for attribute in attributes:
            if class_name is not None:
                owner = getattr(module, class_name)
                found.append((layer, owner, attribute, owner.__dict__[attribute]))
                continue
            function = getattr(module, attribute)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    other, attribute, None
                ) is function:
                    found.append((layer, other, attribute, function))
    return found


def unwrapped() -> bool:
    """True when no target function currently carries a tracer wrapper."""
    return not any(
        hasattr(function, "__perfbench_layer__")
        for _, _, _, function in _originals()
    )


class Tracer:
    """In-memory span recorder with per-layer call and self-time totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: object = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._reset_totals()

    def _reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.main_self_s = 0.0

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        """Open a span of ``layer`` under the thread's current span."""
        stack = self._stack()
        frame = [layer, 0.0, 0.0, stack[-1][0] if stack else None]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame``; charge its duration to the parent's children."""
        end = time.perf_counter()
        layer, start, child_s, parent = frame
        duration = end - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        self._account(layer, start, end, duration - child_s, parent)

    def record(self, layer: str, start: float, end: float, busy_s: float) -> None:
        """Record a derived span measured outside any thread's stack."""
        self._account(layer, start, end, busy_s, None, thread="async")

    def _account(
        self, layer, start, end, self_s, parent, thread: object = None
    ) -> None:
        if thread is None:
            thread = threading.get_ident()
        with self._lock:
            self.calls[layer] += 1
            self.self_s[layer] += self_s
            if thread == self._main:
                self.main_self_s += self_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((layer, start, end, parent, self.op, str(thread)))

    def take(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Per-layer calls, self seconds and main-thread self seconds
        accumulated since the previous call; resets the totals."""
        with self._lock:
            taken = (dict(self.calls), dict(self.self_s), self.main_self_s)
            self._reset_totals()
        return taken

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__perfbench_layer__ = layer
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._local.gc_frame = self.enter("python.gc")
        else:
            frame = getattr(self._local, "gc_frame", None)
            if frame is not None:
                self._local.gc_frame = None
                self.exit(frame)

    def install(self) -> None:
        """Wrap every target function and hook the garbage collector."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, owner, attribute, function in _originals():
            setattr(owner, attribute, self._wrap(layer, function))
            self._patches.append((owner, attribute, function))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped function and unhook the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._local.gc_frame = None
        for owner, attribute, function in reversed(self._patches):
            setattr(owner, attribute, function)
        self._patches = []
