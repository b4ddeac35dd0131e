"""Outside-in tracing: spans recorded around calls into dagsearch's modules.

The program is not edited. Instead, :class:`Tracer` replaces module and
class attributes (``dagsearch.engine.render_context``,
``dagsearch.cli.build_registry``, ``ScriptedBackend.complete``, ...) with
timing wrappers for as long as it is installed, and restores them after.
A call site sees a wrapper only if it looks the name up where the wrapper
was installed, which is why some functions are wrapped in more than one
module (see ``PATCHES``).

Spans stay in memory. Calls are synchronous and single-threaded, so spans
nest strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# (owner, attribute, layer operation). The owner is a module path, or a
# module path plus a class name after a colon.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("dagsearch.engine", "parse_action", "protocol.parse"),
    ("dagsearch.engine", "build_plan", "plan.ops"),
    ("dagsearch.engine", "is_complete", "plan.ops"),
    ("dagsearch.plan", "build_plan", "plan.ops"),
    ("dagsearch.plan", "apply_task_answer", "plan.ops"),
    ("dagsearch.plan", "reset_for_revisit", "plan.ops"),
    ("dagsearch.plan", "mark_active", "plan.ops"),
    ("dagsearch.plan", "attach_evidence", "plan.ops"),
    ("dagsearch.plan", "is_complete", "plan.ops"),
    ("dagsearch.plan", "frontier", "plan.ops"),
    ("dagsearch.engine", "render_context", "register.render"),
    ("dagsearch.register", "render_context", "register.render"),
    ("dagsearch.engine", "apply_action", "register.apply"),
    ("dagsearch.register", "default_tokenizer", "register.tokenize"),
    ("dagsearch.trajectory", "default_tokenizer", "register.tokenize"),
    ("dagsearch.backend:ScriptedBackend", "complete", "backend.complete"),
    ("dagsearch.backend:ReplayBackend", "complete", "backend.complete"),
    ("dagsearch.tools:ToolRegistry", "invoke", "tools.invoke"),
    ("dagsearch.cli", "build_registry", "tools.registry_build"),
    ("dagsearch.engine", "run", "engine.run"),
    ("dagsearch.cli", "run", "engine.run"),
    ("dagsearch.trajectory:Trajectory", "save", "trajectory.save"),
    ("dagsearch.trajectory:Trajectory", "load", "trajectory.load"),
    ("dagsearch.trajectory", "step_cache_ratios", "trajectory.cache_ratio"),
    ("dagsearch.cli", "rft_filter", "trajectory.export"),
    ("dagsearch.cli", "export_sft", "trajectory.export"),
)

# Every layer operation a traced run reports, in report order, with the
# names of its metrics: calls, total self time, per-call median.
LAYER_NAMES: dict[str, tuple[str, str, str]] = {
    "protocol.parse": ("protocol.parse_calls", "protocol.parse_ms", "protocol.parse_p50_ms"),
    "plan.ops": ("plan.ops_calls", "plan.ops_ms", "plan.ops_p50_ms"),
    "register.render": ("register.render_calls", "register.render_ms", "register.render_p50_ms"),
    "register.apply": ("register.apply_calls", "register.apply_ms", "register.apply_p50_ms"),
    "register.tokenize": ("register.tokenize_calls", "register.tokenize_ms", "register.tokenize_p50_ms"),
    "backend.complete": ("backend.calls", "backend.complete_ms", "backend.complete_p50_ms"),
    "tools.invoke": ("tools.invoke_calls", "tools.invoke_ms", "tools.invoke_p50_ms"),
    "tools.registry_build": ("tools.registry_builds", "tools.registry_build_ms", "tools.registry_build_p50_ms"),
    "engine.run": ("engine.runs", "engine.run_self_ms", "engine.run_p50_ms"),
    "trajectory.save": ("trajectory.saves", "trajectory.save_ms", "trajectory.save_p50_ms"),
    "trajectory.load": ("trajectory.loads", "trajectory.load_ms", "trajectory.load_p50_ms"),
    "trajectory.cache_ratio": (
        "trajectory.cache_ratio_calls",
        "trajectory.cache_ratio_ms",
        "trajectory.cache_ratio_p50_ms",
    ),
    "trajectory.export": ("trajectory.export_calls", "trajectory.export_ms", "trajectory.export_p50_ms"),
    "cli.eval": ("cli.evals", "cli.eval_self_ms", "cli.eval_p50_ms"),
    "cli.stats": ("cli.stats_calls", "cli.stats_self_ms", "cli.stats_p50_ms"),
    "cli.export": ("cli.export_calls", "cli.export_self_ms", "cli.export_p50_ms"),
}
OPERATIONS = tuple(LAYER_NAMES)


@dataclass
class Span:
    name: str
    trace_id: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    child_time: float = 0.0
    error: str | None = None
    tokens: int = 0  # tokenizer spans: tokens produced

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span recorder that can patch itself into dagsearch."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[int] = []
        self._trace_id = ""
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._trace_id or self.phase, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration
        return span

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            previous_trace = self._trace_id
            if name == "engine.run":
                self._trace_id = f"{self.phase}:{kwargs.get('question_id', '')}"
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].error = type(exc).__name__
                raise
            finally:
                self._close(index)
                self._trace_id = previous_trace
            if name == "register.tokenize":
                self.spans[index].tokens = len(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name in PATCHES:
            target = _resolve(owner)
            original = inspect.getattr_static(target, attribute)
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self.wrap(name, original.__func__))
            else:
                replacement = self.wrap(name, original)
            self._saved.append((target, attribute, original))
            setattr(target, attribute, replacement)

    def uninstall(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- reporting -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.trace_id, s.parent, round(s.start, 9), round(s.end, 9), round(s.self_time, 9), s.error]
            for s in self.spans
        ]
        fields = ["name", "trace_id", "parent", "start", "end", "self", "error"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": rows}, handle, separators=(",", ":"))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._name)

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(self._index)


@dataclass(frozen=True)
class OperationStats:
    calls: int
    self_ms: float
    p50_ms: float  # median duration of one call, children included


def summarize(spans: list[Span]) -> dict[str, OperationStats]:
    """Per-operation call count, total self time and per-call median."""
    durations: dict[str, list[float]] = {name: [] for name in OPERATIONS}
    self_times: dict[str, float] = {name: 0.0 for name in OPERATIONS}
    for span in spans:
        if span.name in durations:
            durations[span.name].append(span.duration)
            self_times[span.name] += span.self_time
    return {
        name: OperationStats(
            calls=len(durations[name]),
            self_ms=self_times[name] * 1e3,
            p50_ms=statistics.median(durations[name]) * 1e3 if durations[name] else 0.0,
        )
        for name in OPERATIONS
    }
