"""Low-overhead span tracer with cross-process context propagation.

A **span** is a named, timed section of work::

    with obs.span("fdtd.step", steps=400, cells=12000):
        ...

Spans nest per thread and per asyncio task: a span opened while
another is active in the same thread or task records that span as its
parent, which is what lets the exporters reconstruct
the call tree (``profile`` > ``gate_case`` > ``fdtd.run_until`` >
``fdtd.step``).  Durations come from the monotonic
:func:`time.perf_counter_ns` clock; the wall-clock start
(:func:`time.time_ns`) is kept alongside so spans collected in
different processes line up on one timeline.

When tracing is disabled (the default), :func:`span` returns a shared
no-op singleton after a single flag check -- no allocation, no clock
reads -- so instrumented hot paths cost nothing in production runs.

Cross-process propagation
-------------------------
:func:`current_context` snapshots the active trace as a serializable
:class:`TraceContext` (trace id + parent span id).  The runtime
executor ships it to ``ProcessPoolExecutor`` workers next to the job
reference; the worker calls :func:`activate`, runs the job (collecting
spans locally), then :func:`deactivate` returns the finished span
dicts, which travel back with the result and are merged into the
parent's collector via :func:`ingest`.  Span ids embed the pid, so ids
never collide across processes.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import _state, flight as _flight

_lock = threading.Lock()
_finished: List[Dict[str, Any]] = []
#: The open spans, innermost last.  A context variable follows each
#: thread and each asyncio task, so interleaved requests on one event
#: loop never nest in each other.  It holds an immutable tuple that
#: every span replaces: a task copies its creator's context, and a
#: shared mutable stack would leak spans between the copies.
_stack: "contextvars.ContextVar[Tuple[Span, ...]]" = contextvars.ContextVar(
    "repro_span_stack", default=())
_ids = itertools.count(1)

#: Trace identity of the current collection (None when disabled).
_trace_id: Optional[str] = None
#: Parent span id inherited from a remote context (worker side).
_root_parent: Optional[str] = None


@dataclass(frozen=True)
class TraceContext:
    """Serializable snapshot of "where we are" in a trace.

    Plain strings only, so it pickles to worker processes and
    round-trips through JSON.
    """

    trace_id: str
    span_id: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data.get("span_id"))


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_ids):x}"


class Span:
    """An open span; use as a context manager (see :func:`span`)."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_t0", "_ts_ns")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = _new_span_id()
        self.parent_id: Optional[str] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an already-open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack.get()
        self.parent_id = stack[-1].span_id if stack else _root_parent
        _stack.set(stack + (self,))
        _flight.record("span.open", name=self.name, span_id=self.span_id)
        self._ts_ns = time.time_ns()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_ns = time.perf_counter_ns() - self._t0
        stack = _stack.get()
        if stack and stack[-1] is self:
            _stack.set(stack[:-1])
        elif self in stack:  # unbalanced exits (generators): best effort
            _stack.set(tuple(s for s in stack if s is not self))
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        record = {
            "name": self.name,
            "trace_id": _trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts_ns": self._ts_ns,
            "dur_ns": dur_ns,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": self.attrs,
        }
        with _lock:
            _finished.append(record)
        _flight.record("span.close", name=self.name, span_id=self.span_id,
                       dur_ms=dur_ns / 1e6,
                       error=exc_type.__name__ if exc_type else None)
        return False


def span(name: str, **attrs: Any):
    """Open a span named ``name`` with optional attributes.

    Returns the shared :data:`NULL_SPAN` singleton when tracing is
    disabled -- the disabled cost is exactly this one flag check.
    """
    if not _state.enabled_flag:
        return NULL_SPAN
    return Span(name, attrs)


def enable(trace_id: Optional[str] = None,
           parent_id: Optional[str] = None) -> str:
    """Start collecting spans; returns the (possibly new) trace id."""
    global _trace_id, _root_parent
    with _lock:
        _finished.clear()
    _stack.set(())
    _trace_id = trace_id or os.urandom(8).hex()
    _root_parent = parent_id
    _state.set_enabled(True)
    return _trace_id


def disable() -> None:
    """Stop collecting.  Already-collected spans stay until drained."""
    global _trace_id, _root_parent
    _state.set_enabled(False)
    _trace_id = None
    _root_parent = None


def current_trace_id() -> Optional[str]:
    """The active trace id, or None when tracing is disabled."""
    return _trace_id


def current_context() -> Optional[TraceContext]:
    """Serializable context for shipping to another process."""
    if not _state.enabled_flag or _trace_id is None:
        return None
    stack = _stack.get()
    parent = stack[-1].span_id if stack else _root_parent
    return TraceContext(trace_id=_trace_id, span_id=parent)


def activate(context: TraceContext) -> None:
    """Worker-side: adopt a remote context and start collecting."""
    enable(trace_id=context.trace_id, parent_id=context.span_id)


def deactivate() -> List[Dict[str, Any]]:
    """Worker-side: stop collecting and return the finished spans."""
    collected = drain()
    disable()
    return collected


def ingest(span_dicts: List[Dict[str, Any]]) -> None:
    """Merge spans collected elsewhere (another process) into ours."""
    if not span_dicts:
        return
    with _lock:
        _finished.extend(span_dicts)


def spans() -> List[Dict[str, Any]]:
    """Snapshot of the finished spans collected so far."""
    with _lock:
        return list(_finished)


def drain() -> List[Dict[str, Any]]:
    """Return the finished spans and clear the collector."""
    with _lock:
        collected = list(_finished)
        _finished.clear()
    return collected
