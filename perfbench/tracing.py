"""Spans recorded from outside the program, by wrapping layer entry points.

:func:`install` replaces each traced function *where its caller looks it
up* (a class attribute, or the name a module imported) with a wrapper that
records a :class:`Span`: name, layer, start, end, parent span and the id of
the user step (``trace``) it belongs to.  :meth:`Recorder.uninstall` puts
every original back.  Nothing under ``src/`` changes.

Parents follow a :class:`contextvars.ContextVar`.  Two boundaries in the
served stack drop it, and the spans across them are tied back together:

* the wire: the client's ``encode_frame`` records which step sent each
  request id, and server-side spans that open with no parent (frame
  decode, dispatch, reply encode) take the step and parent of the frame's
  request id (``id`` on requests, ``re`` on replies);
* ``run_in_executor`` (server) and the shard thread pool (service) do not
  copy context, so the wrappers of ``ReproServer._run_blocking`` and
  ``ShardedEngine._fan_out`` hand each callable a copy of the caller's
  context.  These two private methods are wrapped only for that.

Kernel calls are many and short: instead of a span each, they add their
call count, time and element count to the innermost open span.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: The counted batch kernels of the ``repro.kernels`` facade.
KERNELS = (
    "box_intersects",
    "box_contains",
    "point_box_distance",
    "box_box_distance",
    "segment_distances",
    "capsule_pairs_touch",
    "box_overlap_pairs",
    "xsorted_overlap_pairs",
    "hilbert_keys",
)


class Span:
    __slots__ = (
        "sid",
        "name",
        "layer",
        "trace",
        "parent",
        "start",
        "end",
        "thread",
        "attrs",
        "kernel_calls",
        "kernel_ms",
        "kernel_items",
    )

    def __init__(self, sid: int, name: str, layer: str, trace: int, parent: int | None):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.trace = trace
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.thread = threading.current_thread().name
        self.attrs: dict[str, Any] = {}
        self.kernel_calls = 0
        self.kernel_ms = 0.0
        self.kernel_items = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "sid": self.sid,
            "trace": self.trace,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": self.attrs,
            "kernels": [self.kernel_calls, self.kernel_ms, self.kernel_items],
        }


class Recorder:
    """Keeps every finished span in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._sids = itertools.count(1)
        self._traces = itertools.count(1)
        self._wire: dict[int, tuple[int, int]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span lifecycle ------------------------------------------------------
    def _open(self, name: str, layer: str, link: tuple[int, int] | None = None) -> tuple:
        current = _CURRENT.get()
        if link is not None:
            trace, parent = link
        elif current is not None:
            trace, parent = current.trace, current.sid
        else:
            trace, parent = 0, None
        span = Span(next(self._sids), name, layer, trace, parent)
        return span, _CURRENT.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        span, token = self._open(name, layer)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span, token)

    @contextmanager
    def step(self, kind: str) -> Iterator[Span]:
        """A root span for one user step; everything it causes shares its trace."""
        span = Span(next(self._sids), f"step.{kind}", "bench", next(self._traces), None)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            self._close(span, token)

    def link_wire(self, span: Span, frame: Any) -> None:
        """Tie a span that opened without a parent to its frame's request."""
        if span.parent is not None or not isinstance(frame, dict):
            return
        wire_id = frame.get("id", frame.get("re"))
        link = self._wire.get(wire_id) if isinstance(wire_id, int) else None
        if link is not None:
            span.trace, span.parent = link

    # -- patching ------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_return: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Record a span, named for where it is looked up, around ``owner.attr``."""
        name = _where(owner, attr)
        static = inspect.getattr_static(owner, attr)
        func = static.__func__ if isinstance(static, (classmethod, staticmethod)) else static
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span, token = recorder._open(name, layer)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                span.attrs["error"] = type(error).__name__
                recorder._close(span, token)
                raise
            if on_return is not None:
                on_return(span, args, result)
            recorder._close(span, token)
            return result

        replacement: Any = wrapper
        if isinstance(static, classmethod):
            replacement = classmethod(wrapper)
        elif isinstance(static, staticmethod):
            replacement = staticmethod(wrapper)
        self._replace(owner, attr, static, replacement)

    def wrap_kernel(self, module: Any, attr: str) -> None:
        """Aggregate calls of one kernel into the innermost open span."""
        func = getattr(module, attr)
        counters = module.counters

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = _CURRENT.get()
            if span is None:
                return func(*args, **kwargs)
            items = counters.elements
            start = time.perf_counter()
            result = func(*args, **kwargs)
            span.kernel_ms += (time.perf_counter() - start) * 1000.0
            span.kernel_calls += 1
            span.kernel_items += counters.elements - items
            return result

        self._replace(module, attr, func, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        _assign(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------
    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), default=str) + "\n")
        return path


def _where(owner: Any, attr: str) -> str:
    """``module.attr`` or ``module.Class.attr``: the name a caller looks up."""
    if inspect.isclass(owner):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def _assign(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):  # a dispatch table such as JOIN_EXECUTORS
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def self_ms(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus what its children and kernel calls cover.

    Children on other threads may overlap each other (shard subtasks run in
    parallel); the union of their intervals, clipped to the parent, is
    subtracted once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        )
        covered = 0.0
        cursor = span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = max(0.0, span.ms - covered * 1000.0 - span.kernel_ms)
    return result


# -- what is traced ------------------------------------------------------------
def _results_in(message: dict) -> int:
    payload = message.get("payload") or []
    if message.get("kind") == "walk":
        return sum(len(step) for step in payload)
    return len(payload)


def install(recorder: Recorder) -> Recorder:
    """Wrap every traced entry point; returns ``recorder`` for chaining."""
    import repro
    from repro import kernels
    from repro.core.flat.index import FLATIndex
    from repro.core.scout.prefetcher import ScoutPrefetcher
    from repro.core.touch import join as touch_join_module
    from repro.durability import recovery
    from repro.durability.wal import WriteAheadLog
    from repro.engine import engine as engine_module
    from repro.engine import executors
    from repro.engine.planner import DatasetProfile, Planner
    from repro.rtree.tree import RTree
    from repro.core.flat import index as flat_index_module
    from repro.server import protocol
    from repro.server.client import Client
    from repro.server.server import ReproServer
    from repro.service import sharded
    from repro.service.admission import AdmissionController
    from repro.storage.arena import ColumnarArena

    rec = recorder

    # client and wire codec (repro.server)
    for attr in ("query", "query_many", "mutate"):
        rec.wrap(Client, attr, "client")

    def on_encode(span: Span, args: tuple, frame: bytes) -> None:
        message = args[0]
        span.attrs["bytes"] = len(frame)
        if "id" in message:  # a request leaving the client
            span.attrs["side"] = "client"
            rec._wire[message["id"]] = (span.trace, span.parent)
        else:
            span.attrs["side"] = "server"
            rec.link_wire(span, message)
            kind = message.get("type")
            if kind == "result":
                span.attrs["results"] = _results_in(message)
            elif kind == "busy":
                span.attrs["busy"] = 1

    def on_decode(span: Span, args: tuple, frame: dict) -> None:
        span.attrs["side"] = "server" if "id" in frame else "client"
        rec.link_wire(span, frame)

    rec.wrap(protocol, "encode_frame", "server", on_encode)
    rec.wrap(protocol, "decode_frame", "server", on_decode)
    for attr in ("encode_query", "decode_query", "encode_payload", "decode_payload"):
        rec.wrap(protocol, attr, "server")

    dispatch = ReproServer._dispatch
    run_blocking = ReproServer._run_blocking

    @functools.wraps(dispatch)
    async def traced_dispatch(self: Any, frame: dict, session: Any) -> Any:
        link = rec._wire.get(frame.get("id"))
        span, token = rec._open("repro.server.server.ReproServer._dispatch", "server", link)
        span.attrs["type"] = frame.get("type")
        try:
            return await dispatch(self, frame, session)
        finally:
            rec._close(span, token)

    @functools.wraps(run_blocking)
    async def traced_run_blocking(self: Any, fn: Callable, *args: Any) -> Any:
        context = contextvars.copy_context()
        return await run_blocking(self, functools.partial(context.run, fn), *args)

    rec._replace(ReproServer, "_dispatch", dispatch, traced_dispatch)
    rec._replace(ReproServer, "_run_blocking", run_blocking, traced_run_blocking)

    # service (repro.service)
    def on_service(span: Span, args: tuple, result: Any) -> None:
        stats = result.stats
        span.attrs.update(
            kind=stats.kind, shards_used=stats.shards_used, merge_ms=stats.merge_ms
        )

    def on_apply(span: Span, args: tuple, result: Any) -> None:
        span.attrs.update(
            shards_touched=result.stats.shards_touched, mutations=result.stats.applied
        )

    rec.wrap(sharded.ShardedEngine, "execute", "service", on_service)
    rec.wrap(sharded.ShardedEngine, "apply_many", "service", on_apply)
    rec.wrap(AdmissionController, "admit", "service")

    fan_out = sharded.ShardedEngine._fan_out

    def run_subtask(shard_id: int, thunk: Callable) -> Any:
        with rec.span("repro.service.sharded.shard_subtask", "service", shard=shard_id):
            return thunk()

    @functools.wraps(fan_out)
    def traced_fan_out(self: Any, subtasks: Any, deadline: Any) -> Any:
        wrapped = [
            (shard_id, functools.partial(contextvars.copy_context().run, run_subtask,
                                         shard_id, thunk))
            for shard_id, thunk in subtasks
        ]
        return fan_out(self, wrapped, deadline)

    rec._replace(sharded.ShardedEngine, "_fan_out", fan_out, traced_fan_out)

    # engine (repro.engine)
    def on_execute(span: Span, args: tuple, result: Any) -> None:
        stats = result.stats
        span.attrs.update(
            kind=stats.kind,
            strategy=stats.strategy,
            pages_read=stats.pages_read,
            io_ms=stats.io_time_ms,
        )
        if stats.kind == "walk" and result.payload.prefetcher == "SCOUT":
            span.attrs.update(
                prefetched=result.payload.total_prefetched,
                prefetch_used=result.payload.prefetch_used,
            )

    def on_plan(span: Span, args: tuple, plan: Any) -> None:
        span.attrs.update(kind=type(args[1]).__name__, strategy=plan.strategy)

    rec.wrap(engine_module.SpatialEngine, "execute", "engine", on_execute)
    rec.wrap(Planner, "plan", "engine", on_plan)
    rec.wrap(DatasetProfile, "from_objects", "engine")

    # storage
    rec.wrap(ColumnarArena, "from_objects", "storage")

    # flat
    def on_flat_query(span: Span, args: tuple, result: Any) -> None:
        span.attrs.update(scanned=result.stats.objects_scanned, results=result.stats.num_results)

    def on_flat_knn(span: Span, args: tuple, result: Any) -> None:
        raw = result[2]
        span.attrs.update(scanned=raw.objects_scanned, results=raw.num_results)

    rec.wrap(FLATIndex, "__init__", "flat")
    rec.wrap(FLATIndex, "query", "flat", on_flat_query)
    rec.wrap(FLATIndex, "knn", "flat")
    rec.wrap(engine_module, "run_knn_flat", "flat", on_flat_knn)

    # rtree
    def on_rtree(span: Span, args: tuple, result: Any) -> None:
        span.attrs["nodes"] = result[1].nodes_visited

    rec.wrap(engine_module, "str_bulk_load", "rtree")
    rec.wrap(flat_index_module, "str_bulk_load", "rtree")
    rec.wrap(RTree, "range_query_with_stats", "rtree", on_rtree)
    rec.wrap(RTree, "knn_with_stats", "rtree", on_rtree)

    # touch
    def on_touch(span: Span, args: tuple, result: Any) -> None:
        span.attrs.update(comparisons=result.stats.comparisons, pairs=result.num_pairs)

    rec.wrap(touch_join_module, "build_touch_tree", "touch")
    rec.wrap(sharded, "build_touch_tree", "touch")
    rec.wrap(sharded, "probe_shard", "touch")
    original_touch = executors.JOIN_EXECUTORS["touch"]

    @functools.wraps(original_touch)
    def traced_touch(*args: Any, **kwargs: Any) -> Any:
        span, token = rec._open("repro.core.touch.join.touch_join", "touch")
        try:
            result = original_touch(*args, **kwargs)
            on_touch(span, args, result)
            return result
        finally:
            rec._close(span, token)

    rec._replace(executors.JOIN_EXECUTORS, "touch", original_touch, traced_touch)

    # scout
    for attr in ("observe", "reset"):
        rec.wrap(ScoutPrefetcher, attr, "scout")

    # kernels
    for attr in KERNELS:
        rec.wrap_kernel(kernels, attr)

    # wal and checkpoint (repro.durability)
    written: dict[int, int] = {}

    def on_append(span: Span, args: tuple, seq: int) -> None:
        # bytes_written counts flushed records; the default policy flushes
        # every append, and under group commit the deltas still add up.
        wal, mutations = args[0], args[1]
        total = wal.stats.bytes_written
        span.attrs.update(mutations=len(mutations), bytes=total - written.get(id(wal), 0))
        written[id(wal)] = total

    rec.wrap(WriteAheadLog, "append", "wal", on_append)
    rec.wrap(recovery, "write_checkpoint", "checkpoint")
    rec.wrap(repro, "open", "recovery")
    return rec
