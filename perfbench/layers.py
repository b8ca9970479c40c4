"""Per-layer metrics from one traced run's spans.

Layers are named by the module a span wraps (see ``tracing.install``).
Every metric is printed for every workload; a layer a workload never
enters reports 0, and so does a ratio whose base is 0 (``perfbench/LAYERS.md``
maps each metric to the workload and end-to-end metric it should move).
Times are means per call unless the unit says otherwise; ``/step`` means
per closed-loop step of the traced run, set-up excluded.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from tracing import Span, self_ms

P = "repro.server.protocol."
CODEC = tuple(
    P + name
    for name in (
        "encode_frame",
        "decode_frame",
        "encode_query",
        "decode_query",
        "encode_payload",
        "decode_payload",
    )
)
EXECUTE = "repro.service.sharded.ShardedEngine.execute"
APPLY = "repro.service.sharded.ShardedEngine.apply_many"
SUBTASK = "repro.service.sharded.shard_subtask"
ENGINE = "repro.engine.engine.SpatialEngine.execute"
PLAN = "repro.engine.planner.Planner.plan"
FLAT_BUILD = "repro.core.flat.index.FLATIndex.__init__"
FLAT_QUERIES = (
    "repro.core.flat.index.FLATIndex.query",
    "repro.core.flat.index.FLATIndex.knn",
    "repro.engine.engine.run_knn_flat",
)
BULK_LOADS = ("repro.engine.engine.str_bulk_load", "repro.core.flat.index.str_bulk_load")
RTREE_QUERIES = (
    "repro.rtree.tree.RTree.range_query_with_stats",
    "repro.rtree.tree.RTree.knn_with_stats",
)
TOUCH_BUILDS = ("repro.core.touch.join.build_touch_tree", "repro.service.sharded.build_touch_tree")
TOUCH_JOIN = "repro.core.touch.join.touch_join"
PROBE_SHARD = "repro.service.sharded.probe_shard"
WAL_APPEND = "repro.durability.wal.WriteAheadLog.append"
REOPEN = "repro.open"
ADMIT = "repro.service.admission.AdmissionController.admit"

#: Layers whose self time is reported per step, in stack order.
LAYERS = (
    "bench",
    "client",
    "server",
    "service",
    "engine",
    "storage",
    "flat",
    "rtree",
    "touch",
    "scout",
    "kernels",
    "wal",
    "checkpoint",
    "recovery",
)

#: name -> unit, in report order.  BENCHMARK.json lists the same names.
UNITS = {
    "server.codec_ms": "ms/request",
    "server.reply_bytes_per_result": "B/result",
    "server.busy_rejects": "count",
    "service.admit_wait_ms": "ms",
    "service.subtasks_per_query": "1/query",
    "service.shards_per_query": "1/query",
    "service.merge_ms": "ms",
    "service.write_publish_ms": "ms",
    "service.shards_rebuilt_per_write": "1/write",
    "engine.plan_ms": "ms",
    "engine.execute_self_ms": "ms",
    "engine.profile_ms": "ms",
    "engine.flat_share": "fraction",
    "storage.arena_build_ms": "ms",
    "flat.build_ms": "ms",
    "flat.builds": "1/step",
    "flat.query_ms": "ms",
    "flat.tested_per_result": "1/result",
    "rtree.bulk_load_ms": "ms",
    "rtree.query_ms": "ms",
    "rtree.nodes_per_lookup": "1/lookup",
    "touch.build_ms": "ms",
    "touch.probe_ms": "ms",
    "touch.comparisons_per_pair": "1/pair",
    "scout.prefetch_ms": "ms/walk",
    "kernels.calls_per_query": "1/query",
    "kernels.ms": "ms/query",
    "kernels.items_per_call": "1/call",
    "wal.append_ms": "ms",
    "wal.bytes_per_mutation": "B/mutation",
    "checkpoint.write_ms": "ms",
    "recovery.replay_ms": "ms/reopen",
    "obs.trace_overhead_pct": "%",
    **{f"self.{layer}_ms": "ms/step" for layer in LAYERS},
    "model.pages_per_query": "1/query",
    "model.io_ms_per_query": "ms/query",
    "model.prefetch_hit_ratio": "fraction",
}


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(spans: list[Span], steps: int, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric of ``UNITS`` from one traced run."""
    own = self_ms(spans)
    by_sid = {span.sid: span for span in spans}
    roots = {s.trace: s.name for s in spans if s.parent is None and s.layer == "bench"}
    named: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def spans_of(*names: str) -> list[Span]:
        return [span for name in names for span in named[name]]

    def in_setup(span: Span) -> bool:
        return roots.get(span.trace) == "step.setup"

    def under(span: Span, name: str) -> bool:
        parent = by_sid.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_sid.get(parent.parent)
        return False

    def child_ms(span: Span, *names: str) -> float:
        return sum(c.ms for c in children[span.sid] if c.name in names)

    m: dict[str, float] = {}
    frames = named[P + "encode_frame"]
    requests = sum(1 for s in frames if s.attrs.get("side") == "client")
    replies = [s for s in frames if "results" in s.attrs]
    m["server.codec_ms"] = _ratio(sum(s.ms for s in spans_of(*CODEC)), requests)
    m["server.reply_bytes_per_result"] = _ratio(
        sum(s.attrs["bytes"] for s in replies), sum(s.attrs["results"] for s in replies)
    )
    m["server.busy_rejects"] = float(sum(s.attrs.get("busy", 0) for s in frames))

    executes = named[EXECUTE]
    writes = [s for s in named[APPLY] if not under(s, REOPEN)]
    m["service.admit_wait_ms"] = _mean(s.ms for s in named[ADMIT])
    m["service.subtasks_per_query"] = _ratio(len(named[SUBTASK]), len(executes))
    m["service.shards_per_query"] = _mean(s.attrs.get("shards_used", 0) for s in executes)
    m["service.merge_ms"] = _mean(s.attrs.get("merge_ms", 0.0) for s in executes)
    m["service.write_publish_ms"] = _mean(s.ms - child_ms(s, WAL_APPEND) for s in writes)
    m["service.shards_rebuilt_per_write"] = _mean(s.attrs.get("shards_touched", 0) for s in writes)

    engines = named[ENGINE]
    plans = [s for s in named[PLAN] if s.attrs.get("kind") in ("RangeQuery", "KNNQuery")]
    m["engine.plan_ms"] = _mean(s.ms for s in named[PLAN])
    m["engine.execute_self_ms"] = _mean(own[s.sid] for s in engines)
    m["engine.profile_ms"] = _mean(
        s.ms for s in named["repro.engine.planner.DatasetProfile.from_objects"]
    )
    m["engine.flat_share"] = _ratio(
        sum(1 for s in plans if s.attrs.get("strategy") == "flat"), len(plans)
    )
    m["storage.arena_build_ms"] = _mean(
        s.ms for s in named["repro.storage.arena.ColumnarArena.from_objects"]
    )

    flat_queries = spans_of(*FLAT_QUERIES)
    m["flat.build_ms"] = _mean(s.ms for s in named[FLAT_BUILD])
    m["flat.builds"] = _ratio(sum(1 for s in named[FLAT_BUILD] if not in_setup(s)), steps)
    m["flat.query_ms"] = _mean(s.ms for s in flat_queries)
    m["flat.tested_per_result"] = _ratio(
        sum(s.attrs.get("scanned", 0) for s in flat_queries),
        sum(s.attrs.get("results", 0) for s in flat_queries),
    )

    lookups = spans_of(*RTREE_QUERIES)
    m["rtree.bulk_load_ms"] = _mean(s.ms for s in spans_of(*BULK_LOADS))
    m["rtree.query_ms"] = _mean(s.ms for s in lookups)
    m["rtree.nodes_per_lookup"] = _mean(s.attrs.get("nodes", 0) for s in lookups)

    joins = named[TOUCH_JOIN]
    probes = [s.ms - child_ms(s, *TOUCH_BUILDS) for s in joins]
    probes += [s.ms for s in named[PROBE_SHARD]]
    m["touch.build_ms"] = _mean(s.ms for s in spans_of(*TOUCH_BUILDS))
    m["touch.probe_ms"] = _mean(probes)
    m["touch.comparisons_per_pair"] = _ratio(
        sum(s.attrs.get("comparisons", 0) for s in joins),
        sum(s.attrs.get("pairs", 0) for s in joins),
    )

    prefetch = [s for s in spans if s.layer == "scout"]
    resets = named["repro.core.scout.prefetcher.ScoutPrefetcher.reset"]
    m["scout.prefetch_ms"] = _ratio(sum(s.ms for s in prefetch), len(resets))

    calls = sum(s.kernel_calls for s in spans)
    m["kernels.calls_per_query"] = _ratio(calls, len(engines))
    m["kernels.ms"] = _ratio(sum(s.kernel_ms for s in spans), len(engines))
    m["kernels.items_per_call"] = _ratio(sum(s.kernel_items for s in spans), calls)

    appends = named[WAL_APPEND]
    m["wal.append_ms"] = _mean(s.ms for s in appends)
    m["wal.bytes_per_mutation"] = _ratio(
        sum(s.attrs.get("bytes", 0) for s in appends),
        sum(s.attrs.get("mutations", 0) for s in appends),
    )
    m["checkpoint.write_ms"] = _mean(
        s.ms for s in named["repro.durability.recovery.write_checkpoint"]
    )
    m["recovery.replay_ms"] = _ratio(
        sum(s.ms for s in named[APPLY] if under(s, REOPEN)), len(named[REOPEN])
    )
    m["obs.trace_overhead_pct"] = overhead_pct

    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        if not in_setup(span):
            layer_self[span.layer] += own[span.sid]
            layer_self["kernels"] += span.kernel_ms
    for layer in LAYERS:
        m[f"self.{layer}_ms"] = _ratio(layer_self[layer], steps)

    m["model.pages_per_query"] = _mean(s.attrs.get("pages_read", 0) for s in engines)
    m["model.io_ms_per_query"] = _mean(s.attrs.get("io_ms", 0.0) for s in engines)
    m["model.prefetch_hit_ratio"] = _ratio(
        sum(s.attrs.get("prefetch_used", 0) for s in engines),
        sum(s.attrs.get("prefetched", 0) for s in engines),
    )
    if list(m) != list(UNITS):
        raise RuntimeError("the metric table and its computation disagree")
    return m
