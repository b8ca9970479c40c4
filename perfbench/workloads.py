"""The three workloads: set-up, one closed-loop step at a time, teardown.

Each workload is one client in one process, sending its next request only
after the previous answer arrived.  ``step(i)`` runs the ``i``-th step of
the workload's fixed schedule, times it, then checks the answer against
the oracle with the clock stopped, and returns ``(kind, ms, ok)``.

* ``explore`` — a viewer against the deployed default service,
  ``repro.create(segments, sharded=True, circuit=c)`` (4 shards, thread
  executor), warm and read-only, served by ``serve_in_background`` and
  reached through ``repro.server.Client``.
* ``stations`` — the demo's three stations in process on the front door's
  default, a single ``SpatialEngine``.
* ``model_build`` — live writes against a durable served service (WAL on,
  flush policy left at its default), reads after every write.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from pathlib import Path
from typing import Any, Iterator

import repro
from repro.engine.queries import RangeQuery
from repro.errors import ReproError
from repro.geometry.aabb import AABB
from repro.server.client import Client

from inputs import JOIN_EPS, VIEW_EXTENT, Inputs
from oracle import BoxOracle, reference_join

#: Extra write batches sent after the closing checkpoint; reopen replays
#: exactly these, so its cost does not depend on how far the loop got.
REOPEN_BATCHES = 12
#: Reopens timed per run (each replays the same root); ``reopen`` is their median.
REOPENS = 9


class Workload:
    """Common shape; subclasses fill in set-up, steps and teardown."""

    name = ""
    #: Step kinds behind the slots step1..step4 of the end-to-end metrics.
    slots: tuple[str, ...] = ()
    #: Step kind -> the name the report prints for it.
    labels: dict[str, str] = {}

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.oracle = BoxOracle(inputs.segments)
        self._answers: dict[tuple[str, int], Any] = {}
        #: A ``tracing.Recorder`` during the traced run, else ``None``.
        self.recorder: Any = None

    def prepare(self) -> None:
        """Untimed reset before each set-up: every pass replays the same inputs."""
        self._uses: dict[str, int] = {}

    def _next(self, kind: str) -> tuple[int, Any]:
        """The next input of ``kind``: its scripts are used in turn, each once
        before any repeats, so a run covers as many distinct inputs as it can."""
        uses = self._uses.get(kind, 0)
        self._uses[kind] = uses + 1
        script = self.inputs.scripts[kind]
        index = uses % len(script)
        return index, script[index]

    def setup(self) -> None:
        """Objects in hand to a warm, ready program: what ``setup_s`` times."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def step(self, i: int) -> tuple[str, float, bool]:
        raise NotImplementedError

    def finish(self) -> Iterator[tuple[str, float, bool]]:
        """Steps that close the run (``model_build``: checkpoint and reopen)."""
        return iter(())

    def header(self) -> dict[str, Any]:
        return {"wal": "none"}

    def before_request(self) -> None:
        """Called untimed before every timed request; the loop sets it."""

    def _timed(self, kind: str, call) -> tuple[Any, float]:
        """Run one request under the clock (and, when traced, a step span)."""
        self.before_request()
        scope = self.recorder.step(kind) if self.recorder else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            result = call()
            ms = (time.perf_counter() - start) * 1000.0
        return result, ms

    def _cached(self, key: tuple[str, int], compute) -> Any:
        """Oracle answers of a read-only workload, computed once per input."""
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]


class _Served:
    """A service behind ``serve_in_background`` and one connected client."""

    def __init__(self, service: Any, **serve_kwargs: Any) -> None:
        self.service = service
        self.handle = repro.serve_in_background(service, **serve_kwargs)
        self.client = Client(self.handle.host, self.handle.port)
        self.client.hello("perfbench")

    def close(self) -> None:
        self.client.close()
        self.handle.stop()  # drains, then closes the service (and its WAL)


class Explore(Workload):
    name = "explore"
    slots = ("viewport", "knn", "walk", "sparse")
    labels = {"viewport": "viewport", "knn": "knn", "walk": "walk", "sparse": "sparse_viewport"}
    schedule = ("viewport", "knn", "walk", "sparse")

    def setup(self) -> None:
        inputs = self.inputs
        service = repro.create(inputs.segments, sharded=True, circuit=inputs.circuit)
        service.warm()
        self.served = _Served(service)
        depth = len(inputs.scripts["viewport"][0])
        bound = self.served.handle.server.session_queue
        if depth >= bound:
            raise RuntimeError(
                f"viewport pipelines {depth} frames; the server's session queue "
                f"holds {bound}, so some would be refused"
            )

    def teardown(self) -> None:
        self.served.close()

    def step(self, i: int) -> tuple[str, float, bool]:
        kind = self.schedule[i % len(self.schedule)]
        index, query = self._next(kind)
        client = self.served.client
        if kind in ("viewport", "sparse"):
            results, ms = self._timed(kind, lambda: client.query_many(query))
            want = self._cached((kind, index), lambda: [self.oracle.range(q.box) for q in query])
            ok = [r.payload for r in results] == want
        elif kind == "knn":
            result, ms = self._timed(kind, lambda: client.query(query))
            want = self._cached((kind, index), lambda: self.oracle.knn(query.point, query.k))
            ok = result.payload == want or self.oracle.knn_matches(
                query.point, query.k, result.payload
            )
        else:
            result, ms = self._timed(kind, lambda: client.query(query))
            want = self._cached(
                (kind, index), lambda: [self.oracle.range(b) for b in query.queries]
            )
            ok = result.payload == want
        return kind, ms, ok


class Stations(Workload):
    name = "stations"
    slots = ("flat", "scout", "join", "noprefetch")
    labels = {"flat": "batch", "scout": "walk", "join": "join", "noprefetch": "noprefetch_walk"}
    #: Eight rounds of FLAT batch, SCOUT walk and prefetch-off walk, then
    #: one TOUCH join: about 190 batches and walks in a run, and 24 joins.
    schedule = ("flat", "scout", "noprefetch") * 8 + ("join",)

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        super().__init__(inputs, workdir)
        self.reference_pairs = reference_join(inputs.circuit, JOIN_EPS)

    def setup(self) -> None:
        engine = repro.create(self.inputs.segments, circuit=self.inputs.circuit)
        engine.flat_index()
        engine.object_rtree()
        engine.buffer_pool()
        _ = engine.planner
        self.engine = engine

    def teardown(self) -> None:
        self.engine = None

    def step(self, i: int) -> tuple[str, float, bool]:
        kind = self.schedule[i % len(self.schedule)]
        index, query = self._next(kind)
        engine = self.engine
        if kind == "flat":
            results, ms = self._timed(kind, lambda: engine.query_many(query))
            want = self._cached((kind, index), lambda: [self.oracle.range(q.box) for q in query])
            ok = [sorted(r.payload) for r in results] == want
        elif kind == "join":
            result, ms = self._timed(kind, lambda: engine.execute(query))
            ok = sorted(result.payload) == self.reference_pairs
        else:
            result, ms = self._timed(kind, lambda: engine.execute(query))
            want = self._cached(
                ("walk", index), lambda: [len(self.oracle.range(b)) for b in query.queries]
            )
            ok = [step.result_size for step in result.payload.steps] == want
        return kind, ms, ok


class ModelBuild(Workload):
    name = "model_build"
    slots = ("range", "knn", "write", "reopen")
    labels = {k: k for k in ("range", "knn", "write", "reread", "reopen", "checkpoint")}

    def __init__(self, inputs: Inputs, workdir: Path) -> None:
        super().__init__(inputs, workdir)
        self._roots = 0

    def prepare(self) -> None:
        super().prepare()
        self._roots += 1
        self.root = self.workdir / f"model-{self._roots}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.oracle = BoxOracle(self.inputs.segments)
        self.position = 0

    def setup(self) -> None:
        service = repro.create(
            self.inputs.segments, self.root, sharded=True, circuit=self.inputs.circuit
        )
        service.warm()
        self.wal_policy = {"fsync": service.wal.fsync, "flush_batches": service.wal.flush_batches}
        self.served = _Served(service, root=self.root)
        self.epoch = service.epoch

    def teardown(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None
        shutil.rmtree(self.root, ignore_errors=True)

    def header(self) -> dict[str, Any]:
        return {"wal": self.wal_policy}

    def step(self, i: int) -> tuple[str, float, bool]:
        stream = self.inputs.scripts["stream"]
        if self.position >= len(stream):
            raise RuntimeError("the read/write stream ran out; lengthen RW_STREAM_LENGTH")
        kind, op = stream[self.position]
        self.position += 1
        client = self.served.client
        if kind == "write":
            epoch, ms = self._timed(kind, lambda: client.mutate(op))
            ok = epoch == self.epoch + 1
            self.epoch = epoch
            for mutation in op:
                self.oracle.apply(mutation)
            return kind, ms, ok
        result, ms = self._timed(kind, lambda: client.query(op, min_epoch=self.epoch))
        if kind == "knn":
            return kind, ms, self.oracle.knn_matches(op.point, op.k, result.payload)
        return kind, ms, result.payload == self.oracle.range(op.box)

    def finish(self) -> Iterator[tuple[str, float, bool]]:
        """Checkpoint, write ``REOPEN_BATCHES`` more batches, close, reopen."""
        client = self.served.client
        reply, ms = self._timed("checkpoint", client.checkpoint)
        yield "checkpoint", ms, reply.get("epoch") == self.epoch
        writes = 0
        while writes < REOPEN_BATCHES:
            kind, ms, ok = self.step(self.position)
            yield kind, ms, ok
            writes += kind == "write"
        self.served.close()
        self.served = None
        box = AABB.from_center_extent(self.inputs.circuit.bounding_box().center(), VIEW_EXTENT)
        want = self.oracle.range(box)
        for _ in range(REOPENS):
            gc.collect()
            service, ms = self._timed("reopen", lambda: repro.open(self.root, sharded=True))
            try:
                probe = sorted(service.execute(RangeQuery(box)).payload)
                ok = service.epoch == self.epoch and probe == want
            finally:
                service.close()
            yield "reopen", ms, ok


WORKLOADS = {w.name: w for w in (Explore, Stations, ModelBuild)}

#: Typed failures a step may raise; they count as failed steps.
STEP_ERRORS = (ReproError, OSError)
