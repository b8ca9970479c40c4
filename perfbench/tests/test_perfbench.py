"""The benchmark's own contract: inputs, oracle, metric names, p95 rule, spans.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import re
from pathlib import Path

import pytest

import inputs
import layers
import run
import tracing
from oracle import BoxOracle
from repro.engine.mutations import Delete, Insert, Move
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from workloads import Stations

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- inputs -------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(inputs.MAKERS))
def test_same_seed_same_inputs(workload, small_circuit):
    make = inputs.MAKERS[workload]
    first = inputs.fingerprint(make(5, small_circuit))
    assert first == inputs.fingerprint(make(5, small_circuit))
    assert first != inputs.fingerprint(make(6, small_circuit))


def test_model_stream_follows_the_cycle(small_circuit):
    stream = inputs.model_build_inputs(3, small_circuit).scripts["stream"]
    letters = {kind: letter for letter, kind in inputs.MODEL_KINDS.items()}
    kinds = "".join(letters[kind] for kind, _ in stream)
    cycle = inputs.MODEL_CYCLE
    assert kinds == (cycle * (len(kinds) // len(cycle) + 1))[: len(kinds)]
    assert all(len(op) == 1 for kind, op in stream if kind == "write")
    for (kind, write), (_, _), (reread_kind, reread) in zip(stream, stream[1:], stream[2:]):
        if kind == "write" and not isinstance(write[0], Delete):
            assert reread_kind == "reread"
            want = write[0].obj.aabb.center()
            got = reread.box.center()
            assert (got.x, got.y, got.z) == pytest.approx((want.x, want.y, want.z))


# -- oracle -------------------------------------------------------------------
def test_oracle_flags_a_dropped_uid(small_circuit):
    segments = small_circuit.segments()
    oracle = BoxOracle(segments)
    window = AABB.from_center_extent(small_circuit.bounding_box().center(), 80.0)
    answer = oracle.range(window)
    assert len(answer) > 1
    assert answer[1:] != oracle.range(window)


def test_oracle_knn_rejects_wrong_answers(small_circuit):
    oracle = BoxOracle(small_circuit.segments())
    point = small_circuit.bounding_box().center()
    answer = oracle.knn(point, 8)
    assert oracle.knn_matches(point, 8, answer)
    assert not oracle.knn_matches(point, 8, answer[:-1])  # one dropped
    assert not oracle.knn_matches(point, 8, answer[:-1] + answer[-2:-1])  # a repeat
    far_uid = oracle.knn(point, len(oracle.rows))[-1][0]
    assert not oracle.knn_matches(point, 8, answer[:-1] + [(far_uid, answer[-1][1])])
    uid, distance = answer[0]
    assert not oracle.knn_matches(point, 8, [(uid, distance + 1.0)] + answer[1:])


def test_oracle_follows_mutations():
    oracle = BoxOracle([BoxObject(uid=1, box=AABB(0, 0, 0, 1, 1, 1))])
    window = AABB(5, 5, 5, 6, 6, 6)
    oracle.apply(Insert(BoxObject(uid=2, box=AABB(5, 5, 5, 5.5, 5.5, 5.5))))
    assert oracle.range(window) == [2]
    oracle.apply(Move(1, BoxObject(uid=1, box=AABB(5.5, 5.5, 5.5, 7, 7, 7))))
    assert oracle.range(window) == [1, 2]
    oracle.apply(Delete(2))
    assert oracle.range(window) == [1]


def test_a_wrong_program_answer_fails_the_step(small_circuit, tmp_path):
    workload = Stations(inputs.stations_inputs(2, small_circuit), tmp_path)
    workload.prepare()
    workload.setup()
    assert workload.step(0)[2]  # step 0 is a FLAT batch, answered correctly
    honest = workload.engine.query_many

    def drop_one_uid(queries):
        results = honest(queries)
        results[0].payload.pop()
        return results

    workload.engine.query_many = drop_one_uid
    kind, _, ok = workload.step(0)
    assert kind == "flat" and not ok


# -- metric names and the p95 rule ---------------------------------------------
def test_every_metric_has_a_valid_name_and_unit():
    bench = json.loads(BENCHMARK.read_text())
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS


def test_end_to_end_metrics_match_the_workload_slots():
    from workloads import WORKLOADS

    bench = json.loads(BENCHMARK.read_text())
    expected = {"setup_s", "peak_rss_mb"}
    for workload in WORKLOADS.values():
        slots = {f"step{i}_p50_rel" for i in range(1, len(workload.slots) + 1)}
        assert expected | slots == {m["name"] for m in bench["end_to_end"]}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_p95_needs_200_samples():
    assert set(run.summarize([1.0] * 199)) == {"p50"}
    summary = run.summarize([float(i) for i in range(200)])
    assert set(summary) == {"p50", "p95"}
    assert summary["p50"] < summary["p95"]


# -- relative step times -------------------------------------------------------
class _FakeWorkload:
    before_request = None


def test_relative_time_divides_by_the_yardsticks_around_the_step(monkeypatch):
    speed = {"factor": 1.0}
    monkeypatch.setattr(run, "yardstick_ms", lambda: 0.5 * speed["factor"])
    loop = run.Loop(_FakeWorkload())
    for i in range(40):
        if i == 20:
            speed["factor"] = 2.0  # the host halves its speed mid-run
        loop.workload.before_request()
        loop.record("step", 10.0 * speed["factor"], True)
    ratios = loop.relative("step")
    assert ratios[:12] == [20.0] * 12 and ratios[-12:] == [20.0] * 12
    assert len(ratios) == 40 and loop.attempted == 40


# -- tracing ------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    def span(sid, parent, start, end):
        s = tracing.Span(sid, f"s{sid}", "x", 1, parent)
        s.start, s.end = start, end
        return s

    parent = span(1, None, 0.0, 1.0)
    parent.kernel_ms = 100.0
    overlapping = [span(2, 1, 0.1, 0.5), span(3, 1, 0.3, 0.6), span(4, 1, 0.9, 1.5)]
    own = tracing.self_ms([parent, *overlapping])
    assert own[1] == pytest.approx(1000.0 - 500.0 - 100.0 - 100.0)


def test_install_and_uninstall_restore_every_entry_point():
    from repro.engine.executors import JOIN_EXECUTORS
    from repro.server import protocol
    from repro.storage.arena import ColumnarArena

    def entry_points():
        return (
            protocol.encode_frame,
            JOIN_EXECUTORS["touch"],
            ColumnarArena.__dict__["from_objects"],
        )

    before = entry_points()
    recorder = tracing.install(tracing.Recorder())
    try:
        assert protocol.encode_frame is not before[0]
        assert JOIN_EXECUTORS["touch"] is not before[1]
        assert isinstance(ColumnarArena.__dict__["from_objects"], classmethod)
    finally:
        recorder.uninstall()
    assert entry_points() == before
