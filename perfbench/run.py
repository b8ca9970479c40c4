"""The repository's end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the checkout this file sits in.  Inputs are generated from ``--seed``
before any clock starts.  ``--trace 0`` measures the end-to-end metrics
with tracing off, each step's time as a multiple of a fixed task timed
around it (``yardstick_ms``); ``--trace 1`` runs the same steps twice,
untraced and then traced, and reports the per-layer metrics, the tracing
overhead and a ``model`` block (the paper's simulated page I/O, not wall
time).  Every answer is checked against a brute-force oracle with the
clock stopped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  Spans of a traced run are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A p95 is reported only over at least this many samples of its step.
P95_MIN_SAMPLES = 200
#: A loop stops early after this many failed steps.
MAX_FAILURES = 20
#: A step's time is divided by the median of this many yardsticks around it.
YARDSTICK_WINDOW = 16


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")


def summarize(values: list[float]) -> dict[str, float]:
    """``p50`` always; ``p95`` only over at least ``P95_MIN_SAMPLES`` samples."""
    summary = {"p50": statistics.median(values)}
    if len(values) >= P95_MIN_SAMPLES:
        summary["p95"] = statistics.quantiles(values, n=100, method="inclusive")[94]
    return summary


class Loop:
    """Runs a workload's steps and keeps their latencies by kind.

    Before every timed request the loop times ``yardstick_ms``.  A step's
    time over the median of the yardsticks around it is its relative time:
    the host's speed, which drifts on a shared machine, cancels out of it.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.yardsticks: list[float] = []
        self._yardstick_at: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        workload.before_request = self.time_yardstick

    def time_yardstick(self) -> None:
        self.yardsticks.append(yardstick_ms())

    def record(self, kind: str, ms: float, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.samples.setdefault(kind, []).append(ms)
            self._yardstick_at.setdefault(kind, []).append(len(self.yardsticks))
        else:
            self.failed += 1

    def relative(self, kind: str) -> list[float]:
        """Each ``kind`` step's time over the median of the
        ``YARDSTICK_WINDOW`` yardsticks timed nearest to it, half before it."""
        half = YARDSTICK_WINDOW // 2
        ratios = []
        for ms, after in zip(self.samples[kind], self._yardstick_at[kind]):
            nearest = self.yardsticks[max(0, after - half) : after + half]
            ratios.append(ms / statistics.median(nearest))
        return ratios

    def step(self, i: int) -> None:
        from workloads import STEP_ERRORS

        try:
            kind, ms, ok = self.workload.step(i)
        except STEP_ERRORS as error:
            print(f"# step {i} failed: {type(error).__name__}: {error}")
            self.attempted += 1
            self.failed += 1
            return
        self.record(kind, ms, ok)

    def run_for(self, seconds: float) -> int:
        """Steps until ``seconds`` have passed; returns how many ran."""
        deadline = time.perf_counter() + seconds
        count = 0
        while time.perf_counter() < deadline and self.failed < MAX_FAILURES:
            self.step(count)
            count += 1
        return count

    def run_steps(self, count: int) -> None:
        for i in range(count):
            if self.failed >= MAX_FAILURES:
                break
            self.step(i)

    def finish(self) -> None:
        for kind, ms, ok in self.workload.finish():
            self.record(kind, ms, ok)


def header(workload, args) -> dict:
    from repro import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels.active_backend(),
        **workload.header(),
    }


_YARDSTICK_VALUES = np.random.default_rng(2013).random(16_384)


def yardstick_ms() -> float:
    """Time of a fixed task that shares no code with the program (~0.5 ms).

    Half interpreter work (dict updates, a keyed sort), half numpy (masks,
    a sort), the two kinds of work the program's steps are made of.  The
    host's speed moves it as it moves the steps; the program's code does
    not move it at all.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda item: item[1])
    values = _YARDSTICK_VALUES
    np.sort(values[(values > 0.25) & (values < 0.75)])
    return (time.perf_counter() - start) * 1000.0


def measure(workload, args) -> tuple[Loop, dict[str, tuple[float, str]], dict]:
    """The untraced run: set up several times, loop, close the run."""
    setups = []
    for n in range(SETUPS):
        workload.prepare()
        gc.collect()  # start every set-up from the same collected heap
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if n < SETUPS - 1:
            workload.teardown()
    loop = Loop(workload)
    info = header(workload, args)
    try:
        loop.run_for(args.seconds)
        loop.finish()
    finally:
        workload.teardown()
    info["yardstick_ms"] = statistics.median(loop.yardsticks)
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for slot, kind in enumerate(workload.slots, start=1):
        values = loop.relative(kind) if kind in loop.samples else None
        if not values:
            raise RuntimeError(f"no successful {kind} step; cannot report step{slot}")
        metrics[f"step{slot}_p50_rel"] = (statistics.median(values), "yardsticks")
    info["setups_s"] = setups
    return loop, metrics, info


def trace(workload, args) -> tuple[Loop, dict[str, tuple[float, str]], dict, object]:
    """The same steps untraced, then traced; per-layer metrics from the spans."""
    import layers
    import tracing

    workload.prepare()
    workload.setup()
    plain = Loop(workload)
    info = header(workload, args)
    try:
        steps = plain.run_for(args.seconds / 2.0)
    finally:
        workload.teardown()

    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        workload.recorder = recorder
        workload.prepare()
        with recorder.step("setup"):
            workload.setup()
        traced = Loop(workload)
        try:
            traced.run_steps(steps)
            traced_rel = sum(sum(traced.relative(kind)) for kind in traced.samples)
            traced.finish()
        finally:
            workload.teardown()
    finally:
        workload.recorder = None
        recorder.uninstall()
    plain_rel = sum(sum(plain.relative(kind)) for kind in plain.samples)
    overhead = (traced_rel / plain_rel - 1.0) * 100.0 if plain_rel else 0.0
    values = layers.compute(recorder.spans, steps, overhead)
    metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}
    info["traced_steps"] = steps
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced, metrics, info, recorder


def report(args, loop: Loop, metrics: dict, info: dict, workload) -> None:
    print(f"# perfbench {json.dumps(info, sort_keys=True)}")
    names = workload.labels
    for kind in sorted(loop.samples):
        values = loop.samples[kind]
        quantiles = " ".join(f"{q}={v:.3f} ms" for q, v in summarize(values).items())
        relative = statistics.median(loop.relative(kind))
        print(f"#   {names.get(kind, kind)}: n={len(values)} {quantiles} p50={relative:.3f} rel")
    if args.workload == "stations" and "flat" in loop.samples:
        from inputs import BATCH_WINDOWS

        batch_ms = statistics.median(loop.samples["flat"])
        print(f"#   batch_qps: {BATCH_WINDOWS * 1000.0 / batch_ms:.1f} q/s")
    error_rate = loop.failed / loop.attempted if loop.attempted else 0.0
    print(f"#   error_rate: {error_rate:.6f} ({loop.failed} of {loop.attempted})")
    yardstick = statistics.median(loop.yardsticks)
    print(f"#   yardstick: n={len(loop.yardsticks)} p50={yardstick:.4f} ms")
    for slot, kind in enumerate(workload.slots, start=1):
        print(f"#   step{slot} = {names[kind]}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("explore", "stations", "model_build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()

    import inputs
    from workloads import WORKLOADS

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](inputs.MAKERS[args.workload](args.seed), workdir)
        if args.trace:
            loop, metrics, info, recorder = trace(workload, args)
            path = recorder.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            print(f"# spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")
            _print_self_times(recorder)
        else:
            loop, metrics, info = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, loop, metrics, info, workload)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _print_self_times(recorder) -> None:
    """Total and self time per span name of the traced pass."""
    from tracing import self_ms

    own = self_ms(recorder.spans)
    totals: dict[str, list[float]] = {}
    for span in recorder.spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.ms
        entry[2] += own[span.sid]
        entry[3] += span.kernel_ms
    print("# span totals (calls, total ms, self ms, kernel ms):")
    for name, (calls, total, own_ms, kernel) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(f"#   {name}: {calls} {total:.1f} {own_ms:.1f} {kernel:.1f}")


if __name__ == "__main__":
    sys.exit(main())
