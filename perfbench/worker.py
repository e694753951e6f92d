"""Run one workload in this process and print its result as a JSON line.

``run.py`` starts this script in a fresh process per workload, so the
peak RSS it reports belongs to that workload alone and no cache (the
figure memo, a fabric store) carries over from another.

Modes:

* ``measure``: the recorded-seed digest check, then jobs on ``--seed``
  until ``--seconds`` have passed, timed from outside by splitting every
  ``Simulator.run`` call into fixed chunks of simulated cycles; then one
  short job on a second seed with invariant checks only.
* ``trace``: the recorded-seed digest check, one untraced job, then traced
  jobs with every layer's entry points wrapped (see ``layers.py``); the
  spans are written to the work directory at exit.

``--record-golden`` reruns the recorded-seed check jobs and rewrites
``golden.json``; do that only when a change to the simulator is meant to
change its simulated statistics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.churn import ChurnWorkload
from repro.harness.network_experiment import NetworkExperiment
from repro.harness.single_router import SingleRouterExperiment
from repro.sim.engine import Simulator

from layers import TARGETS, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, JobOutcome, Workload

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
#: Seed whose check-size digests ``golden.json`` records.
GOLDEN_SEED = 1
#: Timed job ``i`` of a run on ``--seed n`` simulates seed
#: ``n * SEEDS_PER_RUN + i``: a run averages over several inputs, so one
#: unusually heavy or light input does not move the run's figures.
SEEDS_PER_RUN = 10_000
#: Fewest timed jobs per run, however long each takes.
MIN_JOBS = 2
#: The experiment classes whose construction ``setup_s`` times.
EXPERIMENT_CLASSES = (SingleRouterExperiment, NetworkExperiment, ChurnWorkload)


class ChunkClock:
    """Times every ``Simulator.run`` call in chunks of ``chunk_cycles``.

    Slicing a run is behaviour-preserving: the harnesses already advance
    in arbitrary slices (warm-up boundary, checkpoint strides) and the
    simulator's state after ``run(a); run(b)`` equals ``run(a + b)``.
    """

    def __init__(self, chunk_cycles: int) -> None:
        self.chunk_cycles = chunk_cycles
        #: (start cycle, cycles run, host ns, cycles fast-forwarded) per chunk.
        self.chunks: List[Tuple[int, int, int, int]] = []
        self._original: Optional[Callable] = None

    def install(self) -> None:
        original = self._original = Simulator.run
        clock = self
        size = self.chunk_cycles
        now_ns = time.perf_counter_ns

        def run(sim, cycles):
            if cycles <= 0:
                return original(sim, cycles)
            executed = 0
            remaining = cycles
            while remaining > 0:
                step = min(size, remaining)
                start_cycle = sim.now
                skipped = sim.fast_forwarded_cycles
                start = now_ns()
                done = original(sim, step)
                elapsed = now_ns() - start
                clock.chunks.append(
                    (start_cycle, done, elapsed, sim.fast_forwarded_cycles - skipped)
                )
                executed += done
                remaining -= step
            return executed

        Simulator.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            Simulator.run = self._original
            self._original = None

    def reset(self) -> None:
        self.chunks = []


class SetupClock:
    """Times every experiment constructor: spec to an experiment that is
    built (topology, routers, admission, sources) and ready to step."""

    def __init__(self) -> None:
        #: Host seconds per construction.
        self.samples: List[float] = []
        self._originals: List[Tuple[type, Callable]] = []

    def install(self) -> None:
        for cls in EXPERIMENT_CLASSES:
            original = cls.__init__
            self._originals.append((cls, original))
            cls.__init__ = self._timed(original)

    def _timed(self, original: Callable) -> Callable:
        samples = self.samples

        def init(experiment, *args, **kwargs):
            start = time.perf_counter()
            original(experiment, *args, **kwargs)
            samples.append(time.perf_counter() - start)

        return init

    def uninstall(self) -> None:
        for cls, original in reversed(self._originals):
            cls.__init__ = original
        self._originals.clear()


class Tally:
    """Attempted/failed accounting; failures are kept as messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, label: str, fn: Callable[[], Any]) -> Optional[Any]:
        """Call ``fn``; a raised check or error counts as one failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is reported, none is fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _load_golden() -> Dict[str, Any]:
    try:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def golden_check(workload: Workload, work_dir: Path, tally: Tally) -> None:
    """Check-size job on the recorded seed; its digest must match."""
    expected = _load_golden().get(workload.name)
    outcome = tally.run(
        f"{workload.name} seed {GOLDEN_SEED} (recorded)",
        lambda: workload.job(GOLDEN_SEED, "check", work_dir),
    )
    if outcome is None:
        return
    if expected is None:
        tally.fail(f"{workload.name}: no recorded digest in {GOLDEN_PATH.name}")
    elif outcome.digest != expected["digest"]:
        tally.fail(
            f"{workload.name}: simulated statistics on seed {GOLDEN_SEED} differ "
            f"from {GOLDEN_PATH.name}: got {outcome.stats}, recorded {expected['stats']}"
        )


def job_seed(seed: int, index: int) -> int:
    return seed * SEEDS_PER_RUN + index


def second_seed_check(workload: Workload, seed: int, work_dir: Path, tally: Tally) -> None:
    """Invariant checks on a seed none of the timed jobs used."""
    second = job_seed(seed, SEEDS_PER_RUN - 1)
    tally.run(
        f"{workload.name} seed {second} (second seed)",
        lambda: workload.job(second, "check", work_dir),
    )


def measure(workload: Workload, seed: int, seconds: float, size: str,
            work_dir: Path, tally: Tally) -> Tuple[Dict[str, float], Dict[str, Any]]:
    clock = ChunkClock(workload.chunk_cycles)
    setup_clock = SetupClock()
    warmup = workload.warmup.get(size, 0)
    walls: List[float] = []
    rates: List[float] = []
    chunk_ms: List[float] = []
    items: List[float] = []
    clock.install()
    try:
        # Under the chunk clock, so the recorded digest (taken without it)
        # also proves that slicing the runs leaves the results unchanged.
        golden_check(workload, work_dir, tally)
        setup_clock.install()
        begin = time.perf_counter()
        while len(walls) < MIN_JOBS or time.perf_counter() - begin < seconds:
            clock.reset()
            current = job_seed(seed, len(walls))
            start = time.perf_counter_ns()
            outcome = tally.run(
                f"{workload.name} seed {current}",
                lambda: workload.job(current, size, work_dir),
            )
            end = time.perf_counter_ns()
            if outcome is None:
                break
            walls.append((end - start) / 1e9)
            if workload.throughput is not None:
                items.append(outcome.facts[workload.throughput[2]])
            timed = [c for c in clock.chunks if c[0] >= warmup]
            cycles = sum(c[1] for c in timed)
            ns = sum(c[2] for c in timed)
            rates.append(cycles / (ns / 1e9) if ns else 0.0)
            # Whole chunks in which the kernel stepped at least one cycle;
            # a chunk skipped entirely by fast-forward costs microseconds
            # and would only dilute the distribution.
            chunk_ms.extend(
                c[2] / 1e6
                for c in timed
                if c[1] == workload.chunk_cycles and c[3] < c[1]
            )
    finally:
        setup_clock.uninstall()
        clock.uninstall()
    second_seed_check(workload, seed, work_dir, tally)
    if not walls or not chunk_ms or not setup_clock.samples:
        return {}, {"jobs": len(walls), "chunks": len(chunk_ms)}
    # 19 cut points: index 9 is the median, index 18 the 95th percentile.
    cuts = statistics.quantiles(chunk_ms, n=20)
    metrics = {
        "setup_s": statistics.median(setup_clock.samples),
        "wall_s": statistics.median(walls),
        "sim_cycles_per_s": statistics.median(rates),
        "chunk_ms_p50": cuts[9],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "jobs": len(walls),
        "chunks": len(chunk_ms),
        "chunk_cycles": workload.chunk_cycles,
        # Printed, not bounded: see README.md, "End-to-end metrics".
        "chunk_ms_p95": f"{cuts[18]:.6g} ms",
        "chunks_beyond_p95": sum(1 for v in chunk_ms if v > cuts[18]),
        "seeds": f"{job_seed(seed, 0)}..{job_seed(seed, len(walls) - 1)}",
    }
    if items:
        name, unit, _ = workload.throughput
        info[name] = f"{statistics.median(items) / metrics['wall_s']:.6g} {unit}"
    return metrics, info


def trace(workload: Workload, seed: int, seconds: float, size: str,
          work_dir: Path, tally: Tally) -> Tuple[Dict[str, float], Dict[str, Any]]:
    golden_check(workload, work_dir, tally)
    seed = job_seed(seed, 0)
    label = f"{workload.name} seed {seed}"
    start = time.perf_counter()
    reference = tally.run(f"{label} untraced", lambda: workload.job(seed, size, work_dir, True))
    untraced_s = time.perf_counter() - start
    tracer = Tracer(workload.name)
    tracer.install(TARGETS)
    traced_walls: List[float] = []
    facts: Dict[str, float] = {}
    outcomes: List[JobOutcome] = []
    try:
        begin = time.perf_counter()
        while not traced_walls or time.perf_counter() - begin < seconds:
            tracer.active = True
            job_start = time.perf_counter()
            with tracer.span("perfbench.job"):
                outcome = tally.run(
                    f"{label} traced", lambda: workload.job(seed, size, work_dir, True)
                )
            tracer.active = False
            if outcome is None:
                break
            traced_walls.append(time.perf_counter() - job_start)
            outcomes.append(outcome)
            for key, value in outcome.facts.items():
                facts[key] = facts.get(key, 0) + value
    finally:
        tracer.uninstall()
    if reference is not None:
        for outcome in outcomes:
            if outcome.digest != reference.digest:
                tally.fail(f"{label}: traced statistics differ from the untraced run")
            if outcome.flit_digest != reference.flit_digest:
                tally.fail(f"{label}: traced delivered-flit stream differs from the untraced run")
        facts["warm_pass_s"] = reference.facts.get("warm_pass_s", 0.0)
        facts["warm_hit_ratio"] = reference.facts.get("warm_hit_ratio", 0.0)
    facts["jobs"] = len(outcomes)
    if traced_walls:
        facts["overhead_ratio"] = statistics.median(traced_walls) / untraced_s
    metrics = layer_metrics(tracer, facts)
    spans_path = work_dir / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path, {"seed": seed, "jobs": len(outcomes)})
    info = {
        "jobs": len(outcomes),
        "spans_file": str(spans_path.relative_to(work_dir.parent)),
        "absent_layers": tracer.absent_layers(),
        "missing_targets": {k: v for k, v in tracer.missing.items() if v},
        "flit_digest": reference.flit_digest if reference is not None else None,
        "digest": reference.digest if reference is not None else None,
    }
    return metrics, info


def record_golden(work_dir: Path) -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        outcome = workload.job(GOLDEN_SEED, "check", work_dir)
        golden[name] = {
            "seed": GOLDEN_SEED,
            "size": "check",
            "digest": outcome.digest,
            "stats": outcome.stats,
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("measure", "trace"), default="measure")
    parser.add_argument("--size", choices=("measure", "tiny"), default="measure")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.record_golden:
        record_golden(args.work_dir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    tally = Tally()
    run = measure if args.mode == "measure" else trace
    metrics, info = run(workload, args.seed, args.seconds, args.size, args.work_dir, tally)
    print(
        json.dumps(
            {
                "attempted": tally.attempted,
                "failures": tally.failures,
                "metrics": metrics,
                "info": info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
