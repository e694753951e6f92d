"""The benchmark's four workloads: what one job runs, and how it is checked.

A job is one thing a user runs end to end: build the experiment from its
spec, run it, summarise.  Every job returns the simulated statistics it
produced (digested for identity checks) and raises
:class:`BenchCheckError` when an invariant fails.  Checks raise instead of
using ``assert`` so they survive ``python -O``.

Sizes: ``measure`` is the timed job; ``check`` is a short job used for the
recorded-digest check and the second-seed check; ``tiny`` is for the
benchmark's self-tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fabric.queue import Fabric
from repro.harness.churn import ChurnSpec, ChurnWorkload
from repro.harness.network_experiment import (
    NetworkExperiment,
    NetworkExperimentSpec,
    attach_delivery_log,
)
from repro.harness.single_router import ExperimentSpec, SingleRouterExperiment
from repro.harness.sweep import SweepAxis, run_sweep


class BenchCheckError(RuntimeError):
    """A correctness check on a job's outputs failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchCheckError(message)


def digest(record: Any) -> str:
    """sha256 of a JSON-safe record; floats keep every digit via repr."""
    canonical = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class JobOutcome:
    """What one job produced."""

    #: Simulated statistics; identical for identical seeds.
    stats: Dict[str, Any]
    #: Inputs to the per-layer metrics (counts the job itself reports).
    facts: Dict[str, float] = field(default_factory=dict)
    #: (cycle, node, port, connection, seq, created) per delivered flit,
    #: when the job was asked to log them.
    flits: Optional[List[tuple]] = None

    @property
    def digest(self) -> str:
        return digest(self.stats)

    @property
    def flit_digest(self) -> Optional[str]:
        return None if self.flits is None else digest(self.flits)


def _running(stats) -> Dict[str, Any]:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "variance": stats.variance,
        "min": stats.minimum if stats.count else None,
        "max": stats.maximum if stats.count else None,
    }


class _SinkLog:
    """Output handler for a single router's sink ports: logs each flit."""

    def __init__(self, log: List[tuple], port: int) -> None:
        self.log = log
        self.port = port

    def __call__(self, flit, output_vc: int) -> None:
        self.log.append(
            (flit.depart_time, 0, self.port, flit.connection_id, flit.sequence, flit.created)
        )


# ----- paper_router -------------------------------------------------------------------

_PAPER_SIZES = {"measure": (400, 2400), "check": (200, 800), "tiny": (200, 400)}


def paper_router_job(seed: int, size: str, work_dir: Path, log_flits: bool = False) -> JobOutcome:
    warmup, measure = _PAPER_SIZES[size]
    spec = ExperimentSpec(
        target_load=0.9,
        scheduler="greedy",
        priority="biased",
        candidates=8,
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )
    experiment = SingleRouterExperiment(spec)
    flits: Optional[List[tuple]] = None
    if log_flits:
        flits = []
        for port in range(experiment.config.num_ports):
            experiment.router.set_output_handler(port, _SinkLog(flits, port))
    result = experiment.result()
    router = experiment.router
    router.check_invariants()
    summary = result.summary
    require(result.connections > 0, "no connection admitted")
    require(summary.flits_delivered > 0, "no flit delivered")
    require(0.0 < result.utilisation <= 1.0, f"utilisation {result.utilisation} outside (0, 1]")
    require(summary.mean_delay_cycles >= 1.0, f"mean delay {summary.mean_delay_cycles} < 1 cycle")
    require(summary.mean_jitter_cycles >= 0.0, "negative jitter")
    switched = router.stats.get_counter("flits_switched")
    require(
        switched >= summary.flits_delivered,
        f"{summary.flits_delivered} flits delivered but {switched} switched",
    )
    stats = {
        "connections": result.connections,
        "offered_load": result.offered_load,
        "utilisation": result.utilisation,
        "summary": asdict(summary),
        "per_connection": asdict(result.per_connection),
        "max_interface_backlog": result.max_interface_backlog,
        "flits_switched": switched,
        "cycles": router.stats.get_counter("cycles"),
    }
    facts = {
        "established": result.connections,
        "attempts": len(experiment.plan.specs),
    }
    return JobOutcome(stats, facts, flits)


# ----- mesh_sat -------------------------------------------------------------------------

_MESH_SIZES = {"measure": (18, 132), "check": (10, 40), "tiny": (6, 12)}


def mesh_sat_job(seed: int, size: str, work_dir: Path, log_flits: bool = False) -> JobOutcome:
    warmup, measure = _MESH_SIZES[size]
    spec = NetworkExperimentSpec(
        target_link_load=0.9,
        topology="mesh8x8",
        routing="dimension_order",
        vcs_per_port=64,
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )
    experiment = NetworkExperiment(spec)
    flits = attach_delivery_log(experiment) if log_flits else None
    result = experiment.result()
    for router in experiment.network.routers:
        router.check_invariants()
    require(result.streams > 0, "no stream admitted")
    require(result.attempts >= result.streams, "more streams than attempts")
    require(result.delay_cycles.count > 0, "no flit delivered end to end")
    require(
        result.delay_cycles.minimum >= 1,
        f"end-to-end delay {result.delay_cycles.minimum} < 1 cycle",
    )
    require(result.mean_hops >= 1.0, f"mean path length {result.mean_hops} < 1 hop")
    stats = {
        "streams": result.streams,
        "attempts": result.attempts,
        "mean_hops": result.mean_hops,
        "delay": _running(result.delay_cycles),
        "jitter": _running(result.jitter_cycles),
        "by_hops": {str(k): v for k, v in result.by_hops.items()},
        "links_searched": result.links_searched,
        "backtracks": result.backtracks,
        "best_effort_delivered": result.best_effort_delivered,
        "buffered": experiment.network.total_buffered(),
    }
    facts = {
        "established": result.streams,
        "attempts": result.attempts,
        "links_searched": result.links_searched,
    }
    return JobOutcome(stats, facts, flits)


# ----- churn ----------------------------------------------------------------------------------

_CHURN_SESSIONS = {"measure": 500, "check": 150, "tiny": 20}


def churn_job(seed: int, size: str, work_dir: Path, log_flits: bool = False) -> JobOutcome:
    spec = ChurnSpec(
        num_sessions=_CHURN_SESSIONS[size],
        mean_interarrival_cycles=50,
        mean_holding_cycles=2000,
        rates_bps=(5e6,),
        drain_cycles=20000,
        seed=seed,
    )
    workload = ChurnWorkload(spec)
    flits = attach_delivery_log(workload) if log_flits else None
    result = workload.result()
    require(result.drained, f"churn not drained by cycle {workload.now}")
    require(result.leak_free, "resource leak: " + "; ".join(result.leak_report[:3]))
    require(
        result.arrivals == spec.num_sessions,
        f"{result.arrivals} arrivals, expected {spec.num_sessions}",
    )
    require(
        result.established + result.blocked == result.arrivals,
        f"{result.established} established + {result.blocked} blocked "
        f"!= {result.arrivals} arrivals",
    )
    require(result.torn_down == result.established, "not every session torn down")
    require(result.flits_delivered > 0, "no flit delivered")
    stats = {
        "arrivals": result.arrivals,
        "established": result.established,
        "blocked": result.blocked,
        "torn_down": result.torn_down,
        "teardown_retries": result.teardown_retries,
        "renegotiations": [result.renegotiations_applied, result.renegotiations_refused],
        "setup": [result.setup_p50, result.setup_p99, result.setup_mean],
        "qos": asdict(result.qos),
        "flits_delivered": result.flits_delivered,
        "links_searched": result.links_searched,
        "backtracks": result.backtracks,
        "end_cycle": workload.now,
    }
    facts = {
        "established": result.established,
        "attempts": result.arrivals,
        "links_searched": result.links_searched,
        "teardown_retries": result.teardown_retries,
    }
    return JobOutcome(stats, facts, flits)


# ----- fabric_grid -----------------------------------------------------------------------------

#: (loads, warm-up, measured cycles, checkpoint period) per size.
_FABRIC_SIZES = {
    "measure": ((0.2, 0.5, 0.8), 200, 1000, 400),
    "check": ((0.5,), 100, 400, 200),
    "tiny": ((0.5,), 200, 400, 200),
}
_FABRIC_METRICS = ("mean_delay_cycles", "mean_jitter_cycles", "utilisation", "connections")


def _fabric_pass(base, axes, directory: Path, checkpoint_every: int) -> Tuple[List[list], List[Any]]:
    """One ``run_sweep`` on the fabric: its rows and each point's worker."""
    sweep = run_sweep(base, axes, fabric=Fabric(directory, checkpoint_every=checkpoint_every))
    rows = sweep.rows(list(_FABRIC_METRICS))
    workers = [sweep.manifests[key]["fabric"]["worker"] for key in sorted(sweep.manifests, key=repr)]
    return rows, workers


def _written_entries(directory: Path) -> Dict[str, int]:
    """Store entries and result markers with their modification times."""
    files = list(directory.glob("store/*/*.res")) + list(directory.glob("results/*.json"))
    return {str(path): path.stat().st_mtime_ns for path in files}


def fabric_grid_job(seed: int, size: str, work_dir: Path, log_flits: bool = False) -> JobOutcome:
    loads, warmup, measure, checkpoint_every = _FABRIC_SIZES[size]
    base = ExperimentSpec(
        target_load=loads[0], warmup_cycles=warmup, measure_cycles=measure, seed=seed
    )
    axes = [SweepAxis("target_load", loads), SweepAxis("priority", ("biased", "fixed"))]
    directory = work_dir / f"fabric-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        cold_rows, cold_workers = _fabric_pass(base, axes, directory, checkpoint_every)
        cold_entries = _written_entries(directory)
        warm_start = time.perf_counter()
        warm_rows, warm_workers = _fabric_pass(base, axes, directory, checkpoint_every)
        warm_pass_s = time.perf_counter() - warm_start
        warm_entries = _written_entries(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    points = len(loads) * 2
    require(len(cold_rows) == points, f"cold pass returned {len(cold_rows)} of {points} points")
    require(len(cold_entries) == 2 * points, "cold pass did not store every point")
    # A recomputed point would have rewritten its store entry or marker.
    rewritten = [path for path, mtime in warm_entries.items() if cold_entries.get(path) != mtime]
    require(not rewritten, f"warm pass recomputed: {rewritten[:3]}")
    require(warm_workers == cold_workers, "warm-pass results name a different worker")
    require(warm_rows == cold_rows, "warm-pass rows differ from cold-pass rows")
    for row in cold_rows:
        require(0.0 < row[4] <= 1.0, f"utilisation {row[4]} outside (0, 1] at {row[:2]}")
    stats = {"rows": cold_rows}
    facts = {
        "warm_pass_s": warm_pass_s,
        "warm_hit_ratio": sum(w == c for w, c in zip(warm_workers, cold_workers)) / points,
        "points": points,
    }
    return JobOutcome(stats, facts)


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[..., JobOutcome]
    #: Simulated cycles per timed chunk.
    chunk_cycles: int
    #: Warm-up cycles per size, excluded from the cycles/s figure and the
    #: chunk percentiles (absent: every cycle counts).
    warmup: Dict[str, int] = field(default_factory=dict)
    #: (name, unit, facts key): work items per job, reported per second.
    throughput: Optional[Tuple[str, str, str]] = None


WORKLOADS: Dict[str, Workload] = {
    "paper_router": Workload(
        "paper_router", paper_router_job, 200, {k: v[0] for k, v in _PAPER_SIZES.items()}
    ),
    "mesh_sat": Workload(
        "mesh_sat", mesh_sat_job, 6, {k: v[0] for k, v in _MESH_SIZES.items()}
    ),
    "churn": Workload(
        "churn", churn_job, 2000, throughput=("sessions_per_s", "sessions/s", "attempts")
    ),
    "fabric_grid": Workload(
        "fabric_grid", fabric_grid_job, 200, throughput=("points_per_s", "points/s", "points")
    ),
}
