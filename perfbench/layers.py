"""The simulator's layers: which entry points the tracer wraps for each,
and how the per-layer metrics are computed from the recorded spans.

Which end-to-end metric each layer should move, on which workload, is
written out in ``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from tracer import Target, Tracer

# ----- observers (run after a traced call returns) ---------------------------


def _count_candidates(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("candidates", len(result))


def _count_grants(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("grants", len(result))


def _count_blocked_inject(tracer: Tracer, result: Any, args: tuple) -> None:
    if result is False:
        tracer.count("inject_blocked")


def _count_credit_exhaustion(tracer: Tracer, result: Any, args: tuple) -> None:
    flow, vc = args[0], args[1]
    if not flow.infinite and flow.credits(vc) == 0:
        tracer.count("credit_stalls")


def _count_fast_forward(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("fast_forwarded_cycles", result)


def _record_checkpoint_bytes(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.record("ckpt_bytes", result.payload_bytes)


def _count_store_get(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("store_hits" if result is not None else "store_misses")


ALL = ("*",)

#: Entry points per layer.  A layer is the set of calls whose self time it
#: owns; time in unwrapped code counts toward the nearest wrapped caller.
TARGETS: List[Target] = [
    # Kernel: cycle dispatch, event heap, fast-forward.
    Target("kernel", "repro.sim.engine", "Simulator", ("run", "step", "schedule", "schedule_at")),
    Target("kernel", "repro.sim.engine", "Simulator", ("_fast_forward",), _count_fast_forward),
    # Link scheduler: candidate scan and per-round accounting.
    Target("link_sched", "repro.core.link_scheduler", "LinkScheduler", ("candidates",), _count_candidates),
    Target(
        "link_sched",
        "repro.core.link_scheduler",
        "LinkScheduler",
        ("on_round_boundary", "on_flit_serviced", "refresh_round_state", "invalidate_vc"),
    ),
    # Switch arbitration: one schedule() per router cycle.
    Target("switch_arb", "repro.core.switch_scheduler", "GreedyPriorityScheduler", ("schedule",), _count_grants),
    Target("switch_arb", "repro.core.switch_scheduler", "DecScheduler", ("schedule",), _count_grants),
    Target("switch_arb", "repro.core.switch_scheduler", "PerfectSwitchScheduler", ("schedule",), _count_grants),
    # Datapath: router tick (crossbar, transmit, deliver), inject, links.
    Target("datapath", "repro.core.router", "Router", ("tick", "account_idle_cycles")),
    Target("datapath", "repro.core.router", "Router", ("inject",), _count_blocked_inject),
    Target("datapath", "repro.network.network", "_LinkOutput", ("__call__",)),
    Target("datapath", "repro.network.network", "_HostOutput", ("__call__",)),
    Target("datapath", "repro.network.network", "Network", ("_arrive_event", "inject_best_effort")),
    # Credits: per-VC flow control and credit return across links.
    Target("credits", "repro.core.flow_control", "LinkFlowControl", ("consume",), _count_credit_exhaustion),
    Target("credits", "repro.core.flow_control", "LinkFlowControl", ("replenish", "has_credit")),
    Target("credits", "repro.network.network", "_CreditReturn", ("__call__",)),
    Target("credits", "repro.network.network", "Network", ("_replenish_event",)),
    # Stats: per-flit and per-cycle accounting.
    Target("stats", "repro.sim.stats", "RunningStats", ("add", "merge")),
    Target("stats", "repro.sim.stats", "StatsRegistry", ("counter", "observe")),
    Target("stats", "repro.sim.stats", "ConnectionStats", ("record_flit",)),
    Target("stats", "repro.sim.stats", "Histogram", ("add",)),
    # Traffic sources: flit generation and policing hooks.
    Target("traffic", "repro.traffic.cbr", "CbrSource", ALL),
    Target("traffic", "repro.traffic.vbr", "VbrSource", ALL),
    # Control plane: probe walk, connection manager, interfaces, policing.
    Target("control", "repro.network.probe_protocol", "ProbeProtocol", ALL),
    Target("control", "repro.network.connection", "ConnectionManager", ALL),
    Target("control", "repro.network.interface", "NetworkInterface", ALL),
    Target("control", "repro.network.policing", "TokenBucket", ALL),
    # Build: topology, network and router construction, experiment set-up.
    Target("build", "repro.network.topology", None, ("irregular", "mesh", "torus")),
    Target("build", "repro.harness.network_experiment", None, ("build_spec_topology", "_mean_link_utilisation")),
    Target("build", "repro.network.network", "Network", ("__init__",)),
    Target("build", "repro.core.router", "Router", ("__init__",)),
    Target("build", "repro.harness.single_router", "SingleRouterExperiment", ("__init__",)),
    Target("build", "repro.harness.network_experiment", "NetworkExperiment", ("__init__",)),
    Target("build", "repro.harness.churn", "ChurnWorkload", ("__init__",)),
    # Checkpoint codec.
    Target("ckpt", "repro.ckpt.codec", "CheckpointCodec", ("save",), _record_checkpoint_bytes, True),
    Target("ckpt", "repro.ckpt.codec", "CheckpointCodec", ("load", "read_header")),
    # Fabric: result store, work queue, worker, sweep glue.
    Target("fabric", "repro.fabric.store", "ResultStore", ("get",), _count_store_get, True),
    Target("fabric", "repro.fabric.store", "ResultStore", ("put", "load", "contains")),
    Target("fabric", "repro.fabric.queue", "FabricQueue", ALL),
    Target("fabric", "repro.fabric.worker", "FabricWorker", ALL),
    Target("fabric", "repro.fabric.worker", None, ("submit_sweep", "collect_sweep", "run_sweep_on_fabric")),
]

_NETWORK_BUILDERS = (
    "*.Network.__init__",
    "*.build_spec_topology",
    "*.topology.irregular",
    "*.topology.mesh",
    "*.topology.torus",
    "*.Router.__init__",
)
_EXPERIMENT_BUILDERS = (
    "*.SingleRouterExperiment.__init__",
    "*.NetworkExperiment.__init__",
    "*.ChurnWorkload.__init__",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, facts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced run.

    ``facts`` carries what the jobs themselves report: ``jobs``,
    ``established``, ``attempts``, ``links_searched``, ``teardown_retries``,
    ``warm_pass_s``, ``warm_hit_ratio`` and ``overhead_ratio``.
    """
    root_ns = tracer.total_of("*.job")
    unattributed_ns = tracer.self_of("*.job")

    def share(layer: str) -> float:
        return _ratio(tracer.layer_self_ns(layer), root_ns)

    counts = tracer.counts
    steps = tracer.calls_of("*.Simulator.step")
    fast_forwarded = counts.get("fast_forwarded_cycles", 0)
    scans = tracer.calls_of("*.LinkScheduler.candidates")
    offered = counts.get("candidates", 0)
    schedules = tracer.calls_of("*Scheduler.schedule")
    flits = counts.get("grants", 0)
    injects = tracer.calls_of("*.Router.inject")
    jobs = facts.get("jobs", 1) or 1
    network_ns = tracer.outer_total_of(*_NETWORK_BUILDERS)
    load_target_ns = tracer.total_of("*._mean_link_utilisation")
    experiment_ns = tracer.outer_total_of(*_EXPERIMENT_BUILDERS)
    stats_calls = sum(
        calls for calls, layer in zip(tracer.calls, tracer.layers) if layer == "stats"
    )
    return {
        "kernel.self_share": share("kernel"),
        "kernel.step_us": _ratio(tracer.layer_self_ns("kernel"), steps) / 1e3,
        "kernel.fast_forward_ratio": _ratio(fast_forwarded, fast_forwarded + steps),
        "link_sched.self_share": share("link_sched"),
        "link_sched.us_per_call": _ratio(tracer.self_of("*.LinkScheduler.candidates"), scans) / 1e3,
        "link_sched.calls_per_cycle": _ratio(scans, steps),
        "link_sched.candidates_per_call": _ratio(offered, scans),
        "switch_arb.self_share": share("switch_arb"),
        "switch_arb.us_per_call": _ratio(tracer.layer_self_ns("switch_arb"), schedules) / 1e3,
        "switch_arb.grant_ratio": _ratio(flits, offered),
        "datapath.tick_self_share": _ratio(tracer.self_of("*.Router.tick"), root_ns),
        "datapath.inject_share": _ratio(tracer.self_of("*.Router.inject"), root_ns),
        "datapath.us_per_flit": _ratio(tracer.layer_self_ns("datapath"), flits) / 1e3,
        "datapath.inject_blocked_ratio": _ratio(counts.get("inject_blocked", 0), injects),
        "credits.self_share": share("credits"),
        "credits.stalls": counts.get("credit_stalls", 0) / jobs,
        "stats.self_share": share("stats"),
        "stats.calls_per_flit": _ratio(stats_calls, flits),
        "traffic.self_share": share("traffic"),
        "control.self_share": share("control"),
        "control.acceptance_ratio": _ratio(facts.get("established", 0), facts.get("attempts", 0)),
        "control.links_searched_per_session": _ratio(
            facts.get("links_searched", 0), facts.get("attempts", 0)
        ),
        "control.teardown_retries": facts.get("teardown_retries", 0) / jobs,
        "control.policing_share": _ratio(tracer.self_of("*.TokenBucket.*"), root_ns),
        "build.network_s": network_ns / 1e9 / jobs,
        "build.admission_s": max(0, experiment_ns - network_ns - load_target_ns) / 1e9 / jobs,
        "build.load_target_s": load_target_ns / 1e9 / jobs,
        "build.attempts_per_stream": _ratio(facts.get("attempts", 0), facts.get("established", 0)),
        "ckpt.self_share": share("ckpt"),
        "ckpt.saves": tracer.calls_of("*.CheckpointCodec.save") / jobs,
        "ckpt.save_ms_p50": _median(tracer.durations_of("*.CheckpointCodec.save")) / 1e6,
        "ckpt.bytes_p50": _median(tracer.values.get("ckpt_bytes", [])),
        "fabric.store_get_ms": _median(tracer.durations_of("*.ResultStore.get")) / 1e6,
        "fabric.warm_pass_s": facts.get("warm_pass_s", 0.0),
        "fabric.warm_hit_ratio": facts.get("warm_hit_ratio", 0.0),
        "fabric.overhead_share": share("fabric"),
        "trace.overhead_ratio": facts.get("overhead_ratio", 0.0),
        "trace.unattributed_share": _ratio(unattributed_ns, root_ns),
    }
