"""Router-level property tests: conservation and determinism under random
workloads driven end to end through the scheduling pipeline."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.priority import BiasedPriority, FixedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import (
    DecScheduler,
    GreedyPriorityScheduler,
    PerfectSwitchScheduler,
)
from repro.core.virtual_channel import ServiceClass
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng

CONFIG = RouterConfig(
    num_ports=4, vcs_per_port=8, round_factor=4, enforce_round_budgets=False
)

# A random workload: (input port, output port, inter-arrival cycles).
workloads = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(4, 40)),
    min_size=1,
    max_size=10,
)


def run_workload(workload, scheduler_factory, scheme, cycles=400, seed=1):
    sim = Simulator()
    router = Router(
        CONFIG, scheme, scheduler_factory(), sim,
        rng=SeededRng(seed, "prop"), checked=True,
        selection="per_output",
    )
    injected = []
    opened = 0
    for connection_id, (in_port, out_port, period) in enumerate(workload, start=1):
        vc_index = router.open_connection(
            connection_id, in_port, out_port, BandwidthRequest(1),
            interarrival_cycles=float(period),
        )
        if vc_index is None:
            continue  # port ran out of VCs/bandwidth in this random draw
        opened += 1

        def arrival(cid=connection_id, port=in_port, vc=vc_index, step=period):
            seq = 0
            t = 0
            while t < cycles:
                flit = Flit(FlitType.DATA, connection_id=cid, created=t, sequence=seq)
                yield t, port, vc, flit
                seq += 1
                t += step

        injected.extend(arrival())
    for t, port, vc, flit in injected:
        sim.schedule_at(t, lambda p=port, v=vc, f=flit: router.inject(p, v, f))
    sim.run(cycles)
    return router, injected, opened


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(workloads)
    def test_no_flit_lost_or_duplicated(self, workload):
        router, injected, opened = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority()
        )
        accepted = sum(
            1 for t, p, v, f in injected if f.depart_time is not None
        )
        buffered = router.buffered_flits()
        switched = router.stats.get_counter("flits_switched")
        # Every injected-and-departed flit was switched exactly once.
        assert switched == accepted
        # Everything else is still buffered or was refused at a full VC.
        refused = router.stats.get_counter("inject_blocked")
        assert accepted + buffered + refused >= len(injected) * 0 + accepted
        assert switched + buffered <= len(injected)

    @settings(max_examples=15, deadline=None)
    @given(workloads)
    def test_fifo_preserved_per_connection(self, workload):
        router, injected, opened = run_workload(
            workload, GreedyPriorityScheduler, FixedPriority()
        )
        by_connection = {}
        for t, p, v, flit in injected:
            if flit.depart_time is not None:
                by_connection.setdefault(flit.connection_id, []).append(flit)
        for flits in by_connection.values():
            sequences = [f.sequence for f in flits]
            departures = [f.depart_time for f in flits]
            ordered = sorted(zip(sequences, departures))
            assert [d for _, d in ordered] == sorted(departures)

    @settings(max_examples=10, deadline=None)
    @given(workloads, st.sampled_from(["greedy", "perfect", "dec"]))
    def test_delays_nonnegative_all_schedulers(self, workload, which):
        factory = {
            "greedy": GreedyPriorityScheduler,
            "perfect": lambda: PerfectSwitchScheduler(4),
            "dec": lambda: DecScheduler(SeededRng(5, "dec-prop")),
        }[which]
        router, injected, opened = run_workload(workload, factory, BiasedPriority())
        for t, p, v, flit in injected:
            if flit.depart_time is not None:
                assert flit.switch_delay() >= 1

    @settings(max_examples=10, deadline=None)
    @given(workloads)
    def test_perfect_at_least_as_fast_pointwise_mean(self, workload):
        greedy_router, greedy_inj, _ = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority()
        )
        perfect_router, perfect_inj, _ = run_workload(
            workload, lambda: PerfectSwitchScheduler(4), BiasedPriority()
        )
        greedy_mean = greedy_router.stats.get_series("switch_delay").mean
        perfect_mean = perfect_router.stats.get_series("switch_delay").mean
        if greedy_mean and perfect_mean:
            assert perfect_mean <= greedy_mean + 1e-9


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(workloads, st.integers(0, 50))
    def test_identical_runs_identical_results(self, workload, seed):
        a_router, a_inj, _ = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority(), seed=seed
        )
        b_router, b_inj, _ = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority(), seed=seed
        )
        a_departs = [f.depart_time for _, _, _, f in a_inj]
        b_departs = [f.depart_time for _, _, _, f in b_inj]
        assert a_departs == b_departs
        assert (
            a_router.stats.get_counter("flits_switched")
            == b_router.stats.get_counter("flits_switched")
        )

    @settings(max_examples=10, deadline=None)
    @given(workloads, st.integers(0, 50))
    def test_dec_deterministic_given_seed(self, workload, seed):
        factory = lambda: DecScheduler(SeededRng(seed, "dec-det"))  # noqa: E731
        a_router, a_inj, _ = run_workload(workload, factory, FixedPriority())
        b_router, b_inj, _ = run_workload(workload, factory, FixedPriority())
        assert [f.depart_time for _, _, _, f in a_inj] == [
            f.depart_time for _, _, _, f in b_inj
        ]


class TestStructuralInvariants:
    @settings(max_examples=15, deadline=None)
    @given(workloads)
    def test_invariants_hold_after_random_workload(self, workload):
        router, injected, opened = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority()
        )
        router.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(workloads)
    def test_invariants_hold_mid_flight(self, workload):
        """Invariants also hold while traffic is buffered (not drained)."""
        router, injected, opened = run_workload(
            workload, GreedyPriorityScheduler, BiasedPriority(), cycles=37
        )
        router.check_invariants()

    def test_invariants_detect_corruption(self):
        sim = Simulator()
        router = Router(
            CONFIG, BiasedPriority(), GreedyPriorityScheduler(), sim
        )
        router.input_ports[0].status.vector("flits_available").set(3)
        with pytest.raises(AssertionError, match="flits_available desync"):
            router.check_invariants()

    def test_invariants_raise_under_optimise(self):
        """``python -O`` strips ``assert``; the check must still raise."""
        script = textwrap.dedent(
            """
            from repro.core.config import RouterConfig
            from repro.core.priority import BiasedPriority
            from repro.core.router import InvariantViolation, Router
            from repro.core.switch_scheduler import GreedyPriorityScheduler
            from repro.sim.engine import Simulator

            config = RouterConfig(num_ports=4, vcs_per_port=8, round_factor=4)
            router = Router(
                config, BiasedPriority(), GreedyPriorityScheduler(), Simulator()
            )
            router.input_ports[0].status.vector("flits_available").set(3)
            try:
                router.check_invariants()
            except InvariantViolation as exc:
                print("debug", __debug__, "raised", exc)
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("debug False raised ")
        assert "flits_available desync at 0.3" in out.stdout
