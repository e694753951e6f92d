"""The network build's load-target loop: O(path) tracking, exact answers.

``NetworkExperiment`` admits streams until the mean router-to-router link
utilisation reaches the target.  :class:`LinkLoadTracker` answers that
question from a running integer sum and falls back to the ordered float
scan (``_mean_link_utilisation``) only near the target, so every build
must admit exactly what a scan-per-attempt build admits.
"""

import math

import pytest

from repro.core.bandwidth import BandwidthRequest
from repro.harness import network_experiment as ne
from repro.harness.network_experiment import (
    LinkLoadTracker,
    NetworkExperiment,
    NetworkExperimentSpec,
)
from repro.sim.rng import SeededRng


def build_spec(**overrides):
    base = dict(target_link_load=0.9, warmup_cycles=0, measure_cycles=0)
    base.update(overrides)
    return NetworkExperimentSpec(**base)


def scan(experiment):
    return ne._mean_link_utilisation(experiment.network, experiment.topology)


def link_allocators(experiment):
    """Output registers of the router-to-router links, in scan order."""
    topology = experiment.topology
    return [
        experiment.network.routers[node].admission.outputs[port]
        for node in range(topology.num_nodes)
        for port in range(topology.num_ports)
        if topology.neighbor_on_port(node, port) is not None
    ]


@pytest.fixture
def count_scans(monkeypatch):
    """Count calls of the ordered scan (the tracker's fallback)."""
    calls = []
    original = ne._mean_link_utilisation

    def counting(network, topology):
        calls.append(1)
        return original(network, topology)

    monkeypatch.setattr(ne, "_mean_link_utilisation", counting)
    return calls


class TestTrackerMatchesScan:
    def test_random_admit_teardown(self):
        # 48 VCs make the round 384 cycles, so register quotients round.
        experiment = NetworkExperiment(
            build_spec(target_link_load=0.05, seed=3, vcs_per_port=48)
        )
        manager = experiment.manager
        tracker = LinkLoadTracker(experiment.network, experiment.topology)
        rng = SeededRng(11, "tracker-walk")
        nodes = experiment.topology.num_nodes
        open_connections = []
        for _ in range(400):
            if open_connections and rng.random() < 0.35:
                connection = open_connections.pop(
                    rng.randint(0, len(open_connections) - 1)
                )
                manager.teardown(connection)
                tracker.remove(connection)
            else:
                src = rng.randint(0, nodes - 1)
                dst = rng.randint(0, nodes - 1)
                if src == dst:
                    continue
                request = BandwidthRequest(rng.randint(1, 40))
                connection = manager.establish(src, dst, request)
                if connection is None:
                    continue
                tracker.add(connection)
                open_connections.append(connection)
            assert tracker.allocated == sum(
                allocator.allocated_cycles for allocator in link_allocators(experiment)
            )
            mean = scan(experiment)
            for target in (
                mean,
                math.nextafter(mean, 0.0),
                math.nextafter(mean, 1.0),
                mean * 0.999,
                mean * 1.001,
                0.5,
                1.0,
            ):
                if target > 0.0:
                    assert tracker.reached(target) == (mean >= target)

    def test_inside_guard_band_takes_fallback(self, count_scans):
        """Find registers whose ordered float scan falls an ulp below the
        exact mean; with the target at the exact mean, the estimate alone
        would say "reached" and only the fallback scan answers right."""
        # With a power-of-two round every quotient and sum is exact; 48 VCs
        # make the round 384 cycles.
        experiment = NetworkExperiment(
            build_spec(target_link_load=0.01, seed=1, vcs_per_port=48)
        )
        allocators = link_allocators(experiment)
        round_length = allocators[0].round_length
        rng = SeededRng(5, "guard-band")
        for _ in range(200):
            for allocator in allocators:
                allocator.allocated_cycles = rng.randint(0, round_length)
            tracker = LinkLoadTracker(experiment.network, experiment.topology)
            exact = tracker.allocated / (round_length * len(allocators))
            if scan(experiment) < exact:
                break
        else:
            pytest.fail("no register state with a scan below the exact mean")
        count_scans.clear()
        assert not tracker.reached(exact)
        assert len(count_scans) == 1
        # Far from the target the estimate decides alone.
        assert tracker.reached(exact / 2) and not tracker.reached(1.0)
        assert len(count_scans) == 1

    def test_rejects_mixed_round_lengths(self):
        experiment = NetworkExperiment(build_spec(target_link_load=0.01, seed=1))
        link_allocators(experiment)[0].round_length += 1
        with pytest.raises(ValueError, match="round length"):
            LinkLoadTracker(experiment.network, experiment.topology)


def build_fingerprint(experiment):
    streams = [
        (
            dst,
            stream.connection.path,
            stream.connection.ports,
            stream.connection.vcs,
            stream.connection.request.permanent_cycles,
        )
        for dst, stream in experiment.streams
    ]
    registers = [
        (
            [out.allocated_cycles for out in router.admission.outputs],
            [inp.allocated_cycles for inp in router.admission.inputs],
        )
        for router in experiment.network.routers
    ]
    return experiment.attempts, streams, registers


BUILDS = [
    dict(topology="mesh8x8", routing="dimension_order", seed=1),
    dict(topology="mesh8x8", routing="dimension_order", seed=2),
    dict(topology="mesh8x8", routing="dimension_order", seed=3),
    dict(topology="torus8x8", routing="dimension_order", seed=1),
    dict(num_nodes=12, seed=1),
    dict(num_nodes=12, seed=2, vcs_per_port=48),
]


def build_id(overrides):
    vcs = overrides.get("vcs_per_port", 64)
    return f"{overrides.get('topology', 'irregular12')}-s{overrides['seed']}-v{vcs}"


@pytest.mark.parametrize("overrides", BUILDS, ids=build_id)
def test_build_matches_scan_every_attempt(overrides, count_scans, monkeypatch):
    spec = build_spec(**overrides)
    tracked = NetworkExperiment(spec)
    assert len(count_scans) <= 2
    assert tracked.streams

    def scan_every_attempt(self, target):
        return ne._mean_link_utilisation(self.network, self.topology) >= target

    monkeypatch.setattr(LinkLoadTracker, "reached", scan_every_attempt)
    oracle = NetworkExperiment(spec)
    assert build_fingerprint(tracked) == build_fingerprint(oracle)


@pytest.mark.parametrize("overrides", [BUILDS[0], BUILDS[-1]], ids=build_id)
def test_admission_registers_conserved_after_build(overrides):
    """Each register equals the sum over the VCs bound through it."""
    experiment = NetworkExperiment(build_spec(**overrides))
    for router in experiment.network.routers:
        ports = router.config.num_ports
        out_bound = [0] * ports
        in_bound = [0] * ports
        for port in router.input_ports:
            for vc in port.vcs:
                if vc.connection_id is None:
                    continue
                cycles = vc.allocated_cycles + vc.permanent_cycles
                out_bound[vc.output_port] += cycles
                in_bound[port.port] += cycles
        assert [out.allocated_cycles for out in router.admission.outputs] == out_bound
        assert [inp.allocated_cycles for inp in router.admission.inputs] == in_bound
