"""Tests for virtual channel state and buffer semantics."""

import pytest

from repro.core.flit import Flit, FlitType
from repro.core.virtual_channel import ServiceClass, VirtualChannel


def make_vc(capacity=4):
    return VirtualChannel(port=0, index=5, capacity=capacity)


def data_flit(created=0):
    return Flit(FlitType.DATA, connection_id=1, created=created)


class TestBinding:
    def test_starts_free(self):
        vc = make_vc()
        assert vc.is_free
        assert vc.connection_id is None

    def test_bind_sets_connection_state(self):
        vc = make_vc()
        vc.bind(7, ServiceClass.CBR, output_port=3, output_vc=11)
        assert vc.connection_id == 7
        assert vc.service_class is ServiceClass.CBR
        assert vc.output_port == 3
        assert vc.output_vc == 11
        assert not vc.is_free

    def test_double_bind_rejected(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.CBR, 0)
        with pytest.raises(RuntimeError):
            vc.bind(2, ServiceClass.CBR, 0)

    def test_release_resets_everything(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.VBR, 2, 3)
        vc.allocated_cycles = 5
        vc.permanent_cycles = 3
        vc.peak_cycles = 9
        vc.static_priority = 0.7
        vc.interarrival_cycles = 10.0
        vc.serviced_this_round = 2
        vc.release()
        assert vc.is_free
        assert vc.allocated_cycles == 0
        assert vc.permanent_cycles == 0
        assert vc.peak_cycles == 0
        assert vc.static_priority == 0.0
        assert vc.interarrival_cycles == 1.0
        assert vc.serviced_this_round == 0

    def test_release_with_buffered_flits_rejected(self):
        vc = make_vc()
        vc.bind(1, ServiceClass.CBR, 0)
        vc.enqueue(data_flit(), now=0)
        with pytest.raises(RuntimeError):
            vc.release()


class TestBuffer:
    def test_enqueue_dequeue_fifo(self):
        vc = make_vc()
        flits = [data_flit() for _ in range(3)]
        for f in flits:
            vc.enqueue(f, now=0)
        out = [vc.dequeue(now=1) for _ in range(3)]
        assert out == flits

    def test_head_without_removal(self):
        vc = make_vc()
        f = data_flit()
        vc.enqueue(f, now=0)
        assert vc.head() is f
        assert vc.occupancy == 1

    def test_head_empty_is_none(self):
        assert make_vc().head() is None

    def test_overflow_raises(self):
        vc = make_vc(capacity=2)
        vc.enqueue(data_flit(), now=0)
        vc.enqueue(data_flit(), now=0)
        assert vc.is_full
        with pytest.raises(RuntimeError):
            vc.enqueue(data_flit(), now=0)

    def test_underflow_raises(self):
        with pytest.raises(RuntimeError):
            make_vc().dequeue(now=0)

    def test_ready_time_stamped_when_head(self):
        vc = make_vc()
        first = data_flit(created=5)
        second = data_flit(created=5)
        vc.enqueue(first, now=5)
        vc.enqueue(second, now=6)
        assert first.ready_time == 5
        assert second.ready_time is None
        vc.dequeue(now=9)
        assert second.ready_time == 9

    def test_ready_time_of_enqueue_into_empty(self):
        vc = make_vc()
        f = data_flit(created=2)
        vc.enqueue(f, now=4)
        assert f.ready_time == 4

    def test_occupancy_tracking(self):
        vc = make_vc(capacity=3)
        assert vc.occupancy == 0
        vc.enqueue(data_flit(), now=0)
        vc.enqueue(data_flit(), now=0)
        assert vc.occupancy == 2
        vc.dequeue(now=1)
        assert vc.occupancy == 1
        assert not vc.is_full

    def test_repr(self):
        vc = make_vc()
        assert "port=0" in repr(vc)
        assert "index=5" in repr(vc)
