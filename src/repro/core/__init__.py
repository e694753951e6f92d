"""Core MMR router architecture: the paper's primary contribution."""

from .admission import AdmissionController, AdmissionDecision
from .bandwidth import AllocationError, BandwidthAllocator, BandwidthRequest
from .config import RouterConfig
from .costmodel import (
    CrossbarCost,
    CrossbarOrganisation,
    arbiter_delay,
    area_ratio,
    crossbar_cost,
    multiplexor_delay,
    scheduling_rate_ns,
    vcm_cycle_budget,
)
from .crossbar import CrossbarError, MultiplexedCrossbar, PerfectSwitch
from .flit import ControlCommand, Flit, FlitType, Phit, fragment_into_phits
from .link import (
    ControlWord,
    LinkReceiver,
    LinkTimingConfig,
    LinkTransmitter,
    transfer_flit,
)
from .flow_control import CreditError, LinkFlowControl
from .link_scheduler import Candidate, LinkScheduler
from .phit_buffer import PhitBuffer
from .priority import (
    AgePriority,
    BiasedPriority,
    FixedPriority,
    PriorityScheme,
    RatePriority,
    make_priority_scheme,
)
from .rau import ChannelMapping, ChannelMappingStore, MappingError, RoutingArbitrationUnit
from .router import InputPort, InvariantViolation, Router
from .status_vectors import ActivitySet, BitVector, StatusBank
from .switch_scheduler import (
    DecScheduler,
    Grant,
    GreedyPriorityScheduler,
    PerfectSwitchScheduler,
    SwitchScheduler,
    validate_grants,
)
from .vcm import AddressGenerator, VcmGeometry, VirtualChannelMemory
from .vcm_timing import (
    AccessTimeline,
    VcmTimingConfig,
    required_modules,
    schedule_flit_stream,
    sequential_flit_addresses,
)
from .virtual_channel import ServiceClass, VirtualChannel

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AllocationError",
    "BandwidthAllocator",
    "BandwidthRequest",
    "RouterConfig",
    "CrossbarCost",
    "CrossbarOrganisation",
    "arbiter_delay",
    "area_ratio",
    "crossbar_cost",
    "multiplexor_delay",
    "scheduling_rate_ns",
    "vcm_cycle_budget",
    "CrossbarError",
    "MultiplexedCrossbar",
    "PerfectSwitch",
    "ControlCommand",
    "Flit",
    "FlitType",
    "Phit",
    "fragment_into_phits",
    "ControlWord",
    "LinkReceiver",
    "LinkTimingConfig",
    "LinkTransmitter",
    "transfer_flit",
    "CreditError",
    "LinkFlowControl",
    "Candidate",
    "LinkScheduler",
    "PhitBuffer",
    "AgePriority",
    "BiasedPriority",
    "FixedPriority",
    "PriorityScheme",
    "RatePriority",
    "make_priority_scheme",
    "ChannelMapping",
    "ChannelMappingStore",
    "MappingError",
    "RoutingArbitrationUnit",
    "InputPort",
    "InvariantViolation",
    "Router",
    "ActivitySet",
    "BitVector",
    "StatusBank",
    "DecScheduler",
    "Grant",
    "GreedyPriorityScheduler",
    "PerfectSwitchScheduler",
    "SwitchScheduler",
    "validate_grants",
    "AddressGenerator",
    "VcmGeometry",
    "VirtualChannelMemory",
    "AccessTimeline",
    "VcmTimingConfig",
    "required_modules",
    "schedule_flit_stream",
    "sequential_flit_addresses",
    "ServiceClass",
    "VirtualChannel",
]
