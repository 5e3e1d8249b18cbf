"""A small discrete-event simulation kernel.

Everything in the reproduction — disks, networks, hosts, the Swift protocol —
runs as generator processes on this kernel.  The design follows the classic
event/process style (events on a calendar, generator coroutines yielding
events), which matches the simulator described in §5 of the paper.
"""

from .callback import CallbackProcess
from .engine import EmptySchedule, Environment, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process
from .random_streams import RandomStream, StreamFactory
from .resources import FifoServer, Resource, Store
from .stats import (
    ConfidenceInterval,
    OnlineStats,
    SampleSet,
    UtilizationMonitor,
    student_t_critical,
)

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "CallbackProcess",
    "Resource",
    "FifoServer",
    "Store",
    "RandomStream",
    "StreamFactory",
    "OnlineStats",
    "SampleSet",
    "ConfidenceInterval",
    "UtilizationMonitor",
    "student_t_critical",
]
