"""Discrete-event simulation substrate: clock, scheduler, kernel, failures."""

from repro.sim.clock import SimClock
from repro.sim.failures import FailureEvent, FailureKind, FailurePlan
from repro.sim.injector import FailureInjector, InjectionLogEntry
from repro.sim.kernel import Kernel, KernelSnapshot, Timer
from repro.sim.parallel import (
    ShardProgram,
    build_saturation_storm,
    run_program_parallel,
    run_program_sequential,
    run_scenario_replicated,
)
from repro.sim.scheduler import EventScheduler
from repro.sim.shard import ShardedKernel
from repro.sim.wheel import HierarchicalTimerWheel

__all__ = [
    "EventScheduler",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "FailurePlan",
    "HierarchicalTimerWheel",
    "InjectionLogEntry",
    "Kernel",
    "KernelSnapshot",
    "ShardProgram",
    "ShardedKernel",
    "SimClock",
    "Timer",
    "build_saturation_storm",
    "run_program_parallel",
    "run_program_sequential",
    "run_scenario_replicated",
]
