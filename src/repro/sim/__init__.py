"""Discrete-event execution and validation of service schedules.

The scheduler emits a *plan*; this subpackage provides the substrate that
actually "runs" it under the paper's fluid-flow semantics (blocks travel at
playback rate; a block at fraction ``x`` of the file arrives at route nodes
at ``t_start + x*P`` and is dropped once the chronologically-last service has
consumed it):

* :mod:`repro.sim.events`  -- time-ordered event queue primitives,
* :mod:`repro.sim.fluid`   -- physical (fluid) cache-occupancy profiles,
* :mod:`repro.sim.loads`   -- per-storage reserved and per-link bandwidth
  profiles of a schedule, grouped once for every consumer,
* :mod:`repro.sim.engine`  -- the event-driven engine producing an execution
  trace, per-resource peaks and degraded-mode fault replays,
* :mod:`repro.sim.validate` -- feasibility checks without replay: request
  coverage, causality, storage capacity, link bandwidth.

A notable modelling fact surfaced here: for *short* residencies the paper's
Eq. 6 reserved-space function is slightly optimistic against fluid physics
during the drain phase (the fill is still in flight when the last service
begins).  The engine reports both curves; see
:func:`repro.sim.fluid.fluid_occupancy_profile`.
"""

from repro.sim.events import Event, EventKind, EventQueue, kind_priority
from repro.sim.fluid import fluid_occupancy_profile
from repro.sim.engine import SimulationEngine, SimulationReport
from repro.sim.validate import (
    Violation,
    assert_valid,
    fault_violations,
    validate_schedule,
)

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "kind_priority",
    "fluid_occupancy_profile",
    "SimulationEngine",
    "SimulationReport",
    "Violation",
    "assert_valid",
    "fault_violations",
    "validate_schedule",
]
