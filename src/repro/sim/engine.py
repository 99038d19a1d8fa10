"""Event-driven execution of a service schedule.

:class:`SimulationEngine` expands a schedule into stream/service/cache
events, replays them chronologically, and aggregates per-resource usage:

* per-storage occupancy timelines under both the **fluid** physical model and
  the paper's **Eq. 6 reserved** model,
* per-link concurrent-bandwidth timelines (each delivery occupies every edge
  of its route at the video's bandwidth for one playback length),
* an execution trace (the ordered event list) for inspection and reporting.

The engine observes; it does not judge.  It serves execution traces (CLI
``simulate``), fluid-occupancy curves and degraded-mode fault replay
(:func:`repro.faults.report.build_degraded_report`).  Feasibility checks
live in :mod:`repro.sim.validate`, which reads the same load profiles
(:mod:`repro.sim.loads`) directly and never replays a schedule unless
asked for a fault replay.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostModel
from repro.core.schedule import Schedule
from repro.core.spacefunc import SpaceProfile, UsageTimeline
from repro.obs import NULL_OBS, Observability, RunTelemetry
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.fluid import fluid_occupancy_profile
from repro.sim.loads import link_profiles, reserved_profiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> sim)
    from repro.faults.plan import FaultPlan

_log = logging.getLogger(__name__)


@dataclass
class LinkLoad:
    """Bandwidth usage on one undirected link."""

    edge: tuple[str, str]
    timeline: UsageTimeline
    capacity: float

    @property
    def peak(self) -> float:
        return self.timeline.peak

    @property
    def saturated_intervals(self) -> list[tuple[float, float]]:
        if self.capacity == float("inf"):
            return []
        return self.timeline.intervals_above(self.capacity)


@dataclass
class StorageLoad:
    """Occupancy at one storage under both space models."""

    location: str
    fluid: UsageTimeline
    reserved: UsageTimeline
    capacity: float

    @property
    def fluid_peak(self) -> float:
        return self.fluid.peak

    @property
    def reserved_peak(self) -> float:
        return self.reserved.peak


@dataclass
class SimulationReport:
    """Everything the engine observed while executing a schedule."""

    trace: list[Event] = field(default_factory=list)
    storages: dict[str, StorageLoad] = field(default_factory=dict)
    links: dict[tuple[str, str], LinkLoad] = field(default_factory=dict)
    n_streams: int = 0
    n_services: int = 0
    n_residencies: int = 0
    #: Number of injected faults replayed in the trace (each contributes a
    #: ``FAULT_START``/``FAULT_END`` event pair).
    n_faults: int = 0
    #: Telemetry snapshot taken as the run finished (``None`` when the
    #: engine runs with the default null observability handle).
    telemetry: RunTelemetry | None = None

    @property
    def makespan(self) -> tuple[float, float]:
        """(first event time, last event time); (0, 0) for an empty trace."""
        if not self.trace:
            return (0.0, 0.0)
        return (self.trace[0].time, self.trace[-1].time)


class SimulationEngine:
    """Replays a schedule under the fluid-flow semantics.

    Args:
        cost_model: Supplies topology + catalog.
        obs: Observability handle; when live, each run records a
            ``simulate`` span, per-kind event counters, and per-resource
            peak gauges, and attaches a telemetry snapshot to the report.
    """

    def __init__(self, cost_model: CostModel, *, obs: Observability | None = None):
        self._cm = cost_model
        self._topo = cost_model.topology
        self._catalog: VideoCatalog = cost_model.catalog
        self._obs = obs if obs is not None else NULL_OBS

    def run(
        self, schedule: Schedule, *, faults: "FaultPlan | None" = None
    ) -> SimulationReport:
        """Execute ``schedule`` and return the full observation report.

        Args:
            schedule: The plan to replay.
            faults: Optional :class:`~repro.faults.plan.FaultPlan` to inject.
                Each fault contributes ``FAULT_START``/``FAULT_END`` events
                to the trace; same-timestamp ordering guarantees the start
                event precedes (and the end event follows) any stream or
                service event at the same instant, so trace consumers see
                availability change *before* the work it affects.
        """
        with self._obs.tracer.span(
            "simulate",
            deliveries=len(schedule.deliveries),
            residencies=len(schedule.residencies),
            faults=0 if faults is None else len(faults),
        ) as span:
            report = self._run(schedule, faults)
            span.set(events=len(report.trace))
        self._record_metrics(report)
        if self._obs.enabled:
            report.telemetry = self._obs.telemetry()
        _log.debug(
            "simulated %d event(s): %d stream(s), %d residenc(ies), %d fault(s)",
            len(report.trace), report.n_streams, report.n_residencies,
            report.n_faults,
        )
        return report

    def _run(
        self, schedule: Schedule, faults: "FaultPlan | None" = None
    ) -> SimulationReport:
        report = SimulationReport()
        queue = EventQueue()

        if faults is not None:
            for f in faults:
                payload = {
                    "fault": f.key,
                    "kind": f.kind.value,
                    "target": f.target,
                    "severity": f.severity,
                }
                queue.push(f.t_start, EventKind.FAULT_START, payload)
                queue.push(f.t_end, EventKind.FAULT_END, payload)
                report.n_faults += 1

        for fs in schedule:
            video = self._catalog[fs.video_id]
            for d in fs.deliveries:
                t0, t1 = d.start_time, d.start_time + video.playback
                stream = {"video": fs.video_id, "route": d.route}
                service = {"video": fs.video_id, "user": d.request.user_id}
                queue.push(t0, EventKind.STREAM_START, stream)
                queue.push(t1, EventKind.STREAM_END, stream)
                queue.push(t0, EventKind.SERVICE_START, service)
                queue.push(t1, EventKind.SERVICE_END, service)
                report.n_streams += 1
                report.n_services += 1
            for c in fs.residencies:
                cache = {"video": fs.video_id, "location": c.location}
                queue.push(c.t_start, EventKind.CACHE_OPEN, cache)
                queue.push(c.t_last, EventKind.CACHE_LAST_SERVICE, cache)
                queue.push(c.t_last + video.playback, EventKind.CACHE_RELEASE, cache)
                report.n_residencies += 1

        report.trace = queue.drain()

        # storage occupancy under both models
        by_loc = reserved_profiles(schedule, self._catalog)
        for spec in self._topo.storages:
            group = by_loc.get(spec.name, ())
            report.storages[spec.name] = StorageLoad(
                location=spec.name,
                fluid=UsageTimeline(self._fluid_profile(c) for c, _ in group),
                reserved=UsageTimeline(p for _, p in group),
                capacity=spec.capacity,
            )

        for key, profiles in link_profiles(schedule, self._catalog).items():
            report.links[key] = LinkLoad(
                edge=key,
                timeline=UsageTimeline(profiles),
                capacity=self._topo.edge(*key).bandwidth,
            )
        return report

    def _fluid_profile(self, c) -> SpaceProfile:
        video = self._catalog[c.video_id]
        return fluid_occupancy_profile(
            video.size, video.playback, c.t_start, c.t_last
        )

    def _record_metrics(self, report: SimulationReport) -> None:
        metrics = self._obs.metrics
        if not metrics.enabled:
            return
        by_kind: dict[str, int] = {}
        for event in report.trace:
            by_kind[event.kind.name.lower()] = (
                by_kind.get(event.kind.name.lower(), 0) + 1
            )
        for kind, count in sorted(by_kind.items()):
            metrics.counter(
                "vor_sim_events_total",
                help="Simulation events replayed, by kind",
                kind=kind,
            ).inc(count)
        if report.n_faults:
            metrics.counter(
                "vor_faults_injected_total",
                help="Faults injected into simulation replays",
            ).inc(report.n_faults)
        for name, load in report.storages.items():
            metrics.gauge(
                "vor_storage_peak_reserved_bytes",
                mode="max",
                help="Peak reserved (Eq. 6) occupancy per intermediate storage",
                location=name,
            ).set(load.reserved_peak)
            metrics.gauge(
                "vor_storage_peak_fluid_bytes",
                mode="max",
                help="Peak fluid-model occupancy per intermediate storage",
                location=name,
            ).set(load.fluid_peak)
        for (a, b), load in report.links.items():
            metrics.gauge(
                "vor_link_peak_bytes_per_second",
                mode="max",
                help="Peak concurrent bandwidth per undirected link",
                link=f"{a}-{b}",
            ).set(load.peak)
