"""Storage overflow detection (paper Sec. 4.1).

When the independently computed per-file schedules are integrated, an
intermediate storage can be over-committed during some time intervals.  An
overflow ``OF_{Δt, IS_j}`` is identified by its location and the maximal
interval during which the summed reserved space (Eq. 6 profiles of all
residencies at ``IS_j``) exceeds the storage's capacity.
``OverflowSet(IS_j, Δt)`` is the set of residencies involved -- those whose
profile is positive somewhere inside the interval.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import ResidencyInfo, Schedule
from repro.core.spacefunc import UsageTimeline
from repro.sim.loads import reserved_profiles
from repro.topology.graph import Topology


@dataclass(frozen=True)
class OverflowSituation:
    """One ``OF_{Δt, IS_j}`` with its overflow set.

    Attributes:
        location: The over-committed storage ``IS_j``.
        interval: Maximal ``(t_start, t_end)`` with usage > capacity.
        members: Residencies occupying space inside the interval
            (``OverflowSet(IS_j, Δt)``).
        peak_usage: Maximum summed reserved space during the interval.
        capacity: The storage's capacity (for excess reporting).
        excess_spacetime: Integral of ``usage - capacity`` over the interval.
    """

    location: str
    interval: tuple[float, float]
    members: tuple[ResidencyInfo, ...]
    peak_usage: float
    capacity: float
    excess_spacetime: float

    @property
    def duration(self) -> float:
        return self.interval[1] - self.interval[0]

    @property
    def peak_excess(self) -> float:
        return self.peak_usage - self.capacity

    def journal_attrs(self) -> dict:
        """Attribute dict for an ``overflowed`` journal event."""
        return {
            "location": self.location,
            "interval": self.interval,
            "members": len(self.members),
            "videos": tuple(sorted({c.video_id for c in self.members})),
            "peak_usage": self.peak_usage,
            "capacity": self.capacity,
            "excess": self.excess_spacetime,
        }


def storage_usage(
    schedule: Schedule, catalog: VideoCatalog, location: str
) -> UsageTimeline:
    """Summed reserved-space timeline of all residencies at ``location``."""
    group = reserved_profiles(schedule, catalog).get(location, ())
    return UsageTimeline(p for _, p in group)


def detect_overflows(
    schedule: Schedule,
    catalog: VideoCatalog,
    topology: Topology,
    *,
    background=None,
    locations: Container[str] | None = None,
) -> list[OverflowSituation]:
    """All storage overflow situations in an integrated schedule.

    Returns one :class:`OverflowSituation` per maximal violation interval per
    storage, ordered by (location, interval start).  ``locations`` limits
    the sweep to those storages (SORP re-sweeps only where a victim moved);
    the situations at those storages are the ones a full sweep reports there.

    ``background`` is an optional ``{location: [SpaceProfile, ...]}`` of
    space committed outside this schedule (e.g. residency tails carried over
    from the previous scheduling cycle).  Background usage counts toward
    capacity but is never part of an overflow set -- only the schedule's own
    residencies can be victimized.
    """
    overflows: list[OverflowSituation] = []
    by_loc = reserved_profiles(schedule, catalog, only=locations)
    background = background or {}
    for spec in topology.storages:
        group = by_loc.get(spec.name)
        if not group:
            continue
        profiles = [p for _, p in group]
        profiles.extend(background.get(spec.name, ()))
        timeline = UsageTimeline(profiles)
        if timeline.peak <= spec.capacity:
            continue
        for (t0, t1) in timeline.intervals_above(spec.capacity):
            members = tuple(c for c, p in group if p.positive_in(t0, t1))
            overflows.append(
                OverflowSituation(
                    location=spec.name,
                    interval=(t0, t1),
                    members=members,
                    peak_usage=timeline.max_over(t0, t1),
                    capacity=spec.capacity,
                    excess_spacetime=_excess_between(timeline, spec.capacity, t0, t1),
                )
            )
    overflows.sort(key=lambda o: (o.location, o.interval))
    return overflows


def total_excess(schedule: Schedule, catalog: VideoCatalog, topology: Topology) -> float:
    """Summed over-capacity space-time across all storages.

    SORP's monotone progress measure: zero iff the schedule is feasible.
    """
    by_loc = reserved_profiles(schedule, catalog)
    total = 0.0
    for spec in topology.storages:
        timeline = UsageTimeline(p for _, p in by_loc.get(spec.name, ()))
        total += timeline.integral_above(spec.capacity)
    return total


def _excess_between(
    timeline: UsageTimeline, capacity: float, t0: float, t1: float
) -> float:
    """Excess space-time restricted to ``[t0, t1]``.

    The violation intervals already bound where usage exceeds capacity, so
    integrating the global excess function restricted to the interval equals
    integrating within it.
    """
    # Reuse integral_above on a window by clipping: build from the window's
    # contribution only.  UsageTimeline has no native windowed integral of the
    # excess, but the global integral_above over a maximal violation interval
    # is additive across disjoint intervals; compute via trapezoid on the
    # window grid.
    if timeline.is_empty or t1 <= t0:
        return 0.0
    grid = [t0] + [float(t) for t in timeline.grid if t0 < t < t1] + [t1]
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        ya = max(timeline.value(a) - capacity, 0.0)
        yb = max(timeline.value_left(b) - capacity, 0.0)
        total += 0.5 * (ya + yb) * (b - a)
    return total
