"""Per-resource load profiles of a schedule, grouped once.

Two groupings feed every consumer that sums a schedule's load on a
resource:

* :func:`reserved_profiles` -- each storage's Eq. 6 reserved-space
  profiles (the scheduler's own space model, paper Sec. 4.1), used by
  overflow detection, feasibility validation and the simulation engine;
* :func:`link_profiles` -- each undirected link's bandwidth profiles (a
  delivery occupies every edge of its route at the video's bandwidth for
  one playback length), used by the bandwidth check and the engine.

Both keep schedule order -- files in order, then each file's deliveries
or residencies in order -- so a :class:`~repro.core.spacefunc.UsageTimeline`
summed from a group is the same whichever consumer builds it.
"""

from __future__ import annotations

from collections.abc import Container
from typing import TYPE_CHECKING

from repro.core.spacefunc import LinearSegment, SpaceProfile

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.catalog.catalog import VideoCatalog
    from repro.core.schedule import ResidencyInfo, Schedule


def reserved_profiles(
    schedule: Schedule,
    catalog: VideoCatalog,
    *,
    only: Container[str] | None = None,
) -> dict[str, list[tuple[ResidencyInfo, SpaceProfile]]]:
    """``{location: [(residency, Eq. 6 profile), ...]}`` in schedule order.

    Locations appear in first-seen order; callers that report per storage
    walk the topology's storages and look their group up.  ``only``
    restricts the result to the given locations; storages outside it get
    no profiles at all.
    """
    by_loc: dict[str, list[tuple[ResidencyInfo, SpaceProfile]]] = {}
    for fs in schedule:
        video = catalog[fs.video_id]
        for c in fs.residencies:
            if only is not None and c.location not in only:
                continue
            by_loc.setdefault(c.location, []).append((c, c.profile(video)))
    return by_loc


def link_profiles(
    schedule: Schedule,
    catalog: VideoCatalog,
    *,
    only: Container[tuple[str, str]] | None = None,
) -> dict[tuple[str, str], list[SpaceProfile]]:
    """``{edge key: [bandwidth profile, ...]}`` in schedule order.

    Keys are canonical (sorted) edge keys in first-seen order.  ``only``
    restricts the result to the given keys; links outside it get no
    profiles at all.
    """
    by_edge: dict[tuple[str, str], list[SpaceProfile]] = {}
    for fs in schedule:
        video = catalog[fs.video_id]
        bw = video.bandwidth
        for d in fs.deliveries:
            route = d.route
            profile = None
            for a, b in zip(route, route[1:]):
                key = (a, b) if a <= b else (b, a)
                if only is not None and key not in only:
                    continue
                if profile is None:
                    t0 = d.start_time
                    profile = SpaceProfile(
                        (LinearSegment(t0, t0 + video.playback, bw, bw),)
                    )
                by_edge.setdefault(key, []).append(profile)
    return by_edge
