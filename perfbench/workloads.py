"""The four benchmark workloads.

Each workload builds one *instance* (topology, catalog, workload or feed,
service) from a sub-seed, then ``run`` drives the instance through the
program's public API from a single thread with the serial Phase-1 backend
and returns an :class:`Outcome`.  Only the calls into the program are
timed; the checks on its outputs run afterwards, outside the timed
section.

Every instance of every workload offers no booking the program could
refuse as malformed: all titles, storages and lead times are valid, so
the only reservations that go undelivered are the ones the program
itself rejects, sheds or loses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import units
from repro.catalog import paper_catalog
from repro.faults import FaultFeed
from repro.gateway import GatewayConfig, RequestEvent, RequestFeed, ReservationGateway
from repro.gateway.policies import build_policy
from repro.horizon import HorizonConfig, HorizonOrchestrator, generate_drifting_cycles
from repro.online import OnlineLoopConfig
from repro.replication import ReplicaMap
from repro.service import VORService
from repro.topology import paper_topology
from repro.workload import PeakHourArrivals, WorkloadGenerator
from repro.workload.requests import Request

_now = time.perf_counter_ns

#: The paper's rates (Sec. 5): 500 $/GB network, 5 $/(GB*hour) storage.
NRATE = units.per_gb(500)
SRATE = units.per_gb_hour(5)
CATALOG_TITLES = 500
ALPHA = 0.271


@dataclass
class Outcome:
    """What one instance produced, as seen from outside the program."""

    offered: int = 0
    delivered: int = 0
    #: set-up time of the instance and the host probe taken just before
    #: its timed section (see ``run.host_probe``)
    setup_s: float = 0.0
    probe_s: float = 0.0
    psi: float = 0.0
    section_s: float = 0.0
    boundaries_s: list[float] = field(default_factory=list)
    intake_ns: list[int] = field(default_factory=list)
    operations: int = 0
    failed_operations: int = 0
    errors: list[str] = field(default_factory=list)
    digest_parts: list = field(default_factory=list)
    #: workload-specific figures printed beside the metrics
    extra: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.digest_parts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _key(r: Request) -> tuple:
    return (r.start_time, r.video_id, r.user_id, r.local_storage)


def _check_cycle(out: Outcome, report, label: str) -> None:
    """Output checks shared by every published cycle report."""
    out.operations += 1
    if report.violations:
        out.failed_operations += 1
        out.errors.append(
            f"{label}: schedule failed validation: {report.violations[0]}"
        )
    charged = report.cycle.total_cost
    billed = report.billing.grand_total
    if abs(billed - charged) > 1e-6 * max(1.0, abs(charged)):
        out.errors.append(
            f"{label}: psi billed {billed!r} != psi charged {charged!r}"
        )


def _digest_cycle(report) -> list:
    victims = [
        [v.video_id, v.location] for v in report.cycle.resolution.victims
    ]
    return [round(report.cycle.net_total_cost, 6), victims]


def _paper_topology(capacity: float):
    return paper_topology(nrate=NRATE, srate=SRATE, capacity=capacity)


# -- one-cycle workloads -------------------------------------------------------


class CycleInstance:
    """One cycle on the paper topology, booked through ``VORService.reserve``
    and closed with ``close_cycle`` (the cycle boundary)."""

    def __init__(self, sub_seed: int, *, users: int, capacity_gb: float | None):
        catalog = paper_catalog(n_videos=CATALOG_TITLES, seed=sub_seed)
        # ``None``: room for the whole catalog at every storage, so Phase 1
        # can overflow nowhere and SORP has nothing to resolve.
        capacity = (
            sum(v.size for v in catalog) if capacity_gb is None
            else units.gb(capacity_gb)
        )
        topology = _paper_topology(capacity)
        self.batch = sorted(
            WorkloadGenerator(
                topology, catalog, alpha=ALPHA, users_per_neighborhood=users
            ).generate(sub_seed)
        )
        self.service = VORService(topology, catalog, lead_time=0.0)

    def run(self) -> Outcome:
        out = Outcome(offered=len(self.batch))
        service = self.service
        reserve = service.reserve
        intake = out.intake_ns
        t_start = _now()
        for r in self.batch:
            t0 = _now()
            reserve(r.user_id, r.video_id, r.start_time,
                    local_storage=r.local_storage, now=0.0)
            intake.append(_now() - t0)
        t0 = _now()
        report = service.close_cycle(cycle_end=self.batch[-1].start_time)
        t1 = _now()
        out.section_s = (t1 - t_start) / 1e9
        out.boundaries_s.append((t1 - t0) / 1e9)
        out.operations += len(self.batch)

        _check_cycle(out, report, "cycle")
        offered = {_key(r) for r in self.batch}
        delivered = {_key(d.request) for d in report.cycle.schedule.deliveries}
        out.delivered = len(offered & delivered)
        out.psi = report.cycle.net_total_cost
        out.digest_parts.append(_digest_cycle(report))
        return out


# -- booking stream ------------------------------------------------------------

BOOKING_DAYS = 3
BOOKING_SEAL_EVERY = 4 * units.HOUR
BOOKING_POLICY = "headroom:8,price-ceiling:5400,rate-limit:0.01:20"


class BookingInstance:
    """A multi-day flash-crowd feed replayed through ``ReservationGateway``.

    One caller books in feed order and waits for each decision (a closed
    loop of one).  Showings crowd around 20:00; bookings arrive 1-4 h
    ahead.  The batch cap, deep queue and policy chain make the gateway
    admit, queue, shed and reject a mix; a seal closes every four hours.
    """

    def __init__(self, sub_seed: int, *, users: int, max_batch: int,
                 queue_depth: int):
        catalog = paper_catalog(n_videos=CATALOG_TITLES, seed=sub_seed)
        topology = _paper_topology(units.gb(5))
        events: list[RequestEvent] = []
        for day in range(BOOKING_DAYS):
            feed = RequestFeed.generate(
                topology, catalog, seed=sub_seed * 31 + day,
                users_per_neighborhood=users, arrivals=PeakHourArrivals(),
            )
            shift = day * units.DAY
            for e in feed:
                r = e.request
                events.append(RequestEvent(
                    at=e.at + shift,
                    request=Request(r.start_time + shift, r.video_id,
                                    f"{r.user_id}/d{day}", r.local_storage),
                ))
        self.feed = RequestFeed(events=tuple(events), name="flash-crowd",
                                seed=sub_seed)
        last = max(self.feed.span[1], self.feed.showing_span[1])
        seals = math.ceil(last / BOOKING_SEAL_EVERY)
        self.boundaries = [(i + 1) * BOOKING_SEAL_EVERY for i in range(seals)]
        service = VORService(topology, catalog)
        self.gateway = ReservationGateway(
            service,
            policy=build_policy(BOOKING_POLICY, topology=topology,
                                catalog=catalog),
            config=GatewayConfig(max_batch=max_batch, queue_depth=queue_depth),
        )

    def run(self) -> Outcome:
        out = Outcome(offered=len(self.feed))
        gateway = self.gateway
        intake_ns = out.intake_ns
        dispositions: dict[str, int] = {}
        seals: list[float] = []
        intake, seal = gateway.intake, gateway.seal

        def timed_intake(event):
            t0 = _now()
            disposition = intake(event)
            intake_ns.append(_now() - t0)
            dispositions[disposition] = dispositions.get(disposition, 0) + 1
            return disposition

        def timed_seal(**kwargs):
            t0 = _now()
            report = seal(**kwargs)
            seals.append((_now() - t0) / 1e9)
            return report

        gateway.intake, gateway.seal = timed_intake, timed_seal
        t_start = _now()
        try:
            run = gateway.run(self.feed, self.boundaries)
        finally:
            del gateway.intake, gateway.seal
        out.section_s = (_now() - t_start) / 1e9
        out.boundaries_s = seals
        out.operations += len(intake_ns)

        offered = {_key(e.request) for e in self.feed}
        delivered: set = set()
        for cycle in run.cycles:
            _check_cycle(out, cycle.report, f"seal {cycle.index}")
            delivered |= {
                _key(d.request) for d in cycle.report.cycle.schedule.deliveries
            }
            out.psi += cycle.report.cycle.net_total_cost
            out.digest_parts.append(_digest_cycle(cycle.report))
        out.delivered = len(offered & delivered)

        promoted = sum(c.promoted for c in run.cycles)
        admitted = sum(c.admitted for c in run.cycles)
        rejected = sum(c.rejected_total for c in run.cycles)
        shed = sum(c.shed for c in run.cycles)
        direct = dispositions.get("admitted", 0)
        adds_up = (
            not run.unconsumed
            and run.offered == len(self.feed)
            and direct + promoted + rejected + shed == run.offered
            and admitted == direct + promoted
            and rejected == dispositions.get("rejected", 0)
        )
        if not adds_up:
            out.errors.append(
                f"gateway dispositions do not add up: admitted {direct} + "
                f"promoted {promoted} + rejected {rejected} + shed {shed} "
                f"!= offered {run.offered} (feed {len(self.feed)})"
            )
        if out.delivered != admitted:
            out.errors.append(
                f"{admitted} bookings admitted but {out.delivered} delivered"
            )
        out.digest_parts.append([direct, promoted, rejected, shed])
        out.extra.update(admitted=direct, promoted=promoted, rejected=rejected,
                         shed=shed, queued=dispositions.get("queued", 0))
        return out


# -- faulted horizon -----------------------------------------------------------

HORIZON_CYCLES = 3
HORIZON_FAULTS = 6


class HorizonInstance:
    """A 3-cycle ``HorizonOrchestrator`` run with drifting popularity, two
    warehouses under a heat-placed replica map, 3 GB caches and a seeded
    fault feed whose outages straddle the cycle boundaries."""

    def __init__(self, sub_seed: int, *, users: int):
        topology = _paper_topology(units.gb(3))
        topology.add_warehouse("VW2")
        topology.add_edge("IS15", "VW2", nrate=units.per_gb(100))
        catalog = paper_catalog(n_videos=CATALOG_TITLES, seed=sub_seed)
        self.cycles = generate_drifting_cycles(
            topology, catalog, cycles=HORIZON_CYCLES, cycle_length=units.DAY,
            seed=sub_seed, churn=0.5, users_per_neighborhood=users,
        )
        replicas = ReplicaMap.heat_placement(
            topology, catalog, self.cycles[0][0], degree=1, seed=sub_seed
        )
        self.feed = FaultFeed.generate(
            topology, seed=sub_seed, n_events=HORIZON_FAULTS,
            horizon=(0.0, HORIZON_CYCLES * units.DAY),
        )
        # No backoff sleeps: a retried amendment is measured as compute.
        self.orchestrator = HorizonOrchestrator(
            topology, catalog, replicas=replicas,
            config=HorizonConfig(online=OnlineLoopConfig(backoff_base=0.0)),
        )

    def run(self) -> Outcome:
        out = Outcome(offered=sum(len(b) for b, _ in self.cycles))
        service = self.orchestrator.service
        reserve, close, amend = (
            service.reserve, service.close_cycle, service.amend_cycle
        )
        intake_ns = out.intake_ns
        marks: list[int] = []  # start of each cycle close
        ends: list[int] = []  # first booking after each close
        final: dict[int, object] = {}
        attempts: list[tuple[bool, float]] = []
        reported_lost: dict[int, set] = {}

        def timed_reserve(*args, **kwargs):
            t0 = _now()
            if len(ends) < len(marks):
                ends.append(t0)
            request = reserve(*args, **kwargs)
            intake_ns.append(_now() - t0)
            return request

        def timed_close(**kwargs):
            marks.append(_now())
            report = close(**kwargs)
            final[report.cycle.cycle_index] = report
            return report

        def timed_amend(report, plan, **kwargs):
            t0 = _now()
            ok = False
            try:
                amended = amend(report, plan, **kwargs)
                ok = amended.feasible
            finally:  # an attempt may also fail by raising
                attempts.append((ok, (_now() - t0) / 1e9))
            if ok:
                k = amended.cycle.cycle_index
                final[k] = amended
                reported_lost.setdefault(k, set()).update(
                    _key(r) for r in amended.recovery.lost
                )
            return amended

        service.reserve, service.close_cycle, service.amend_cycle = (
            timed_reserve, timed_close, timed_amend
        )
        t_start = _now()
        try:
            report = self.orchestrator.run(self.cycles, feed=self.feed)
        finally:
            del service.reserve, service.close_cycle, service.amend_cycle
        t_end = _now()
        ends.append(t_end)
        out.section_s = (t_end - t_start) / 1e9
        out.boundaries_s = [(e - m) / 1e9 for m, e in zip(marks, ends)]
        out.operations += len(intake_ns)

        undelivered = 0
        unreported = 0
        for k, (batch, _) in enumerate(self.cycles):
            published = final[k]
            _check_cycle(out, published, f"cycle {k}")
            offered = {_key(r) for r in batch}
            delivered = {
                _key(d.request) for d in published.cycle.schedule.deliveries
            }
            missing = offered - delivered
            out.delivered += len(offered & delivered)
            undelivered += len(missing)
            unreported += len(missing - reported_lost.get(k, set()))
            outcome = report.cycles[k]
            if outcome.deliveries != len(published.cycle.schedule.deliveries):
                out.errors.append(
                    f"cycle {k}: horizon reports {outcome.deliveries} "
                    f"deliveries, published schedule has {len(delivered)}"
                )
            out.digest_parts.append(_digest_cycle(published))
        if not report.feasible:
            out.errors.append("horizon reported an infeasible cycle")
        out.psi = report.total_psi
        out.digest_parts.append(round(report.total_psi, 6))

        # Group attempts into amendment batches: a batch retries until an
        # attempt succeeds; a failed batch used every retry, a degraded one
        # (breaker open) only its single attempt.
        retries = self.orchestrator.config.online.max_retries
        batch_s: list[float] = []
        cursor = 0
        for c in report.cycles:
            for outcome in c.amendment_outcomes:
                n = 1 + retries if outcome == "failed" else 1
                if outcome in ("amended", "degraded"):
                    while not attempts[cursor + n - 1][0]:
                        n += 1
                batch_s.append(sum(a[1] for a in attempts[cursor:cursor + n]))
                cursor += n
        out.extra.update(
            amend_batch_s=batch_s,
            amend_attempts=len(attempts),
            amend_attempts_failed=sum(1 for a in attempts if not a[0]),
            undelivered=undelivered,
            lost_reported_by_horizon=sum(c.requests_lost for c in report.cycles),
            lost_never_reported=unreported,
        )
        return out


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]  # sub-seed -> instance with ``run()``
    #: Runs per instance, folded into one by ``run.fold``.  Workloads whose
    #: instances differ little in work repeat to shed the host's speed
    #: drift and the preemptions in their booking tails; the others spend
    #: the time on more instances, which cancels more of their
    #: instance-to-instance spread.
    repeats: int
    #: Instances every run completes, however long they take.  Psi,
    #: delivered share and the side figures are taken over these, so they
    #: repeat exactly for a seed whatever the host's speed.
    min_instances: int
    #: Instances whose repeats take turns (see ``run.main``).
    group: int = 1


def workloads(scale: float = 1.0) -> dict[str, Workload]:
    """The workloads at full size, or shrunk by ``scale`` for smoke runs."""

    def users(n: int) -> int:
        return max(1, round(n * scale))

    contended_users = users(10)
    bulk_users = users(400)
    booking_users = users(100)
    horizon_users = users(6)
    max_batch = max(4, round(60 * scale))
    queue_depth = max(4, round(800 * scale))
    return {
        w.name: w
        for w in (
            Workload(
                "contended-cycle",
                lambda s: CycleInstance(s, users=contended_users, capacity_gb=2.5),
                repeats=1,
                min_instances=10,
            ),
            Workload(
                "bulk-cycle",
                lambda s: CycleInstance(s, users=bulk_users, capacity_gb=None),
                repeats=2,
                min_instances=3,
            ),
            Workload(
                "booking-stream",
                lambda s: BookingInstance(s, users=booking_users,
                                          max_batch=max_batch,
                                          queue_depth=queue_depth),
                repeats=4,
                min_instances=5,
                group=4,
            ),
            Workload(
                "faulted-horizon",
                lambda s: HorizonInstance(s, users=horizon_users),
                repeats=2,
                min_instances=5,
                group=2,
            ),
        )
    }


def quiet() -> None:
    """The program logs warnings for expected events (sheds, failed
    amendment attempts); keep them off the benchmark's output."""
    logging.disable(logging.WARNING)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
