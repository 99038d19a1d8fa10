"""Differential tests: incremental SORP against the naive reference loop.

The reference below is SORP without any of its incremental machinery: every
round it re-detects overflows at every storage and re-runs the rejective
greedy for every (overflow, member) pair, and the greedy asks the capacity
constraints about every cache before pricing it (eager ``allows``).  The
production loop caches trials across rounds, re-sweeps only the storages a
victim touched and checks capacity only for the cache that would win; it
must choose the same victims with the same heat and overhead, and return
the same schedule and Ψ.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import (
    CostModel,
    IndividualScheduler,
    Request,
    RequestBatch,
    ResidencyInfo,
    Topology,
    VideoCatalog,
    VideoFile,
    units,
)
from repro.catalog import paper_catalog
from repro.core.heat import HeatMetric, compute_heat
from repro.core.individual import _Candidate
from repro.core.overflow import detect_overflows
from repro.core.rejective import (
    AvailabilityOracle,
    RejectiveGreedyScheduler,
    ResidencyConstraints,
)
from repro.core.sorp import (
    ResolutionStats,
    VictimRecord,
    _key_greater,
    resolve_overflows,
)
from repro.errors import RoutingError, ScheduleError
from repro.extensions import RollingScheduler
from repro.extensions.bandwidth import BandwidthAwareScheduler
from repro.obs import Observability
from repro.topology import paper_topology
from repro.workload import WorkloadGenerator


# -- the reference -------------------------------------------------------------


class EagerGreedy(IndividualScheduler):
    """The greedy with every cache's capacity checked before it is priced."""

    def _best_candidate(self, video, req, residencies):
        best = None
        if req.local_storage not in self._cm.topology:
            raise RoutingError(f"unknown destination node {req.local_storage!r}")
        volume = video.network_volume * self._cm.network_multiplier(
            req.start_time
        )
        t0, t1 = req.start_time, req.start_time + video.playback
        for w in self._home_warehouses(video.video_id):
            try:
                route = self._route_policy.select(
                    w, req.local_storage, t0, t1, video.bandwidth
                )
            except RoutingError:
                continue
            if route is None:
                continue
            cand = _Candidate(
                volume * route.rate, route.hops, 1, w, route, -1,
                network_cost=volume * route.rate,
            )
            if best is None or cand.sort_key < best.sort_key:
                best = cand
        for idx, c in enumerate(residencies):
            if c.t_start > req.start_time:
                continue
            extended = c.extended(req.start_time, req.user_id)
            if self._constraints is not None and not self._constraints.allows(
                extended, video, replacing=c
            ):
                continue
            try:
                route = self._route_policy.select(
                    c.location, req.local_storage, t0, t1, video.bandwidth
                )
            except RoutingError:
                continue
            if route is None:
                continue
            ext_cost = self._cm.residency_cost_for(
                video.video_id, c.location, extended.t_start, extended.t_last
            ) - self._cm.residency_cost_for(
                video.video_id, c.location, c.t_start, c.t_last
            )
            cand = _Candidate(
                volume * route.rate + ext_cost, route.hops, 0, c.location,
                route, idx, network_cost=volume * route.rate,
            )
            if best is None or cand.sort_key < best.sort_key:
                best = cand
        if best is None:
            raise ScheduleError(f"no feasible source for request {req}")
        if not math.isfinite(best.cost):
            raise ScheduleError(f"non-finite candidate cost for request {req}")
        return best


def eager_reschedule(
    cm, video, requests, schedule, *, forbidden, background=None,
    initial_residencies=(), queries=None,
):
    """``RejectiveGreedyScheduler.reschedule`` on the eager greedy."""
    oracle = AvailabilityOracle(
        schedule, cm.catalog, cm.topology, video.video_id,
        background=background, queries=queries,
    )
    constraints = ResidencyConstraints(forbidden=list(forbidden), oracle=oracle)
    return EagerGreedy(cm, constraints).schedule_file(
        video, requests, initial_residencies=initial_residencies
    )


def reference_resolve(
    schedule, batch, cm, *, metric=HeatMetric.SPACE_TIME_PER_COST,
    background=None, committed=None,
):
    """SORP re-running every trial and every sweep, every round."""
    catalog, topology = cm.catalog, cm.topology
    working = schedule.copy()
    stats = ResolutionStats(phase1_cost=cm.total(working))
    requests_by_video = batch.by_video()
    committed = committed or {}
    overflows = detect_overflows(working, catalog, topology, background=background)
    stats.initial_overflows = len(overflows)
    while overflows:
        stats.iterations += 1
        best_key = best = None
        old_costs = {}
        for of in overflows:
            for c in of.members:
                video = catalog[c.video_id]
                requests = requests_by_video.get(c.video_id)
                if not requests:
                    continue
                seeds = committed.get(c.video_id, ())
                if any(
                    s.location == c.location
                    and s.t_start == c.t_start
                    and s.t_last >= c.t_last
                    for s in seeds
                ):
                    continue
                new_fs = eager_reschedule(
                    cm, video, requests, working,
                    forbidden=[(of.location, of.interval)],
                    background=background,
                    initial_residencies=tuple(seeds),
                )
                stats.trials += 1
                old_cost = old_costs.get(c.video_id)
                if old_cost is None:
                    old_cost = cm.file_cost(working.file(c.video_id)).total
                    old_costs[c.video_id] = old_cost
                overhead = cm.file_cost(new_fs).total - old_cost
                heat = compute_heat(metric, c, video, of, overhead)
                key = (heat, -overhead, c.video_id)
                if best_key is None or _key_greater(key, best_key):
                    best_key = key
                    best = (heat, overhead, of, new_fs)
        heat, overhead, of, new_fs = best
        working.set_file(new_fs)
        stats.victims.append(
            VictimRecord(new_fs.video_id, of.location, of.interval, heat, overhead)
        )
        overflows = detect_overflows(
            working, catalog, topology, background=background
        )
    stats.resolved_cost = cm.total(working)
    return working, stats


# -- instances -----------------------------------------------------------------


def paper_instance(seed: int, *, users: int, capacity_gb: float):
    """A seeded paper-topology cycle and its Phase-1 schedule."""
    catalog = paper_catalog(n_videos=500, seed=seed)
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(capacity_gb),
    )
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed)
    cm = CostModel(topo, catalog)
    return cm, batch, IndividualScheduler(cm).solve(batch)


def assert_same_resolution(phase1, batch, cm, **kwargs):
    expected, ref_stats = reference_resolve(phase1, batch, cm, **kwargs)
    got, stats = resolve_overflows(phase1, batch, cm, **kwargs)
    assert ref_stats.iterations > 0, "instance has no overflow to resolve"
    assert got == expected
    assert stats == ref_stats  # victims with heat and overhead, Ψ before/after
    assert cm.total(got) == cm.total(expected)
    assert stats.trials + stats.trials_reused == ref_stats.trials
    return stats, ref_stats


# -- SORP against the reference -------------------------------------------------


class TestSameDecisions:
    @pytest.mark.parametrize("metric", list(HeatMetric))
    @pytest.mark.parametrize("seed", [1001, 1002, 1003])
    def test_seeds_and_heat_metrics(self, seed, metric):
        cm, batch, phase1 = paper_instance(seed, users=10, capacity_gb=2.5)
        assert_same_resolution(phase1, batch, cm, metric=metric)

    @pytest.mark.parametrize("capacity_gb", [2.5, 4.0, 5.0])
    @pytest.mark.parametrize("seed", [1001, 1003])
    def test_cache_sizes(self, seed, capacity_gb):
        cm, batch, phase1 = paper_instance(seed, users=14, capacity_gb=capacity_gb)
        stats, _ = assert_same_resolution(phase1, batch, cm)
        assert stats.trials_reused > 0

    def test_rolling_cycle_with_background_and_committed(self, monkeypatch):
        """Cycle 2 of a rolling run resolves against carryover background
        and committed seeds; the reference sees the very same arguments."""
        import repro.extensions.rolling as rolling

        catalog = paper_catalog(n_videos=500, seed=1001)
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(2.5),
        )
        batch = sorted(
            WorkloadGenerator(
                topo, catalog, alpha=0.271, users_per_neighborhood=20
            ).generate(1001)
        )
        boundary = batch[len(batch) // 2].start_time
        first = RequestBatch([r for r in batch if r.start_time < boundary])
        scheduler = RollingScheduler(topo, catalog)
        scheduler.schedule_cycle(first, cycle_end=boundary)
        # leave every other carried title unrequested in cycle 2: those
        # become background, the requested ones committed seeds
        carried = sorted({c.video_id for c in scheduler.carryover})
        assert len(carried) >= 2
        second = RequestBatch(
            [
                r
                for r in batch
                if r.start_time >= boundary and r.video_id not in carried[::2]
            ]
        )

        calls = []
        real = rolling.resolve_overflows

        def checked(schedule, batch, cost_model, **kwargs):
            calls.append(kwargs)
            got = real(schedule, batch, cost_model, **kwargs)
            kwargs = {k: v for k, v in kwargs.items() if k != "obs"}
            expected = reference_resolve(schedule, batch, cost_model, **kwargs)
            assert got[0] == expected[0]
            assert got[1] == expected[1]
            return got

        monkeypatch.setattr(rolling, "resolve_overflows", checked)
        result = scheduler.schedule_cycle(second, cycle_end=batch[-1].start_time)
        last = calls[-1]
        assert last["background"], "cycle 2 has no carryover background"
        assert any(last["committed"].values()), "cycle 2 has no committed seed"
        assert result.resolution.iterations > 0

    def test_scaling_guard(self):
        """380 requests on 5 GB caches: the same victims from at most a
        quarter of the reference's trial reschedules."""
        cm, batch, phase1 = paper_instance(1000, users=20, capacity_gb=5.0)
        assert len(batch) == 380
        stats, ref_stats = assert_same_resolution(phase1, batch, cm)
        assert stats.trials * 4 <= ref_stats.trials


# -- the lazy capacity check ----------------------------------------------------


class TestLazyCapacityCheck:
    def test_rejective_greedy_matches_eager(self):
        """Every trial of a contended instance's first round: same file
        schedule, from no more capacity queries than the eager greedy."""
        cm, batch, phase1 = paper_instance(1001, users=14, capacity_gb=2.5)
        overflows = detect_overflows(phase1, cm.catalog, cm.topology)
        assert overflows
        by_video = batch.by_video()
        rejective = RejectiveGreedyScheduler(cm)
        lazy_queries = eager_queries = 0
        for of in overflows:
            for c in of.members:
                video = cm.catalog[c.video_id]
                forbidden = [(of.location, of.interval)]
                log_lazy, log_eager = [], []
                lazy = rejective.reschedule(
                    video, by_video[c.video_id], phase1,
                    forbidden=forbidden, queries=log_lazy,
                )
                eager = eager_reschedule(
                    cm, video, by_video[c.video_id], phase1,
                    forbidden=forbidden, queries=log_eager,
                )
                assert lazy == eager
                assert len(log_lazy) <= len(log_eager)
                lazy_queries += len(log_lazy)
                eager_queries += len(log_eager)
        assert lazy_queries < eager_queries

    @pytest.mark.parametrize("constrained", [False, True])
    def test_tied_caches_serve_from_the_first(self, constrained):
        """Two seeded caches of one file at one storage price the same;
        the request extends the first, as the eager greedy does."""
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-4, capacity=1e6)
        topo.add_storage("IS2", srate=1e-4, capacity=1e6)
        topo.add_edge("VW", "IS1", nrate=1.0)
        topo.add_edge("IS1", "IS2", nrate=1.0)
        catalog = VideoCatalog([VideoFile("v", size=100.0, playback=50.0)])
        cm = CostModel(topo, catalog)
        seeds = (
            ResidencyInfo("v", "IS1", "VW", 0.0, 0.0, ("u0",)),
            ResidencyInfo("v", "IS1", "IS2", 0.0, 0.0, ("u1",)),
        )
        request = Request(10.0, "v", "u2", "IS1")
        constraints = ResidencyConstraints() if constrained else None
        lazy, eager = (
            cls(cm, constraints).schedule_file(
                catalog["v"], [request], initial_residencies=seeds
            )
            for cls in (IndividualScheduler, EagerGreedy)
        )
        assert lazy == eager
        assert lazy.residencies[0].service_list == ("u0", "u2")
        assert lazy.residencies[1] == seeds[1]

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_bandwidth_aware_scheduler_matches_eager(self, seed):
        """Live capacity constraints plus link admission: the same admitted
        schedule, rejections and diversions either way."""
        topo = Topology()
        topo.add_warehouse("VW")
        storages = [f"IS{i}" for i in range(4)]
        for name in storages:
            topo.add_storage(name, srate=1e-4, capacity=250.0)
        topo.add_edge("VW", "IS0", nrate=1.0, bandwidth=6.0)
        topo.add_edge("VW", "IS1", nrate=1.5, bandwidth=6.0)
        for a, b in zip(storages, storages[1:] + storages[:1]):
            topo.add_edge(a, b, nrate=0.5, bandwidth=4.0)
        catalog = VideoCatalog(
            [VideoFile(f"v{i}", size=100.0, playback=50.0) for i in range(6)]
        )
        rng = random.Random(seed)
        batch = RequestBatch(
            [
                Request(
                    float(rng.randrange(0, 400)),
                    f"v{rng.randrange(6)}",
                    f"u{i}",
                    rng.choice(storages),
                )
                for i in range(60)
            ]
        )

        lazy = BandwidthAwareScheduler(topo, catalog)
        eager = BandwidthAwareScheduler(topo, catalog)
        eager._greedy = EagerGreedy(
            eager.cost_model,
            constraints=eager._capacity,
            route_policy=eager._policy,
        )
        a, b = lazy.solve(batch), eager.solve(batch)
        assert a.schedule == b.schedule
        assert a.rejected == b.rejected
        assert a.diverted_streams == b.diverted_streams
        assert a.total_cost == b.total_cost
        assert a.schedule.residencies, "instance caches nothing"
        assert a.rejected or a.diverted_streams, "links never bind"


# -- work counters ----------------------------------------------------------------


class TestWorkCounters:
    def test_round_spans_and_metrics_add_up(self):
        cm, batch, phase1 = paper_instance(1001, users=10, capacity_gb=2.5)
        obs = Observability.on()
        _, stats = resolve_overflows(phase1, batch, cm, obs=obs)
        rounds = [s for s in obs.tracer.records if s.name == "sorp.round"]
        assert len(rounds) == stats.iterations > 0
        assert sum(s.attributes["trials"] for s in rounds) == stats.trials
        assert sum(s.attributes["reused"] for s in rounds) == stats.trials_reused
        assert stats.trials_reused > 0
        snap = obs.metrics.snapshot(deterministic_only=True)
        for family, expected in (
            ("vor_sorp_trial_reschedules_total", stats.trials),
            ("vor_sorp_trials_reused_total", stats.trials_reused),
        ):
            assert sum(v["value"] for v in snap[family]["values"]) == expected

    def test_counters_stay_out_of_equality(self):
        a = ResolutionStats(trials=3, trials_reused=1)
        assert a == ResolutionStats()
