"""Direct load validation against the engine-replay reference.

``validate_schedule`` checks storage capacity and link bandwidth from the
schedule's load profiles directly.  The reference below is the replay
formulation: run :class:`~repro.sim.engine.SimulationEngine` and judge its
report's reserved storage timelines and link timelines.  Both must report
the same violations, in the same order, with the same messages.
"""

import pytest

from repro import (
    CostModel,
    FaultKind,
    FaultPlan,
    FaultSpec,
    IndividualScheduler,
    Topology,
    VideoScheduler,
    WorkloadGenerator,
    paper_catalog,
    paper_topology,
    units,
)
from repro.core.spacefunc import EPS
from repro.sim import validate
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventQueue
from repro.sim.validate import Violation, validate_schedule

SEEDS = [3, 11, 29]


def _reference_validate(schedule, batch, cost_model, *, check_links=True):
    """Feasibility violations judged from an engine replay's report."""
    report = SimulationEngine(cost_model).run(schedule)
    out = validate._check_coverage(schedule, batch)
    out += validate._check_causality(schedule, cost_model)
    for loc, load in report.storages.items():
        slack = load.capacity + EPS + 1e-9 * max(load.capacity, 1.0)
        if load.reserved_peak > slack:
            intervals = load.reserved.intervals_above(load.capacity)
            out.append(
                Violation(
                    "capacity",
                    f"{loc}: reserved usage peaks at {load.reserved_peak:g} > "
                    f"capacity {load.capacity:g} over {len(intervals)} "
                    "interval(s)",
                )
            )
    if check_links:
        for key, load in report.links.items():
            if load.capacity == float("inf"):
                continue
            slack = load.capacity * (1.0 + 1e-9) + EPS
            if load.peak > slack:
                out.append(
                    Violation(
                        "bandwidth",
                        f"link {key}: concurrent bandwidth peaks at "
                        f"{load.peak:g} > capacity {load.capacity:g}",
                    )
                )
    if cost_model.replicas is not None:
        out += validate._check_replicas(schedule, cost_model, cost_model.replicas)
    return out


def _instance(seed, *, capacity, n_videos=40, users=4):
    topo = paper_topology(
        nrate=units.per_gb(500),
        srate=units.per_gb_hour(5),
        capacity=capacity,
    )
    catalog = paper_catalog(n_videos=n_videos, seed=seed)
    batch = WorkloadGenerator(
        topo, catalog, alpha=0.271, users_per_neighborhood=users
    ).generate(seed=seed)
    return topo, catalog, batch


def _with_bandwidth(topo: Topology, bandwidth: float) -> Topology:
    """Copy of ``topo`` whose links out of the warehouse are capped."""
    out = Topology()
    for node in topo.nodes:
        if node.is_warehouse:
            out.add_warehouse(node.name)
        else:
            out.add_storage(node.name, srate=node.srate, capacity=node.capacity)
    for e in topo.edges:
        capped = "VW" in e.key
        out.add_edge(
            e.a, e.b, nrate=e.nrate,
            bandwidth=bandwidth if capped else float("inf"),
        )
    return out


class TestMatchesEngineReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_feasible_two_phase_output(self, seed):
        topo, catalog, batch = _instance(seed, capacity=units.gb(5))
        result = VideoScheduler(topo, catalog).solve(batch)
        cm = CostModel(topo, catalog)
        direct = validate_schedule(result.schedule, batch, cm)
        assert direct == _reference_validate(result.schedule, batch, cm)
        assert direct == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_phase1_overflows_on_small_caches(self, seed):
        topo, catalog, batch = _instance(seed, capacity=units.gb(4), users=8)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        direct = validate_schedule(schedule, batch, cm)
        assert direct == _reference_validate(schedule, batch, cm)
        assert any(v.kind == "capacity" for v in direct)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_finite_bandwidth_fires(self, seed):
        base, catalog, batch = _instance(seed, capacity=units.gb(5), users=8)
        bandwidth = 2.5 * max(v.bandwidth for v in catalog)
        topo = _with_bandwidth(base, bandwidth)
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        direct = validate_schedule(schedule, batch, cm)
        assert direct == _reference_validate(schedule, batch, cm)
        assert any(v.kind == "bandwidth" for v in direct)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_check_links_off(self, seed):
        base, catalog, batch = _instance(seed, capacity=units.gb(4), users=8)
        topo = _with_bandwidth(base, 2.5 * max(v.bandwidth for v in catalog))
        cm = CostModel(topo, catalog)
        schedule = IndividualScheduler(cm).solve(batch)
        direct = validate_schedule(schedule, batch, cm, check_links=False)
        assert direct == _reference_validate(
            schedule, batch, cm, check_links=False
        )
        assert not any(v.kind == "bandwidth" for v in direct)


class TestNoReplayWithoutFaults:
    """Validation without ``faults=`` never touches the event simulator."""

    @pytest.fixture
    def feasible(self):
        topo, catalog, batch = _instance(3, capacity=units.gb(5), n_videos=20)
        result = VideoScheduler(topo, catalog).solve(batch)
        return result.schedule, batch, CostModel(topo, catalog)

    def test_simulator_never_built(self, feasible, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validation replayed the schedule")

        monkeypatch.setattr(SimulationEngine, "run", refuse)
        monkeypatch.setattr(EventQueue, "push", refuse)
        schedule, batch, cm = feasible
        assert validate_schedule(schedule, batch, cm) == []

    def test_faults_still_replay(self, feasible, monkeypatch):
        runs = []
        original = SimulationEngine.run

        def counting(self, schedule, **kwargs):
            runs.append(kwargs.get("faults"))
            return original(self, schedule, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", counting)
        schedule, batch, cm = feasible
        plan = FaultPlan(
            (
                FaultSpec(
                    kind=FaultKind.IS_OUTAGE,
                    target="IS1",
                    t_start=0.0,
                    t_end=units.DAY,
                ),
            )
        )
        validate_schedule(schedule, batch, cm, faults=plan)
        assert runs == [plan]
