"""Phase 2: Storage Overflow Resolution (paper Sec. 4.3, Table 3).

``SORP_solve`` iterates until the integrated schedule is capacity-feasible:
detect every overflow situation, price the rescheduling of every member
residency's file with the rejective greedy, pick the member with the largest
*heat* as the victim, commit its new file schedule, and re-detect.

Termination: the rejective greedy (a) never lets the victim occupy the
overflowing ``(Δt, IS_j)`` and (b) only places residencies that fit in the
currently available space, so each commit strictly reduces the total
over-capacity space-time and never creates a new overflow.  A generous
iteration cap guards against pathological numerical edge cases; hitting it
raises :class:`~repro.errors.OverflowResolutionError`.

Incremental rounds.  A commit changes space only at the storages where the
victim had or now has a residency (the *touched* storages), and the loop
exploits that without changing a single decision:

* overflows are re-detected only at the touched storages; every other
  storage keeps its :class:`OverflowSituation` as it was;
* trial reschedules live in a cache for the whole call, keyed by
  ``(video, overflow location, overflow interval)``.  A trial reads the
  working schedule only through the capacity oracle's ``fits`` answers,
  which it logs.  After a commit the victim's own trials are dropped;
  another trial is kept as is when it asked nothing at a touched storage,
  and otherwise only if re-asking those queries against the new schedule
  gives the same answers (timelines at untouched storages are summed from
  the same profiles in the same order, so their answers cannot change).

Heat, overhead and tie-breaks are still computed every round from the
current overflows, so the victims, the schedule and Ψ are those of
re-running every trial every round.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from repro.core.costmodel import CacheStats, CostModel, record_cache_metrics
from repro.core.heat import HeatMetric, compute_heat
from repro.core.overflow import OverflowSituation, detect_overflows
from repro.core.rejective import AvailabilityOracle, RejectiveGreedyScheduler
from repro.core.schedule import FileSchedule, Schedule
from repro.core.spacefunc import SpaceProfile
from repro.errors import OverflowResolutionError
from repro.obs import DOLLAR_BUCKETS, NULL_OBS, Observability
from repro.workload.requests import RequestBatch

_log = logging.getLogger(__name__)


@dataclass
class VictimRecord:
    """One committed reschedule: who was evicted from where, at what cost."""

    video_id: str
    location: str
    interval: tuple[float, float]
    heat: float
    overhead_cost: float


@dataclass
class ResolutionStats:
    """Summary of one SORP run (feeds the Sec. 5.5 statistics)."""

    iterations: int = 0
    initial_overflows: int = 0
    victims: list[VictimRecord] = field(default_factory=list)
    phase1_cost: float = 0.0
    resolved_cost: float = 0.0
    #: Cost-cache activity during resolution.  Excluded from equality so
    #: that determinism checks compare the *decisions*, not the cache
    #: temperature they were computed under.
    cache_stats: CacheStats = field(default_factory=CacheStats, compare=False)
    #: Rejective-greedy reschedules run, and victim trials answered from
    #: the trial cache instead.  Work counters, excluded from equality
    #: like ``cache_stats``.
    trials: int = field(default=0, compare=False)
    trials_reused: int = field(default=0, compare=False)

    @property
    def had_overflow(self) -> bool:
        return self.initial_overflows > 0

    @property
    def cost_increase(self) -> float:
        """Absolute cost added by overflow resolution."""
        return self.resolved_cost - self.phase1_cost

    @property
    def cost_increase_ratio(self) -> float:
        """``(Ψ(S_SORP) - Ψ(S)) / Ψ(S)`` as reported in Sec. 5.5."""
        if self.phase1_cost == 0.0:
            return 0.0
        return self.cost_increase / self.phase1_cost


def resolve_overflows(
    schedule: Schedule,
    batch: RequestBatch,
    cost_model: CostModel,
    *,
    metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
    max_iterations: int | None = None,
    background=None,
    committed=None,
    obs: Observability | None = None,
) -> tuple[Schedule, ResolutionStats]:
    """Run ``SORP_solve`` on an integrated Phase-1 schedule.

    Args:
        schedule: The integrated per-file schedules (not mutated).
        batch: The cycle's requests (needed to rebuild victims' schedules).
        cost_model: Pricing + topology + catalog.
        metric: Victim-selection heat metric (the paper's best default is
            method 4, ``ΔS / overhead``).
        max_iterations: Safety cap; defaults to ``10 * #residencies + 100``.
        background: Optional ``{location: [SpaceProfile, ...]}`` of space
            committed outside this schedule (rolling cycles); counts toward
            capacity, never victimized.
        committed: Optional ``{video_id: (ResidencyInfo, ...)}`` of carryover
            residencies a victim rebuild must retain (rolling cycles).
        obs: Observability handle; when live, the run records a ``sorp``
            span, one ``sorp.round`` span per iteration (with its trial
            reschedules and reused trials), ``overflow`` spans around each
            detection sweep, and victim/iteration/trial counters.  Defaults
            to the inert :data:`repro.obs.NULL_OBS`.

    Returns:
        ``(feasible_schedule, stats)``.  The input schedule is left intact.

    Raises:
        OverflowResolutionError: If the cap is hit (should not occur; see
            the termination argument in the module docstring).
    """
    catalog = cost_model.catalog
    topology = cost_model.topology
    obs = obs if obs is not None else NULL_OBS
    working = schedule.copy()
    cache_base = cost_model.cache_stats_detail
    stats = ResolutionStats(phase1_cost=cost_model.total(working))
    cap = (
        max_iterations
        if max_iterations is not None
        else 10 * max(len(working.residencies), 1) + 100
    )
    rejective = RejectiveGreedyScheduler(cost_model)
    requests_by_video = batch.by_video()
    committed = committed or {}
    trials: dict[_TrialKey, _Trial] = {}

    with obs.tracer.span("sorp", residencies=len(working.residencies)) as sorp_span:
        with obs.tracer.span("overflow") as detect_span:
            overflows = detect_overflows(
                working, catalog, topology, background=background
            )
            detect_span.set(overflows=len(overflows))
        stats.initial_overflows = len(overflows)
        if obs.journal.enabled:
            for of in overflows:
                obs.journal.emit("overflowed", **of.journal_attrs())
        if overflows:
            _log.debug(
                "SORP: %d initial overflow situation(s) to resolve",
                len(overflows),
            )

        while overflows:
            stats.iterations += 1
            if stats.iterations > cap:
                raise OverflowResolutionError(
                    f"storage overflow unresolved after {cap} iterations "
                    f"({len(overflows)} overflow(s) remain)"
                )
            with obs.tracer.span(
                "sorp.round", iteration=stats.iterations, overflows=len(overflows)
            ) as round_span:
                run_before, reused_before = stats.trials, stats.trials_reused
                victim = _select_victim(
                    overflows,
                    working,
                    cost_model,
                    rejective,
                    requests_by_video,
                    metric,
                    background,
                    committed,
                    trials,
                    stats,
                )
                if victim is None:
                    raise OverflowResolutionError(
                        "no reschedulable member in any overflow set"
                    )
                heat, overhead, overflow, new_fs = victim
                touched = {
                    c.location
                    for fs in (working.file(new_fs.video_id), new_fs)
                    for c in fs.residencies
                }
                working.set_file(new_fs)
                stats.victims.append(
                    VictimRecord(
                        video_id=new_fs.video_id,
                        location=overflow.location,
                        interval=overflow.interval,
                        heat=heat,
                        overhead_cost=overhead,
                    )
                )
                round_span.set(
                    victim=new_fs.video_id,
                    location=overflow.location,
                    trials=stats.trials - run_before,
                    reused=stats.trials_reused - reused_before,
                )
                obs.journal.emit(
                    "sorp-placed",
                    video_id=new_fs.video_id,
                    location=overflow.location,
                    interval=overflow.interval,
                    heat=heat,
                    overhead=overhead,
                )
                trials = _still_valid(
                    trials, new_fs.video_id, touched, working, cost_model, background
                )
                with obs.tracer.span("overflow") as detect_span:
                    overflows = sorted(
                        [of for of in overflows if of.location not in touched]
                        + detect_overflows(
                            working,
                            catalog,
                            topology,
                            background=background,
                            locations=touched,
                        ),
                        key=lambda of: (of.location, of.interval),
                    )
                    detect_span.set(overflows=len(overflows))

        stats.resolved_cost = cost_model.total(working)
        detail = cost_model.cache_stats_detail - cache_base
        stats.cache_stats = detail.combined
        sorp_span.set(iterations=stats.iterations, victims=len(stats.victims))

    metrics = obs.metrics
    if metrics.enabled:
        record_cache_metrics(metrics, detail, phase="sorp")
        metrics.counter(
            "vor_sorp_iterations_total",
            help="SORP victim-selection rounds",
        ).inc(stats.iterations)
        metrics.counter(
            "vor_sorp_trial_reschedules_total",
            help="Rejective-greedy reschedules run as SORP victim trials",
        ).inc(stats.trials)
        metrics.counter(
            "vor_sorp_trials_reused_total",
            help="SORP victim trials answered from the trial cache",
        ).inc(stats.trials_reused)
        metrics.counter(
            "vor_overflow_situations_total",
            help="Overflow situations detected on the integrated schedule",
        ).inc(stats.initial_overflows)
        overhead_hist = metrics.histogram(
            "vor_sorp_victim_overhead_dollars",
            boundaries=DOLLAR_BUCKETS,
            help="Cost overhead per committed SORP victim reschedule",
        )
        for record in stats.victims:
            overhead_hist.observe(record.overhead_cost)
    if stats.iterations:
        _log.info(
            "SORP resolved %d overflow(s) in %d round(s), cost +%.2f%%",
            stats.initial_overflows,
            stats.iterations,
            100 * stats.cost_increase_ratio,
        )
    return working, stats


#: ``(video id, overflow location, overflow interval)``
_TrialKey = tuple[str, str, tuple[float, float]]


@dataclass
class _Trial:
    """One victim trial: the rebuilt file schedule and what it read.

    ``queries`` logs ``(location, profile, answer)`` for every capacity
    query of the rebuild that read a timeline (see
    :class:`~repro.core.rejective.AvailabilityOracle`).
    """

    schedule: FileSchedule
    cost: float
    queries: list[tuple[str, SpaceProfile, bool]]


def _select_victim(
    overflows: list[OverflowSituation],
    working: Schedule,
    cost_model: CostModel,
    rejective: RejectiveGreedyScheduler,
    requests_by_video: dict,
    metric: HeatMetric,
    background,
    committed: dict,
    trials: dict[_TrialKey, _Trial],
    stats: ResolutionStats,
) -> tuple[float, float, OverflowSituation, FileSchedule] | None:
    """Price every (overflow, member) reschedule and return the hottest.

    Trials come from ``trials`` when cached there and are added to it
    otherwise (counted in ``stats.trials_reused`` / ``stats.trials``).
    Ties break toward the lower overhead, then lexicographic video id, so
    runs are fully deterministic.
    """
    catalog = cost_model.catalog
    best_key: tuple[float, float, str] | None = None
    best: tuple[float, float, OverflowSituation, FileSchedule] | None = None
    # the incumbent file cost is per-video, not per-(overflow, member):
    # evaluate it once per candidate video in this selection round
    old_costs: dict[str, float] = {}
    for of in overflows:
        for c in of.members:
            video = catalog[c.video_id]
            requests = requests_by_video.get(c.video_id)
            if not requests:
                continue  # e.g. a pure-carryover file: cannot be victimized
            seeds = committed.get(c.video_id, ())
            if any(
                s.location == c.location
                and s.t_start == c.t_start
                and s.t_last >= c.t_last
                for s in seeds
            ):
                continue  # this residency IS the committed carryover itself
            trial_key = (c.video_id, of.location, of.interval)
            trial = trials.get(trial_key)
            if trial is None:
                queries: list[tuple[str, SpaceProfile, bool]] = []
                new_fs = rejective.reschedule(
                    video,
                    requests,
                    working,
                    forbidden=[(of.location, of.interval)],
                    background=background,
                    initial_residencies=tuple(seeds),
                    queries=queries,
                )
                trial = _Trial(new_fs, cost_model.file_cost(new_fs).total, queries)
                trials[trial_key] = trial
                stats.trials += 1
            else:
                stats.trials_reused += 1
            old_cost = old_costs.get(c.video_id)
            if old_cost is None:
                old_cost = cost_model.file_cost(working.file(c.video_id)).total
                old_costs[c.video_id] = old_cost
            overhead = trial.cost - old_cost
            heat = compute_heat(metric, c, video, of, overhead)
            if math.isnan(heat):  # pragma: no cover - defensive
                continue
            key = (heat, -overhead, c.video_id)
            if best_key is None or _key_greater(key, best_key):
                best_key = key
                best = (heat, overhead, of, trial.schedule)
    return best


def _still_valid(
    trials: dict[_TrialKey, _Trial],
    victim_id: str,
    touched: set[str],
    working: Schedule,
    cost_model: CostModel,
    background,
) -> dict[_TrialKey, _Trial]:
    """The cached trials that a commit of ``victim_id`` left unchanged.

    A trial survives when no capacity query it logged at a ``touched``
    storage gets a different answer from the committed ``working``
    schedule; the victim's own trials are dropped.  One fresh oracle per
    video serves all of that video's replays.
    """
    kept: dict[_TrialKey, _Trial] = {}
    oracles: dict[str, AvailabilityOracle] = {}
    for key, trial in trials.items():
        video_id = key[0]
        if video_id == victim_id:
            continue
        replay = [q for q in trial.queries if q[0] in touched]
        if replay:
            oracle = oracles.get(video_id)
            if oracle is None:
                oracle = oracles[video_id] = AvailabilityOracle(
                    working,
                    cost_model.catalog,
                    cost_model.topology,
                    video_id,
                    background=background,
                )
            if any(
                oracle.fits(location, profile) != answer
                for location, profile, answer in replay
            ):
                continue
        kept[key] = trial
    return kept


def _key_greater(a: tuple[float, float, str], b: tuple[float, float, str]) -> bool:
    """Lexicographic 'greater' with the video-id component compared *less*.

    Heat and negated overhead are maximized; the id tie-break prefers the
    lexicographically smallest id for determinism.
    """
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] > b[1]
    return a[2] < b[2]
