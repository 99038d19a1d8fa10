"""In-memory span tracer that wraps each layer's public entry points.

The wrappers live in the benchmark process only: ``install`` replaces a
name where its caller looks it up (a class attribute, or a module global
such as ``repro.service.validate_schedule``) and ``uninstall`` puts every
original back.  Each wrapped call becomes one span ``(layer, parent,
start, end)``; a layer's self time is its spans' durations minus the part
covered by nested wrapped spans.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
from importlib import import_module as _mod
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    """Span stack + per-layer self-time and count accumulators."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        #: Whether finished spans are kept for writing out; self time and
        #: counts are accumulated either way.
        self.keep_spans = True
        self._next_id = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span_id, layer, start, child_ns]
        self._patches: list[tuple[object, str, object]] = []
        self.cost_models: list = []

    # -- spans ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return self._next_id

    def inside(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)

    def call(self, layer: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, _clock(), 0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            duration = end - frame[2]
            self.self_ns[layer] += duration - frame[3]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += duration
            if self.keep_spans:
                self.spans.append(
                    (span_id, parent[0] if parent is not None else -1, layer,
                     frame[2], end)
                )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def reset(self) -> None:
        self.self_ns.clear()
        self.counts.clear()
        self.cost_models.clear()

    def cache_lookups(self) -> tuple[int, int]:
        """(lookups, hits) summed over every cost model seen this instance."""
        hits = lookups = 0
        for cm in self.cost_models:
            stats = cm.cache_stats_detail.combined
            hits += stats.hits
            lookups += stats.lookups
        return lookups, hits

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, after=None, skip_inside=None):
        """Wrap ``owner.attr`` as a span of ``layer``.

        ``after(result, args)`` records counts from the call's result.
        ``skip_inside`` names a layer whose spans absorb this call (no span
        of its own, so its time stays the outer layer's self time).
        """
        fn = vars(owner)[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_inside is not None and tracer.inside(skip_inside):
                return fn(*args, **kwargs)
            result = tracer.call(layer, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    t = tracer
    individual = _mod("repro.core.individual")
    costmodel = _mod("repro.core.costmodel")
    sorp = _mod("repro.core.sorp")
    rejective = _mod("repro.core.rejective")
    spacefunc = _mod("repro.core.spacefunc")
    scheduler = _mod("repro.core.scheduler")
    service = _mod("repro.service")
    engine = _mod("repro.sim.engine")
    rolling = _mod("repro.extensions.rolling")
    contingency = _mod("repro.faults.contingency")
    quote = _mod("repro.gateway.quote")
    policies = _mod("repro.gateway.policies")
    gateway = _mod("repro.gateway.gateway")
    loop = _mod("repro.online.loop")
    migration = _mod("repro.horizon.migration")
    orchestrator = _mod("repro.horizon.orchestrator")

    # Phase-1 greedy files; the greedy a SORP trial runs is that trial's work.
    t.patch(individual.IndividualScheduler, "schedule_file", "core.individual",
            after=lambda r, a: t.count("core.individual.files"),
            skip_inside="core.rejective")

    # Every cost model built, cloned or viewed is read for cache stats.
    model = costmodel.CostModel
    t.patch(model, "__init__", "core.costmodel",
            after=lambda r, a: t.cost_models.append(a[0]))
    for clone in ("with_replicas", "worker_view"):
        t.patch(model, clone, "core.costmodel",
                after=lambda r, a: t.cost_models.append(r))

    def after_detect(result, args):
        t.count("core.overflow.sweeps")
        t.count("core.overflow.situations", len(result))

    t.patch(sorp, "detect_overflows", "core.overflow", after=after_detect)

    def after_sorp(result, args):
        stats = result[1]
        t.count("core.sorp.rounds", stats.iterations)
        t.count("core.sorp.victims", len(stats.victims))

    for module in (rolling, scheduler, contingency):
        t.patch(module, "resolve_overflows", "core.sorp", after=after_sorp)
    t.patch(rejective.RejectiveGreedyScheduler, "reschedule", "core.rejective",
            after=lambda r, a: t.count("core.rejective.trials"))
    t.patch(spacefunc.UsageTimeline, "__init__", "core.spacefunc",
            after=lambda r, a: t.count("core.spacefunc.timeline_builds"))

    t.patch(service, "validate_schedule", "sim.validate",
            after=lambda r, a: t.count("sim.validate.violations", len(r)))
    t.patch(engine.SimulationEngine, "run", "sim.engine",
            after=lambda r, a: t.count("sim.engine.runs"))
    t.patch(service, "allocate_costs", "billing")

    t.patch(rolling.RollingScheduler, "schedule_cycle", "extensions.rolling",
            after=lambda r, a: t.count("extensions.rolling.carried_in", r.carried_in))
    t.patch(rolling.RollingScheduler, "amend_cycle", "extensions.rolling")

    for method in ("quote", "admit", "reachable"):
        t.patch(quote.QuoteEngine, method, "gateway.quote",
                after=(lambda r, a: t.count("gateway.quote.calls"))
                if method == "quote" else None)

    def after_decide(result, args):
        if not result[0]:
            t.count("gateway.policies.rejects")

    t.patch(policies.PolicyChain, "decide", "gateway.policies", after=after_decide)
    t.patch(policies.PolicyChain, "admitted", "gateway.policies")
    t.patch(gateway.ReservationGateway, "intake", "gateway.intake")
    t.patch(gateway.ReservationGateway, "seal", "gateway.seal")

    t.patch(loop.OnlineAmendmentLoop, "run", "online.loop")

    def after_amend(result, args):
        t.count("online.loop.attempts")
        if not result.feasible:
            t.count("online.loop.attempts_failed")

    t.patch(service.VORService, "amend_cycle", "online.loop", after=after_amend)
    t.patch(contingency.ContingencyScheduler, "recover", "faults.contingency",
            after=lambda r, a: t.count("faults.contingency.videos_resolved",
                                       r.videos_resolved))

    def after_plan(result, args):
        t.count("horizon.migration.accepted", len(result.accepted))
        t.count("horizon.migration.decisions",
                len(result.accepted) + len(result.rejected))

    t.patch(migration.MigrationPlanner, "plan", "horizon.migration", after=after_plan)
    t.patch(scheduler.VideoScheduler, "solve", "horizon.migration",
            after=lambda r, a: t.count("horizon.migration.trial_solves"))
    t.patch(orchestrator, "build_resume_ledger", "horizon.carryover")
