"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload contended-cycle --seed 1 \
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  A
run draws instances of the workload, each from its own sub-seed of
``--seed``, and runs each one to four times on freshly built services
until ``--seconds`` have passed.  Every run's outputs are checked, and runs
of the same instance must agree; a failed check exits non-zero.  The last
line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, timings scaled to a nominal host speed (see
``host_probe`` and ``fold``), with
``--trace 1`` the per-layer metrics, where the second run of each instance
is traced.  The preceding lines print every metric by name
and unit, with sample counts, for a human reader.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
from array import array

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent

#: Traced instances whose spans are kept and written out at the end.
SPAN_INSTANCES = 2
#: ``host_probe`` on the host the bounds were set on (2-vCPU Xeon VM at
#: 2.1 GHz, median of its drifting states): timings are reported as if the
#: host ran at this speed.
PROBE_NOMINAL_S = 1.86e-3


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"program sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    The host is shared: other tenants' load slows every Python process on
    it by up to 1.9x for minutes at a time, which no amount of averaging
    inside one run removes.  The probe slows with it, so timings scaled by
    ``PROBE_NOMINAL_S / probe`` move with the program, not with the host.
    It builds and sorts a dict of tuples and lists, as the program does;
    an arithmetic loop tracks the program's slowdowns less closely.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i & 7)] = [i, float(i)]
        sorted(table.items(), key=lambda kv: -kv[1][1])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed

    def run(self, k: int, before_setup=None):
        """Set up instance ``k`` and run it; ``before_setup`` runs first."""
        if before_setup is not None:
            before_setup()
        t0 = time.perf_counter()
        inst = self.workload.build(sub_seed(self.seed, k))
        setup_s = time.perf_counter() - t0
        gc.collect()
        probe_s = host_probe()
        out = inst.run()
        out.setup_s, out.probe_s = setup_s, probe_s
        return out


def check_digests(k: int, repeated, errors: list[str], note: str = "") -> None:
    a = repeated[0]
    for other in repeated[1:]:
        if other.digest != a.digest:
            errors.append(f"instance {k}: digest {a.digest} != {other.digest} "
                          f"for the same inputs{note}")


def nominal(o) -> float:
    """The factor that scales run ``o``'s timings to the nominal host speed."""
    return PROBE_NOMINAL_S / o.probe_s


def fold(repeated, k: int, errors: list[str]):
    """One outcome, timed at the nominal host speed, for the identical runs
    of instance ``k``.

    Each run's timings are scaled by its own probe.  Section and boundary
    times are averaged over the runs, which also averages the probes' own
    error.  Each booking counts with its fastest scaled time over the runs:
    a single run's tail is mostly other tenants' preemptions, which rarely
    hit the same call in every run.
    """
    shapes = {(len(o.intake_ns), len(o.boundaries_s)) for o in repeated}
    if len(shapes) > 1:
        errors.append(f"instance {k}: the same inputs made (bookings, "
                      f"boundaries) = {sorted(shapes)}")
    factors = [nominal(o) for o in repeated]
    folded = dataclasses.replace(
        repeated[0],
        section_s=statistics.fmean(
            o.section_s * f for o, f in zip(repeated, factors)),
        boundaries_s=[
            statistics.fmean(b * f for b, f in zip(times, factors))
            for times in zip(*(o.boundaries_s for o in repeated))
        ],
        intake_ns=array("d", (
            min(t * f for t, f in zip(times, factors))
            for times in zip(*(o.intake_ns for o in repeated))
        )),
    )
    # The runs are kept to the end; their booking times would make the
    # process's peak RSS grow with the number of runs.
    for o in repeated:
        o.intake_ns = []
    return folded


def end_to_end(outcomes, fixed, runs) -> dict:
    """End-to-end metrics of the folded ``outcomes`` (see ``fold``)."""
    from workloads import percentile

    delivered = sum(o.delivered for o in fixed)

    def intake_us(q: float) -> float:
        # Median over instances of each instance's percentile.
        return statistics.median(
            percentile(sorted(o.intake_ns), q) for o in outcomes
        ) / 1e3

    return {
        "setup_s": (statistics.median(o.setup_s * nominal(o) for o in runs), "s"),
        "boundary_s": (statistics.fmean(
            b for o in outcomes for b in o.boundaries_s), "s"),
        "boundary_max_s": (statistics.fmean(
            max(o.boundaries_s) for o in outcomes), "s"),
        "requests_per_s": (
            sum(o.delivered for o in outcomes)
            / sum(o.section_s for o in outcomes),
            "1/s",
        ),
        "intake_p50_us": (intake_us(0.50), "us"),
        "intake_p99_us": (intake_us(0.99), "us"),
        "psi_per_request": (sum(o.psi for o in fixed) / delivered, "USD/req"),
        "delivered_share": (delivered / sum(o.offered for o in fixed), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def side_figures(outcomes, fixed, raw) -> list[str]:
    """Figures printed beside the metrics: sample counts and the
    operation-specific end-to-end figures of the workloads that have them.
    ``raw`` are the untraced runs, unscaled."""
    offered = sum(o.offered for o in fixed)
    probe = statistics.median(o.probe_s for o in raw)
    raw_boundary = statistics.fmean(b for o in raw for b in o.boundaries_s)
    lines = [
        f"host_probe_ms = {probe * 1e3:.4f} ms (median; nominal "
        f"{PROBE_NOMINAL_S * 1e3:g} ms)",
        f"boundary_s unscaled = {raw_boundary:.6g} s",
        f"instances = {len(outcomes)}",
        f"boundaries = {sum(len(o.boundaries_s) for o in outcomes)}",
        f"intake_samples = {sum(len(o.intake_ns) for o in outcomes)}",
        f"failed_share = {1 - sum(o.delivered for o in fixed) / offered:.6f} "
        f"ratio ({offered - sum(o.delivered for o in fixed)} of {offered} "
        f"offered reservations undelivered, first {len(fixed)} instances)",
    ]
    batch_s = [b for o in outcomes for b in o.extra.get("amend_batch_s", ())]
    if batch_s:
        attempts = sum(o.extra["amend_attempts"] for o in outcomes)
        failed = sum(o.extra["amend_attempts_failed"] for o in outcomes)
        lines += [
            f"amend_s = {statistics.median(batch_s):.6f} s "
            f"(median of {len(batch_s)} amendment batches)",
            f"amend_failed_share = {failed / attempts:.6f} ratio "
            f"({failed} of {attempts} amendment attempts failed: invalid "
            "schedule or error)",
        ]
    for key in ("undelivered", "lost_reported_by_horizon", "lost_never_reported"):
        if key in fixed[0].extra:
            lines.append(f"{key} = {sum(o.extra[key] for o in fixed)} count "
                         f"(first {len(fixed)} instances)")
    for key in ("admitted", "promoted", "queued", "rejected", "shed"):
        if key in fixed[0].extra:
            lines.append(f"gateway_{key} = {sum(o.extra[key] for o in fixed)} "
                         f"count (first {len(fixed)} instances)")
    return lines


# -- per-layer metrics ----------------------------------------------------------

#: (metric, unit, source): ``self:`` layer self time, ``count:`` counter.
LAYER_METRICS = [
    ("core.individual.self_s", "s", "self:core.individual"),
    ("core.individual.files", "count", "count:core.individual.files"),
    ("core.costmodel.lookups", "count", "count:core.costmodel.lookups"),
    ("core.overflow.self_s", "s", "self:core.overflow"),
    ("core.overflow.sweeps", "count", "count:core.overflow.sweeps"),
    ("core.overflow.situations", "count", "count:core.overflow.situations"),
    ("core.sorp.self_s", "s", "self:core.sorp"),
    ("core.sorp.rounds", "count", "count:core.sorp.rounds"),
    ("core.rejective.self_s", "s", "self:core.rejective"),
    ("core.rejective.trials", "count", "count:core.rejective.trials"),
    ("core.spacefunc.timeline_builds", "count",
     "count:core.spacefunc.timeline_builds"),
    ("core.spacefunc.self_s", "s", "self:core.spacefunc"),
    ("sim.validate.self_s", "s", "self:sim.validate"),
    ("sim.validate.violations", "count", "count:sim.validate.violations"),
    ("sim.engine.self_s", "s", "self:sim.engine"),
    ("sim.engine.runs", "count", "count:sim.engine.runs"),
    ("billing.self_s", "s", "self:billing"),
    ("extensions.rolling.self_s", "s", "self:extensions.rolling"),
    ("extensions.rolling.carried_in", "count",
     "count:extensions.rolling.carried_in"),
    ("gateway.quote.self_s", "s", "self:gateway.quote"),
    ("gateway.quote.calls", "count", "count:gateway.quote.calls"),
    ("gateway.policies.self_s", "s", "self:gateway.policies"),
    ("gateway.policies.rejects", "count", "count:gateway.policies.rejects"),
    ("gateway.gateway.intake_self_s", "s", "self:gateway.intake"),
    ("gateway.gateway.seal_self_s", "s", "self:gateway.seal"),
    ("gateway.gateway.queued", "count", "count:gateway.gateway.queued"),
    ("gateway.gateway.shed", "count", "count:gateway.gateway.shed"),
    ("online.loop.self_s", "s", "self:online.loop"),
    ("online.loop.attempts", "count", "count:online.loop.attempts"),
    ("online.loop.attempts_failed", "count",
     "count:online.loop.attempts_failed"),
    ("faults.contingency.self_s", "s", "self:faults.contingency"),
    ("faults.contingency.videos_resolved", "count",
     "count:faults.contingency.videos_resolved"),
    ("horizon.migration.self_s", "s", "self:horizon.migration"),
    ("horizon.migration.trial_solves", "count",
     "count:horizon.migration.trial_solves"),
    ("horizon.carryover.self_s", "s", "self:horizon.carryover"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_instance(runner, k: int, tracer):
    import tracer as tracing

    tracer.reset()
    spans_before = tracer.span_count
    try:
        # Installed before set-up so the service's own cost model is counted.
        out = runner.run(k, before_setup=lambda: tracing.install(tracer))
    finally:
        tracer.uninstall()
    lookups, hits = tracer.cache_lookups()
    counts = dict(tracer.counts)
    counts["core.costmodel.lookups"] = lookups
    counts["core.costmodel.hits"] = hits
    counts["trace.spans"] = tracer.span_count - spans_before
    for key in ("queued", "shed", "admitted", "promoted"):
        if key in out.extra:
            counts[f"gateway.gateway.{key}"] = out.extra[key]
    return out, counts, dict(tracer.self_ns)


def per_layer(counts: dict, self_ns: list[dict], traced, untraced,
              offered) -> dict:
    n = len(self_ns)
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind, key = source.split(":", 1)
        if kind == "self":
            value = sum(s.get(key, 0) for s in self_ns) / n / 1e9
        else:
            value = counts.get(key, 0)
        metrics[name] = (value, unit)
    c = counts.get
    metrics["core.costmodel.hit_rate"] = (
        _ratio(c("core.costmodel.hits", 0), c("core.costmodel.lookups", 0)),
        "ratio")
    metrics["core.sorp.victim_yield"] = (
        _ratio(c("core.sorp.victims", 0), c("core.rejective.trials", 0)),
        "ratio")
    metrics["core.rejective.trials_per_round"] = (
        _ratio(c("core.rejective.trials", 0), c("core.sorp.rounds", 0)),
        "count")
    metrics["gateway.gateway.admit_ratio"] = (
        _ratio(c("gateway.gateway.admitted", 0) + c("gateway.gateway.promoted", 0),
               offered),
        "ratio")
    metrics["horizon.migration.accept_ratio"] = (
        _ratio(c("horizon.migration.accepted", 0),
               c("horizon.migration.decisions", 0)),
        "ratio")
    traced_b = statistics.fmean(b for o in traced for b in o.boundaries_s)
    untraced_b = statistics.fmean(b for o in untraced for b in o.boundaries_s)
    metrics["trace.boundary_s"] = (traced_b, "s")
    metrics["trace.untraced_boundary_s"] = (untraced_b, "s")
    metrics["trace.overhead_s"] = (traced_b - untraced_b, "s")
    metrics["trace.spans"] = (c("trace.spans", 0), "count")
    metrics["trace.boundary_total_s"] = (
        statistics.fmean(sum(o.boundaries_s) for o in traced), "s")
    return metrics


def write_spans(tracer, workload: str, seed: int) -> pathlib.Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for span_id, parent, layer, start, end in tracer.spans:
            fh.write(json.dumps([span_id, parent, layer, start, end]) + "\n")
    return path


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload by this factor (smoke runs)",
    )
    args = parser.parse_args(argv)
    _import_program()

    import workloads as wl

    wl.quiet()
    table = wl.workloads(args.scale)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(table)}")
    runner = Runner(table[args.workload], args.seed)
    errors: list[str] = []

    runs, outcomes, traced, untraced, self_ns = [], [], [], [], []
    counts0 = None
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        first, counts0, _ = traced_instance(runner, 0, tracer)
        runs.append(first)
        tracer.spans.clear()  # written out: the spans of timed instances 0-1
    start = time.perf_counter()
    k = 0
    workload = runner.workload
    while k < workload.min_instances or time.perf_counter() - start < args.seconds:
        if args.trace:
            a = runner.run(k)
            tracer.keep_spans = k < SPAN_INSTANCES
            b, counts, selfs = traced_instance(runner, k, tracer)
            untraced.append(a)
            traced.append(b)
            self_ns.append(selfs)
            if k == 0 and counts != counts0:
                diff = {key: (counts0.get(key), counts.get(key))
                        for key in set(counts) | set(counts0)
                        if counts0.get(key) != counts.get(key)}
                errors.append(f"per-layer counts did not repeat: {diff}")
            check_digests(k, [a, b], errors, " (tracing changed the outputs)")
            runs += [a, b]
            k += 1
            continue
        # Instance 0 always runs twice, so every run checks that the same
        # inputs give the same digest.  A group's instances take turns, so
        # the repeats of one instance lie seconds apart and are slowed by
        # other tenants at different calls.
        group = range(k, k + workload.group)
        count = {j: max(workload.repeats, 2 if j == 0 else 1) for j in group}
        repeated = {j: [] for j in group}
        for r in range(max(count.values())):
            for j in group:
                if r < count[j]:
                    repeated[j].append(runner.run(j))
        for j in group:
            check_digests(j, repeated[j], errors)
            outcomes.append(fold(repeated[j], j, errors))
            runs += repeated[j]
        k += workload.group
    reference = runs[0].digest
    for o in runs:
        errors += o.errors
    attempted = sum(o.operations for o in runs)
    failed = sum(o.failed_operations for o in runs)

    if args.trace:
        metrics = per_layer(counts0, self_ns, traced, untraced,
                            traced[0].offered)
        path = write_spans(tracer, args.workload, args.seed)
        print(f"spans = {len(tracer.spans)} of the first {SPAN_INSTANCES} "
              f"traced instances written to {path.relative_to(ROOT)}")
        outcomes = untraced
    else:
        metrics = end_to_end(outcomes, outcomes[:workload.min_instances], runs)
    print(f"workload = {args.workload}  seed = {args.seed}  "
          f"trace = {args.trace}  digest = {reference}")
    raw = untraced if args.trace else runs
    for line in side_figures(outcomes, outcomes[:workload.min_instances], raw):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if errors:
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
