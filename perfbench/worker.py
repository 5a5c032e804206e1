"""One workload process of the benchmark: set up, run, check, trace.

``run.py`` starts this script as a fresh interpreter with ``src`` on
``PYTHONPATH``, one thread and ``jobs=1``::

    python3 perfbench/worker.py --workload moe-step --seed 0 \\
        --budget 15 --min-runs 1 --trace 0 --spawned <monotonic time>

The first run is the set-up run: its end, measured from ``--spawned``
(the parent's monotonic clock just before it started this process),
gives ``setup_s``.  Warm runs follow until ``--budget`` seconds of them
have been measured and at least ``--min-runs`` were made.  With
``--trace 1`` the warm runs come in pairs, one untraced and one with
every seam of :mod:`seams` wrapped.  Timing runs (``--trace 0``) are
sampled by the host-speed reference of :mod:`reference` from the start
of :func:`main` on.  Every run's outputs are checked.  The last line of
output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.cache
import repro.experiments.figures as figures
import repro.service as service
import repro.workloads as workloads
from repro.collectives.api import check_delivery
from repro.experiments.scenarios import get_scenario
from repro.obs import REGISTRY
from repro.topology.hypercube import Hypercube

from reference import Sampler, cpu_seconds
from seams import Tracer, layer_totals

DIGESTS = Path(__file__).with_name("digests.json")

# digest key of a workload whose inputs do not depend on the seed
ANY_SEED = "any"


@dataclasses.dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks.

    Attributes:
        ops: one ``(operation, failure reason or None)`` per operation.
        outputs: the simulated outputs, JSON-serialisable; digested.
        transfers: simulated transfers the results contain.
    """

    ops: list[tuple[str, str | None]]
    outputs: Any
    transfers: int


class PaperFigures:
    """``run_fig6()`` then ``run_fig8()``, serial, caches cleared first.

    The figures take no seeded input, so every seed runs the same grid.
    """

    name = "paper-figures"
    seeded = False
    fresh_caches = True

    @staticmethod
    def build(seed: int) -> None:
        return None

    @staticmethod
    def run(inputs: None) -> Any:
        return figures.run_fig6(jobs=1), figures.run_fig8(jobs=1)

    @staticmethod
    def outcome(result: Any, inputs: None, engine_transfers: int) -> Outcome:
        fig6, fig8 = result
        ops: list[tuple[str, str | None]] = []
        for n, t_sbt, t_msbt in fig6.rows:
            reason = _bad_times(t_sbt, t_msbt)
            if reason is None and not t_msbt < t_sbt:
                reason = f"MSBT {t_msbt} not below SBT {t_sbt}"
            ops.append((f"fig6 n={n}", reason))
        for n, t_sbt, t_bst, _ in fig8.rows:
            reason = _bad_times(t_sbt, t_bst)
            # Figure 8's claim: the BST wins from n = 4 on
            if reason is None and n >= 4 and not t_bst < t_sbt:
                reason = f"BST {t_bst} not below SBT {t_sbt}"
            ops.append((f"fig8 n={n}", reason))
        return Outcome(
            ops=ops,
            outputs={"fig6": fig6.rows, "fig8": fig8.rows},
            # one event-engine run per collective, all fault-free
            transfers=engine_transfers,
        )


class MoeStep:
    """``run_workload(moe-alltoall.build(seed), 1)``.

    The seed jitters the compute gaps; the collective phases, and so
    the simulated work, are the same for every seed.
    """

    name = "moe-step"
    seeded = True
    fresh_caches = False

    @staticmethod
    def build(seed: int) -> Any:
        return workloads.WORKLOAD_SCENARIOS["moe-alltoall"].build(seed)

    @staticmethod
    def run(inputs: Any) -> Any:
        return workloads.run_workload(inputs, 1, jobs=1)

    @staticmethod
    def outcome(result: Any, inputs: Any, engine_transfers: int) -> Outcome:
        step = result.steps[0]
        ops: list[tuple[str, str | None]] = []
        for p in step.phases:
            if p.op is None:
                continue
            reason = None
            if p.degraded:
                reason = "degraded"
            elif p.undelivered_nodes:
                reason = f"undelivered at nodes {list(p.undelivered_nodes)}"
            elif p.transfers_executed != p.transfers_scheduled:
                reason = (
                    f"{p.transfers_executed} of {p.transfers_scheduled} "
                    "transfers executed"
                )
            ops.append((p.name, reason))
        return Outcome(
            ops=ops,
            outputs={
                "duration": step.duration,
                "phases": [
                    [p.name, p.finish, p.transfers_executed]
                    for p in step.phases
                ],
            },
            transfers=sum(p.transfers_executed for p in step.phases),
        )


class ServiceFairShare:
    """``run_service(Hypercube(8), hog-vs-mice jobs, policy="fair-share")``.

    The job mix is the scenario's seed-0 draw.  Its Poisson arrivals
    make the work of other draws differ up to 17-fold, so ``--seed``
    instead relabels the cube: every job's source is XORed with
    ``seed % 256``, an automorphism of the hypercube.  Sources, and so
    contention and finish times, change with the seed while the number
    of transfers and re-simulations stays the same.
    """

    name = "service-fair-share"
    seeded = True
    fresh_caches = False

    @staticmethod
    def build(seed: int) -> Any:
        mask = seed % 256
        specs = [
            dataclasses.replace(s, source=s.source ^ mask)
            for s in get_scenario("hog-vs-mice").build(0)
        ]
        return Hypercube(8), specs

    @staticmethod
    def run(inputs: Any) -> Any:
        cube, specs = inputs
        return service.run_service(cube, specs, policy="fair-share", jobs=1)

    @staticmethod
    def outcome(result: Any, inputs: Any, engine_transfers: int) -> Outcome:
        cube, _ = inputs
        schedules = {e.tag: e.schedule for e in result.program.entries}
        ops: list[tuple[str, str | None]] = []
        for job in result.jobs:
            reason = None
            if not job.accepted:
                reason = f"rejected: {job.reject_reason}"
            elif job.degraded:
                reason = "degraded"
            else:
                missing = check_delivery(
                    cube, job.spec.op, job.spec.source,
                    schedules[job.job_id], job.holdings,
                )
                if missing:
                    reason = f"undelivered at nodes {sorted(missing)}"
            ops.append((f"job {job.job_id}", reason))
        return Outcome(
            ops=ops,
            outputs={
                "makespan": result.makespan,
                "jobs": [
                    [j.job_id, j.spec.tenant, j.finish_time, j.transfers]
                    for j in result.jobs
                ],
            },
            transfers=sum(j.transfers for j in result.jobs),
        )


WORKLOADS = {w.name: w for w in (PaperFigures, MoeStep, ServiceFairShare)}


def _bad_times(*times: float) -> str | None:
    for t in times:
        if not (math.isfinite(t) and t > 0):
            return f"simulated time {t!r} not positive and finite"
    return None


def digest(outputs: Any) -> str:
    """SHA-256 of the outputs' canonical JSON (floats at full repr)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: Any, seed: int) -> str | None:
    """The digest recorded for ``seed``, or ``None`` if there is none."""
    table = json.loads(DIGESTS.read_text()).get(workload.name, {})
    return table.get(str(seed) if workload.seeded else ANY_SEED)


def _engine_counts() -> dict[str, int]:
    """Event-engine work counters (lock-step ``sync`` runs excluded)."""
    names = {
        "repro_engine_transfers_total": "transfers",
        "repro_engine_events_total": "events",
        "repro_engine_admission_blocks_total": "admission_blocks",
    }
    out = dict.fromkeys(names.values(), 0)
    for (family, labels), value in REGISTRY.counter_values().items():
        if family in names and labels[0] != "sync":
            out[names[family]] += int(value)
    return out


def _cache_counts() -> dict[str, int]:
    stats = repro.cache.cache_stats().values()
    return {
        "hits": sum(s["hits"] or 0 for s in stats),
        "misses": sum(s["misses"] or 0 for s in stats),
    }


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def measure(
    workload: Any, inputs: Any, expected: str | None,
    tracer: Tracer | None = None, sampler: Sampler | None = None,
) -> dict[str, Any]:
    """One timed run plus its checks; the record ``run.py`` aggregates.

    With a ``sampler``, the handler's time is taken out of ``wall`` and
    ``cpu`` and the slices timed during the run go in ``ref``.
    """
    if workload.fresh_caches:
        repro.cache.clear_caches()
    engine0, cache0 = _engine_counts(), _cache_counts()
    first_span = len(tracer.spans) if tracer else 0
    with tracer.installed() if tracer else nullcontext():
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        result = workload.run(inputs)
        t1 = perf_counter()
        cpu = cpu_seconds() - cpu0
        ended = time.monotonic()
    wall = t1 - t0
    ref = sampler.during(t0, t1) if sampler else None
    if ref:
        wall -= ref.pop("spent_wall")
        cpu -= ref.pop("spent_cpu")
    engine = _delta(_engine_counts(), engine0)
    cache = _delta(_cache_counts(), cache0)
    out = workload.outcome(result, inputs, engine["transfers"])
    run_digest = digest(out.outputs)
    failures = [f"{op}: {reason}" for op, reason in out.ops if reason]
    if expected is not None and run_digest != expected:
        failures = [
            f"{op}: output digest {run_digest[:12]} != recorded "
            f"{expected[:12]}"
            for op, _ in out.ops
        ]
    record: dict[str, Any] = {
        "wall": wall,
        "cpu": cpu,
        "ended": ended,
        "traced": tracer is not None,
        "transfers": out.transfers,
        "digest": run_digest,
        "ops": len(out.ops),
        "failures": failures,
        "engine": engine,
        "cache": cache,
        "ref": ref,
    }
    if tracer is not None:
        record["layers"] = layer_totals(tracer.spans, first_span)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--min-runs", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    # timing runs only: the handler's time would blur the traced spans
    sampler = None if args.trace else Sampler()
    main_start = perf_counter()
    if sampler:
        sampler.start()
    workload = WORKLOADS[args.workload]
    expected = recorded_digest(workload, args.seed)
    inputs = workload.build(args.seed)
    runs = [measure(workload, inputs, expected, sampler=sampler)]
    runs[0]["setup"] = True
    setup_s = runs[0]["ended"] - args.spawned
    # set-up from here on, imports excluded, for its slices
    setup_ref = sampler.during(main_start, perf_counter()) if sampler else None
    if setup_ref:
        setup_s -= setup_ref.pop("spent_wall")
        del setup_ref["spent_cpu"]

    tracer = Tracer() if args.trace else None
    measured = 0.0
    warm = 0
    while measured < args.budget or warm < args.min_runs:
        for t in (None, tracer) if tracer else (None,):
            rec = measure(workload, inputs, expected, t, sampler)
            rec["setup"] = False
            runs.append(rec)
            measured += rec["wall"]
        warm += 1
    if sampler:
        sampler.stop()

    print(json.dumps({
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": runs,
        "spans": tracer.spans if tracer else [],
        "missing_seams": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
