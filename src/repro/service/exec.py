"""Job schedules, merged-program execution and per-job accounting.

Each distinct job schedule of a run is generated once
(:func:`pregenerate_schedules`, shared by the service and the
workloads) and lowered once (:func:`lower_jobs`).  One service step =
one engine run: the scheduler merges every admitted job's table into a
single :class:`~repro.sim.multi.MergedProgram`, this module executes
the merged table as is on the vectorized event engine (release times
baked into ``init_avail``, transfer log enabled), and splits the run
back into per-job views using the provenance chain

    ``transfer_log.ids`` (executed, execution order)
    -> ``MergedProgram.owners`` (transfer -> job position)
    -> per-job starts / ends / link traffic.

Transfer end times are reconstructed as ``start +
machine.send_cost(elems)`` — the exact float expression the engine
itself evaluates, so per-job finish times are bit-identical to what a
standalone run of the same schedule would report.
"""

from __future__ import annotations

import os
from collections.abc import Hashable, Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.collectives import api
from repro.sim.engine import AsyncResult
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import MergedProgram, untag_holdings
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule
from repro.sim.trace import LinkStats
from repro.sim.vectorized import run_async_vectorized
from repro.topology.base import Topology
from repro.topology.hypercube import DirectedEdge, Hypercube

__all__ = [
    "JobSlice",
    "ExecutionView",
    "check_jobs",
    "execute_program",
    "lower_jobs",
    "pregenerate_schedules",
]

#: a generated job schedule and the holdings it starts from
Built = tuple[Schedule, dict[int, set[Chunk]]]


@dataclass
class JobSlice:
    """One job's share of a merged engine run.

    Attributes:
        position: the job's entry position in the merged program.
        scheduled: transfers the job's schedule contains.
        executed: transfers that actually ran (< ``scheduled`` only
            under faults).
        elems: elements moved.
        link_time: total busy link-time (sum of transfer durations).
        first_start: earliest transfer start (``nan`` if none ran).
        finish: latest transfer end (``nan`` if none ran).
        start_times: executed start times, sorted ascending — the
            same rendering a standalone run's ``start_times`` uses.
        link_stats: per-edge packet/element counters for this job.
        link_busy: per-edge busy time for this job (duration sums).
    """

    position: int
    scheduled: int
    executed: int
    elems: int
    link_time: float
    first_start: float
    finish: float
    start_times: list[float]
    link_stats: LinkStats
    link_busy: dict[DirectedEdge, float]


@dataclass
class ExecutionView:
    """A merged run plus its per-job decomposition.

    Attributes:
        program: the merged program that was executed.
        raw: the engine result (degraded under reported faults).
        slices: per-job accounting, indexed like ``program.entries``.
        ends: end time of each executed transfer, aligned with
            ``raw.transfer_log``.
        cube: the topology the program ran on.
    """

    program: MergedProgram
    raw: "AsyncResult | DegradedResult"
    slices: list[JobSlice]
    ends: np.ndarray
    cube: Topology

    @property
    def makespan(self) -> float:
        """Completion time of the whole merged run."""
        return self.raw.time

    @cached_property
    def held(self) -> np.ndarray:
        """Merged slot -> holds payload at the end of the run.

        Read from the engine's final payload-group availability, the
        array its own holdings decode from.
        """
        final_avail = self.raw.final_avail
        assert final_avail is not None
        return final_avail[self.program.lowered.slot_group] != np.inf

    def job_holdings(self, position: int) -> dict[int, set[Chunk]]:
        """Final holdings of the job at ``position``, untagged."""
        return untag_holdings(
            self.program, position, self.held, self.cube.nodes()
        )

    def link_busy_total(self) -> dict[DirectedEdge, float]:
        """Total busy time per directed link, over all jobs."""
        total: dict[DirectedEdge, float] = {}
        for s in self.slices:
            for edge, busy in s.link_busy.items():
                total[edge] = total.get(edge, 0.0) + busy
        return total


def check_jobs(jobs: int | None) -> int:
    """The worker count ``jobs`` asks for (``None`` = 1, 0 = all cores).

    Raises:
        ValueError: naming ``jobs`` when it is negative.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs or os.cpu_count() or 1


def _build_schedule(key: tuple) -> Built:
    """Generate one keyed schedule (module-level so workers can unpickle it)."""
    dimension, op, algorithm, source, m, b, port_value, subtree = key
    return api.collective_schedule(
        Hypercube(dimension), op, algorithm, source, m, b,
        PortModel(port_value), subtree,
    )


def pregenerate_schedules(
    keys: Iterable[tuple], jobs: int | None = None
) -> dict[tuple, Built]:
    """Build every distinct schedule named by ``keys``, once.

    A key is ``(dimension, op, algorithm, source, message_elems,
    packet_elems, port_model.value, subtree_order)``.  Keys are built in
    first-seen order, inline or over a pool of :func:`check_jobs`
    workers, and reassembled positionally, so the worker count never
    changes a result.
    """
    workers = check_jobs(jobs)
    unique = list(dict.fromkeys(keys))
    if workers <= 1 or len(unique) <= 1:
        return {k: _build_schedule(k) for k in unique}
    with ProcessPoolExecutor(max_workers=min(workers, len(unique))) as pool:
        return dict(zip(unique, pool.map(_build_schedule, unique)))


def lower_jobs(
    cube: Hypercube,
    schedules: Mapping[Hashable, Built],
) -> dict[Hashable, LoweredSchedule]:
    """Lower each distinct job schedule once: key -> job table.

    ``schedules`` maps a schedule key to ``(schedule, initial)``; jobs
    that share a key share the table, and every merge of the run reuses
    it.  Tables carry no release times — each merge sets them.
    """
    return {
        key: lower_schedule(cube, schedule, initial)
        for key, (schedule, initial) in schedules.items()
    }


def execute_program(
    cube: Hypercube,
    program: MergedProgram,
    port_model: PortModel,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
) -> ExecutionView:
    """Run ``program`` on the vectorized engine and split the result.

    Release times gate each job to its admission instant; the transfer
    log is always requested (it is the provenance source).
    """
    machine = machine or MachineParams()
    low = program.lowered
    raw = run_async_vectorized(
        cube, None, port_model, None, machine,
        faults=faults, on_fault=on_fault, lowered=low, transfer_log=True,
    )
    log = raw.transfer_log
    assert log is not None

    owners_all = program.owners
    scheduled_per = np.bincount(owners_all, minlength=program.num_jobs)

    ids = np.asarray(log.ids, dtype=np.int64)
    starts = np.asarray(log.starts, dtype=np.float64)
    # exact engine cost expression, computed once per distinct size
    uniq_sizes, size_inv = np.unique(low.elems, return_inverse=True)
    uniq_costs = np.asarray(
        [machine.send_cost(int(s)) for s in uniq_sizes.tolist()]
    )
    costs_all = uniq_costs[size_inv]

    lsrc = low.link_src.tolist()
    ldst = low.link_dst.tolist()

    ends = starts + costs_all[ids]
    slices: list[JobSlice] = []
    if ids.size:
        owners_exec = owners_all[ids]
        links_exec = low.link[ids]
        elems_exec = low.elems[ids]
        costs_exec = costs_all[ids]
    for pos in range(program.num_jobs):
        if ids.size:
            mask = owners_exec == pos
            n_exec = int(mask.sum())
        else:
            n_exec = 0
        if n_exec == 0:
            slices.append(JobSlice(
                position=pos,
                scheduled=int(scheduled_per[pos]),
                executed=0,
                elems=0,
                link_time=0.0,
                first_start=float("nan"),
                finish=float("nan"),
                start_times=[],
                link_stats=LinkStats(),
                link_busy={},
            ))
            continue
        job_starts = starts[mask]
        job_ends = ends[mask]
        job_links = links_exec[mask]
        job_elems = elems_exec[mask]
        job_costs = costs_exec[mask]
        packets = np.bincount(job_links, minlength=low.n_links)
        elems_per = np.bincount(
            job_links, weights=job_elems.astype(np.float64),
            minlength=low.n_links,
        )
        busy_per = np.bincount(
            job_links, weights=job_costs, minlength=low.n_links
        )
        stats = LinkStats()
        busy: dict[DirectedEdge, float] = {}
        pk = packets.tolist()
        el = elems_per.tolist()
        bz = busy_per.tolist()
        for li in np.flatnonzero(packets).tolist():
            edge = DirectedEdge(lsrc[li], ldst[li])
            stats.packets[edge] = pk[li]
            stats.elems[edge] = int(el[li])
            busy[edge] = bz[li]
        slices.append(JobSlice(
            position=pos,
            scheduled=int(scheduled_per[pos]),
            executed=n_exec,
            elems=int(job_elems.sum()),
            link_time=float(job_costs.sum()),
            first_start=float(job_starts.min()),
            finish=float(job_ends.max()),
            start_times=sorted(job_starts.tolist()),
            link_stats=stats,
            link_busy=busy,
        ))
    return ExecutionView(
        program=program, raw=raw, slices=slices, ends=ends, cube=cube
    )
