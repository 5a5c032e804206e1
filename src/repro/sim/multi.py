"""Multi-schedule programs: several collectives merged on one cube.

The service layer (:mod:`repro.service`) runs a *stream* of collective
jobs concurrently on one shared hypercube.  Each job still comes from
the ordinary schedule generators, but the engines execute exactly one
schedule per run — so concurrent jobs are composed here into a single
:class:`MergedProgram` first.  Composition works on the jobs' lowered
tables (:class:`~repro.sim.lowering.LoweredSchedule`), not on
``Transfer`` objects: each distinct job schedule is lowered once per
run and every re-merge only concatenates and reorders arrays.

* chunk ids are namespaced per job — the merged table's chunk objects
  are ``(tag, chunk)``, so two broadcasts both shipping ``("b", 0)``
  never alias, and each job owns its own contiguous slot range and
  payload-group range (groups never span jobs);
* the merged program order interleaves the jobs **round by round in the
  given entry order** — program order is contention priority in the
  event engines, so the entry order *is* the scheduling policy's
  priority ranking;
* every transfer records its owning entry (``owners``) — the per-job
  provenance the service uses to split one engine run back into
  per-job completion times, link traffic and delivery reports;
* each job's initially-held groups carry a *release time* (its
  admission instant): the vectorized engine will not start any
  transfer of the job before it, which is how jobs arriving mid-stream
  enter an already-running cube.

The merged table runs bit-identically to lowering the equivalent
chunk-tagged merged :class:`~repro.sim.schedule.Schedule`; it differs
only in slot, chunk and group numbering (that lowering may also pool
equal-keyed slots of different jobs into one group), which the engine
never observes.  Tagged ``Transfer`` objects and ``(tag, chunk)``
chunk objects are only built when asked for (fault events, deadlock
reports, degraded results, decoded holdings).

Unlike :func:`repro.sim.schedule.merge_schedules` (which exists to be
re-packed into a new valid round structure), a merged program is meant
for the *event* engines, where rounds are priorities rather than
barriers: two jobs contending for one link simply serialize, exactly
like the paper's port-model admission rules demand.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.sim.lowering import LoweredSchedule, csr_rows, decode_holdings
from repro.sim.schedule import Chunk, Schedule, Transfer

__all__ = ["JobEntry", "MergedProgram", "merge_programs", "untag_holdings"]


@dataclass(frozen=True)
class JobEntry:
    """One job's contribution to a merged program.

    Attributes:
        tag: hashable job identity used to namespace its chunks (the
            service uses the job id).
        schedule: the job's own (untagged) routing schedule.
        initial: the job's initial holdings, untagged.
        lowered: ``lower_schedule(cube, schedule, initial)`` — the
            job's table, lowered without release times.  Jobs sharing
            a schedule share one table.
        release: earliest instant any transfer of the job may start
            (the service's admission time).
    """

    tag: Hashable
    schedule: Schedule
    initial: dict[int, set[Chunk]]
    lowered: LoweredSchedule
    release: float = 0.0

    def __post_init__(self) -> None:
        if self.release < 0:
            raise ValueError(f"release time must be >= 0, got {self.release}")
        if self.lowered.n_transfers != self.schedule.num_transfers:
            raise ValueError(
                f"job {self.tag!r}: lowered table has "
                f"{self.lowered.n_transfers} transfers, its schedule "
                f"{self.schedule.num_transfers}"
            )


class _TaggedTransfers(Sequence[Transfer]):
    """Merged transfer id -> chunk-tagged ``Transfer``, built on access."""

    def __init__(
        self, entries: list[JobEntry], owners: np.ndarray, local: np.ndarray
    ) -> None:
        self._entries = entries
        self._owners = owners
        self._local = local

    def __len__(self) -> int:
        return self._owners.size

    def __getitem__(self, i: int) -> Transfer:  # type: ignore[override]
        entry = self._entries[self._owners[i]]
        t = entry.lowered.transfers[self._local[i]]
        tag = entry.tag
        return Transfer(t.src, t.dst, frozenset((tag, c) for c in t.chunks))


class _TaggedChunks(Sequence[Chunk]):
    """Merged chunk id -> ``(tag, chunk)``, built on access."""

    def __init__(self, entries: list[JobEntry], chunk_ptr: np.ndarray) -> None:
        self._entries = entries
        self._ptr = chunk_ptr.tolist()

    def __len__(self) -> int:
        return self._ptr[-1]

    def __getitem__(self, i: int) -> Chunk:  # type: ignore[override]
        if not 0 <= i < self._ptr[-1]:
            raise IndexError(f"chunk id {i} out of range")
        j = bisect_right(self._ptr, i) - 1
        entry = self._entries[j]
        return (entry.tag, entry.lowered.chunk_objects[i - self._ptr[j]])


@dataclass
class MergedProgram:
    """Several job tables merged into one engine-ready table.

    Attributes:
        lowered: the merged table (engine input), with each job's
            release time in ``init_avail`` and ``(tag, chunk)`` chunk
            objects.
        owners: merged transfer id (program order) -> position of the
            owning entry in ``entries``.
        slot_ptr: entry position -> first merged slot id; the entry's
            slots are ``slot_ptr[p]:slot_ptr[p + 1]``, in the order of
            its own table.
        entries: the input entries, in merged (priority) order.
    """

    lowered: LoweredSchedule
    owners: np.ndarray
    slot_ptr: np.ndarray
    entries: list[JobEntry]

    @property
    def num_jobs(self) -> int:
        """Number of merged jobs."""
        return len(self.entries)

    def job_transfers(self, position: int) -> list[int]:
        """Transfer indices owned by the entry at ``position``."""
        return np.flatnonzero(self.owners == position).tolist()


def merge_programs(entries: Sequence[JobEntry]) -> MergedProgram:
    """Compose job entries into one :class:`MergedProgram`.

    The rounds of all entries are zipped index by index (entry order
    within each round), so the flattened program order — the event
    engines' contention priority — ranks entry 0's round-``k``
    transfers ahead of entry 1's, for every ``k``.  Callers sort the
    entries by their policy's priority key first.
    """
    if not entries:
        raise ValueError("need at least one job entry to merge")
    entries = list(entries)
    tags = [e.tag for e in entries]
    if len(set(tags)) != len(tags):
        raise ValueError(f"job tags must be unique, got {tags}")
    tabs = [e.lowered for e in entries]

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(t, name) for t in tabs])

    def offsets(sizes: list[int]) -> np.ndarray:
        out = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=out[1:])
        return out

    t_ptr = offsets([t.n_transfers for t in tabs])
    slot_ptr = offsets([t.n_slots for t in tabs])
    group_ptr = offsets([t.n_groups for t in tabs])
    chunk_ptr = offsets([len(t.chunk_objects) for t in tabs])
    n_jobs = len(entries)

    # Program order: a stable sort of the job-major concatenation by
    # round index yields (round, entry position, job-local id) order.
    rounds = np.concatenate([
        np.repeat(
            np.arange(e.schedule.num_rounds, dtype=np.int64),
            [len(r) for r in e.schedule.rounds],
        )
        for e in entries
    ])
    order = np.argsort(rounds, kind="stable")
    owners = np.repeat(
        np.arange(n_jobs, dtype=np.int64), np.diff(t_ptr)
    )[order]
    local = order - t_ptr[owners]

    src = cat("src")[order]
    dst = cat("dst")[order]

    def group_rows(ptr_name: str, idx_name: str) -> tuple[np.ndarray, np.ndarray]:
        # Transfer -> group CSR: shift each job's groups into its range,
        # then permute the rows into program order.
        cat_ptr = offsets(
            np.concatenate([np.diff(getattr(t, ptr_name)) for t in tabs])
        )
        shift = np.repeat(
            group_ptr[:-1], [getattr(t, idx_name).size for t in tabs]
        )
        idx = csr_rows(cat_ptr, cat(idx_name) + shift, order)
        return offsets(cat_ptr[order + 1] - cat_ptr[order]), idx

    in_ptr, in_idx = group_rows("in_ptr", "in_idx")
    out_ptr, out_idx = group_rows("out_ptr", "out_idx")

    init_avail = np.concatenate([
        np.where(t.init_avail == np.inf, np.inf, e.release)
        for t, e in zip(tabs, entries)
    ])
    # Group -> waiter CSR: group ranges are per job and the merge keeps
    # each job's transfers in their own relative order, so renumbering
    # the waiters keeps every list ascending in program order.
    merged_id = np.empty_like(order)
    merged_id[order] = np.arange(order.size)
    wait_ptr = offsets(np.concatenate([np.diff(t.wait_ptr) for t in tabs]))
    wait_idx = merged_id[np.concatenate([
        t.wait_idx + t_ptr[j] for j, t in enumerate(tabs)
    ])]

    # Dense directed-link ids over the merged program, numbered in
    # (src, dst) order exactly like lower_schedule numbers them.
    uniq_edges, link = np.unique((src << 32) | dst, return_inverse=True)

    lowered = LoweredSchedule(
        n_transfers=int(t_ptr[-1]),
        n_slots=int(slot_ptr[-1]),
        n_groups=int(group_ptr[-1]),
        n_links=int(uniq_edges.size),
        transfers=_TaggedTransfers(entries, owners, local),
        chunk_objects=_TaggedChunks(entries, chunk_ptr),
        src=src,
        dst=dst,
        port=cat("port")[order],
        link=link.astype(np.int64).reshape(src.size),
        elems=cat("elems")[order],
        in_ptr=in_ptr,
        in_idx=in_idx,
        out_ptr=out_ptr,
        out_idx=out_idx,
        wait_ptr=wait_ptr,
        wait_idx=wait_idx,
        slot_node=cat("slot_node"),
        slot_chunk=cat("slot_chunk") + np.repeat(
            chunk_ptr[:-1], [t.n_slots for t in tabs]
        ),
        slot_group=cat("slot_group") + np.repeat(
            group_ptr[:-1], [t.n_slots for t in tabs]
        ),
        init_avail=init_avail,
        init_missing=cat("init_missing")[order],
        link_src=(uniq_edges >> 32).astype(np.int32),
        link_dst=(uniq_edges & 0xFFFFFFFF).astype(np.int32),
    )
    return MergedProgram(
        lowered=lowered,
        owners=owners,
        slot_ptr=slot_ptr,
        entries=entries,
    )


def untag_holdings(
    program: MergedProgram,
    position: int,
    held: np.ndarray,
    nodes: Iterable[int],
) -> dict[int, set[Chunk]]:
    """One job's final holdings, split from the merged slot flags.

    ``held`` flags the merged slots holding payload at the end of the
    run.  Returns ``{node: {chunk held}}`` over ``nodes``, chunks
    untagged — exactly the holdings a standalone run of the job's own
    schedule would produce, which is what makes the single-job
    differential test bit-exact.
    """
    low = program.entries[position].lowered
    lo = int(program.slot_ptr[position])
    return decode_holdings(low, held[lo:lo + low.n_slots], nodes)
