"""Lower a :class:`~repro.sim.schedule.Schedule` into flat arrays.

The vectorized event engine (:mod:`repro.sim.vectorized`) does not walk
``Transfer`` objects, chunk frozensets and ``(node, chunk)`` dicts at
every admission check.  Instead this module compiles a schedule once
into an array-of-structs :class:`LoweredSchedule`:

* per-transfer columns ``src``/``dst``/``port``/``link``/``elems`` —
  the port and the dense directed-link id are precomputed here, so the
  hot loop never calls :meth:`Hypercube.port_towards` (an object-path
  engine re-derives and re-validates ports at every examination,
  ~6–7 per transfer);
* a *slot* table: every distinct ``(node, chunk)`` pair that can ever
  hold payload gets a dense id, with ``slot_node``/``slot_chunk``
  decoding columns;
* *payload groups*: slots that always fill together share one
  dependency node.  Two slots land in the same group when they have
  the same initial availability (0.0 for initial holdings — or their
  per-chunk release time, see ``release_times`` — and ``+inf`` for
  absent) and are written by the same set of transfers.  A slot's
  availability at any instant is the minimum of its initial value and
  the end times of its writers that have run, so every slot of a group
  holds the same availability, bit for bit, at every instant: the
  engine tracks one float per group.  ``slot_group`` maps slots to
  groups and ``init_avail`` is per group;
* dependency CSR indexes over groups, each row free of duplicates:
  ``in_ptr``/``in_idx`` (the groups a transfer reads at its sender),
  ``out_ptr``/``out_idx`` (the groups it writes at its receiver) and
  the inverted ``wait_ptr``/``wait_idx`` (the transfers waiting on each
  group), plus ``init_missing`` — how many of each transfer's input
  groups start out absent.

A packet that carries many chunks along one path — the personalized
patterns, an all-to-all's combined exchange packets — reads and writes
one group per hop instead of one slot per chunk, so the engine's
dependency bookkeeping scales with packets, not with chunks.

Lowering is machine- and port-model-independent: the same
:class:`LoweredSchedule` can be replayed under any
:class:`~repro.sim.machine.MachineParams`.  It *does* bake in the
initial holdings (they define the slot table and ``init_avail``).

Adjacency validation is vectorized through the topology's
``edge_ports``: every transfer must cross exactly one port of the host
graph (a cube dimension, a torus ring step).  Offending transfers are
re-checked through ``port_towards`` so the error message matches the
object-path engines.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.base import Topology

__all__ = ["LoweredSchedule", "csr_rows", "decode_holdings", "lower_schedule"]


@dataclass
class LoweredSchedule:
    """A schedule compiled to flat NumPy columns (see module docstring).

    Attributes:
        n_transfers: number of transfers ``T``.
        n_slots: number of distinct ``(node, chunk)`` payload slots.
        n_groups: number of payload groups (see module docstring).
        n_links: number of distinct directed links used.
        transfers: transfer id -> original :class:`Transfer` (for error
            reporting, fault events and degraded results; any indexable
            sequence, so merged programs can build them on demand).
        chunk_objects: chunk id -> original chunk identifier (any
            indexable sequence, like ``transfers``).
        src, dst, port: per-transfer endpoints and cube dimension.
        link: per-transfer dense directed-link id.
        elems: per-transfer payload size in elements.
        in_ptr, in_idx: CSR — transfer -> groups read at the sender.
        out_ptr, out_idx: CSR — transfer -> groups written at the
            receiver.  Rows are deduplicated, so the in and out rows of
            one transfer generally differ in length.
        wait_ptr, wait_idx: CSR — group -> transfer ids waiting on it,
            ascending.
        slot_node, slot_chunk: slot -> ``(node, chunk id)`` decode.
            :func:`lower_schedule` numbers slots in ``(node, chunk id)``
            order, so ``slot_node`` is non-decreasing.
        slot_group: slot -> payload group id.
        init_avail: group -> availability time at t=0 (``inf`` = absent).
        init_missing: transfer -> count of input groups absent at t=0.
        link_src, link_dst: link id -> directed endpoints.
    """

    n_transfers: int
    n_slots: int
    n_groups: int
    n_links: int
    transfers: Sequence[Transfer]
    chunk_objects: Sequence[Chunk]
    src: np.ndarray
    dst: np.ndarray
    port: np.ndarray
    link: np.ndarray
    elems: np.ndarray
    in_ptr: np.ndarray
    in_idx: np.ndarray
    out_ptr: np.ndarray
    out_idx: np.ndarray
    wait_ptr: np.ndarray
    wait_idx: np.ndarray
    slot_node: np.ndarray
    slot_chunk: np.ndarray
    slot_group: np.ndarray
    init_avail: np.ndarray
    init_missing: np.ndarray
    link_src: np.ndarray
    link_dst: np.ndarray

    @property
    def table_bytes(self) -> int:
        """Total bytes held by the lowered arrays (peak table footprint)."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "src", "dst", "port", "link", "elems",
                "in_ptr", "in_idx", "out_ptr", "out_idx",
                "wait_ptr", "wait_idx",
                "slot_node", "slot_chunk", "slot_group",
                "init_avail", "init_missing",
                "link_src", "link_dst",
            )
        )


def csr_rows(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR entries of ``rows``, concatenated in the order given."""
    counts = ptr[rows + 1] - ptr[rows]
    out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out_ptr[1:])
    gather = np.repeat(ptr[rows] - out_ptr[:-1], counts) + np.arange(
        out_ptr[-1], dtype=np.int64
    )
    return idx[gather]


def _row_ptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of entries listed in ascending ``rows`` order."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    return ptr


def _distinct_pairs(
    rows: np.ndarray, cols: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(row, col)`` entries, sorted by row then column."""
    width = max(1, n_cols)
    pairs = np.unique(rows * width + cols)
    return pairs // width, pairs % width


def _payload_groups(
    slot_init: np.ndarray,
    out_slots: np.ndarray,
    writer: np.ndarray,
    n_transfers: int,
) -> np.ndarray:
    """Slot -> payload group: equal initial time and equal writer set.

    Writer sets are compared exactly, by refining a dense key one
    writer position at a time: after step ``k`` two slots share a key
    iff they agree on initial time, writer count and their ``k + 1``
    smallest writers.  Step ``k`` renumbers only the slots that have a
    ``k``-th writer, into a range above every key in use, so each write
    entry takes part in exactly one step.
    """
    n_slots = slot_init.size
    n_writers = np.bincount(out_slots, minlength=n_slots)
    width = int(n_writers.max(initial=0)) + 1
    _, init_rank = np.unique(slot_init, return_inverse=True)
    _, key = np.unique(
        init_rank.astype(np.int64) * width + n_writers, return_inverse=True
    )
    key = key.astype(np.int64)
    # write entries sorted by (slot, writer); k = position in the slot
    order = np.lexsort((writer, out_slots))
    ws = out_slots[order]
    wt = writer[order]
    first = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(n_writers, out=first[1:])
    pos = np.arange(ws.size, dtype=np.int64) - first[ws]
    by_pos = np.argsort(pos, kind="stable")
    pos_ptr = _row_ptr(pos[by_pos], width - 1)
    base = int(key.max(initial=-1)) + 1
    for k in range(width - 1):
        e = by_pos[pos_ptr[k]:pos_ptr[k + 1]]
        slots = ws[e]
        uniq, r = np.unique(key[slots] * n_transfers + wt[e], return_inverse=True)
        key[slots] = base + r
        base += uniq.size
    return np.unique(key, return_inverse=True)[1].astype(np.int64)


def _check_integral_sizes(chunk_sizes: dict[Chunk, int]) -> None:
    for c, size in chunk_sizes.items():
        if not isinstance(size, Integral) or isinstance(size, bool):
            raise ValueError(
                f"chunk {c!r} has non-integral size {size!r}; "
                f"chunk sizes count whole elements"
            )


def lower_schedule(
    cube: Topology,
    schedule: Schedule,
    initial_holdings: dict[int, set[Chunk]],
    release_times: dict[Chunk, float] | None = None,
) -> LoweredSchedule:
    """Compile ``schedule`` + ``initial_holdings`` into flat arrays.

    ``release_times`` optionally delays initially-held chunks: a chunk
    mapped to ``t`` becomes available at its holders at instant ``t``
    instead of 0.0, so no transfer reading it can start earlier;
    absent chunks still start at ``+inf``.  Lowering a chunk-tagged
    merged schedule with its jobs' admission instants here gives a
    table that runs bit-identically to the one
    :func:`repro.sim.multi.merge_programs` builds from the jobs' own
    tables (the merge's differential tests use it as the oracle; it may
    number and group the slots differently, which the engine never
    observes).

    Raises ``ValueError`` naming the chunk if a chunk size is not an
    integer: the element columns are ``int64`` and would truncate it.
    """
    transfers = schedule.all_transfers()
    n_transfers = len(transfers)
    chunk_sizes = schedule.chunk_sizes
    if set(map(type, chunk_sizes.values())) - {int}:
        _check_integral_sizes(chunk_sizes)

    # -- chunk interning: every sized chunk, then any held-only ones -------
    chunk_ids: dict[Chunk, int] = {c: i for i, c in enumerate(chunk_sizes)}

    # One Python pass over the transfer list gathers everything that
    # needs object hashing; all index construction after it is NumPy.
    # A transfer's chunks are read at its sender and written at its
    # receiver, so one chunk-id list serves both sides.
    src_l: list[int] = []
    dst_l: list[int] = []
    in_counts: list[int] = []
    cids: list[int] = []
    sized = chunk_ids.__getitem__  # KeyError for a chunk without a size
    for t in transfers:
        src_l.append(t.src)
        dst_l.append(t.dst)
        k = len(cids)
        cids.extend(map(sized, t.chunks))
        in_counts.append(len(cids) - k)

    init_nodes: list[int] = []
    init_cids: list[int] = []
    known = chunk_ids.get
    for node, chunks in initial_holdings.items():
        ids = list(map(known, chunks))
        if None in ids:  # a held chunk that has no size
            ids = [chunk_ids.setdefault(c, len(chunk_ids)) for c in chunks]
        init_cids.extend(ids)
        init_nodes.extend([node] * len(ids))
    init_at = (
        [
            release_times.get(c, 0.0)
            for chunks in initial_holdings.values()
            for c in chunks
        ]
        if release_times
        else [0.0] * len(init_cids)
    )

    chunk_objects: list[Chunk] = list(chunk_ids)
    n_chunks = max(1, len(chunk_objects))
    num_nodes = cube.num_nodes

    src = np.asarray(src_l, dtype=np.int64).reshape(n_transfers)
    dst = np.asarray(dst_l, dtype=np.int64).reshape(n_transfers)
    counts = np.asarray(in_counts, dtype=np.int64).reshape(n_transfers)
    cid_arr = np.asarray(cids, dtype=np.int64)
    size_of = np.fromiter(
        chunk_sizes.values(), dtype=np.int64, count=len(chunk_sizes)
    )
    cum = np.zeros(cid_arr.size + 1, dtype=np.int64)
    np.cumsum(size_of[cid_arr], out=cum[1:])
    row_end = np.cumsum(counts)
    elems = cum[row_end] - cum[row_end - counts]

    # -- adjacency validation + port extraction (vectorized) ---------------
    port = cube.edge_ports(src, dst).astype(np.int32).reshape(n_transfers)
    if n_transfers and not bool((port >= 0).all()):
        bad = int(np.flatnonzero(port < 0)[0])
        # re-raise through the canonical validators for the same message
        cube.check_node(transfers[bad].src)
        cube.check_node(transfers[bad].dst)
        cube.port_towards(transfers[bad].src, transfers[bad].dst)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- dense directed-link ids -------------------------------------------
    edge_key = src * num_nodes + dst
    uniq_edges, link = np.unique(edge_key, return_inverse=True)
    link = link.astype(np.int64).reshape(n_transfers)
    link_src = (uniq_edges // num_nodes).astype(np.int32)
    link_dst = (uniq_edges % num_nodes).astype(np.int32)

    # -- slot table: every (node, chunk) that can hold payload -------------
    in_key = np.repeat(src, counts) * n_chunks + cid_arr
    out_key = np.repeat(dst, counts) * n_chunks + cid_arr
    init_key = (
        np.asarray(init_nodes, dtype=np.int64) * n_chunks
        + np.asarray(init_cids, dtype=np.int64)
    )
    all_keys = np.concatenate([in_key, out_key, init_key])
    uniq_slots, inv = np.unique(all_keys, return_inverse=True)
    inv = inv.astype(np.int64)
    n_slots = int(uniq_slots.size)
    n_in = in_key.size
    n_out = out_key.size
    in_slots = inv[:n_in]
    out_slots = inv[n_in:n_in + n_out]
    init_slots = inv[n_in + n_out:]
    slot_node = (uniq_slots // n_chunks).astype(np.int64)
    slot_chunk = (uniq_slots % n_chunks).astype(np.int64)

    slot_init = np.full(n_slots, np.inf)
    # np.minimum.at: a chunk held by several nodes keeps the earliest
    # release should duplicate (node, chunk) init entries ever appear
    np.minimum.at(slot_init, init_slots, np.asarray(init_at, dtype=np.float64))

    # -- payload groups and the group-level dependency CSRs ----------------
    owner = np.repeat(np.arange(n_transfers, dtype=np.int64), counts)
    slot_group = _payload_groups(slot_init, out_slots, owner, n_transfers)
    n_groups = int(slot_group.max()) + 1 if n_slots else 0
    init_avail = np.empty(n_groups)
    init_avail[slot_group] = slot_init
    in_rows, in_idx = _distinct_pairs(owner, slot_group[in_slots], n_groups)
    out_rows, out_idx = _distinct_pairs(owner, slot_group[out_slots], n_groups)
    in_ptr = _row_ptr(in_rows, n_transfers)
    out_ptr = _row_ptr(out_rows, n_transfers)

    # -- inverted dependency index: group -> waiting transfer ids ----------
    wait_idx = in_rows[np.argsort(in_idx, kind="stable")]
    wait_ptr = _row_ptr(in_idx, n_groups)

    absent = init_avail[in_idx] == np.inf
    init_missing = np.bincount(in_rows[absent], minlength=n_transfers).astype(
        np.int64
    )

    return LoweredSchedule(
        n_transfers=n_transfers,
        n_slots=n_slots,
        n_groups=n_groups,
        n_links=int(uniq_edges.size),
        transfers=transfers,
        chunk_objects=chunk_objects,
        src=src,
        dst=dst,
        port=port,
        link=link,
        elems=elems,
        in_ptr=in_ptr,
        in_idx=in_idx,
        out_ptr=out_ptr,
        out_idx=out_idx,
        wait_ptr=wait_ptr,
        wait_idx=wait_idx,
        slot_node=slot_node,
        slot_chunk=slot_chunk,
        slot_group=slot_group,
        init_avail=init_avail,
        init_missing=init_missing,
        link_src=link_src,
        link_dst=link_dst,
    )


def decode_holdings(
    low: LoweredSchedule, held: np.ndarray, nodes: Iterable[int]
) -> dict[int, set[Chunk]]:
    """``{node: {chunk}}`` over ``nodes`` for the slots ``held`` flags.

    ``held`` is a boolean mask over ``low``'s slot table; chunks are
    ``low``'s own chunk objects.  Nodes without a held slot map to an
    empty set.
    """
    out: dict[int, set[Chunk]] = {v: set() for v in nodes}
    mine = np.flatnonzero(held)
    if not mine.size:
        return out
    # group the held slots by node; a single lowering numbers slots in
    # node order already, so the stable sort is a no-op there
    node_of = low.slot_node[mine]
    order = np.argsort(node_of, kind="stable")
    node_of = node_of[order]
    chunk_ids = low.slot_chunk[mine[order]].tolist()
    objects = low.chunk_objects
    cuts = (np.flatnonzero(np.diff(node_of)) + 1).tolist()
    starts = [0] + cuts
    ends = cuts + [len(chunk_ids)]
    for v, a, b in zip(node_of[starts].tolist(), starts, ends):
        out[v] = {objects[c] for c in chunk_ids[a:b]}
    return out
