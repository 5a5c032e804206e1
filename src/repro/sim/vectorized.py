"""Vectorized array-core asynchronous engine.

The production event engine.  Runs the discrete-event semantics of
the reference oracle (:mod:`repro.sim._engine_reference`) over the
flat arrays produced by :mod:`repro.sim.lowering`, instead of
per-transfer Python objects.  Results are bit-identical — the
equivalence suite asserts it on every tree, port model, machine and
fault plan.

How bit-identity survives
-------------------------
The reference engine advances time instant by instant: at each instant
it rescans *all* pending transfers in program order until a fixpoint,
then jumps ``now`` to the earliest pushed wake-up strictly more than
``_EPS`` ahead.  Scanning a blocked transfer has exactly one side
effect — pushing its current constraint value as a wake.  Which floats
end up in the wake heap *matters to the last ulp*: an instant the
reference does not visit can capture a transfer whose ready time lies
within ``_EPS`` above it and start it one ulp early, so this engine
must push the same wake values, no more and no fewer.  They are:

* the completion time ``end`` and the overlap release in *duration*
  form ``start + (1-ov)*dur``, pushed at occupation;
* payload-ready times, pushed when a transfer's last input arrives
  (usually an ``end`` value already in the heap, but a per-chunk
  release instant of another input can exceed every delivery);
* blocked transfers' constraint values — maxima over channel windows
  whose other-port terms use the *end-start* release form
  ``start + (1-ov)*(end-start)``, one ulp away from the duration form
  in general.

Link piles
----------
A transfer's constraint is ``max(now, send-window walk at src for its
port, recv-window walk at dst for its port, link_free[link])``, and
the port is a function of the link.  So every payload-ready transfer
queued on one directed link waits on the same value: the reference's
per-transfer re-exams of a busy link push one value over and over.
This engine keeps those transfers in a *pile* per directed link, in
program order, with one stamp (send-channel epoch, recv-channel epoch,
``link_free``), one stored constraint and one calendar entry.  The
reference's scan of a pile member only does something new where the
pile's state differs from its last exam, so the program-order pass
visits a pile only at:

* its head, when its stored constraint falls due at this instant;
* the first member after (in program order) a change of its state —
  an occupation of its send or receive channel or its link.  With no
  member after the change, the pile's head is visited in the next
  pass (the reference runs one, since something started);
* a member joining it (payload-ready) while it needs an exam; a
  joiner that sorts before the cursor waits for the next pass, like
  the reference's;
* the next member after its head started, only if ``link_free`` is
  still within the instant (zero-duration transfers), or after its
  head faulted.

A visit whose pile state matches the stamp reuses the stored value; a
changed state re-walks the channel windows once for the whole pile and
pushes the result.  The value at the first member after each change
is exactly what the reference's scan of that member pushes, so the
engine pushes the reference's wake values — including those a
channel epoch change in mid-instant makes — with work proportional to
piles, not queued transfers.  When a head starts, its pile's new value
is its own ``end`` (every other window term was at most its start),
which is already in the heap; only a later occupation needs a re-walk.

The wake heap holds raw floats deduplicated by their exact bit pattern
(a set of float keys — the "microtick" identity of an instant), so the
heap stays bounded by the number of genuinely distinct event times.
Channel state itself stays in per-node Python lists pruned exactly
like the reference engine's channels — the float arithmetic is
identical expression for expression.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from repro.obs.instruments import engine_run_finished
from repro.sim._lazy import Deferred
from repro.sim.engine import _EPS, AsyncResult
from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    TransferLog,
    _check_mode,
    undelivered_map,
)
from repro.sim.lowering import LoweredSchedule, decode_holdings, lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology
from repro.topology.hypercube import DirectedEdge

__all__ = ["run_async_vectorized"]

_INF = float("inf")


def run_async_vectorized(
    cube: Topology,
    schedule: Schedule | None,
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]] | None,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    lowered: LoweredSchedule | None = None,
    transfer_log: bool = False,
) -> AsyncResult | DegradedResult:
    """Event-driven execution of ``schedule`` under ``port_model``.

    Bit-identical to the reference oracle
    :func:`repro.sim._engine_reference.run_async_reference` (same
    results, same fault and deadlock semantics).  ``lowered``
    optionally reuses a pre-built
    :class:`~repro.sim.lowering.LoweredSchedule`; it must have been
    lowered from this exact ``schedule`` and ``initial_holdings``
    (lowering is machine- and port-model-independent, so one lowering
    can be replayed under many machines).  With ``lowered`` given,
    ``schedule`` and ``initial_holdings`` are not read and may be
    ``None`` — merged multi-job programs exist only as tables (see
    :mod:`repro.sim.multi`).  ``transfer_log=True``
    additionally records per-transfer provenance (program-order ids +
    execution-order start times) on the result — the service layer's
    hook for splitting merged multi-job runs back into per-job
    accounting.

    This engine also honours per-chunk *release times* baked into the
    lowering (see :func:`repro.sim.lowering.lower_schedule`): a
    transfer whose payload is released at ``t > 0`` is filed for the
    instant ``t`` instead of competing at 0, which is how service jobs
    admitted mid-stream join an already-running cube.
    """
    machine = machine or MachineParams()
    _check_mode(on_fault)
    report = faults is not None and on_fault == "report"
    half = port_model.half_duplex
    use_lb = port_model is not PortModel.ALL_PORT
    ov1 = 1.0 - machine.overlap
    eps = _EPS

    if lowered is not None:
        low = lowered
    elif schedule is None or initial_holdings is None:
        raise ValueError("need a schedule and initial holdings, or lowered")
    else:
        low = lower_schedule(cube, schedule, initial_holdings)
    nT = low.n_transfers
    transfers = low.transfers

    # Python mirrors of the per-transfer columns: the scalar admission
    # loop reads these (C-int list access beats NumPy scalar indexing
    # by ~5x per element).
    src_py = low.src.tolist()
    dst_py = low.dst.tolist()
    port_py = low.port.tolist()
    link_py = low.link.tolist()
    in_ptr = low.in_ptr.tolist()
    in_idx = low.in_idx.tolist()
    out_ptr = low.out_ptr.tolist()
    out_idx = low.out_idx.tolist()
    wait_ptr = low.wait_ptr.tolist()
    wait_idx = low.wait_idx.tolist()

    # send_cost is pure in the size, so compute it once per distinct size
    uniq_sizes, size_inv = np.unique(low.elems, return_inverse=True)
    uniq_costs = [machine.send_cost(int(s)) for s in uniq_sizes.tolist()]
    if uniq_sizes.size == 1:
        costs_py = uniq_costs * nT
    else:
        costs_py = [uniq_costs[j] for j in size_inv.tolist()]

    # -- mutable state -----------------------------------------------------
    avail_py = low.init_avail.tolist()
    missing_py = low.init_missing.tolist()
    done_py = [False] * nT
    ready_py = [_INF] * nT
    inpile = [False] * nT
    n_links = low.n_links
    link_free_py = [0.0] * n_links
    num_nodes = cube.num_nodes
    # Exact channel windows, pruned like _Channel, and per-channel
    # occupation epochs (all-port runs keep none: only link_free binds).
    swin: list[list[tuple[int, float, float]]] = [
        [] for _ in range(num_nodes if use_lb else 0)
    ]
    rwin = swin if half else [[] for _ in range(len(swin))]
    es = [0] * num_nodes
    er = es if half else [0] * num_nodes
    # Non-empty piles by the channel an occupation invalidates them
    # through: send channel of their source, receive channel of their
    # destination (one node channel under half duplex).
    spl: list[set[int]] = [set() for _ in range(len(swin))]
    rpl = spl if half else [set() for _ in range(len(swin))]

    # Link piles (see the module docstring): members ascending, the
    # stamp and stored constraint of the last exam (the zero init is
    # the virgin state exactly — empty windows and a free link
    # constrain to ``now``), the member position of the visit pending
    # in this pass (``nT`` = none) and whether a next-pass visit is
    # queued.
    mem: list[list[int]] = [[] for _ in range(n_links)]
    pse = [0] * n_links
    pre = [0] * n_links
    plf = [0.0] * n_links
    pv = [0.0] * n_links
    none = nT
    vis = [none] * n_links
    inn = [False] * n_links
    # This pass's visits (member positions, popped in program order)
    # and the piles whose head the next pass visits.
    vq: list[int] = []
    nextp: list[int] = []

    # Event calendars: transfer ids under their payload-ready time and
    # piles under their stored constraint — exact floats that are also
    # wake-heap values, so the time advance harvests the due buckets.
    # Stale entries (a superseded value, a started transfer) are
    # filtered at harvest.
    calendar: dict[float, list[int]] = {}
    pcal: dict[float, list[int]] = {}
    # Harvested for the instant being opened (and the t=0 seeds).
    due_ids: list[int] = []
    due_piles: list[int] = []

    # Wake heap of raw float times, deduplicated by exact bit pattern.
    wake: list[float] = []
    wake_set: set[float] = set()

    def visit_after(li: int, x: int) -> None:
        """Visit pile ``li`` at its first member after position ``x``
        in this pass, or at its head in the next pass."""
        lst = mem[li]
        k = bisect_right(lst, x)
        if k < len(lst):
            f = lst[k]
            if f < vis[li]:
                vis[li] = f
                heappush(vq, f)
        elif not inn[li]:
            inn[li] = True
            nextp.append(li)

    def join(m: int, x: int) -> None:
        """File payload-ready transfer ``m`` in its pile at position ``x``
        of the pass; visit it if the pile's stored value is stale or due."""
        li = link_py[m]
        lst = mem[li]
        inpile[m] = True
        if not lst and use_lb:
            spl[src_py[m]].add(li)
            rpl[dst_py[m]].add(li)
        insort(lst, m)
        if (
            pv[li] <= limit
            or pse[li] != es[src_py[m]]
            or pre[li] != er[dst_py[m]]
            or plf[li] != link_free_py[li]
        ):
            visit_after(li, x)

    for i in range(nT):
        if missing_py[i] == 0:
            r = 0.0
            for s in in_idx[in_ptr[i]:in_ptr[i + 1]]:
                a = avail_py[s]
                if a > r:
                    r = a
            ready_py[i] = r
            if r > eps:
                # Release-delayed seed (multi-job programs): file it for
                # the instant its payload is released, exactly like a
                # delivery beyond the current instant would.
                b0 = calendar.get(r)
                if b0 is None:
                    calendar[r] = [i]
                else:
                    b0.append(i)
                if r not in wake_set:
                    wake_set.add(r)
                    heappush(wake, r)
            else:
                due_ids.append(i)

    remaining = nT
    now = 0.0
    finish = 0.0
    start_times: list[float] = []
    executed_ids: list[int] = []
    fault_events: list[FaultEvent] = []
    lost: list[Transfer] = []

    t0 = perf_counter()
    blocks_n = 0

    def _flush(deadlocked: bool = False, starved: int = 0) -> None:
        ids = np.asarray(executed_ids, dtype=np.int64)
        out_walked = low.out_ptr[ids + 1] - low.out_ptr[ids]
        engine_run_finished(
            "vectorized", port_model,
            transfers=len(start_times),
            elems=int(low.elems[ids].sum()),
            seconds=perf_counter() - t0,
            events=blocks_n + len(start_times) + len(fault_events),
            admission_blocks=blocks_n,
            deliveries=int(out_walked.sum()),
            faulted=len(lost) + starved,
            deadlocked=deadlocked,
            table_bytes=low.table_bytes,
        )

    while remaining:
        limit = now + eps
        for i in due_ids:
            if not inpile[i] and not done_py[i] and ready_py[i] <= limit:
                join(i, -1)
        for li in due_piles:
            if mem[li] and pv[li] <= limit:
                visit_after(li, -1)
        due_ids = []
        due_piles = []

        while True:
            while vq:
                c = heappop(vq)
                li = link_py[c]
                if vis[li] != c:
                    continue  # superseded by an earlier visit
                vis[li] = none
                s_ = src_py[c]
                d_ = dst_py[c]
                lf = link_free_py[li]
                if pse[li] == es[s_] and pre[li] == er[d_] and plf[li] == lf:
                    # Unchanged pile state: the stored constraint holds
                    # and its wake value is already in the heap.
                    start = pv[li]
                    if start > limit:
                        blocks_n += 1
                        continue
                    if start < now:
                        start = now
                else:
                    start = now
                    if use_lb:
                        p_ = port_py[c]
                        for ap, as_, ae in swin[s_]:
                            v = ae if ap == p_ else as_ + ov1 * (ae - as_)
                            if v > start:
                                start = v
                        for ap, as_, ae in rwin[d_]:
                            v = ae if ap == p_ else as_ + ov1 * (ae - as_)
                            if v > start:
                                start = v
                    if lf > start:
                        start = lf
                    pse[li] = es[s_]
                    pre[li] = er[d_]
                    plf[li] = lf
                    # max(now', pv) == max(now', walk) for every later
                    # instant now' >= now, so the now-clamped value is
                    # safe to store.
                    pv[li] = start
                    if start > limit:
                        blocks_n += 1
                        if start not in wake_set:
                            wake_set.add(start)
                            heappush(wake, start)
                        b = pcal.get(start)
                        if b is None:
                            pcal[start] = [li]
                        else:
                            b.append(li)
                        continue

                # c leaves its pile, started or faulted
                lst = mem[li]
                del lst[bisect_left(lst, c)]
                inpile[c] = False
                if not lst and use_lb:
                    spl[s_].discard(li)
                    rpl[d_].discard(li)
                if faults is not None:
                    hit = faults.blocks(s_, d_, start)
                    if hit is not None:
                        kind, subject = hit
                        t = transfers[c]
                        if on_fault == "raise":
                            _flush()
                            raise FaultError(
                                f"transfer {t.src}->{t.dst} blocked by dead "
                                f"{kind} {subject} at t={start:.6g}; pending "
                                f"chunks {sorted(map(repr, t.chunks))[:4]}",
                                edge=(t.src, t.dst),
                                node=subject if kind == "node" else None,
                                time=start,
                                chunks=t.chunks,
                            )
                        fault_events.append(FaultEvent(t, start, kind, subject))
                        lost.append(t)
                        done_py[c] = True
                        # the pile's state is unchanged: its next member
                        # meets the same fault in this pass
                        if lst:
                            visit_after(li, c)
                        continue

                dur = costs_py[c]
                end = start + dur
                if use_lb:
                    es[s_] += 1
                    er[d_] += 1
                    cut = start + eps
                    w = swin[s_]
                    if w:
                        if len(w) == 1:
                            if w[0][2] <= cut:
                                w.clear()
                        else:
                            swin[s_] = w = [a for a in w if a[2] > cut]
                    w.append((port_py[c], start, end))
                    w = rwin[d_]
                    if w:
                        if len(w) == 1:
                            if w[0][2] <= cut:
                                w.clear()
                        else:
                            rwin[d_] = w = [a for a in w if a[2] > cut]
                    w.append((port_py[c], start, end))
                    # The occupation changes the state of every other
                    # pile on these two channels.
                    for q in spl[s_]:
                        if vis[q] == none and q != li:
                            visit_after(q, c)
                    for q in rpl[d_]:
                        if vis[q] == none and q != li:
                            visit_after(q, c)
                    # Duration-form overlap release, pushed like the
                    # reference at occupation.
                    r1 = start + ov1 * dur
                    if r1 not in wake_set:
                        wake_set.add(r1)
                        heappush(wake, r1)
                link_free_py[li] = end
                if end not in wake_set:
                    wake_set.add(end)
                    heappush(wake, end)
                # The pile's own new value: ``end`` bounds every window
                # term (all others were at most ``start``).
                pse[li] = es[s_]
                pre[li] = er[d_]
                plf[li] = end
                pv[li] = end
                if end <= limit:
                    if lst:
                        visit_after(li, c)
                else:
                    b = pcal.get(end)
                    if b is None:
                        pcal[end] = [li]
                    else:
                        b.append(li)

                op = out_ptr[c]
                oe = out_ptr[c + 1]
                outs = (
                    (out_idx[op],) if oe - op == 1 else out_idx[op:oe]
                )
                for s in outs:
                    a = avail_py[s]
                    if end < a:
                        avail_py[s] = end
                        first = a == _INF
                        wp0 = wait_ptr[s]
                        wp1 = wait_ptr[s + 1]
                        waiters = (
                            (wait_idx[wp0],)
                            if wp1 - wp0 == 1
                            else wait_idx[wp0:wp1]
                        )
                        for w2 in waiters:
                            if done_py[w2]:
                                continue
                            if first:
                                m = missing_py[w2] - 1
                                missing_py[w2] = m
                                if m:
                                    continue
                            elif missing_py[w2]:
                                continue
                            i0 = in_ptr[w2]
                            i1 = in_ptr[w2 + 1]
                            if i1 - i0 == 1:
                                r = avail_py[in_idx[i0]]
                            else:
                                r = 0.0
                                for s2 in in_idx[i0:i1]:
                                    a2 = avail_py[s2]
                                    if a2 > r:
                                        r = a2
                            ready_py[w2] = r
                            if r > limit:
                                b = calendar.get(r)
                                if b is None:
                                    calendar[r] = [w2]
                                else:
                                    b.append(w2)
                                # r is an end time, already pushed, or
                                # a release instant of another input
                                if r not in wake_set:
                                    wake_set.add(r)
                                    heappush(wake, r)
                            elif not inpile[w2]:
                                # Enabled at this same instant: scanned
                                # in this pass when it lies ahead of
                                # the cursor, next pass otherwise.
                                join(w2, c)

                start_times.append(start)
                executed_ids.append(c)
                if end > finish:
                    finish = end
                done_py[c] = True

            if not nextp:
                break
            heads = nextp
            nextp = []
            for li in heads:
                inn[li] = False
                if mem[li]:
                    visit_after(li, -1)

        remaining = nT - len(start_times) - len(fault_events)
        if not remaining:
            break

        nxt = None
        while wake:
            v = heappop(wake)
            if v > limit:
                nxt = v
                break
        if nxt is None:
            if report and fault_events:
                break  # starvation cascade from cancelled transfers
            stuck = [
                transfers[j]
                for j in np.flatnonzero(~np.asarray(done_py, dtype=bool))[:4].tolist()
            ]
            _flush(deadlocked=True)
            raise RuntimeError(
                f"schedule deadlocked with {remaining} transfers pending, "
                f"e.g. {stuck}"
            )
        now = nxt
        # Harvest the due calendar buckets: the new instant coalesces
        # every wake value in (limit, now + eps], so what is filed under
        # those values is exactly the next admission work.
        lim2 = nxt + eps
        v = nxt
        while True:
            b = calendar.pop(v, None)
            if b is not None:
                due_ids.extend(b)
            b = pcal.pop(v, None)
            if b is not None:
                due_piles.extend(b)
            if not wake or wake[0] > lim2:
                break
            v = heappop(wake)
        # The dedup set otherwise accumulates every float ever pushed;
        # rebuilding it from the live heap keeps it cache-sized on
        # million-transfer runs.  (Dedup is a size optimization, not a
        # correctness requirement: a missed duplicate is popped and
        # coalesced at the same instant.)
        if len(wake_set) > 4 * len(wake) + 4096:
            wake_set = set(wake)
            wake_set.add(nxt)

    # -- result assembly ---------------------------------------------------
    final_avail = np.asarray(avail_py, dtype=np.float64)

    def _holdings() -> dict[int, set[Chunk]]:
        held = final_avail[low.slot_group] != np.inf
        return decode_holdings(low, held, cube.nodes())

    stats = LinkStats()
    if executed_ids:
        ids = np.asarray(executed_ids, dtype=np.int64)
        le = low.link[ids]
        packets = np.bincount(le, minlength=low.n_links)
        elems_per = np.bincount(
            le, weights=low.elems[ids].astype(np.float64),
            minlength=low.n_links,
        )
        lsrc = low.link_src.tolist()
        ldst = low.link_dst.tolist()
        pk = packets.tolist()
        el = elems_per.tolist()
        for li in np.flatnonzero(packets).tolist():
            edge = DirectedEdge(lsrc[li], ldst[li])
            stats.packets[edge] = pk[li]
            stats.elems[edge] = int(el[li])

    log = (
        TransferLog(ids=list(executed_ids), starts=list(start_times))
        if transfer_log
        else None
    )
    start_times.sort()  # stable: equal start times keep execution order

    if fault_events or remaining:
        starved = np.flatnonzero(~np.asarray(done_py, dtype=bool)).tolist()
        _flush(starved=len(starved))
        result = DegradedResult(
            time=finish,
            holdings=Deferred(_holdings),
            link_stats=stats,
            fault_events=fault_events,
            transfers_executed=len(start_times),
            transfers_lost=len(lost) + len(starved),
            start_times=start_times,
            transfer_log=log,
            final_avail=final_avail,
        )
        result.undelivered = Deferred(lambda: undelivered_map(
            lost + [transfers[j] for j in starved], result.holdings
        ))
        return result

    _flush()
    return AsyncResult(
        time=finish,
        holdings=Deferred(_holdings),
        link_stats=stats,
        start_times=start_times,
        transfers_executed=nT,
        transfer_log=log,
        final_avail=final_avail,
    )
