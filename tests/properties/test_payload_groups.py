"""Payload groups: grouped lowering runs bit-identically to the oracles.

:func:`repro.sim.lowering.lower_schedule` pools the ``(node, chunk)``
slots that share an initial availability and a writer set into one
dependency node, and the vectorized engine tracks one availability per
group.  These properties pin that on schedules built to hit the
grouping's edge cases — a slot written by two transfers at different
times, a slot both initially held and re-delivered, one transfer
reading several slots of one group, zero-element chunks, release times
that tie with event instants, dead links and nodes, and deep queues on
one directed link (the engine's link piles) — on hypercube and torus
hosts under all three port models:

* the grouped table runs bit-identically to the reference oracle
  (time, holdings, start times, link stats, ``FaultError`` and
  ``DegradedResult`` fields);
* it runs bit-identically to the same table with one group per slot —
  the engine's former slot-level format — down to the transfer log
  and the link-stats dict order;
* its groups partition the slots exactly by ``(initial availability,
  writer set)``;
* two runs of one program move the engine's work counters (events,
  admission blocks, deliveries) by the same amounts.

The random schedules are a first slice of an arbitrary-schedule
fuzzer: random chunk sets spread along random host edges, each
transfer carrying only chunks its sender holds by then in round order,
plus a hot link that several transfers share across the rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import REGISTRY
from repro.obs.instruments import (
    ENGINE_ADMISSION_BLOCKS,
    ENGINE_DELIVERIES,
    ENGINE_EVENTS,
)
from repro.service.exec import pregenerate_schedules
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import DegradedResult, FaultError, FaultPlan
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.machine import IPSC_D7, ZERO_STARTUP, MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.sim.vectorized import run_async_vectorized
from repro.topology import Hypercube, Torus
from repro.topology.base import Topology
from repro.workloads import WORKLOAD_SCENARIOS
from repro.workloads.exec import _phase_key

TOPOLOGIES = (Hypercube(2), Hypercube(3), Torus(2, 3), Torus(2, 4))
MACHINES = (
    MachineParams(),
    MachineParams(tau=2.0, t_c=0.5, overlap=0.5, name="overlap"),
    ZERO_STARTUP,  # zero-element packets take no time at all
    IPSC_D7,  # the paper's machine: millisecond start-ups, 20% overlap
)
# integer and half-integer instants: with the machines above, transfer
# ends land on the same grid, so releases and fault activations tie
# with event instants
INSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0)


def _groups_key(low: LoweredSchedule, schedule: Schedule, initial, release):
    """Per slot, ``(initial availability, writer ids)`` from first principles."""
    writers: dict[tuple, list[int]] = {}
    for i, t in enumerate(schedule.all_transfers()):
        for c in t.chunks:
            writers.setdefault((t.dst, c), []).append(i)
    release = release or {}
    keys = []
    for node, cid in zip(low.slot_node.tolist(), low.slot_chunk.tolist()):
        c = low.chunk_objects[cid]
        init = release.get(c, 0.0) if c in initial.get(node, ()) else np.inf
        keys.append((init, tuple(writers.get((node, c), ()))))
    return keys


def assert_payload_groups(low, schedule, initial, release=None):
    """Groups partition the slots exactly by (init time, writer set)."""
    assert low.slot_group.shape == (low.n_slots,)
    assert sorted(set(low.slot_group.tolist())) == list(range(low.n_groups))
    keys = _groups_key(low, schedule, initial, release)
    key_of_group: dict[int, tuple] = {}
    for g, key in zip(low.slot_group.tolist(), keys):
        assert key_of_group.setdefault(g, key) == key
        assert low.init_avail[g] == key[0]
    # distinct groups never share a key: the partition is the coarsest
    assert len(set(key_of_group.values())) == low.n_groups


def per_slot_table(low: LoweredSchedule, schedule: Schedule) -> LoweredSchedule:
    """The same program with one group per slot (the slot-level format)."""
    slot_of = {
        (node, cid): s
        for s, (node, cid) in enumerate(
            zip(low.slot_node.tolist(), low.slot_chunk.tolist())
        )
    }
    chunk_id = {c: i for i, c in enumerate(low.chunk_objects)}
    in_rows = []
    out_rows = []
    for t in schedule.all_transfers():
        in_rows.append(sorted(slot_of[t.src, chunk_id[c]] for c in t.chunks))
        out_rows.append(sorted(slot_of[t.dst, chunk_id[c]] for c in t.chunks))
    ptr = np.zeros(len(in_rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in in_rows], out=ptr[1:])
    in_idx = np.asarray([s for r in in_rows for s in r], dtype=np.int64)
    owner = np.repeat(np.arange(len(in_rows)), np.diff(ptr))
    init_avail = low.init_avail[low.slot_group]
    wait_ptr = np.zeros(low.n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(in_idx, minlength=low.n_slots), out=wait_ptr[1:])
    return dataclasses.replace(
        low,
        n_groups=low.n_slots,
        in_ptr=ptr,
        in_idx=in_idx,
        out_ptr=ptr.copy(),
        out_idx=np.asarray([s for r in out_rows for s in r], dtype=np.int64),
        wait_ptr=wait_ptr,
        wait_idx=owner[np.argsort(in_idx, kind="stable")],
        slot_group=np.arange(low.n_slots, dtype=np.int64),
        init_avail=init_avail,
        init_missing=np.bincount(
            owner[init_avail[in_idx] == np.inf], minlength=len(in_rows)
        ),
    )


def _run(fn):
    try:
        return fn(), None
    except FaultError as e:
        return None, e


def check_program(
    cube, schedule, initial, pm, machine, release=None, faults=None,
    on_fault="raise",
):
    """Grouped table == reference oracle == per-slot table, bit for bit."""
    low = lower_schedule(cube, schedule, initial, release)
    assert_payload_groups(low, schedule, initial, release)
    got, got_err = _run(lambda: run_async_vectorized(
        cube, None, pm, None, machine, faults=faults, on_fault=on_fault,
        lowered=low, transfer_log=True,
    ))
    want, want_err = _run(lambda: run_async_reference(
        cube, schedule, pm, initial, machine, faults=faults,
        on_fault=on_fault, release_times=release,
    ))
    flat, flat_err = _run(lambda: run_async_vectorized(
        cube, None, pm, None, machine, faults=faults, on_fault=on_fault,
        lowered=per_slot_table(low, schedule), transfer_log=True,
    ))
    if want_err is not None:
        for err in (got_err, flat_err):
            assert err is not None
            assert str(err) == str(want_err)
            assert (err.edge, err.node, err.time, err.chunks) == (
                want_err.edge, want_err.node, want_err.time, want_err.chunks
            )
        return
    assert got_err is None and flat_err is None
    for res in (got, flat):
        assert type(res) is type(want)
        assert res.time == want.time
        assert res.holdings == want.holdings
        assert res.start_times == sorted(want.start_times)
        assert res.link_stats.packets == want.link_stats.packets
        assert res.link_stats.elems == want.link_stats.elems
        assert res.transfers_executed == want.transfers_executed
        if isinstance(want, DegradedResult):
            assert res.fault_events == want.fault_events
            assert res.undelivered == want.undelivered
            assert res.transfers_lost == want.transfers_lost
    assert got.transfer_log == flat.transfer_log
    assert list(got.link_stats.packets.items()) == list(
        flat.link_stats.packets.items()
    )
    assert list(got.link_stats.elems.items()) == list(
        flat.link_stats.elems.items()
    )


# -- hand-built edge cases ------------------------------------------------


def edge_case_program(topo: Topology, release_at: float):
    """One schedule hitting every grouping edge case on ``topo``.

    ``a`` sits at node 0; ``b`` and ``e`` are its neighbours along two
    different dimensions and ``d`` closes the square, so ``d`` is
    reachable as a->b->d and as a->e->d.
    """
    p = 0
    q = topo.num_ports // topo.dimension  # first port of dimension 1
    a = 0
    b = topo.neighbor(a, p)
    e = topo.neighbor(a, q)
    d = topo.neighbor(b, q)
    assert d == topo.neighbor(e, p)
    x, y, z, w, r = (("m", i) for i in range(5))
    sizes = {x: 2, y: 1, z: 1, w: 0, r: 1}
    initial = {a: {x, y, z, w}, b: {y}, e: {r}}
    rounds = [
        # x, y, z, w leave a together: one group at a, one at b; y is
        # also initially held at b, so (b, y) is held *and* re-delivered
        (Transfer(a, b, frozenset({x, y, z, w})),
         Transfer(a, e, frozenset({x}))),
        # (d, x) is written twice, at different times: a->e carries one
        # chunk, a->b four.  b->d reads several slots of one group; w
        # (zero elements) travels alone from b
        (Transfer(b, d, frozenset({x, z})),
         Transfer(e, d, frozenset({x, r})),
         Transfer(b, a, frozenset({w}))),
        (Transfer(d, b, frozenset({r})),
         Transfer(e, a, frozenset({r}))),
    ]
    schedule = Schedule(
        rounds=rounds, chunk_sizes=sizes, algorithm="payload-group-edges"
    )
    # r is released late, at an instant the grid makes an event instant
    return schedule, initial, {r: release_at}, (a, b, e, d)


@pytest.mark.parametrize("topo", [Hypercube(3), Torus(2, 4)], ids=repr)
@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("release_at", [0.0, 2.0, 3.0])
def test_edge_cases_match_reference(topo, pm, machine, release_at):
    schedule, initial, release, _ = edge_case_program(topo, release_at)
    check_program(topo, schedule, initial, pm, machine, release)


@pytest.mark.parametrize("topo", [Hypercube(3), Torus(2, 4)], ids=repr)
@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
@pytest.mark.parametrize("on_fault", ["raise", "report"])
@pytest.mark.parametrize("at", [0.0, 2.0, 3.0])
def test_edge_cases_with_dead_link(topo, pm, on_fault, at):
    schedule, initial, release, (a, b, e, d) = edge_case_program(topo, 2.0)
    faults = FaultPlan(dead_links=[(b, d, at)])
    check_program(
        topo, schedule, initial, pm, MachineParams(), release, faults, on_fault
    )


def test_edge_case_groups():
    """The edge-case schedule really pools and splits slots as intended."""
    topo = Hypercube(3)
    schedule, initial, release, (a, b, e, d) = edge_case_program(topo, 2.0)
    low = lower_schedule(topo, schedule, initial, release)
    group = {
        (node, low.chunk_objects[c]): g
        for node, c, g in zip(
            low.slot_node.tolist(), low.slot_chunk.tolist(),
            low.slot_group.tolist(),
        )
    }
    x, y, z, w, r = (("m", i) for i in range(5))
    # held at a from the start, no writers: one group
    assert group[a, x] == group[a, y] == group[a, z]
    # all written by a->b alone; (b, y) was also held: its own group
    assert group[b, x] == group[b, z] == group[b, w] != group[b, y]
    # (d, x) has two writers, (d, z) one
    assert group[d, x] != group[d, z]
    # the late-released chunk never pools with the t=0 holdings
    assert group[e, r] != group[a, x]
    # b->d reads two slots of one group, deduplicated in its in row;
    # a->b reads four slots in two groups ((a, w) is re-delivered)
    def in_row(i):
        return low.in_idx[low.in_ptr[i]:low.in_ptr[i + 1]].tolist()

    assert in_row(2) == [group[b, x]]
    assert sorted(in_row(0)) == sorted({group[a, x], group[a, w]})
    assert low.n_groups < low.n_slots


@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
def test_release_instant_beyond_every_delivery(pm):
    """1->0 reads c1, delivered at t=1, and c0, released at t=2: its
    ready time is a release instant that no transfer end pushes, so the
    engine must push it as a wake itself (it used to deadlock)."""
    c0, c1 = ("c", 0), ("c", 1)
    schedule = Schedule(
        rounds=[
            (Transfer(0, 1, frozenset({c1})),),
            (Transfer(1, 0, frozenset({c0, c1})),),
        ],
        chunk_sizes={c0: 0, c1: 0},
        algorithm="late-release",
    )
    check_program(
        Hypercube(2), schedule, {1: {c0}, 0: {c1}}, pm, MachineParams(),
        {c0: 2.0},
    )


def pile_program():
    """A deep pile on link 0->1 of a 3-cube, interleaved in program
    order with a second pile on 0's send channel (0->2) and a third on
    1's receive channel (3->1).  Zero-element chunks ``z`` make several
    0->1 members start in one instant under ``ZERO_STARTUP``; ``b``
    costs time, so the pile also blocks."""
    z0, z1, b = ("z", 0), ("z", 1), ("b", 0)
    rounds = [
        (Transfer(0, 1, frozenset({z0})),
         Transfer(0, 2, frozenset({b})),
         Transfer(0, 1, frozenset({z1})),
         Transfer(3, 1, frozenset({b})),
         Transfer(0, 1, frozenset({z0, z1}))),
        (Transfer(0, 1, frozenset({b})),
         Transfer(0, 1, frozenset({z1})),
         Transfer(2, 3, frozenset({b})),
         Transfer(0, 1, frozenset({z0}))),
        (Transfer(1, 3, frozenset({z0})),
         Transfer(0, 1, frozenset({b, z0})),
         Transfer(0, 2, frozenset({z1}))),
    ]
    schedule = Schedule(
        rounds=rounds, chunk_sizes={z0: 0, z1: 0, b: 2},
        algorithm="link-pile",
    )
    return schedule, {0: {z0, z1, b}, 3: {b}}


@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
def test_link_pile_matches_reference(pm, machine):
    schedule, initial = pile_program()
    check_program(Hypercube(3), schedule, initial, pm, machine)


@pytest.mark.parametrize("pm", list(PortModel), ids=lambda pm: pm.value)
@pytest.mark.parametrize("on_fault", ["raise", "report"])
@pytest.mark.parametrize("at", [0.0, 2.0, 4.0])
@pytest.mark.parametrize("dead", [0, 1])
def test_link_pile_with_dead_node(pm, on_fault, at, dead):
    """The pile's source (or destination) dies at an instant where
    several of its members tie: each meets the fault in turn."""
    schedule, initial = pile_program()
    check_program(
        Hypercube(3), schedule, initial, pm, ZERO_STARTUP,
        faults=FaultPlan(dead_nodes=[(dead, at)]), on_fault=on_fault,
    )


def test_moe_step_tables_group_exactly():
    """The all-to-all workload's own tables satisfy the partition too."""
    w = WORKLOAD_SCENARIOS["moe-alltoall"].build(0)
    cube = Hypercube(w.dimension)
    keys = (
        _phase_key(w.dimension, w.port_model.value, p)
        for p in w.dag(0).collective_phases
    )
    for schedule, initial in pregenerate_schedules(keys).values():
        low = lower_schedule(cube, schedule, initial)
        assert_payload_groups(low, schedule, initial)


# -- random schedules -----------------------------------------------------


@st.composite
def random_program(draw):
    topo = draw(st.sampled_from(TOPOLOGIES))
    n = topo.num_nodes
    chunks = [("c", i) for i in range(draw(st.integers(1, 6)))]
    sizes = {c: draw(st.sampled_from((0, 1, 2, 3))) for c in chunks}
    initial: dict[int, set] = {}
    for c in chunks:
        for v in draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=3, unique=True
        )):
            initial.setdefault(v, set()).add(c)
    n_rounds = draw(st.integers(1, 4))
    # A hot link: 3-8 transfers on one directed link, spread across the
    # rounds, so the engine's per-link pile runs deep.  Its sender
    # starts with the chunks it carries.
    hot_src = draw(st.sampled_from(sorted(initial)))
    hot_dst = topo.neighbor(hot_src, draw(st.integers(0, topo.num_ports - 1)))
    hot_rounds = draw(st.lists(
        st.integers(0, n_rounds - 1), min_size=3, max_size=8
    ))
    # lock-step knowledge: a transfer only carries chunks its sender
    # holds after the previous rounds, so the program never deadlocks
    held = {v: set(cs) for v, cs in initial.items()}
    rounds = []
    for k in range(n_rounds):
        step = []
        arrived: dict[int, set] = {}
        for _ in range(draw(st.integers(1, 5))):
            src = draw(st.sampled_from(sorted(held)))
            dst = topo.neighbor(src, draw(st.integers(0, topo.num_ports - 1)))
            carry = draw(st.sets(
                st.sampled_from(sorted(held[src])), min_size=1
            ))
            step.append(Transfer(src, dst, frozenset(carry)))
            arrived.setdefault(dst, set()).update(carry)
        for _ in range(hot_rounds.count(k)):
            carry = draw(st.sets(
                st.sampled_from(sorted(initial[hot_src])), min_size=1
            ))
            # anywhere in the round, so pile members interleave with
            # other links' transfers in program order
            step.insert(
                draw(st.integers(0, len(step))),
                Transfer(hot_src, hot_dst, frozenset(carry)),
            )
            arrived.setdefault(hot_dst, set()).update(carry)
        for v, cs in arrived.items():
            held.setdefault(v, set()).update(cs)
        rounds.append(tuple(step))
    schedule = Schedule(
        rounds=rounds, chunk_sizes=sizes, algorithm="random-gossip"
    )
    release = {
        c: draw(st.sampled_from(INSTANTS))
        for c in draw(st.sets(st.sampled_from(chunks)))
    }
    faults = None
    on_fault = "raise"
    kind = draw(st.sampled_from(("none", "link", "node")))
    if kind != "none":
        at = draw(st.sampled_from(INSTANTS))
        if kind == "link":
            t = draw(st.sampled_from([t for r in rounds for t in r]))
            faults = FaultPlan(dead_links=[(t.src, t.dst, at)])
        else:
            # the hot link's sender dying at a grid instant kills a
            # pile's source while its members tie at that instant
            v = draw(st.sampled_from(
                [hot_src] + [u for r in rounds for t in r for u in (t.src, t.dst)]
            ))
            faults = FaultPlan(dead_nodes=[(v, at)])
        on_fault = draw(st.sampled_from(("raise", "report")))
    return (
        topo, schedule, initial, draw(st.sampled_from(list(PortModel))),
        draw(st.sampled_from(MACHINES)), release, faults, on_fault,
    )


@settings(max_examples=150, deadline=None)
@given(random_program())
def test_random_programs_match_reference(case):
    check_program(*case)


def _engine_counts() -> list[int]:
    return [
        sum(series.value for series in counter.series())
        for counter in (ENGINE_EVENTS, ENGINE_ADMISSION_BLOCKS, ENGINE_DELIVERIES)
    ]


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_random_programs_repeat_engine_counters(case):
    """Events, admission blocks and deliveries are deterministic: two
    runs of one drawn program (lowered afresh each time) move
    ``repro_engine_events_total``, ``..._admission_blocks_total`` and
    ``..._deliveries_total`` by equal amounts."""
    cube, schedule, initial, pm, machine, release, faults, on_fault = case
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    try:
        deltas = []
        for _ in range(2):
            before = _engine_counts()
            low = lower_schedule(cube, schedule, initial, release)
            _run(lambda: run_async_vectorized(
                cube, None, pm, None, machine, faults=faults,
                on_fault=on_fault, lowered=low,
            ))
            deltas.append(
                [a - b for a, b in zip(_engine_counts(), before)]
            )
    finally:
        REGISTRY.configure(enabled=prev)
    assert deltas[0] == deltas[1]
    if faults is None:
        assert deltas[0][0] > 0  # the registry really counted this run
