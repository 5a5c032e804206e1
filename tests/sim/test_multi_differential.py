"""Array-level program merging equals the object-level merge it replaced.

:func:`repro.sim.multi.merge_programs` builds the merged engine table by
concatenating and reordering the jobs' own lowered tables.  The oracle
here is the path it replaced: tag every chunk, zip the jobs' rounds into
one merged :class:`~repro.sim.schedule.Schedule` and lower that whole
schedule with per-chunk release times.  For random job mixes — distinct
tags, releases that tie with event instants, hypercube and torus hosts,
all three port models, with and without a dead link — both programs
must run to bit-identical results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.api import SCHEDULE_OPS, collective_schedule
from repro.service.exec import execute_program
from repro.sim.faults import DegradedResult, FaultError, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, merge_programs
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.sim.vectorized import run_async_vectorized
from repro.topology import Hypercube, Torus

TOPOLOGIES = (Hypercube(2), Hypercube(3), Torus(2, 3), Torus(2, 4))
TORUS_OPS = ("broadcast", "scatter", "gather", "reduce", "all_broadcast")
MACHINES = (
    MachineParams(),
    MachineParams(tau=2.0, t_c=0.5, overlap=0.5, name="overlap"),
)
# integer and half-integer instants: with the machines above, transfer
# ends land on the same grid, so releases tie with event instants
INSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 10.0)


def object_merge(entries):
    """The object-level merge: one tagged Schedule plus release times."""
    chunk_sizes = {}
    release_times = {}
    initial = {}
    depth = max(e.schedule.num_rounds for e in entries)
    rounds = [[] for _ in range(depth)]
    owner_rounds = [[] for _ in range(depth)]
    for pos, entry in enumerate(entries):
        tag = entry.tag
        for c, size in entry.schedule.chunk_sizes.items():
            chunk_sizes[(tag, c)] = size
        for node, chunks in entry.initial.items():
            held = initial.setdefault(node, set())
            for c in chunks:
                held.add((tag, c))
                release_times[(tag, c)] = entry.release
        for ri, r in enumerate(entry.schedule.rounds):
            for t in r:
                rounds[ri].append(
                    Transfer(t.src, t.dst, frozenset((tag, c) for c in t.chunks))
                )
                owner_rounds[ri].append(pos)
    merged = Schedule(
        rounds=[tuple(r) for r in rounds],
        chunk_sizes=chunk_sizes,
        algorithm="multi-job",
    )
    owners = [o for r in owner_rounds for o in r]
    return merged, initial, release_times, owners


def object_untag(holdings, tag):
    return {
        node: {c for t, c in chunks if t == tag}
        for node, chunks in holdings.items()
    }


@st.composite
def job_mix(draw):
    cube = draw(st.sampled_from(TOPOLOGIES))
    pm = draw(st.sampled_from(list(PortModel)))
    ops = SCHEDULE_OPS if isinstance(cube, Hypercube) else TORUS_OPS
    num_jobs = draw(st.integers(min_value=1, max_value=4))
    tags = draw(st.permutations(["a", 1, ("t", 2), "d"]))[:num_jobs]
    entries = []
    for tag in tags:
        op = draw(st.sampled_from(ops))
        sched, initial = collective_schedule(
            cube, op,
            source=draw(st.integers(0, cube.num_nodes - 1)),
            message_elems=draw(st.integers(1, 6)),
            packet_elems=draw(st.sampled_from((None, 1, 2))),
            port_model=pm,
        )
        entries.append(JobEntry(
            tag=tag, schedule=sched, initial=initial,
            lowered=lower_schedule(cube, sched, initial),
            release=draw(st.sampled_from(INSTANTS)),
        ))
    faults = None
    on_fault = "report"
    if draw(st.booleans()):
        a = draw(st.integers(0, cube.num_nodes - 1))
        b = cube.neighbor(a, draw(st.integers(0, cube.num_ports - 1)))
        faults = FaultPlan(dead_links=[(a, b, draw(st.sampled_from(INSTANTS)))])
        on_fault = draw(st.sampled_from(("raise", "report")))
    machine = draw(st.sampled_from(MACHINES))
    return cube, pm, entries, machine, faults, on_fault


def _run(fn):
    try:
        return fn(), None
    except FaultError as e:
        return None, e


class TestArrayMergeMatchesObjectMerge:
    @settings(max_examples=150, deadline=None)
    @given(job_mix())
    def test_bit_identical(self, case):
        cube, pm, entries, machine, faults, on_fault = case
        merged, initial, release_times, owners = object_merge(entries)
        oracle_low = lower_schedule(cube, merged, initial, release_times)
        want, want_err = _run(lambda: run_async_vectorized(
            cube, merged, pm, initial, machine, faults=faults,
            on_fault=on_fault, lowered=oracle_low, transfer_log=True,
        ))

        program = merge_programs(entries)
        low = program.lowered
        assert program.owners.tolist() == owners
        assert [low.transfers[i] for i in range(low.n_transfers)] == (
            merged.all_transfers()
        )
        assert (low.n_transfers, low.n_slots, low.n_links) == (
            oracle_low.n_transfers, oracle_low.n_slots, oracle_low.n_links
        )
        view, got_err = _run(lambda: execute_program(
            cube, program, pm, machine, faults=faults, on_fault=on_fault,
        ))

        if want_err is not None:
            assert got_err is not None
            assert str(got_err) == str(want_err)
            assert (got_err.edge, got_err.time, got_err.chunks) == (
                want_err.edge, want_err.time, want_err.chunks
            )
            return
        assert got_err is None
        got = view.raw
        assert type(got) is type(want)
        assert got.time == want.time
        assert got.holdings == want.holdings
        assert got.start_times == want.start_times
        assert got.transfer_log.ids == want.transfer_log.ids
        assert got.transfer_log.starts == want.transfer_log.starts
        # dict order too: reports serialize link stats in this order
        assert list(got.link_stats.packets.items()) == list(
            want.link_stats.packets.items()
        )
        assert list(got.link_stats.elems.items()) == list(
            want.link_stats.elems.items()
        )
        assert got.transfers_executed == want.transfers_executed
        if isinstance(want, DegradedResult):
            assert got.fault_events == want.fault_events
            assert got.undelivered == want.undelivered
            assert got.transfers_lost == want.transfers_lost
        for pos, entry in enumerate(entries):
            assert view.job_holdings(pos) == object_untag(
                want.holdings, entry.tag
            )


class TestMergeValidation:
    def _entry(self, tag):
        cube = Hypercube(2)
        sched, initial = collective_schedule(cube, "broadcast", source=0)
        return JobEntry(
            tag=tag, schedule=sched, initial=initial,
            lowered=lower_schedule(cube, sched, initial),
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_programs([])

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            merge_programs([self._entry("x"), self._entry("x")])

    def test_mismatched_table_rejected(self):
        cube = Hypercube(2)
        sched, initial = collective_schedule(cube, "broadcast", source=0)
        other, other_init = collective_schedule(cube, "scatter", source=0)
        with pytest.raises(ValueError, match="lowered table"):
            JobEntry(
                tag="x", schedule=sched, initial=initial,
                lowered=lower_schedule(cube, other, other_init),
            )
