"""Property suite for the multi-tenant service: random job mixes must
respect the physics of the shared cube.

Three invariants, for any random mix of tenants, collectives, sizes,
arrival times, policies and port models:

* **link exclusivity** — no directed link ever carries two transfers
  at the same instant (and under the one-port models, no node drives
  two ports at once);
* **delivery** — every admitted job's collective completes: each
  destination holds every chunk the op promised it (no faults here);
* **conservation** — per-link busy time and packet counts of the
  merged run equal the sums of the per-job slices exactly: provenance
  accounting neither loses nor invents traffic.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import run_service
from repro.service.jobs import JobSpec
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology import Hypercube

EPS = 1e-9
TENANTS = ("ant", "bee", "cat")


@st.composite
def service_case(draw):
    n = draw(st.sampled_from((3, 4)))
    pm = draw(st.sampled_from(list(PortModel)))
    policy = draw(st.sampled_from(("fifo", "priority", "fair-share")))
    num_jobs = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for _ in range(num_jobs):
        op = draw(st.sampled_from(("broadcast", "scatter", "allgather")))
        specs.append(JobSpec(
            tenant=draw(st.sampled_from(TENANTS)),
            op=op,
            source=draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
            message_elems=draw(st.integers(min_value=1, max_value=12)),
            packet_elems=draw(st.sampled_from((None, 1, 2, 4))),
            priority=draw(st.integers(min_value=0, max_value=3)),
            arrival=draw(st.sampled_from(
                (0.0, 0.5, 1.0, 3.0, 7.5, 20.0, 60.0)
            )),
        ))
    return Hypercube(n), specs, pm, policy


def _execution_records(view):
    """(link index, src, dst, start, cost) per executed transfer."""
    low = view.program.lowered
    machine = MachineParams()
    log = view.raw.transfer_log
    out = []
    for tid, start in zip(log.ids, log.starts):
        li = int(low.link[tid])
        out.append((
            li,
            int(low.link_src[li]),
            int(low.link_dst[li]),
            float(start),
            machine.send_cost(int(low.elems[tid])),
        ))
    return out


def _assert_serialized(intervals):
    """Intervals (start, cost) on one resource must not overlap."""
    seq = sorted(intervals)
    for (s0, c0), (s1, _) in zip(seq, seq[1:]):
        assert s1 >= s0 + c0 - EPS, (
            f"overlap: ({s0}, +{c0}) then ({s1}, ...)"
        )


class TestServiceInvariants:
    @settings(max_examples=25, deadline=None)
    @given(service_case())
    def test_link_exclusivity_delivery_and_conservation(self, case):
        cube, specs, pm, policy = case
        result = run_service(cube, specs, port_model=pm, policy=policy)
        view = result.view
        assert view is not None
        records = _execution_records(view)

        # -- link exclusivity ------------------------------------------
        by_link: dict[int, list[tuple[float, float]]] = {}
        by_src: dict[int, list[tuple[float, float]]] = {}
        by_dst: dict[int, list[tuple[float, float]]] = {}
        by_node: dict[int, list[tuple[float, float]]] = {}
        for li, src, dst, start, cost in records:
            by_link.setdefault(li, []).append((start, cost))
            by_src.setdefault(src, []).append((start, cost))
            by_dst.setdefault(dst, []).append((start, cost))
            by_node.setdefault(src, []).append((start, cost))
            by_node.setdefault(dst, []).append((start, cost))
        for intervals in by_link.values():
            _assert_serialized(intervals)
        if pm is not PortModel.ALL_PORT:
            # one send at a time per node; full-duplex also allows at
            # most one receive at a time
            for intervals in by_src.values():
                _assert_serialized(intervals)
            for intervals in by_dst.values():
                _assert_serialized(intervals)
        if pm is PortModel.ONE_PORT_HALF:
            # half-duplex: sends and receives share the single port
            for intervals in by_node.values():
                _assert_serialized(intervals)

        # -- per-tenant delivery ---------------------------------------
        for job in result.jobs:
            assert job.accepted  # no admission limits in this suite
            assert job.complete, (job, job.undelivered)
            assert not job.degraded
            assert job.admit_time >= job.spec.arrival - EPS
            if job.transfers:
                assert job.start_time >= job.admit_time - EPS
                assert job.finish_time <= result.makespan + EPS

        # -- conservation ----------------------------------------------
        total_busy: dict[tuple[int, int], float] = {}
        for li, src, dst, start, cost in records:
            total_busy[(src, dst)] = total_busy.get((src, dst), 0.0) + cost
        from_slices = {
            (e.src, e.dst): busy
            for e, busy in view.link_busy_total().items()
        }
        assert set(from_slices) == set(total_busy)
        for edge, busy in total_busy.items():
            assert math.isclose(from_slices[edge], busy, abs_tol=1e-6)

        merged_packets = view.raw.link_stats.packets
        split_packets: dict = {}
        for sl in view.slices:
            for edge, k in sl.link_stats.packets.items():
                split_packets[edge] = split_packets.get(edge, 0) + k
        assert split_packets == dict(merged_packets)

        split_transfers = sum(sl.executed for sl in view.slices)
        assert split_transfers == view.raw.transfers_executed
