"""Schedule-level tests for collective_schedule / check_delivery.

Exercises the gather and reduce schedule ops directly — build the
schedule, run the lock-step engine, audit delivery with
``check_delivery`` — plus the delivery auditor's negative paths
(tampered holdings must be reported, not silently passed).
"""

from __future__ import annotations

import random

import pytest

from repro.collectives import (
    SCHEDULE_OPS,
    check_delivery,
    collective_schedule,
    default_algorithm,
)
from repro.collectives.api import DEFAULT_ALGORITHMS
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology import Hypercube, Torus

TOPOLOGIES = [
    pytest.param(Hypercube(3), id="hypercube-3"),
    pytest.param(Torus(2, 3), id="torus-2x3"),
]


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("topo", TOPOLOGIES)
class TestGatherScheduleOp:
    def test_complete_delivery(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        assert check_delivery(topo, "gather", root, sched, res.holdings) == {}
        # the root really holds every node's message
        assert res.holdings[root] >= set(sched.chunk_sizes)

    def test_tampered_root_reported(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        broken = dict(res.holdings)
        dropped = next(iter(broken[root]))
        broken[root] = broken[root] - {dropped}
        missing = check_delivery(topo, "gather", root, sched, broken)
        assert missing == {root: {dropped}}

    def test_non_root_nodes_have_no_obligation(self, topo, pm):
        root = 1
        sched, initial = collective_schedule(
            topo, "gather", source=root, message_elems=2, port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        empty_elsewhere = {root: res.holdings[root]}
        assert check_delivery(
            topo, "gather", root, sched, empty_elsewhere
        ) == {}


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("topo", TOPOLOGIES)
class TestReduceScheduleOp:
    def test_complete_delivery(self, topo, pm):
        root = 2
        sched, initial = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        assert check_delivery(topo, "reduce", root, sched, res.holdings) == {}

    def test_root_obligation_includes_child_partials(self, topo, pm):
        """The root must hold its own operand plus the partial each
        tree child sends in; dropping an incoming partial is caught."""
        root = 2
        sched, initial = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        res = run_synchronous(topo, sched, pm, initial)
        incoming = set()
        for r in sched.rounds:
            for t in r:
                if t.dst == root:
                    incoming.update(t.chunks)
        assert incoming, "reduce schedule has no transfers into the root"
        broken = dict(res.holdings)
        dropped = next(iter(incoming))
        broken[root] = broken[root] - {dropped}
        missing = check_delivery(topo, "reduce", root, sched, broken)
        assert missing == {root: {dropped}}

    def test_sbt_equivalent_owner_formula(self, topo, pm):
        """On the hypercube SBT the generalized obligation reduces to
        the classic owners formula: root plus ``root ^ 2**j``."""
        if not isinstance(topo, Hypercube):
            pytest.skip("owner formula is hypercube-specific")
        root = 2
        sched, _ = collective_schedule(
            topo, "reduce", source=root, message_elems=4, packet_elems=2,
            port_model=pm,
        )
        owners = {root} | {root ^ (1 << j) for j in range(topo.dimension)}
        want_old = {c for c in sched.chunk_sizes if c[1] in owners}
        want_new = {c for c in sched.chunk_sizes if c[1] == root}
        for r in sched.rounds:
            for t in r:
                if t.dst == root:
                    want_new.update(t.chunks)
        assert want_new == want_old


class TestScheduleOpSurface:
    def test_all_broadcast_registered(self):
        assert "all_broadcast" in SCHEDULE_OPS
        assert DEFAULT_ALGORITHMS["all_broadcast"] == "dimension-exchange"

    def test_default_algorithm_per_topology(self):
        assert default_algorithm(Hypercube(3), "broadcast") == "msbt"
        assert default_algorithm(Hypercube(3), "reduce") == "sbt"
        assert default_algorithm(Torus(2, 3), "broadcast") == "ring"
        assert default_algorithm(Torus(2, 3), "reduce") == "ring"
        assert default_algorithm(Torus(2, 3), "all_broadcast") == "ring"

    def test_torus_has_no_alltoall(self):
        with pytest.raises(ValueError):
            default_algorithm(Torus(2, 3), "alltoall")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            collective_schedule(Hypercube(3), "bogus")

    def test_reduce_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            collective_schedule(Hypercube(3), "reduce", algorithm="msbt")


def per_node_reference(cube, op, source, schedule, holdings):
    """check_delivery as a per-node rescan of every chunk."""
    missing = {}
    chunks = schedule.chunk_sizes
    for v in cube.nodes():
        have = holdings.get(v, set())
        if op in ("broadcast", "allgather", "all_broadcast"):
            want = set(chunks)
        elif op == "scatter":
            if v == source:
                continue
            want = {c for c in chunks if c[1] == v}
        elif op == "gather":
            if v != source:
                continue
            want = set(chunks)
        elif op == "reduce":
            if v != source:
                continue
            want = {c for c in chunks if c[1] == source}
            for r in schedule.rounds:
                for t in r:
                    if t.dst == source:
                        want.update(t.chunks)
        else:
            want = {c for c in chunks if c[2] == v}
        short = want - have
        if short:
            missing[v] = short
    return missing


@pytest.mark.parametrize("op", SCHEDULE_OPS)
@pytest.mark.parametrize(
    "topo", [Hypercube(4), Torus(2, 4)], ids=["hypercube-4", "torus-4x4"]
)
def test_check_delivery_matches_per_node_reference(topo, op):
    """Complete and randomly thinned holdings, every op, both hosts."""
    pm = PortModel.ONE_PORT_FULL
    # the torus has no allgather/alltoall generator: audit the 16-node
    # hypercube schedule's obligations over the torus's 16 nodes
    host = topo if op not in ("allgather", "alltoall") else Hypercube(4)
    root = 5
    sched, initial = collective_schedule(
        host, op, source=root, message_elems=4, packet_elems=2,
        port_model=pm,
    )
    full = run_synchronous(host, sched, pm, initial).holdings
    rng = random.Random(f"{topo!r}:{op}")
    thinned = {
        v: {c for c in held if rng.random() < 0.9}
        for v, held in full.items()
        if rng.random() < 0.9
    }
    for holdings in (full, thinned, {}):
        want = per_node_reference(topo, op, root, sched, holdings)
        got = check_delivery(topo, op, root, sched, holdings)
        assert got == want
        assert list(got) == list(want)
    assert per_node_reference(topo, op, root, sched, thinned)
