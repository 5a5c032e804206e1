"""Chaos suite: the paper's fault-tolerance guarantee, property-based.

§1 promises that ``log N - 1`` failures leave every node pair
connected.  These properties exercise the whole stack against random
fault sets:

* below the threshold, the degraded MSBT broadcast and the survivor
  collectives must deliver everything and still validate against the
  port model — for every cube size, port model, source and fault draw;
* at or above the threshold (a deliberately isolated node), the system
  must either raise a structured :class:`FaultError` or return a
  degraded report naming every undelivered node — never lose data
  silently;
* faults injected into a *fault-free* schedule must account for every
  missing ``(node, chunk)`` pair in the degraded report, exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import broadcast, scatter
from repro.routing import msbt_broadcast_schedule
from repro.routing.common import MSG
from repro.sim import (
    DegradedResult,
    FaultError,
    FaultPlan,
    PortModel,
    run_async_vectorized,
    run_synchronous,
)
from repro.topology import Hypercube

DIMS = (2, 3, 4, 5)
PORTS = tuple(PortModel)


def _edges(cube: Hypercube) -> list[tuple[int, int]]:
    return sorted(
        {(min(a, b), max(a, b)) for a in cube.nodes() for b in cube.neighbors(a)}
    )


@st.composite
def below_threshold_case(draw):
    """(cube, source, dead link set of size <= n-1, port model)."""
    n = draw(st.sampled_from(DIMS))
    cube = Hypercube(n)
    source = draw(st.integers(min_value=0, max_value=cube.num_nodes - 1))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    dead = draw(
        st.lists(st.sampled_from(_edges(cube)), min_size=k, max_size=k, unique=True)
    )
    port_model = draw(st.sampled_from(PORTS))
    return cube, source, tuple(sorted(dead)), port_model


@st.composite
def isolating_case(draw):
    """(cube, victim, its full incident link set, port model): exactly
    the ``n`` faults §1 says are needed to disconnect a node."""
    n = draw(st.sampled_from((2, 3, 4)))
    cube = Hypercube(n)
    victim = draw(st.integers(min_value=1, max_value=cube.num_nodes - 1))
    dead = tuple(
        sorted(
            (min(victim, victim ^ (1 << d)), max(victim, victim ^ (1 << d)))
            for d in range(n)
        )
    )
    port_model = draw(st.sampled_from(PORTS))
    return cube, victim, dead, port_model


@st.composite
def chaos_on_clean_schedule(draw):
    """A fault-free MSBT schedule plus faults it was not built for."""
    n = draw(st.sampled_from((2, 3)))
    cube = Hypercube(n)
    source = draw(st.integers(min_value=0, max_value=cube.num_nodes - 1))
    port_model = draw(st.sampled_from(PORTS))
    k = draw(st.integers(min_value=1, max_value=n))
    links = draw(
        st.lists(st.sampled_from(_edges(cube)), min_size=k, max_size=k, unique=True)
    )
    return cube, source, port_model, FaultPlan(dead_links=links)


class TestBelowThreshold:
    """<= n-1 link faults: complete delivery, valid schedule, clean run."""

    @settings(max_examples=100, deadline=None)
    @given(below_threshold_case())
    def test_degraded_msbt_delivers_every_node(self, case):
        cube, source, dead, port_model = case
        n = cube.dimension
        sched = msbt_broadcast_schedule(
            cube, source, 4 * n, 4, port_model, dead_links=dead
        )
        plan = FaultPlan(dead_links=dead)
        want = set(sched.chunk_sizes)

        # run_synchronous validates port-model + causality; it must also
        # come back clean (never a DegradedResult: the degraded schedule
        # avoids every dead link by construction)
        sres = run_synchronous(
            cube, sched, port_model, {source: set(want)}, faults=plan
        )
        assert not isinstance(sres, DegradedResult)
        ares = run_async_vectorized(
            cube, sched, port_model, {source: set(want)}, faults=plan
        )
        assert not isinstance(ares, DegradedResult)
        for v in cube.nodes():
            assert sres.holdings[v] >= want, f"sync missed node {v}"
            assert ares.holdings[v] >= want, f"async missed node {v}"
        assert plan.schedule_is_clean(sched)

    @settings(max_examples=40, deadline=None)
    @given(below_threshold_case())
    def test_broadcast_collective_routes_around(self, case):
        cube, source, dead, port_model = case
        plan = FaultPlan(dead_links=dead)
        result = broadcast(
            cube, source, "msbt", 2 * cube.dimension, 2, port_model, faults=plan
        )
        assert not result.undelivered_nodes
        want = set(result.schedule.chunk_sizes)
        for v in cube.nodes():
            assert result.sync.holdings[v] >= want

    @settings(max_examples=40, deadline=None)
    @given(below_threshold_case())
    def test_scatter_collective_routes_around(self, case):
        cube, source, dead, port_model = case
        plan = FaultPlan(dead_links=dead)
        result = scatter(
            cube, source, "bst", 3, 3, port_model, faults=plan
        )
        assert not result.undelivered_nodes
        for v in cube.nodes():
            if v == source:
                continue
            mine = {c for c in result.schedule.chunk_sizes if c[0] == MSG and c[1] == v}
            assert mine and result.sync.holdings[v] >= mine


class TestAboveThreshold:
    """n faults isolating a node: loud failure or a complete report."""

    @settings(max_examples=60, deadline=None)
    @given(isolating_case())
    def test_raise_mode_names_the_victim(self, case):
        cube, victim, dead, port_model = case
        with pytest.raises(FaultError) as excinfo:
            msbt_broadcast_schedule(
                cube, 0, cube.dimension, 1, port_model, dead_links=dead
            )
        assert victim in excinfo.value.undelivered

    @settings(max_examples=60, deadline=None)
    @given(isolating_case())
    def test_report_mode_serves_the_survivors(self, case):
        cube, victim, dead, port_model = case
        plan = FaultPlan(dead_links=dead)
        result = broadcast(
            cube, 0, "msbt", cube.dimension, 1, port_model,
            faults=plan, on_fault="report",
        )
        assert result.degraded
        assert victim in result.undelivered_nodes
        want = set(result.schedule.chunk_sizes)
        for v in cube.nodes():
            if v in result.undelivered_nodes:
                continue
            assert result.sync.holdings[v] >= want, f"survivor {v} missed data"

    @settings(max_examples=40, deadline=None)
    @given(isolating_case())
    def test_scatter_report_mode_restricts_destinations(self, case):
        cube, victim, dead, port_model = case
        plan = FaultPlan(dead_links=dead)
        result = scatter(
            cube, 0, "bst", 2, 2, port_model, faults=plan, on_fault="report"
        )
        assert victim in result.undelivered_nodes
        # the chunk universe itself shrank: no message was even cut for
        # the unreachable node
        assert not any(
            c[0] == MSG and c[1] == victim for c in result.schedule.chunk_sizes
        )


class TestRuntimeRepair:
    """Chaos against the actor runtime: with ``on_fault="repair"`` the
    timeout-driven survivor-tree recovery must deliver the broadcast to
    every node the faults leave connected to the source — no matter
    which links die."""

    @staticmethod
    def _reachable(cube: Hypercube, source: int, plan: FaultPlan) -> set[int]:
        dead = plan.dead_links
        seen = {source}
        frontier = [source]
        while frontier:
            u = frontier.pop()
            for v in cube.neighbors(u):
                if (min(u, v), max(u, v)) in dead or v in seen:
                    continue
                seen.add(v)
                frontier.append(v)
        return seen

    @settings(max_examples=40, deadline=None)
    @given(chaos_on_clean_schedule())
    def test_repair_delivers_the_connected_component(self, case):
        cube, source, port_model, plan = case
        result = broadcast(
            cube, source, "sbt", 2 * cube.dimension, 2, port_model,
            faults=plan, on_fault="repair", backend="runtime",
        )
        rt = result.async_
        want = set(result.schedule.chunk_sizes)
        reachable = self._reachable(cube, source, plan)
        for v in reachable:
            assert rt.holdings[v] >= want, (
                f"node {v} is connected to the source yet incomplete"
            )
        # anything beyond the component is honestly reported, not lost
        cut_off = set(cube.nodes()) - reachable
        if cut_off:
            assert isinstance(rt, DegradedResult)
            assert cut_off <= set(rt.undelivered_nodes)

    @settings(max_examples=20, deadline=None)
    @given(chaos_on_clean_schedule())
    def test_report_mode_matches_engine_shape(self, case):
        cube, source, port_model, plan = case
        result = broadcast(
            cube, source, "sbt", cube.dimension, 1, port_model,
            faults=plan, on_fault="report", backend="runtime",
        )
        rt = result.async_
        want = set(result.schedule.chunk_sizes)
        if isinstance(rt, DegradedResult):
            for v in cube.nodes():
                missing = want - rt.holdings[v]
                assert missing == set(rt.undelivered.get(v, frozenset()))
        else:
            for v in cube.nodes():
                assert rt.holdings[v] >= want


class TestNeverSilent:
    """Faults hitting an unsuspecting schedule: every loss is reported."""

    @settings(max_examples=100, deadline=None)
    @given(chaos_on_clean_schedule())
    def test_report_accounts_for_every_missing_chunk(self, case):
        cube, source, port_model, plan = case
        sched = msbt_broadcast_schedule(
            cube, source, cube.dimension, 1, port_model
        )
        want = set(sched.chunk_sizes)
        res = run_async_vectorized(
            cube, sched, port_model, {source: set(want)},
            faults=plan, on_fault="report",
        )
        if isinstance(res, DegradedResult):
            for v in cube.nodes():
                missing = want - res.holdings[v]
                assert missing == set(res.undelivered.get(v, frozenset())), (
                    f"node {v}: missing chunks not accounted in the report"
                )
        else:
            # the schedule happened not to touch any fault: full delivery
            for v in cube.nodes():
                assert res.holdings[v] >= want

    @settings(max_examples=60, deadline=None)
    @given(chaos_on_clean_schedule())
    def test_raise_mode_never_finishes_incomplete(self, case):
        cube, source, port_model, plan = case
        sched = msbt_broadcast_schedule(
            cube, source, cube.dimension, 1, port_model
        )
        want = set(sched.chunk_sizes)
        try:
            res = run_async_vectorized(
                cube, sched, port_model, {source: set(want)}, faults=plan
            )
        except FaultError as err:
            assert err.edge is not None and err.time is not None
            assert err.chunks
            return
        for v in cube.nodes():
            assert res.holdings[v] >= want


class TestServiceFaults:
    """Service-level fault plumbing: a dead link mid-stream degrades
    only the jobs whose trees actually cross it."""

    @staticmethod
    def _victim_edge(cube, sched):
        """A directed edge the schedule uses, as an undirected pair."""
        for rnd in sched.rounds:
            for tr in rnd:
                return (min(tr.src, tr.dst), max(tr.src, tr.dst))
        raise AssertionError("schedule has no transfers")

    def test_dead_link_degrades_only_crossing_jobs(self):
        from repro.collectives.api import collective_schedule
        from repro.service import JobSpec, run_service

        cube = Hypercube(4)
        pm = PortModel.ONE_PORT_FULL
        # find a victim edge in job A's tree that job B's tree avoids
        sched_a, _ = collective_schedule(
            cube, "broadcast", "msbt", 0, 8, 4, pm
        )
        edges_a = {
            (min(t.src, t.dst), max(t.src, t.dst))
            for rnd in sched_a.rounds for t in rnd
        }
        victim = None
        for src_b in range(1, cube.num_nodes):
            sched_b, _ = collective_schedule(
                cube, "scatter", "bst", src_b, 2, 2, pm
            )
            edges_b = {
                (min(t.src, t.dst), max(t.src, t.dst))
                for rnd in sched_b.rounds for t in rnd
            }
            only_a = edges_a - edges_b
            if only_a:
                victim = sorted(only_a)[0]
                break
        assert victim is not None, "no A-only edge found"

        specs = [
            JobSpec(tenant="hit", op="broadcast", algorithm="msbt",
                    source=0, message_elems=8, packet_elems=4),
            JobSpec(tenant="safe", op="scatter", algorithm="bst",
                    source=src_b, message_elems=2, packet_elems=2,
                    arrival=1.0),
        ]
        plan = FaultPlan(dead_links=[victim])
        result = run_service(
            cube, specs, port_model=pm, faults=plan, on_fault="report"
        )
        hit, safe = result.jobs
        assert hit.degraded and hit.undelivered
        assert not safe.degraded and safe.complete
        assert result.degraded

        # raise mode surfaces the same fault as a structured error
        with pytest.raises(FaultError):
            run_service(cube, specs, port_model=pm, faults=plan)

        # and without the fault, both jobs complete
        clean = run_service(cube, specs, port_model=pm)
        assert all(j.complete and not j.degraded for j in clean.jobs)

    def test_unaffected_job_keeps_its_fault_free_timing(self):
        """If the dead link only touches the *other* tenant's tree and
        the jobs do not overlap in time, the safe job's timing is
        bit-identical to the fault-free run."""
        from repro.collectives.api import collective_schedule
        from repro.service import JobSpec, run_service

        cube = Hypercube(3)
        pm = PortModel.ONE_PORT_FULL
        sched_a, _ = collective_schedule(
            cube, "broadcast", "sbt", 0, 4, 2, pm
        )
        edges_a = {
            (min(t.src, t.dst), max(t.src, t.dst))
            for rnd in sched_a.rounds for t in rnd
        }
        sched_b, _ = collective_schedule(
            cube, "broadcast", "sbt", 7, 4, 2, pm
        )
        edges_b = {
            (min(t.src, t.dst), max(t.src, t.dst))
            for rnd in sched_b.rounds for t in rnd
        }
        only_a = sorted(edges_a - edges_b)
        if not only_a:
            pytest.skip("trees share every edge at this size")
        specs = [
            JobSpec(tenant="hit", op="broadcast", algorithm="sbt",
                    source=0, message_elems=4, packet_elems=2),
            JobSpec(tenant="safe", op="broadcast", algorithm="sbt",
                    source=7, message_elems=4, packet_elems=2,
                    arrival=500.0),
        ]
        plan = FaultPlan(dead_links=[only_a[0]])
        faulty = run_service(
            cube, specs, port_model=pm, faults=plan, on_fault="report"
        )
        clean = run_service(cube, specs, port_model=pm)
        assert faulty.jobs[0].degraded
        assert not faulty.jobs[1].degraded
        assert faulty.jobs[1].finish_time == clean.jobs[1].finish_time
        assert (faulty.view.slices[1].start_times
                == clean.view.slices[1].start_times)
