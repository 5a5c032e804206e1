"""The vectorized array-core engine is bit-identical to the reference.

``repro.sim.vectorized.run_async_vectorized`` lowers the schedule to
flat NumPy tables (:mod:`repro.sim.lowering`) and examines queued
transfers per directed-link pile, but its results must match the reference
oracle to the last ulp: completion time, holdings, link statistics,
start times, fault errors and degraded results alike.
``tests/sim/test_engine_equivalence.py`` runs the plain calls; this
file covers the engine's own options (a shared ``lowered=`` table, the
transfer log), randomized collectives, the
``repro_engine_table_bytes_peak`` gauge, and that no engine-selection
knob survives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.collectives.api import broadcast
from repro.experiments.parallel import run_sweep
from repro.obs import REGISTRY
from repro.obs.instruments import ENGINE_TABLE_BYTES_PEAK
from repro.routing import (
    allgather_schedule,
    bst_scatter_schedule,
    dual_hp_broadcast_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_scatter_schedule,
    tree_broadcast_schedule,
)
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import DegradedResult, FaultError, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7, UNIT_COST, MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.sim.vectorized import run_async_vectorized
from repro.topology.hypercube import Hypercube
from repro.trees.hamiltonian import HamiltonianPathTree
from repro.trees.tcbt import TwoRootedCompleteBinaryTree
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload

MACHINES = [
    IPSC_D7,
    UNIT_COST,
    MachineParams(tau=0.5, t_c=2.0, overlap=0.3, name="overlap-heavy"),
]

CUBE = Hypercube(4)


def _schedules(source: int, port_model: PortModel):
    """(name, schedule, initial holdings) for every algorithm family."""
    out = []
    for name, sched in [
        ("sbt-broadcast", sbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        ("msbt-broadcast", msbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        (
            "tcbt-broadcast",
            tree_broadcast_schedule(
                TwoRootedCompleteBinaryTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "hp-broadcast",
            tree_broadcast_schedule(
                HamiltonianPathTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "dual-hp-broadcast",
            dual_hp_broadcast_schedule(CUBE, source, 37, 8, port_model),
        ),
        ("bst-scatter", bst_scatter_schedule(CUBE, source, 37, 8, port_model)),
        ("sbt-scatter", sbt_scatter_schedule(CUBE, source, 37, 8, port_model)),
    ]:
        out.append((name, sched, {source: set(sched.chunk_sizes)}))
    ag = allgather_schedule(CUBE, 11, port_model)
    out.append(
        (
            "allgather",
            ag,
            {v: {c for c in ag.chunk_sizes if c[1] == v} for v in CUBE.nodes()},
        )
    )
    return out


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
@pytest.mark.parametrize("source", [0, 5])
def test_vectorized_matches_indexed_and_reference(source, port_model, machine):
    """A shared lowering replayed with the transfer log on matches the
    reference bit for bit, and the log accounts for every transfer."""
    for name, sched, init in _schedules(source, port_model):
        low = lower_schedule(CUBE, sched, init)
        vec = run_async_vectorized(
            CUBE, None, port_model, None, machine, lowered=low,
            transfer_log=True,
        )
        ref = run_async_reference(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()}, machine
        )
        assert vec.time == ref.time, name
        assert vec.holdings == ref.holdings, name
        assert vec.link_stats == ref.link_stats, name
        assert vec.transfers_executed == sched.num_transfers, name
        # the reference appends in execution order; the production
        # engine sorts ascending
        assert vec.start_times == sorted(ref.start_times), name
        log = vec.transfer_log
        assert sorted(log.ids) == list(range(sched.num_transfers)), name
        assert sorted(log.starts) == vec.start_times, name


#: fault plans for the differential matrix — immediate links/nodes,
#: combinations, and time-activated variants (cube-4 addresses)
FAULT_PLANS = [
    FaultPlan(dead_links=[(0, 1)]),
    FaultPlan(dead_links=[(2, 6), (4, 5)]),
    FaultPlan(dead_nodes=[6]),
    FaultPlan(dead_links=[(0, 8)], dead_nodes=[9]),
    FaultPlan(dead_links=[(0, 1, 40.0)]),
    FaultPlan(dead_nodes=[(3, 25.0)]),
]


def _run_or_fault(engine, sched, port_model, init, machine, plan, mode):
    try:
        return engine(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()},
            machine, faults=plan, on_fault=mode,
        )
    except FaultError as err:
        return err


@pytest.mark.parametrize("mode", ["raise", "report"])
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_fault_matrix_vectorized_agrees(port_model, mode):
    """Under every fault plan on the overlap-heavy machine (where the
    time-activated faults land mid-run amid cross-port overlap), the
    vectorized engine and the reference oracle produce the same
    outcome: same FaultError (edge, node, time) in raise mode;
    bit-identical results — degraded or not — in report mode, including
    the undelivered map and the cancelled-event set."""
    machine = MACHINES[2]
    for name, sched, init in _schedules(0, port_model):
        for plan in FAULT_PLANS:
            vec = _run_or_fault(
                run_async_vectorized, sched, port_model, init, machine,
                plan, mode,
            )
            ref = _run_or_fault(
                run_async_reference, sched, port_model, init, machine,
                plan, mode,
            )
            label = f"{name}/{plan!r}/{mode}"
            assert type(vec) is type(ref), label
            if isinstance(vec, FaultError):
                assert vec.edge == ref.edge, label
                assert vec.node == ref.node, label
                assert vec.time == ref.time, label
                assert vec.chunks == ref.chunks, label
                continue
            assert vec.time == ref.time, label
            assert vec.holdings == ref.holdings, label
            assert vec.link_stats == ref.link_stats, label
            assert vec.start_times == sorted(ref.start_times), label
            if isinstance(vec, DegradedResult):
                assert vec.undelivered == ref.undelivered, label
                assert vec.transfers_lost == ref.transfers_lost, label
                assert set(vec.fault_events) == set(ref.fault_events), label


def test_vectorized_deadlock_diagnosis():
    """Unsatisfiable payload dependencies raise, not spin."""
    sched = Schedule(
        rounds=[(Transfer(2, 3, frozenset({("b", 0)})),)],
        chunk_sizes={("b", 0): 4},
        algorithm="broken",
        meta={},
    )
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async_vectorized(
            CUBE, sched, PortModel.ONE_PORT_FULL, {1: {("b", 0)}}, UNIT_COST
        )


def test_vectorized_circular_dependency_deadlocks():
    sched = Schedule(
        rounds=[
            (
                Transfer(0, 1, frozenset({("b", 0)})),
                Transfer(1, 0, frozenset({("b", 1)})),
            ),
        ],
        chunk_sizes={("b", 0): 4, ("b", 1): 4},
        algorithm="broken",
        meta={},
    )
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async_vectorized(
            CUBE,
            sched,
            PortModel.ONE_PORT_FULL,
            {0: {("b", 1)}, 1: {("b", 0)}},
            UNIT_COST,
        )


def test_vectorized_accepts_prelowered_schedule():
    """Passing ``lowered=`` skips re-lowering but changes nothing."""
    sched = msbt_broadcast_schedule(CUBE, 0, 37, 8, PortModel.ONE_PORT_FULL)
    init = {0: set(sched.chunk_sizes)}
    low = lower_schedule(CUBE, sched, {0: set(sched.chunk_sizes)})
    a = run_async_vectorized(
        CUBE, sched, PortModel.ONE_PORT_FULL, {0: set(sched.chunk_sizes)},
        IPSC_D7, lowered=low,
    )
    b = run_async_vectorized(
        CUBE, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7
    )
    assert a.time == b.time and a.start_times == b.start_times
    assert low.table_bytes > 0


def test_lower_schedule_rejects_fractional_chunk_size():
    """The element columns are integers: a hand-built schedule with a
    fractional chunk is refused, not silently truncated."""
    sched = Schedule(
        rounds=[(Transfer(0, 1, frozenset({("b", 0), ("b", 1)})),)],
        chunk_sizes={("b", 0): 4, ("b", 1): 0.5},
    )
    with pytest.raises(ValueError, match=r"chunk \('b', 1\)"):
        lower_schedule(CUBE, sched, {0: {("b", 0), ("b", 1)}})
    with pytest.raises(ValueError, match="non-integral"):
        run_async_vectorized(
            CUBE, sched, PortModel.ONE_PORT_FULL, {0: {("b", 0), ("b", 1)}}
        )
    # NumPy integer sizes are integral and lower unchanged
    sched.chunk_sizes[("b", 1)] = np.int64(1)
    assert lower_schedule(CUBE, sched, {0: {("b", 0), ("b", 1)}}).elems[0] == 5


# -- property-based equivalence ---------------------------------------


@st.composite
def bcast_params(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    B = draw(st.integers(min_value=1, max_value=16))
    packets = draw(st.integers(min_value=1, max_value=12))
    M = B * packets - draw(st.integers(min_value=0, max_value=B - 1))
    pm = draw(st.sampled_from(list(PortModel)))
    source = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, M, B, pm, source


#: the paper's collectives: Figure 6 compares the broadcasts, Figure 8
#: the scatters (the one-port BST under the iPSC's overlap)
GENERATORS = {
    "sbt-broadcast": sbt_broadcast_schedule,
    "msbt-broadcast": msbt_broadcast_schedule,
    "sbt-scatter": sbt_scatter_schedule,
    "bst-scatter": bst_scatter_schedule,
}


@settings(max_examples=60, deadline=None)
@given(
    bcast_params(),
    st.sampled_from(sorted(GENERATORS)),
    st.sampled_from([IPSC_D7, None]),
)
def test_property_vectorized_bit_identical(params, algo, machine):
    n, M, B, pm, source = params
    cube = Hypercube(n)
    sched = GENERATORS[algo](cube, source, M, B, pm)
    init = set(sched.chunk_sizes)
    vec = run_async_vectorized(cube, sched, pm, {source: set(init)}, machine)
    ref = run_async_reference(cube, sched, pm, {source: set(init)}, machine)
    assert vec.time == ref.time
    assert vec.holdings == ref.holdings
    assert vec.start_times == sorted(ref.start_times)
    assert vec.link_stats == ref.link_stats


# -- no engine selection -----------------------------------------------


def test_engine_selection_knobs_rejected(capsys):
    """The vectorized engine is the only one: the removed ``engine``
    knob is an unknown CLI option (argparse exit 2) and an unknown
    keyword everywhere it used to be accepted."""
    knob = "engine"
    with pytest.raises(SystemExit) as exc:
        main(["broadcast", "--dim", "3", f"--{knob}", "vectorized"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{knob}" in capsys.readouterr().err
    dag = WorkloadDAG((PhaseSpec("a", compute=1.0),))
    for call in (
        lambda **kw: broadcast(Hypercube(3), 0, "msbt", 8, 2, **kw),
        lambda **kw: run_sweep(_sweep_point, [{"n": 3}], **kw),
        lambda **kw: run_workload(Workload("w", 2, lambda s: dag), **kw),
    ):
        with pytest.raises(TypeError, match=knob):
            call(**{knob: "vectorized"})


def _sweep_point(n: int) -> float:
    res = broadcast(
        Hypercube(n), 0, "sbt", 32, 8, machine=IPSC_D7, run_event_sim=True
    )
    return res.time


def test_table_bytes_gauge_tracks_peak():
    sched = msbt_broadcast_schedule(CUBE, 0, 128, 16, PortModel.ONE_PORT_FULL)
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    try:
        ENGINE_TABLE_BYTES_PEAK.set(0)
        run_async_vectorized(
            CUBE, sched, PortModel.ONE_PORT_FULL,
            {0: set(sched.chunk_sizes)}, IPSC_D7,
        )
        low = lower_schedule(CUBE, sched, {0: set(sched.chunk_sizes)})
        assert ENGINE_TABLE_BYTES_PEAK.value == low.table_bytes
    finally:
        REGISTRY.configure(enabled=prev)
