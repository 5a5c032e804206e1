"""Engine-neutral results of an asynchronous (event-driven) run.

:func:`repro.sim.vectorized.run_async_vectorized` is the production
event engine and :func:`repro.sim._engine_reference.run_async_reference`
its oracle.  Both model what actual hardware (the Intel iPSC of §5)
does with a schedule — per-packet start-ups, per-link occupancy,
port-model channel capacity and cross-port ``overlap`` — and both
return the :class:`AsyncResult` defined here (or a
:class:`~repro.sim.faults.DegradedResult` under reported faults).

``_EPS`` is the instant-coalescing tolerance both engines share:
event times within ``_EPS`` of each other count as one instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim._lazy import OnAccess
from repro.sim.faults import TransferLog
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats

__all__ = ["AsyncResult", "TransferLog"]

_EPS = 1e-12


@dataclass
class AsyncResult:
    """Outcome of an asynchronous run.

    Attributes:
        time: completion time of the last transfer.
        holdings: chunk ids held by every node at the end.  The
            vectorized engine decodes this map from ``final_avail`` on
            first access, so a caller that never reads it never pays
            for it.
        link_stats: per-edge traffic counters.
        start_times: start time of each executed transfer, sorted
            ascending by start time (ties keep execution order), so
            ``start_times[k]`` is the k-th transfer initiation on the
            machine (useful for utilization analysis).
        transfers_executed: number of transfers run.
        transfer_log: execution provenance when requested
            (``transfer_log=True`` on the vectorized engine).
        final_avail: vectorized engine only — payload group id of the
            lowered table -> final availability time (``inf`` = never
            held); a slot ``s`` ends up held iff
            ``final_avail[slot_group[s]] != inf``.
    """

    time: float
    holdings: dict[int, set[Chunk]] = OnAccess()  # type: ignore[assignment]
    link_stats: LinkStats
    start_times: list[float] = field(default_factory=list)
    transfers_executed: int = 0
    transfer_log: TransferLog | None = None
    final_avail: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

