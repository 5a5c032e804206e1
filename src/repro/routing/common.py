"""Shared helpers for the schedule generators."""

from __future__ import annotations

from math import ceil
from numbers import Integral

from repro.sim.schedule import Chunk

__all__ = [
    "broadcast_chunks",
    "scatter_chunks",
    "validate_message_args",
    "BCAST",
    "MSG",
]

#: chunk-id tags (see repro.sim.schedule docstring for conventions)
BCAST = "b"
MSG = "m"


def validate_message_args(message_elems: int, packet_elems: int) -> None:
    """Common argument validation for all generators.

    Sizes count whole elements: anything but an integer (``bool``
    excluded; NumPy integers accepted) raises ``TypeError``.
    """
    for name, value in (
        ("message_elems", message_elems), ("packet_elems", packet_elems)
    ):
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise TypeError(
                f"{name} must be an integer number of elements, "
                f"got {value!r} ({type(value).__name__})"
            )
    if message_elems < 1:
        raise ValueError(f"message size must be >= 1 element, got {message_elems}")
    if packet_elems < 1:
        raise ValueError(f"packet size must be >= 1 element, got {packet_elems}")


def broadcast_chunks(message_elems: int, packet_elems: int) -> dict[Chunk, int]:
    """Split a broadcast message into packets ``("b", p)``.

    ``ceil(M / B)`` chunks of ``B`` elements each, except a possibly
    smaller final one.
    """
    validate_message_args(message_elems, packet_elems)
    n_packets = ceil(message_elems / packet_elems)
    sizes: dict[Chunk, int] = {}
    left = message_elems
    for p in range(n_packets):
        sizes[(BCAST, p)] = min(packet_elems, left)
        left -= packet_elems
    return sizes


def scatter_chunks(
    destinations: list[int],
    message_elems: int,
    packet_elems: int,
) -> dict[Chunk, int]:
    """Split per-destination messages into pieces ``("m", dest, p)``.

    Each destination's ``M`` elements are cut into pieces of at most
    ``B`` elements so any piece fits in one packet; pieces for several
    destinations may later be bundled into one packet by the
    generators (subject to the same ``B`` bound).
    """
    validate_message_args(message_elems, packet_elems)
    per_dest = ceil(message_elems / packet_elems)
    sizes: dict[Chunk, int] = {}
    for d in destinations:
        left = message_elems
        for p in range(per_dest):
            sizes[(MSG, d, p)] = min(packet_elems, left)
            left -= packet_elems
    return sizes
