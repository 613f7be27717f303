"""Short-term memory: bounded FIFO queues of chunk pointers, one per modality.

Capacity is counted in chunks, not primitives. The most recent entry sits at
the head; overflow evicts the oldest. When fully learned chunks (their images
complete) co-occupy the queues of two modalities, the trainer turns that
co-occupancy into a naming link.
"""

from __future__ import annotations

from collections import deque

from .network import ROOT_ID, DiscriminationNet


class StmError(ValueError):
    pass


class StmQueue:
    def __init__(self, capacity: int = 5):
        if not 2 <= capacity <= 9:
            raise StmError(f"STM capacity must be in [2, 9], got {capacity}")
        self._slots: deque[int] = deque(maxlen=capacity)  # head at index 0

    @property
    def slots(self) -> list[int]:
        return list(self._slots)

    def push(self, node_id: int) -> None:
        """Put a chunk pointer at the head, evicting the oldest when full.

        Root pointers are dropped silently: "recognised as nothing" carries
        no chunk to hold or associate.
        """
        if node_id != ROOT_ID:
            self._slots.appendleft(node_id)


def co_occupancy(visual_q: StmQueue, verbal_q: StmQueue,
                 visual_net: DiscriminationNet,
                 verbal_net: DiscriminationNet,
                 pairing: str = "head") -> tuple[int, int] | None:
    """The chunk pair eligible for a naming link, if any.

    ``head`` pairing looks only at the two queue heads (the most recent chunk
    of each modality); ``position`` pairing scans matching slot positions from
    the head down and returns the first pair of chunks that are both fully
    learned (their images complete).
    """
    if pairing == "head":
        vis, verb = visual_q._slots, verbal_q._slots
        if vis and verb and visual_net.node(vis[0]).image_complete and \
                verbal_net.node(verb[0]).image_complete:
            return vis[0], verb[0]
        return None
    if pairing != "position":
        raise StmError(f"unknown STM pairing mode {pairing!r}")
    for vis_id, verb_id in zip(visual_q.slots, verbal_q.slots):
        if visual_net.node(vis_id).image_complete and \
                verbal_net.node(verb_id).image_complete:
            return vis_id, verb_id
    return None
