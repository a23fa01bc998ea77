"""Cross-layer notification bus between the MAC layer and DirQ.

DirQ's topology adaptation relies on information that only the MAC layer
has: LMAC notices that a neighbouring node has died (its slot goes silent)
or that a new node has joined (a new slot becomes occupied), and notifies
the dissemination layer, which then updates its Range Tables and propagates
any changes up the tree (paper §4.2).

The bus is a tiny synchronous publish/subscribe mechanism: the MAC layer
publishes :class:`NeighborLost` / :class:`NeighborFound` events, and any
interested upper-layer protocol subscribes a callback.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List

from ..network.addresses import NodeId


@dataclasses.dataclass(frozen=True)
class CrossLayerEvent:
    """Base class for cross-layer notifications."""

    node_id: NodeId
    """The node *receiving* the notification (the local node)."""

    neighbor_id: NodeId
    """The neighbour the notification is about."""

    time: float
    """Simulated time at which the MAC layer made the determination."""


@dataclasses.dataclass(frozen=True)
class NeighborLost(CrossLayerEvent):
    """LMAC has concluded that ``neighbor_id`` is dead or out of range."""

    missed_beacons: int = 0


@dataclasses.dataclass(frozen=True)
class NeighborFound(CrossLayerEvent):
    """LMAC has detected a new neighbour ``neighbor_id``."""

    slot: int | None = None


CrossLayerCallback = Callable[[CrossLayerEvent], None]


class CrossLayerBus:
    """Synchronous pub/sub channel for cross-layer events on one node."""

    def __init__(self) -> None:
        self._subscribers: List[CrossLayerCallback] = []

    def subscribe(self, callback: CrossLayerCallback) -> None:
        """Register a callback invoked for every published event."""
        if callback in self._subscribers:
            return
        self._subscribers.append(callback)

    def unsubscribe(self, callback: CrossLayerCallback) -> bool:
        try:
            self._subscribers.remove(callback)
            return True
        except ValueError:
            return False

    def publish(self, event: CrossLayerEvent) -> None:
        """Deliver ``event`` to every subscriber, in subscription order."""
        for callback in list(self._subscribers):
            callback(event)
