"""Wireless channel: broadcast/unicast delivery with unit-cost accounting.

The channel is the only component allowed to charge energy: every MAC frame
that is transmitted charges the sender one transmission cost and every
receiver one reception cost, with the per-message *kind* recorded so the
metrics layer can split costs into query / update / estimate / flood traffic
exactly as §5 of the paper does.

Delivery is scheduled through the simulation engine with a small propagation
plus MAC-access delay, so message interleaving within an epoch is modelled
explicitly and deterministically.  A transmission's whole fan-out is carried
by a *single* delivery event that walks the target list (loss already
applied, in one vectorised draw per transmission), instead of one closure
per receiver: the event-queue traffic per broadcast is O(1) rather than
O(neighbours), which is where most of the hot-loop time used to go.

Reception cost is charged when the frame is *delivered*, not when it is
transmitted: a receiver that dies while the frame is in flight is recorded
as a drop and is never charged, so the energy ledger and the channel stats
always agree about how many receptions actually happened.

Determinism contract
--------------------
Batched and per-receiver delivery are **stream-equivalent**: the vectorised
loss draw consumes exactly one uniform per target, in the same target order
the per-receiver reference path would draw them, from the same named
channel stream.  Flipping ``batched_delivery`` therefore changes the event
count but not a single loss outcome, delivery time, or ledger entry --
``tests/experiments/test_fastpath_determinism.py`` pins the two paths
against each other by `TrialResult` fingerprint.  Lossy channels require an
rng at construction (there is no silent fallback RNG that could decouple a
trial from its seed), and ``loss_probability`` accepts the full [0, 1]
range including the 1.0 endpoint.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..energy.ledger import NetworkLedger
from ..energy.model import DEFAULT_ENERGY_MODEL, EnergyCostModel
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..simulation.engine import Simulator
from ..simulation.events import EventPriority
from ..simulation.trace import NULL_TRACER, Tracer
from .addresses import BROADCAST, NodeId, validate_node_id
from .links import within_range
from .spatial import SpatialHash
from .topology import Topology

ReceiveCallback = Callable[[NodeId, Any], None]
"""Signature of a node's receive hook: ``(sender_id, frame) -> None``."""


@dataclasses.dataclass
class ChannelStats:
    """Aggregate channel counters (independent of the energy ledger)."""

    broadcasts: int = 0
    unicasts: int = 0
    deliveries: int = 0
    drops_dead_node: int = 0
    drops_loss: int = 0
    drops_no_link: int = 0


class WirelessChannel:
    """Unit-disk wireless medium shared by all nodes.

    Parameters
    ----------
    sim:
        The simulation engine used to schedule deliveries.
    topology:
        Connectivity (who can hear whom).  The channel keeps its own mutable
        view so node death/addition can be applied without rebuilding the
        world.
    energy_model:
        Cost model used to charge transmissions/receptions; defaults to the
        paper's unit-cost model.
    ledger:
        Network-wide energy ledger.  A fresh one is created when omitted.
    loss_probability:
        Independent probability that any individual reception fails.  The
        paper's evaluation uses an ideal channel (0.0), but tests and
        ablations exercise lossy settings -- including the ``1.0``
        "all receptions fail" ablation.
    propagation_delay:
        Simulated delay between transmission and reception.  Kept well below
        one epoch so all per-epoch protocol exchanges settle before the next
        sampling round.
    rng:
        Random generator for loss draws.  Required whenever
        ``loss_probability > 0`` (validated at construction time so a lossy
        channel can never silently behave as an ideal one).
    batched_delivery:
        When True (the default) a transmission's whole fan-out rides on one
        delivery event.  ``False`` selects the reference formulation -- one
        event per receiver -- kept for A/B determinism tests: both paths
        must produce bit-identical experiment results.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  The only
        live observation is the per-broadcast fan-out histogram (guarded
        by ``metrics.enabled``, like the tracer); the counter metrics are
        harvested from :class:`ChannelStats` at trial end, so disabled
        metrics cost nothing per transmission.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        energy_model: EnergyCostModel = DEFAULT_ENERGY_MODEL,
        ledger: Optional[NetworkLedger] = None,
        loss_probability: float = 0.0,
        propagation_delay: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        batched_delivery: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not (0.0 <= loss_probability <= 1.0):
            raise ValueError("loss_probability must be in [0, 1]")
        if loss_probability > 0.0 and rng is None:
            raise ValueError(
                "loss_probability > 0 requires an rng for the loss draws"
            )
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        self.sim = sim
        # Copy-on-write adoption: Topology is immutable (every edit returns a
        # copy), so the channel can share its graph by reference and only pay
        # for a private copy when the channel itself mutates connectivity
        # (add_node).  At n=5000 this turns every mobility re-link's
        # update_topology from an O(V+E) graph copy into a pointer swap.
        self.graph = topology.graph
        self._owns_graph = False
        self.positions = dict(topology.positions)
        self.comm_range = topology.comm_range
        self.energy_model = energy_model
        self.ledger = ledger if ledger is not None else NetworkLedger()
        self.loss_probability = float(loss_probability)
        self.propagation_delay = float(propagation_delay)
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.batched_delivery = bool(batched_delivery)
        self.stats = ChannelStats()
        self._receivers: Dict[NodeId, ReceiveCallback] = {}
        self._alive: Dict[NodeId, bool] = {nid: True for nid in self.graph.nodes}
        # Per-kind delivery-event labels, built once (one delivery event per
        # transmission makes the label f-string a per-frame cost otherwise).
        self._delivery_labels: Dict[str, str] = {}

    # -- registration ---------------------------------------------------------

    def register(self, node_id: NodeId, receiver: ReceiveCallback) -> None:
        """Attach the receive hook for ``node_id`` (normally its MAC layer)."""
        validate_node_id(node_id)
        if node_id not in self.graph:
            raise KeyError(f"node {node_id} is not part of the channel topology")
        self._receivers[node_id] = receiver
        self._alive.setdefault(node_id, True)

    def unregister(self, node_id: NodeId) -> None:
        self._receivers.pop(node_id, None)

    # -- topology dynamics ------------------------------------------------------

    def set_alive(self, node_id: NodeId, alive: bool) -> None:
        """Mark a node dead (it no longer transmits or receives) or alive."""
        if node_id not in self.graph:
            raise KeyError(f"unknown node {node_id}")
        self._alive[node_id] = bool(alive)

    def is_alive(self, node_id: NodeId) -> bool:
        return self._alive.get(node_id, False)

    def _ensure_private_graph(self) -> None:
        """Copy the (possibly shared) graph before the channel mutates it."""
        if not self._owns_graph:
            self.graph = self.graph.copy()
            self._owns_graph = True

    def add_node(self, node_id: NodeId, position, neighbors=None) -> None:
        """Add a node to the channel's connectivity view.

        When ``neighbors`` is omitted the node is auto-wired to every *alive*
        node within ``comm_range`` (via a grid-hash range query rather than a
        scan of all positions): linking through a dead node would let a later
        resurrection inherit connectivity the radio never had.
        """
        if node_id in self.graph:
            raise ValueError(f"node {node_id} already present")
        self._ensure_private_graph()
        self.graph.add_node(node_id)
        self.positions[node_id] = (float(position[0]), float(position[1]))
        if neighbors is None:
            if self.comm_range is None:
                raise ValueError("neighbors required when comm_range is unset")
            here = self.positions[node_id]
            grid = SpatialHash(self.positions, cell_size=self.comm_range)
            for other in grid.query(here, self.comm_range, exclude=node_id):
                if self._alive.get(other):
                    self.graph.add_edge(node_id, other)
        else:
            for other in neighbors:
                self.graph.add_edge(node_id, other)
        self._alive[node_id] = True

    def update_topology(self, topology: Topology) -> None:
        """Adopt new positions/links after node movement (mobility scenarios).

        The node set must be unchanged: mobility moves nodes, it never adds
        or removes them (use :meth:`add_node` / :meth:`set_alive` for
        that).  Liveness flags and registered receivers are preserved --
        only who-can-hear-whom changes.  The new graph is adopted by
        reference (copy-on-write, see ``__init__``).
        """
        if set(topology.graph.nodes) != set(self.graph.nodes):
            raise ValueError(
                "update_topology requires the same node set; "
                "use add_node/set_alive for membership changes"
            )
        self.graph = topology.graph
        self._owns_graph = False
        self.positions = dict(topology.positions)
        self.comm_range = topology.comm_range

    def neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Alive one-hop neighbours of ``node_id``."""
        if node_id not in self.graph:
            return []
        return sorted(n for n in self.graph.neighbors(node_id) if self._alive.get(n))

    @property
    def num_links(self) -> int:
        """Links between currently-alive nodes."""
        # Not graph.edges: its cached view points back at the graph, a cycle.
        alive = self._alive
        return sum(
            1
            for a, nbrs in self.graph._adj.items()
            if alive.get(a)
            for b in nbrs
            if a <= b and alive.get(b)
        )

    # -- transmission -----------------------------------------------------------

    def broadcast(
        self,
        sender: NodeId,
        frame: Any,
        kind: str,
        payload_bytes: int = 32,
    ) -> int:
        """One-hop MAC broadcast from ``sender``.

        Charges the sender one transmission; every alive neighbour whose
        reception survives the loss draw is charged one reception when the
        frame is delivered (whether or not the neighbour's protocol cares
        about the frame), exactly matching the paper's flooding cost
        accounting.

        Returns the number of receptions scheduled (loss already applied).
        """
        return self._transmit(sender, BROADCAST, frame, kind, payload_bytes)

    def unicast(
        self,
        sender: NodeId,
        dest: NodeId,
        frame: Any,
        kind: str,
        payload_bytes: int = 32,
    ) -> int:
        """Unicast from ``sender`` to a one-hop neighbour ``dest``.

        Charges one transmission and (at delivery) one reception.  Returns 1
        when a reception was scheduled, 0 if the frame was dropped at
        transmit time (dead node, missing link, channel loss).
        """
        validate_node_id(dest)
        return self._transmit(sender, dest, frame, kind, payload_bytes)

    # -- internals ----------------------------------------------------------------

    def _transmit(
        self,
        sender: NodeId,
        dest: NodeId,
        frame: Any,
        kind: str,
        payload_bytes: int,
    ) -> int:
        validate_node_id(sender)
        alive = self._alive
        if sender not in self.graph:
            raise KeyError(f"unknown sender {sender}")
        if not alive.get(sender):
            self.stats.drops_dead_node += 1
            return 0

        if dest == BROADCAST:
            targets = [n for n in self.graph.neighbors(sender) if alive.get(n)]
            self.stats.broadcasts += 1
            if self.metrics.enabled:
                self.metrics.observe("channel.fanout", len(targets))
        else:
            if not self.graph.has_edge(sender, dest):
                self.stats.drops_no_link += 1
                # The transmission still happens (and is still paid for); it
                # simply reaches nobody, as on a real radio.
                targets = []
            elif not alive.get(dest):
                self.stats.drops_dead_node += 1
                targets = []
            else:
                targets = [dest]
            self.stats.unicasts += 1

        tx_cost = self.energy_model.transmit_cost(payload_bytes, len(targets))
        self.ledger.node(sender).charge_tx(kind, tx_cost)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now,
                "channel.tx",
                sender,
                dest=dest,
                kind=kind,
                targets=len(targets),
            )

        if targets and self.loss_probability > 0.0:
            # One vectorised draw per transmission; numpy's Generator yields
            # the same stream as per-target random() calls, so lossy runs
            # stay bit-identical to the per-receiver event formulation.
            draws = self.rng.random(len(targets))
            survivors = [
                target
                for target, draw in zip(targets, draws)
                if draw >= self.loss_probability
            ]
            self.stats.drops_loss += len(targets) - len(survivors)
            targets = survivors
        if targets:
            self._schedule_delivery(sender, targets, frame, kind, payload_bytes)
        return len(targets)

    def _schedule_delivery(
        self,
        sender: NodeId,
        targets: List[NodeId],
        frame: Any,
        kind: str,
        payload_bytes: int,
    ) -> None:
        """Schedule one batched delivery event for a transmission's fan-out.

        Reception energy is charged here, per target, at delivery time: a
        target that died while the frame was in flight is counted as
        ``drops_dead_node`` and never charged, keeping the ledger and the
        delivery stats consistent.
        """
        rx_cost = self.energy_model.receive_cost(payload_bytes)
        if not self.batched_delivery:
            # Reference formulation: one event per receiver, in the same
            # order the batched event walks them.  Both paths must yield
            # bit-identical results (guarded by the determinism tests).
            for target in targets:
                self._schedule_single_delivery(sender, target, frame, kind, rx_cost)
            return

        def deliver() -> None:
            alive = self._alive
            receivers = self._receivers
            stats = self.stats
            tracer = self.tracer
            ledger = self.ledger
            ledger_nodes = ledger._nodes
            rx_key = ("rx", kind)
            now = self.sim.now
            traced = tracer.enabled
            for target in targets:
                if not alive.get(target):
                    stats.drops_dead_node += 1
                    continue
                # Inlined ledger.node(target).charge_rx(kind, rx_cost): one
                # reception is charged per frame per alive target, and this
                # loop runs for every reception of a trial.
                node_ledger = ledger_nodes.get(target)
                if node_ledger is None:
                    node_ledger = ledger.node(target)
                entry = node_ledger._entries[rx_key]
                entry.count += 1
                entry.cost += rx_cost
                receiver = receivers.get(target)
                if receiver is None:
                    continue
                stats.deliveries += 1
                if traced:
                    tracer.record(
                        now, "channel.rx", target, sender=sender, kind=kind
                    )
                receiver(sender, frame)

        label = self._delivery_labels.get(kind)
        if label is None:
            label = self._delivery_labels[kind] = f"deliver[{kind}]"
        self.sim.schedule_after(
            self.propagation_delay,
            deliver,
            priority=EventPriority.MAC,
            label=label,
        )

    def _schedule_single_delivery(
        self, sender: NodeId, target: NodeId, frame: Any, kind: str, rx_cost: float
    ) -> None:
        """Unbatched reference delivery of one frame to one target."""

        def deliver() -> None:
            if not self._alive.get(target):
                self.stats.drops_dead_node += 1
                return
            self.ledger.node(target).charge_rx(kind, rx_cost)
            receiver = self._receivers.get(target)
            if receiver is None:
                return
            self.stats.deliveries += 1
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "channel.rx", target, sender=sender, kind=kind
                )
            receiver(sender, frame)

        self.sim.schedule_after(
            self.propagation_delay,
            deliver,
            priority=EventPriority.MAC,
            label=f"deliver[{kind}] {sender}->{target}",
        )
