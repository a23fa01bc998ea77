"""DirQ protocol logic for a regular (non-root) node -- paper §4.

Each epoch a node samples every sensor it carries, maintains its Range
Tables (equations (1)–(2), Figs. 1–2), and transmits an Update Message to
its parent whenever the aggregated range moved by more than the threshold δ
(Fig. 3).  Queries arriving from the parent are evaluated against the local
Range Tables and forwarded only to the children whose advertised ranges
overlap the queried interval, which is what makes the dissemination
*directed* instead of a flood.

Topology dynamics (§4.2) are handled through the MAC layer's cross-layer
notifications: when LMAC reports that a child died, its entries are removed
from every Range Table and any resulting range change propagates up the
tree; when the tree is repaired around a dead parent, the experiment runner
re-installs the node's tree links and the node re-advertises its ranges to
its new parent.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..mac.crosslayer import CrossLayerEvent, NeighborFound, NeighborLost
from ..mac.lmac import LMACProtocol
from ..network.addresses import NodeId
from ..network.node import SensorNode
from ..simulation.engine import Simulator
from .atc import AdaptiveThresholdController
from .config import DirQConfig
from .messages import (
    ESTIMATE_KIND,
    QUERY_KIND,
    RESPONSE_KIND,
    UPDATE_KIND,
    EstimateMessage,
    QueryResponse,
    RangeQuery,
    UpdateMessage,
)
from .protocol import DisseminationProtocol
from .range_table import RangeTableSet


class DirQNode(DisseminationProtocol):
    """DirQ instance on one node.

    Parameters
    ----------
    sim, node, mac, audit:
        See :class:`~repro.core.protocol.DisseminationProtocol`.
    config:
        Protocol configuration (threshold mode, δ, hour length, ...).
    send_responses:
        When True, source nodes send a :class:`QueryResponse` back towards
        the root.  Disabled by default because data extraction is outside
        the paper's scope and its cost is not part of any reproduced figure.
    """

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        config: DirQConfig,
        audit=None,
        send_responses: bool = False,
    ):
        super().__init__(sim, node, mac, audit)
        self.config = config
        self.tables = RangeTableSet(node.node_id)
        self.send_responses = send_responses
        self.atc: Optional[AdaptiveThresholdController] = (
            AdaptiveThresholdController(config, node.sensor_types)
            if config.adaptive
            else None
        )
        # Statistics the experiments read off each node.
        self.updates_sent = 0
        self.updates_suppressed = 0
        self.queries_received = 0
        self.queries_forwarded = 0
        self.estimates_relayed = 0
        self.responses_sent = 0
        self.current_epoch = 0
        self._last_estimate_hour = -1
        # Per-epoch iteration cache: (sensor_type, sensor, table, fixed δ)
        # tuples for every mounted sensor, rebuilt only when the sensor
        # suite, the table set, or the configured threshold changes (see
        # _refresh_epoch_entries).
        self._epoch_entries = None
        self._epoch_sensors_version = -1
        self._epoch_tables_version = -1
        self._epoch_delta_percent: Optional[float] = None
        mac.crosslayer.subscribe(self._on_crosslayer_event)

    # ------------------------------------------------------------------
    # Threshold handling
    # ------------------------------------------------------------------

    def current_delta(self, sensor_type: str) -> float:
        """Absolute threshold δ currently in force for ``sensor_type``."""
        if self.atc is not None:
            return self.atc.delta_absolute(sensor_type)
        return self.config.absolute_delta(sensor_type)

    def current_delta_percent(self, sensor_type: str) -> float:
        """Threshold in percent of full scale (for reporting)."""
        if self.atc is not None:
            return self.atc.delta_percent(sensor_type)
        return self.config.delta_percent

    # ------------------------------------------------------------------
    # Epoch processing (sampling + range maintenance)
    # ------------------------------------------------------------------

    def _refresh_epoch_entries(self) -> None:
        """(Re)build the per-epoch iteration cache.

        For fixed-threshold runs the absolute δ per sensor type is
        pre-resolved here; adaptive (ATC) runs re-derive it every epoch
        since the controller moves it between windows.
        """
        node = self.node
        tables = self.tables
        cfg = self.config
        fixed = self.atc is None
        entries = []
        for sensor_type, sensor in node.sensors_sorted():
            table = tables.table(sensor_type, create=True)
            delta = self.current_delta(sensor_type) if fixed else 0.0
            entries.append((sensor_type, sensor, table, delta))
        self._epoch_entries = entries
        self._epoch_sensors_version = node.sensors_version
        self._epoch_tables_version = tables.version
        self._epoch_delta_percent = cfg.delta_percent

    def on_epoch(self, epoch: int) -> None:
        """Sample all local sensors and run the update trigger (Fig. 1-3).

        This is the per-node reference form of DirQ's epoch tick.  Trials
        run :class:`repro.experiments.columnar.ColumnarTick`, which is
        bit-identical to calling this on every alive node in id order;
        unit tests and the per-node oracle in ``tests/differential/``
        call it directly.  The Fig. 1 containment test and the Fig. 3
        "no update due" memo are checked inline before falling back to the
        full :meth:`RangeTable.observe_reading` / :meth:`_maybe_send_update`
        machinery; the inline checks are bit-identical to the slow path.
        """
        if not self.alive:
            return
        self.current_epoch = epoch
        atc = self.atc
        cfg = self.config
        entries = self._epoch_entries
        if (
            entries is None
            or self._epoch_sensors_version != self.node.sensors_version
            or self._epoch_tables_version != self.tables.version
            or (atc is None and self._epoch_delta_percent != cfg.delta_percent)
        ):
            self._refresh_epoch_entries()
            entries = self._epoch_entries
        for sensor_type, sensor, table, delta in entries:
            reading = sensor.sample(epoch)
            if type(reading) is not float:
                reading = float(reading)
            if atc is not None:
                atc.on_reading(sensor_type, reading)
                delta = atc.delta_absolute(sensor_type)
            own = table.own_entry
            if (
                own is not None
                and own.min_threshold <= reading <= own.max_threshold
            ):
                # Fig. 1: the reading is inside the own range -- no table
                # mutation.  If the trigger already evaluated to "no update"
                # for this table state and δ, nothing can have changed.
                memo = table._no_update_memo
                if (
                    memo is not None
                    and memo[0] == table._version
                    and memo[1] == delta
                ):
                    self.updates_suppressed += 1
                    continue
            else:
                table.observe_reading(reading, delta)
            self._maybe_send_update(sensor_type, epoch, table=table, delta=delta)
        if atc is not None and epoch > 0 and epoch % cfg.atc_window_epochs == 0:
            atc.end_window()

    # ------------------------------------------------------------------
    # Update mechanism (upward range propagation)
    # ------------------------------------------------------------------

    def _maybe_send_update(
        self,
        sensor_type: str,
        epoch: int,
        table=None,
        delta: Optional[float] = None,
    ) -> None:
        if table is None:
            table = self.tables.table(sensor_type)
            if table is None:
                return
        if delta is None:
            delta = self.current_delta(sensor_type)
        aggregate = table.pending_update(delta)
        if aggregate is None:
            self.updates_suppressed += 1
            return
        table.mark_transmitted(aggregate)
        if self.parent is None:
            # The root keeps its own aggregate current but has nobody to
            # report to.
            return
        message = UpdateMessage(
            sender=self.node_id,
            sensor_type=sensor_type,
            min_threshold=aggregate[0],
            max_threshold=aggregate[1],
            epoch=epoch,
        )
        self.mac.send(
            self.parent, message, UPDATE_KIND, self.config.update_payload_bytes
        )
        self.updates_sent += 1
        if self.atc is not None:
            self.atc.on_update_sent()
        self.sim.tracer.record(
            self.now,
            "dirq.update",
            self.node_id,
            sensor_type=sensor_type,
            aggregate=aggregate,
        )

    def _send_removal(self, sensor_type: str, epoch: int) -> None:
        """Withdraw a sensor type from the parent (subtree no longer has it)."""
        if self.parent is None:
            return
        message = UpdateMessage(
            sender=self.node_id,
            sensor_type=sensor_type,
            min_threshold=0.0,
            max_threshold=0.0,
            epoch=epoch,
            removed=True,
        )
        self.mac.send(
            self.parent, message, UPDATE_KIND, self.config.update_payload_bytes
        )
        self.updates_sent += 1
        if self.atc is not None:
            self.atc.on_update_sent()

    def readvertise(self, epoch: Optional[int] = None) -> int:
        """Force a fresh Update Message for every non-empty table.

        Used after the node is re-parented (tree repair) so the new parent
        learns the ranges of the re-attached subtree.  Returns the number of
        updates sent.
        """
        epoch = self.current_epoch if epoch is None else epoch
        sent = 0
        for table in self.tables.tables():
            aggregate = table.aggregate()
            if aggregate is None or self.parent is None:
                continue
            table.mark_transmitted(aggregate)
            message = UpdateMessage(
                sender=self.node_id,
                sensor_type=table.sensor_type,
                min_threshold=aggregate[0],
                max_threshold=aggregate[1],
                epoch=epoch,
            )
            self.mac.send(
                self.parent, message, UPDATE_KIND, self.config.update_payload_bytes
            )
            self.updates_sent += 1
            sent += 1
            if self.atc is not None:
                self.atc.on_update_sent()
        return sent

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_payload(self, sender: NodeId, payload) -> None:
        if isinstance(payload, UpdateMessage):
            self._handle_update(sender, payload)
        elif isinstance(payload, RangeQuery):
            self._handle_query(sender, payload)
        elif isinstance(payload, EstimateMessage):
            self._handle_estimate(sender, payload)
        elif isinstance(payload, QueryResponse):
            self._handle_response(sender, payload)

    # -- updates from children ------------------------------------------------

    def _handle_update(self, sender: NodeId, message: UpdateMessage) -> None:
        # Range Tables are created lazily on the first update mentioning a
        # sensor type, which is how new sensor types introduced after
        # deployment propagate towards the root (paper §1, §4.1 / Fig. 4).
        table = self.tables.table(message.sensor_type, create=True)
        if message.removed:
            table.remove_child(sender)
            if table.is_empty:
                # The whole subtree (including this node) lost the type.
                self.tables.drop(message.sensor_type)
                self._send_removal(message.sensor_type, message.epoch)
                return
        else:
            table.update_child(
                sender, message.min_threshold, message.max_threshold
            )
        self._maybe_send_update(message.sensor_type, message.epoch)

    # -- queries from the parent -------------------------------------------------

    def _handle_query(self, sender: NodeId, query: RangeQuery) -> None:
        self.queries_received += 1
        self.record_query_receipt(query.query_id)
        self.sim.tracer.record(
            self.now, "dirq.query_received", self.node_id, query_id=query.query_id
        )
        self._evaluate_and_forward(query)

    def _evaluate_and_forward(self, query: RangeQuery) -> None:
        """Source check + directed forwarding to overlapping children."""
        table = self.tables.table(query.sensor_type)
        if table is None:
            return
        if table.own_entry is not None and query.overlaps(
            table.own_entry.min_threshold, table.own_entry.max_threshold
        ):
            self.record_source_claim(query.query_id)
            if self.send_responses and self.parent is not None:
                response = QueryResponse(
                    query_id=query.query_id,
                    source=self.node_id,
                    sensor_type=query.sensor_type,
                    value=(
                        table.reference_reading
                        if table.reference_reading is not None
                        else 0.0
                    ),
                    epoch=self.current_epoch,
                )
                self.mac.send(self.parent, response, RESPONSE_KIND, 24)
                self.responses_sent += 1
        for child in self.children:
            entry = table.child_entry(child)
            if entry is None:
                continue
            if query.overlaps(entry.min_threshold, entry.max_threshold):
                self.mac.send(
                    child, query, QUERY_KIND, self.config.query_payload_bytes
                )
                self.queries_forwarded += 1

    # -- estimates from the root ---------------------------------------------------

    def _handle_estimate(self, sender: NodeId, message: EstimateMessage) -> None:
        if message.hour_index <= self._last_estimate_hour:
            return
        self._last_estimate_hour = message.hour_index
        if self.atc is not None:
            self.atc.on_estimate(message.node_update_budget)
        # Relay down the tree so every node receives the hourly estimate.
        for child in self.children:
            self.mac.send(
                child, message, ESTIMATE_KIND, self.config.estimate_payload_bytes
            )
            self.estimates_relayed += 1

    # -- responses travelling towards the root ---------------------------------------

    def _handle_response(self, sender: NodeId, response: QueryResponse) -> None:
        if self.parent is not None:
            self.mac.send(self.parent, response, RESPONSE_KIND, 24)

    # ------------------------------------------------------------------
    # Cross-layer topology adaptation (paper §4.2)
    # ------------------------------------------------------------------

    def _on_crosslayer_event(self, event: CrossLayerEvent) -> None:
        if not self.alive:
            return
        if isinstance(event, NeighborLost):
            self._handle_neighbor_lost(event)
        elif isinstance(event, NeighborFound):
            self._handle_neighbor_found(event)

    def _handle_neighbor_lost(self, event: NeighborLost) -> None:
        neighbor = event.neighbor_id
        self.sim.tracer.record(
            self.now, "dirq.neighbor_lost", self.node_id, neighbor=neighbor
        )
        if neighbor in self.children:
            self.children = [c for c in self.children if c != neighbor]
        # Drop whatever the dead neighbour ever advertised.  This must not be
        # conditioned on the current children list: if the tree was already
        # repaired around the failure, the neighbour is no longer a child but
        # its stale range entries would otherwise keep attracting queries.
        changed_types = self.tables.remove_child_everywhere(neighbor)
        for sensor_type in changed_types:
            table = self.tables.table(sensor_type)
            if table is not None and table.is_empty:
                self.tables.drop(sensor_type)
                self._send_removal(sensor_type, self.current_epoch)
            else:
                self._maybe_send_update(sensor_type, self.current_epoch)
        # Parent loss is repaired by the tree-maintenance machinery in the
        # experiment runner (a new parent is installed via set_tree_links and
        # the node re-advertises); nothing to do locally here.

    def _handle_neighbor_found(self, event: NeighborFound) -> None:
        self.sim.tracer.record(
            self.now, "dirq.neighbor_found", self.node_id, neighbor=event.neighbor_id
        )

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and examples
    # ------------------------------------------------------------------

    def table_snapshot(self) -> Dict[str, Optional[tuple]]:
        """Mapping sensor type -> current aggregate (for diagnostics)."""
        return {t.sensor_type: t.aggregate() for t in self.tables.tables()}

    def known_sensor_types(self) -> list[str]:
        """Sensor types this node believes exist in its subtree."""
        return self.tables.sensor_types
