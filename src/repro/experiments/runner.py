"""Experiment runner: builds the full stack and drives the epoch loop.

The runner is the reproduction's equivalent of the paper's OMNeT++
simulation campaign driver.  Given an :class:`~repro.experiments.config.
ExperimentConfig` it

1. builds the world -- topology, wireless channel with unit-cost ledger,
   synthetic spatio-temporally correlated dataset, sensors, LMAC instance
   per node, spanning tree, and a DirQ or flooding protocol instance per
   node;
2. drives the epoch loop -- per-epoch sensor sampling and range
   maintenance, hourly EHr estimates, query generation/injection on the
   paper's schedule, scripted topology events, and windowed metric
   collection;
3. returns an :class:`ExperimentResult` containing the audit (ground truth
   vs deliveries), the energy ledger, the Fig. 6 update series, and
   summary statistics, from which every reproduced figure is computed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import threading
from typing import Dict, Iterator, List, Optional, Set

import numpy as np

from ..core.analytical import flooding_cost_general
from ..core.config import DirQConfig
from ..core.dirq_node import DirQNode
from ..core.dirq_root import DirQRoot
from ..core.flooding import FloodingNode, FloodingRoot
from ..core.messages import QUERY_KIND, RangeQuery
from ..energy.battery import Battery
from ..energy.ledger import NetworkLedger
from ..mac.lmac import LMACProtocol
from ..metrics.accuracy import mean_accuracy, mean_overshoot
from ..metrics.audit import QueryAudit
from ..metrics.cost import CostBreakdown, cost_breakdown
from ..metrics.series import UpdateRateRecorder, WindowPoint
from ..network.addresses import NodeId
from ..network.channel import WirelessChannel
from ..network.node import SensorNode
from ..network.spanning_tree import SpanningTree, build_bfs_tree
from ..network.topology import Topology, random_geometric_topology
from ..obs.instrumentation import build_instrumentation
from ..scenarios.models import (
    ChurnModel,
    EnergyProfile,
    MobilityModel,
    TrafficProfile,
    rebuild_spanning_tree,
)
from ..sensors.dataset import SensorDataset
from ..sensors.sensor import SamplingCounter, Sensor
from ..sensors.types import DEFAULT_SENSOR_TYPES, default_type_specs
from ..simulation.engine import Simulator
from ..simulation.rng import RandomStreams
from ..workload.generator import QueryWorkloadGenerator
from ..workload.ground_truth import evaluate_query
from ..workload.injection import periodic_schedule
from ..workload.predictor import QueryRatePredictor
from .columnar import ColumnarTick
from .config import ExperimentConfig, ProtocolName, TopologyEvent


@dataclasses.dataclass
class ExperimentResult:
    """Everything measured during one simulation run."""

    config: ExperimentConfig
    audit: QueryAudit
    ledger: NetworkLedger
    tree: SpanningTree
    num_queries: int
    flooding_cost_per_query: float
    update_series: List[WindowPoint]
    breakdown: CostBreakdown
    per_query_costs: List[float]
    atc_delta_history: Dict[int, List[float]]
    alive_at_end: Set[NodeId]
    num_nodes: int
    #: Effective dynamic-scenario events (churn kills/revivals, battery
    #: deaths) as ``(epoch, kind, node_id)`` tuples, and the number of
    #: mobility re-link rounds; both stay empty/zero for static runs.
    scenario_events: List[tuple] = dataclasses.field(default_factory=list)
    num_relinks: int = 0
    #: Observability payload (metric snapshots / phase profile / trace
    #: summary), present only when the config enabled instrumentation or
    #: tracing.  Never hashed, never fingerprinted, never cached.
    telemetry: Optional[dict] = None

    # -- headline summaries ------------------------------------------------------

    @property
    def mean_overshoot_percent(self) -> float:
        return mean_overshoot(self.audit.records)

    @property
    def mean_accuracy(self) -> float:
        return mean_accuracy(self.audit.records)

    @property
    def total_dirq_cost(self) -> float:
        return self.breakdown.total_dirq_cost

    @property
    def total_flooding_cost(self) -> float:
        """Flooding cost of the same query load (measured for flooding runs,
        the eq. 3 reference otherwise)."""
        if self.config.protocol == ProtocolName.FLOODING:
            return self.breakdown.flood_cost
        return self.flooding_cost_per_query * self.num_queries

    @property
    def cost_ratio(self) -> float:
        """DirQ total cost as a fraction of flooding the same workload."""
        flooding = self.total_flooding_cost
        if flooding <= 0:
            return float("inf")
        return self.total_dirq_cost / flooding

    def updates_per_window(self) -> List[float]:
        return [p.value for p in self.update_series]


class SimulationWorld:
    """All live objects of one simulation (built by :class:`ExperimentRunner`)."""

    def __init__(self) -> None:
        self.sim: Simulator
        self.topology: Topology
        self.channel: WirelessChannel
        self.ledger: NetworkLedger
        self.dataset: SensorDataset
        self.tree: SpanningTree
        self.nodes: Dict[NodeId, SensorNode] = {}
        self.macs: Dict[NodeId, LMACProtocol] = {}
        self.protocols: Dict[NodeId, object] = {}
        self.audit = QueryAudit()
        self.sampling = SamplingCounter()
        self.sensor_owners: Dict[str, Set[NodeId]] = {}
        self.alive: Set[NodeId] = set()
        #: Scenario-assigned finite batteries (empty for static runs).
        self.batteries: Dict[NodeId, Battery] = {}


_collector_lock = threading.Lock()
_collector_depth = 0
_collector_was_enabled = False


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the duration of a trial.

    A trial's live object set grows by hundreds of thousands of objects
    (LMAC neighbour discovery at 5 000 nodes), and the generational
    collector would re-scan all of it each time it grows by a quarter.  The
    run path creates no cyclic garbage, so the pause costs no memory.
    Overlapping trials (thread executors) share one pause: the last to
    exit re-enables the collector, and only if it was enabled when the
    first began.
    """
    global _collector_depth, _collector_was_enabled
    with _collector_lock:
        if _collector_depth == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _collector_depth += 1
    try:
        yield
    finally:
        with _collector_lock:
            _collector_depth -= 1
            if _collector_depth == 0 and _collector_was_enabled:
                gc.enable()


class ExperimentRunner:
    """Builds and runs one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.world: Optional[SimulationWorld] = None
        # True while world.tree is exactly what a full sorted-BFS build
        # would produce for the current topology and the tree's own member
        # set -- the precondition for incremental repair on re-links.
        # Greedy maintenance (death repair, revival attachment) breaks
        # canonical form; every full or incremental rebuild restores it.
        self._tree_canonical = False

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def build(self) -> SimulationWorld:
        """Construct the full simulation world (idempotent)."""
        if self.world is None:
            # A finished world is cyclic (channel receivers hold bound MAC
            # methods) and, built with the collector paused, still young:
            # free the worlds of earlier trials before pausing again.
            gc.collect(1)
            with _collector_paused():
                self.world = self._build_world()
        return self.world

    def _build_world(self) -> SimulationWorld:
        cfg = self.config
        world = SimulationWorld()
        instrumentation = build_instrumentation(cfg)
        world.sim = Simulator(instrumentation=instrumentation)
        tracer = instrumentation.tracer

        # Topology and channel -------------------------------------------------
        world.topology = random_geometric_topology(
            num_nodes=cfg.num_nodes,
            comm_range=cfg.comm_range,
            area_size=cfg.area_size,
            rng=self.streams.get("topology"),
            root_id=cfg.root_id,
            method=cfg.neighbor_method,
        )
        world.ledger = NetworkLedger()
        world.channel = WirelessChannel(
            sim=world.sim,
            topology=world.topology,
            ledger=world.ledger,
            loss_probability=cfg.channel_loss,
            rng=self.streams.get("channel"),
            tracer=tracer,
            metrics=instrumentation.metrics,
        )

        # Dataset and sensors ---------------------------------------------------
        specs = dict(default_type_specs())
        if cfg.phenomena_specs:
            specs.update(cfg.phenomena_specs)
        wanted_types = list(cfg.sensor_types) if cfg.sensor_types else list(
            DEFAULT_SENSOR_TYPES
        )
        specs = {t: specs[t] for t in wanted_types if t in specs}
        missing = [t for t in wanted_types if t not in specs]
        if missing:
            raise KeyError(f"no spec available for sensor types {missing}")
        node_ids = world.topology.node_ids
        world.dataset = SensorDataset.generate(
            node_ids=node_ids,
            positions=world.topology.position_array(node_ids),
            num_epochs=cfg.num_epochs,
            rng=self.streams.get("phenomena"),
            specs=specs,
            epochs_per_day=cfg.epochs_per_day,
            spatial_method=cfg.phenomena_method or "exact",
        )

        # DirQ expresses δ in percent of the sensor type's full-scale range.
        # The nominal range from the type spec is preferred (so "δ = 3 %"
        # means the same thing regardless of run length); types without a
        # nominal range fall back to the empirical range of the generated
        # dataset.
        full_scale = {}
        for stype in world.dataset.sensor_types:
            spec = specs.get(stype)
            if spec is not None and spec.full_scale is not None:
                full_scale[stype] = float(spec.full_scale)
            else:
                lo, hi = world.dataset.value_range(stype)
                full_scale[stype] = max(1e-9, hi - lo)
        cfg.dirq.full_scale.update(full_scale)

        sensor_assignment = self._assign_sensors(node_ids, wanted_types)
        world.sensor_owners = {
            stype: {nid for nid, types in sensor_assignment.items() if stype in types}
            for stype in wanted_types
        }

        # Nodes, MAC, tree, protocols -----------------------------------------------
        world.tree = build_bfs_tree(world.topology, root=cfg.root_id)
        self._tree_canonical = True
        mac_rng = self.streams.get("mac")
        for nid in node_ids:
            node = SensorNode(
                nid, world.topology.position(nid), is_root=(nid == cfg.root_id)
            )
            for stype in sensor_assignment[nid]:
                node.attach_sensor(
                    Sensor(nid, stype, world.dataset, counter=world.sampling)
                )
            world.nodes[nid] = node
            world.macs[nid] = LMACProtocol(
                sim=world.sim,
                channel=world.channel,
                node_id=nid,
                # Seeded from the "mac" stream, so per-node generators stay
                # a pure function of the experiment seed.
                rng=np.random.default_rng(  # reprolint: disable=RL104
                    mac_rng.integers(0, 2**63)
                ),
                slots_per_frame=cfg.slots_per_frame,
                beacon_interval=cfg.mac_beacon_interval,
                death_threshold=cfg.mac_death_threshold,
            )

        for nid in node_ids:
            node, mac = world.nodes[nid], world.macs[nid]
            if cfg.protocol == ProtocolName.DIRQ:
                if nid == cfg.root_id:
                    proto = DirQRoot(
                        world.sim,
                        node,
                        mac,
                        cfg.dirq,
                        audit=world.audit,
                        predictor=QueryRatePredictor(
                            initial_estimate=cfg.dirq.epochs_per_hour / cfg.query_period
                        ),
                        send_responses=cfg.send_responses,
                    )
                else:
                    proto = DirQNode(
                        world.sim,
                        node,
                        mac,
                        cfg.dirq,
                        audit=world.audit,
                        send_responses=cfg.send_responses,
                    )
            else:
                if nid == cfg.root_id:
                    proto = FloodingRoot(world.sim, node, mac, audit=world.audit)
                else:
                    proto = FloodingNode(world.sim, node, mac, audit=world.audit)
            world.protocols[nid] = proto

        self._install_tree_links(world, world.tree)

        # Initial liveness --------------------------------------------------------
        world.alive = set(node_ids)
        # Sorted: two configs whose initially_dead sets compare equal can
        # still iterate in different orders (insertion history), and kill
        # order is observable through the audit log.
        for nid in sorted(cfg.initially_dead):
            self._apply_kill(world, nid, rebuild_tree=False)
        if cfg.initially_dead:
            world.tree = build_bfs_tree(
                self._alive_topology(world), root=cfg.root_id
            )
            self._tree_canonical = True
            self._install_tree_links(world, world.tree)

        # Heterogeneous energy budgets (scenario-driven).  Capacities come
        # from the dedicated "scenario-energy" stream, so assigning them
        # perturbs no draw of the static components.
        if cfg.scenario is not None and cfg.scenario.energy is not None:
            world.batteries = EnergyProfile(cfg.scenario.energy).batteries(
                node_ids, cfg.root_id, self.streams.get("scenario-energy")
            )

        # Start the MAC and application layers.
        for nid in node_ids:
            if nid in world.alive:
                world.macs[nid].start()
                world.protocols[nid].start()

        return world

    # -- helpers -------------------------------------------------------------------

    def _assign_sensors(
        self, node_ids: List[NodeId], types: List[str]
    ) -> Dict[NodeId, List[str]]:
        cfg = self.config
        assignment: Dict[NodeId, List[str]] = {}
        spec = cfg.sensors_per_node
        if spec is None:
            for nid in node_ids:
                assignment[nid] = list(types)
        elif isinstance(spec, int):
            if not (1 <= spec <= len(types)):
                raise ValueError(
                    f"sensors_per_node must be in [1, {len(types)}], got {spec}"
                )
            rng = self.streams.get("sensor-assignment")
            for nid in node_ids:
                chosen = rng.choice(len(types), size=spec, replace=False)
                assignment[nid] = sorted(types[i] for i in chosen)
            # The root keeps every type so queries of any type remain routable
            # through its tables once children advertise them.
            assignment[cfg.root_id] = list(types)
        elif isinstance(spec, dict):
            for nid in node_ids:
                given = spec.get(nid, types)
                unknown = [t for t in given if t not in types]
                if unknown:
                    raise ValueError(f"node {nid} assigned unknown types {unknown}")
                assignment[nid] = list(given)
        else:
            raise TypeError("sensors_per_node must be None, an int, or a mapping")
        return assignment

    def _alive_topology(self, world: SimulationWorld) -> Topology:
        topo = world.topology
        for nid in sorted(set(topo.node_ids) - world.alive):
            topo = topo.without_node(nid)
        return topo

    def _install_tree_links(self, world: SimulationWorld, tree: SpanningTree) -> None:
        for nid, proto in world.protocols.items():
            if nid in tree:
                proto.set_tree_links(tree.parent_of(nid), tree.children(nid))
            else:
                proto.set_tree_links(None, [])

    def _apply_kill(
        self, world: SimulationWorld, node_id: NodeId, rebuild_tree: bool = True
    ) -> None:
        if node_id == self.config.root_id:
            raise ValueError("the root cannot be killed")
        if node_id not in world.alive:
            return
        world.alive.discard(node_id)
        world.nodes[node_id].kill()
        world.channel.set_alive(node_id, False)
        world.macs[node_id].shutdown()
        if rebuild_tree and node_id in world.tree:
            # Greedy re-attachment is cheap but not BFS-canonical: the next
            # re-link must fall back to a full rebuild.
            self._tree_canonical = False
            repaired = world.tree.repair(node_id, world.channel.neighbors)
            reparented = [
                nid
                for nid in repaired.node_ids
                if nid in world.tree
                and world.tree.parent_of(nid) != repaired.parent_of(nid)
            ]
            world.tree = repaired
            self._install_tree_links(world, repaired)
            # Re-attached subtrees advertise their ranges to their new parents
            # so queries keep routing correctly (paper §4.2).
            for nid in reparented:
                proto = world.protocols[nid]
                if hasattr(proto, "readvertise"):
                    proto.readvertise()

    def _apply_activation(self, world: SimulationWorld, node_id: NodeId) -> None:
        if node_id in world.alive:
            return
        world.alive.add(node_id)
        # Reactivation models a battery swap / reboot: a node whose finite
        # budget was exhausted comes back with a fresh one, otherwise the
        # energy check would kill it again at the very next period.
        battery = world.batteries.get(node_id)
        if battery is not None:
            battery.recharge()
        world.nodes[node_id].revive()
        world.channel.set_alive(node_id, True)
        world.macs[node_id].start()
        world.macs[node_id].wake()
        world.protocols[node_id].start()
        # Attach to the alive neighbour closest to the root.
        candidates = [
            nb for nb in world.channel.neighbors(node_id) if nb in world.tree
        ]
        if candidates:
            candidates.sort(key=lambda nb: (world.tree.depth_of(nb), nb))
            # Greedy attachment, like death repair, leaves the tree
            # non-canonical until the next full or incremental rebuild.
            self._tree_canonical = False
            world.tree = world.tree.with_new_node(node_id, candidates[0])
            self._install_tree_links(world, world.tree)

    def _apply_relink(self, world: SimulationWorld, mobility: MobilityModel) -> None:
        """Advance mobile nodes one re-link period and repair the overlay.

        Positions move, unit-disk connectivity is re-derived, and the
        spanning tree is rebuilt deterministically over the alive nodes
        still reachable from the root (partitioned nodes drop out of the
        tree until a later re-link reconnects them).  Every node whose
        parent changed re-advertises its ranges so queries keep routing
        (paper §4.2), exactly as after a node death.
        """
        cfg = self.config
        moved = mobility.step()
        world.topology, dirty = world.topology.with_positions_delta(
            moved, method=cfg.neighbor_method
        )
        world.channel.update_topology(world.topology)
        old_tree = world.tree
        incremental = (
            self._tree_canonical and (cfg.tree_repair or "incremental") != "full"
        )
        world.tree = rebuild_spanning_tree(
            world.topology,
            world.alive,
            cfg.root_id,
            previous=old_tree if incremental else None,
            dirty=dirty if incremental else None,
        )
        self._tree_canonical = True
        self._install_tree_links(world, world.tree)
        for nid in world.tree.node_ids:
            if nid == self.config.root_id:
                continue
            if nid not in old_tree or old_tree.parent_of(nid) != world.tree.parent_of(nid):
                proto = world.protocols[nid]
                if hasattr(proto, "readvertise"):
                    proto.readvertise()

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------

    def _dirq_epoch_tick(self, world: SimulationWorld) -> ColumnarTick:
        """Build DirQ's epoch tick and turn on LMAC beacon batching.

        The columnar tick is bit-identical to calling
        :meth:`DirQNode.on_epoch` on every alive node in id order (see
        :mod:`repro.experiments.columnar`); steady-state beacon batching
        skips frame and delivery-event construction for provably
        identical beacon ticks (see ``LMACProtocol._try_fast_beacon``).
        """
        for mac in world.macs.values():
            mac.fast_beacons = True
        return ColumnarTick(world.dataset, self.config.dirq)

    def run(self) -> ExperimentResult:
        """Run the configured experiment and return its measurements."""
        with _collector_paused():
            return self._run()

    def _run(self) -> ExperimentResult:
        cfg = self.config
        world = self.build()
        sim = world.sim
        is_dirq = cfg.protocol == ProtocolName.DIRQ
        root = world.protocols[cfg.root_id]

        # Workload -------------------------------------------------------------------
        generator = QueryWorkloadGenerator(
            dataset=world.dataset,
            tree=world.tree,
            rng=self.streams.get("workload"),
            sensor_types=(
                [cfg.query_sensor_type] if cfg.query_sensor_type else None
            ),
            sensor_owners=world.sensor_owners,
        )
        generator.set_alive(world.alive)

        # Dynamic-scenario models.  Each draws from its own named stream,
        # so a scenario perturbs no draw of the static components and a
        # scenario trial is a pure function of its config.
        scenario = cfg.scenario
        traffic: Optional[TrafficProfile] = None
        if scenario is not None and scenario.traffic is not None:
            traffic = TrafficProfile(scenario.traffic)
            schedule = traffic.schedule(
                cfg.num_epochs, cfg.epochs_per_day, self.streams.get("scenario-traffic")
            )
        else:
            schedule = periodic_schedule(cfg.num_epochs, cfg.query_period)
        injections: Dict[int, int] = {}
        for epoch in schedule:
            injections[epoch] = injections.get(epoch, 0) + 1

        events_by_epoch: Dict[int, List[TopologyEvent]] = {}
        for event in cfg.topology_events:
            events_by_epoch.setdefault(event.epoch, []).append(event)

        # Churn: the whole death/reactivation timeline is pre-sampled, then
        # applied through the same kill/activate path as scripted events.
        scenario_events_by_epoch: Dict[int, List[TopologyEvent]] = {}
        if scenario is not None and scenario.churn is not None:
            churn_events = ChurnModel(scenario.churn).events(
                sorted(world.alive),
                cfg.root_id,
                cfg.num_epochs,
                self.streams.get("scenario-churn"),
                # Area-failure disc membership is evaluated on the
                # deployment positions; mobility later in the run does not
                # re-draw the blast.
                positions=world.topology.positions,
            )
            for epoch, kind, nid in churn_events:
                scenario_events_by_epoch.setdefault(epoch, []).append(
                    TopologyEvent(epoch=epoch, kind=kind, node_id=nid)
                )

        mobility: Optional[MobilityModel] = None
        if scenario is not None and scenario.mobility is not None:
            mobility = MobilityModel(scenario.mobility, cfg.area_size)
            mobility.initialise(
                world.topology.positions,
                cfg.root_id,
                self.streams.get("scenario-mobility"),
            )

        energy_cfg = scenario.energy if scenario is not None else None
        drained: Dict[NodeId, float] = {nid: 0.0 for nid in world.batteries}

        def activate(node_id: NodeId) -> None:
            """Reactivate a node, checkpointing its ledger for the fresh battery.

            Without the checkpoint, energy the node spent between the last
            energy check and its death would be debited from the *new*
            battery at the next check -- a battery swap must not inherit
            the old battery's tail spend.  Activating an already-alive node
            is a complete no-op (no recharge, no checkpoint): its unchanged
            battery still owes every unit since the last check.
            """
            if node_id in world.alive:
                return
            self._apply_activation(world, node_id)
            if node_id in drained:
                drained[node_id] = world.ledger.node(node_id).total_cost()

        applied_events: List[tuple] = []
        num_relinks = 0

        # Reference costs ---------------------------------------------------------------
        flooding_per_query = flooding_cost_general(
            len(world.alive), world.channel.num_links
        )
        if is_dirq:
            root.set_network_size(len(world.alive))
            root.set_flooding_cost(flooding_per_query)

        recorder = UpdateRateRecorder(world.ledger, cfg.window_epochs)
        per_query_costs: List[float] = []
        atc_history: Dict[int, List[float]] = {}
        num_queries = 0

        # Hot-loop caches.  The alive set only changes on scripted topology
        # events, so the sorted protocol list is rebuilt there instead of
        # re-sorting (and re-indexing the protocol dict) every epoch.  The
        # boundary drains go through Simulator.run_until, whose cached head
        # time makes the no-pending-events case O(1) -- the common case for
        # epochs without protocol traffic.
        run_until = sim.run_until
        alive_protocols = [
            world.protocols[nid] for nid in sorted(world.alive)
        ]
        epochs_per_hour = cfg.dirq.epochs_per_hour
        window_epochs = cfg.window_epochs

        # DirQ's epoch tick is columnar (one numpy pass per sensor type).
        # Flooding keeps no per-epoch state, so it keeps the plain
        # on_epoch loop below.
        dirq_tick: Optional[ColumnarTick] = None
        if is_dirq:
            dirq_tick = self._dirq_epoch_tick(world)
            dirq_tick.set_protocols(alive_protocols)

        # Phase profiling ("full" instrumentation only).  ``begin`` both
        # opens a phase and closes the previous one, so the loop below
        # needs no end() calls; the ``profiling`` guard keeps the
        # uninstrumented hot loop at one bool test per section.
        phases = sim.instrumentation.phases
        profiling = phases.enabled
        begin_phase = phases.begin

        for epoch in range(cfg.num_epochs):
            if profiling:
                begin_phase("mac")
            run_until(float(epoch))

            if profiling:
                begin_phase("scenario-hooks")
            topology_changed = False

            # Scripted topology dynamics (from the config).
            events_now = events_by_epoch.get(epoch)
            if events_now:
                for event in events_now:
                    if event.kind == TopologyEvent.KILL:
                        self._apply_kill(world, event.node_id)
                    else:
                        activate(event.node_id)
                topology_changed = True

            # Scenario churn events; only *effective* transitions (a kill of
            # an alive node, an activation of a dead one) are recorded as
            # scenario telemetry.
            scenario_now = scenario_events_by_epoch.get(epoch)
            if scenario_now:
                for event in scenario_now:
                    if event.kind == TopologyEvent.KILL:
                        if event.node_id in world.alive:
                            self._apply_kill(world, event.node_id)
                            applied_events.append(
                                (epoch, TopologyEvent.KILL, event.node_id)
                            )
                            topology_changed = True
                    elif event.node_id not in world.alive:
                        activate(event.node_id)
                        applied_events.append(
                            (epoch, TopologyEvent.ACTIVATE, event.node_id)
                        )
                        topology_changed = True

            # Mobility: advance positions and re-derive links and tree.
            if (
                mobility is not None
                and epoch > 0
                and epoch % scenario.mobility.relink_period == 0
            ):
                if profiling:
                    begin_phase("tree-repair")
                self._apply_relink(world, mobility)
                num_relinks += 1
                topology_changed = True
                if profiling:
                    begin_phase("scenario-hooks")

            # Heterogeneous energy: drain each battery by its node's ledger
            # cost since the last check; depletion kills the node exactly
            # like a scripted failure.
            if (
                world.batteries
                and epoch > 0
                and epoch % energy_cfg.check_period == 0
            ):
                for nid in sorted(world.alive):
                    if nid == cfg.root_id:
                        continue
                    battery = world.batteries.get(nid)
                    if battery is None:
                        continue
                    total = world.ledger.node(nid).total_cost()
                    delta = total - drained[nid]
                    if delta > 0:
                        drained[nid] = total
                        battery.draw(delta)
                    if battery.depleted:
                        self._apply_kill(world, nid)
                        applied_events.append((epoch, TopologyEvent.KILL, nid))
                        topology_changed = True

            if topology_changed:
                generator.set_tree(world.tree)
                generator.set_alive(world.alive)
                if is_dirq:
                    root.set_network_size(len(world.alive))
                    flooding_per_query = flooding_cost_general(
                        len(world.alive), world.channel.num_links
                    )
                    root.set_flooding_cost(flooding_per_query)
                alive_protocols = [
                    world.protocols[nid] for nid in sorted(world.alive)
                ]
                if dirq_tick is not None:
                    dirq_tick.set_protocols(alive_protocols)

            # Hourly EHr estimate (DirQ only).
            if is_dirq and epoch % epochs_per_hour == 0:
                if profiling:
                    begin_phase("protocol-tick")
                root.start_new_hour(epoch)

            # Per-epoch sensing and range maintenance.
            if profiling:
                begin_phase("sample")
            if dirq_tick is not None:
                dirq_tick.tick(epoch)
            else:
                for proto in alive_protocols:
                    proto.on_epoch(epoch)
            if profiling:
                begin_phase("channel")
            run_until(epoch + 0.5)

            # Query injections scheduled for this epoch.
            if profiling:
                begin_phase("protocol-tick")
            for _ in range(injections.get(epoch, 0)):
                target_coverage = (
                    traffic.coverage_at(epoch, cfg.num_epochs, cfg.target_coverage)
                    if traffic is not None
                    else cfg.target_coverage
                )
                generated = generator.generate(
                    epoch, target_coverage, cfg.query_sensor_type
                )
                query = generated.query
                sources, should = evaluate_query(
                    world.dataset,
                    world.tree,
                    query,
                    epoch,
                    world.sensor_owners,
                    world.alive,
                )
                world.audit.register_query(
                    query,
                    sources,
                    should,
                    epoch,
                    population=max(1, len(world.alive) - 1),
                )
                cost_kind = QUERY_KIND if is_dirq else "flood"
                before = world.ledger.total_cost([cost_kind])
                root.inject_query(query)
                if profiling:
                    begin_phase("channel")
                run_until(epoch + 0.95)
                if profiling:
                    begin_phase("protocol-tick")
                after = world.ledger.total_cost([cost_kind])
                per_query_costs.append(after - before)
                if is_dirq:
                    root.observe_query_cost(after - before)
                num_queries += 1

            # ATC telemetry (sampled once per window).
            if is_dirq and (epoch + 1) % window_epochs == 0:
                for proto in alive_protocols:
                    if getattr(proto, "atc", None) is not None:
                        stype = (
                            cfg.query_sensor_type
                            or world.dataset.sensor_types[0]
                        )
                        atc_history.setdefault(proto.node_id, []).append(
                            proto.atc.delta_percent(stype)
                        )

            # Fig. 6 window bookkeeping.
            if (epoch + 1) % window_epochs == 0:
                recorder.on_window_end(epoch + 1 - window_epochs)

        if profiling:
            begin_phase("channel")
        sim.run_until(float(cfg.num_epochs))
        if dirq_tick is not None:
            # Fold deferred suppression / sampling counters back into the
            # protocol objects before anything reads them.
            dirq_tick.finalize()
        if profiling:
            phases.end()

        instrumentation = sim.instrumentation
        telemetry: Optional[dict] = None
        if instrumentation.enabled:
            if instrumentation.metrics.enabled:
                self._harvest_metrics(
                    world,
                    num_epochs=cfg.num_epochs,
                    num_relinks=num_relinks,
                    num_scenario_events=len(applied_events),
                    num_queries=num_queries,
                )
            telemetry = {}
            if instrumentation.metrics.enabled:
                telemetry["metrics"] = instrumentation.metrics.snapshot()
            if instrumentation.phases.enabled:
                telemetry["phases"] = instrumentation.phases.snapshot()
            if instrumentation.tracer.enabled:
                telemetry["trace"] = instrumentation.tracer.summary()

        return ExperimentResult(
            config=cfg,
            audit=world.audit,
            ledger=world.ledger,
            tree=world.tree,
            num_queries=num_queries,
            flooding_cost_per_query=flooding_per_query,
            update_series=recorder.series,
            breakdown=cost_breakdown(world.ledger),
            per_query_costs=per_query_costs,
            atc_delta_history=atc_history,
            alive_at_end=set(world.alive),
            num_nodes=cfg.num_nodes,
            scenario_events=applied_events,
            num_relinks=num_relinks,
            telemetry=telemetry,
        )

    def _harvest_metrics(
        self,
        world: SimulationWorld,
        num_epochs: int,
        num_relinks: int,
        num_scenario_events: int,
        num_queries: int,
    ) -> None:
        """Fold every component's plain counters into the metrics registry.

        The components themselves never touch the registry: they keep
        unconditional int counters (cheaper than any enabled-check in
        their hot paths) which this harvest reads once per trial.  Node
        iteration is sorted so snapshots are order-stable regardless of
        dict insertion history.
        """
        metrics = world.sim.instrumentation.metrics
        sim = world.sim
        metrics.inc("engine.events_executed", sim.executed)
        metrics.inc("engine.events_cancelled", sim.cancelled_total)
        metrics.inc("engine.compactions", sim.compactions)
        stats = world.channel.stats
        metrics.inc("channel.broadcasts", stats.broadcasts)
        metrics.inc("channel.unicasts", stats.unicasts)
        metrics.inc("channel.deliveries", stats.deliveries)
        metrics.inc("channel.drops_loss", stats.drops_loss)
        metrics.inc("channel.drops_dead_node", stats.drops_dead_node)
        metrics.inc("channel.drops_no_link", stats.drops_no_link)
        for nid in sorted(world.macs):
            mac = world.macs[nid]
            metrics.inc("mac.beacons_sent", mac.beacons_sent)
            metrics.inc("mac.slot_conflicts", mac.slot_conflicts)
            metrics.inc("mac.slot_elections", mac.slot_elections)
            metrics.observe(
                "mac.slots_occupied", mac.schedule.occupancy_stats()["first_hop"]
            )
        for nid in sorted(world.protocols):
            proto = world.protocols[nid]
            tables = getattr(proto, "tables", None)
            if tables is not None:
                metrics.observe("dirq.table_entries", tables.total_entries())
            # Unrolled rather than looped over (attr, name) pairs: RL501
            # requires metric names to be string literals at the call site.
            if getattr(proto, "updates_sent", 0):
                metrics.inc("dirq.updates_sent", proto.updates_sent)
            if getattr(proto, "updates_suppressed", 0):
                metrics.inc("dirq.updates_suppressed", proto.updates_suppressed)
            if getattr(proto, "queries_received", 0):
                metrics.inc("dirq.queries_received", proto.queries_received)
            if getattr(proto, "queries_forwarded", 0):
                metrics.inc("dirq.queries_forwarded", proto.queries_forwarded)
        metrics.inc("runner.epochs", num_epochs)
        metrics.inc("runner.relinks", num_relinks)
        metrics.inc("runner.scenario_events", num_scenario_events)
        metrics.inc("runner.queries_injected", num_queries)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Convenience wrapper: build and run one experiment."""
    return ExperimentRunner(config).run()
