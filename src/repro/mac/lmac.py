"""LMAC: lightweight TDMA medium access control.

This is the reproduction of the MAC substrate DirQ was implemented on top of
(van Hoesel & Havinga, reference [2] of the paper): a schedule-based MAC in
which every node owns one transmit slot per frame, elected in a fully
distributed way so that no two nodes within two hops share a slot.

The properties DirQ relies on, and which this implementation provides, are:

* **Neighbour discovery.**  Control beacons transmitted in a node's own slot
  let its neighbours learn of its existence and of the slots occupied around
  it.
* **Collision-free slot ownership.**  A node elects a slot that is free
  within its two-hop occupancy view; collisions caused by simultaneous
  election are detected from later beacons and resolved by the higher-id
  node re-electing.
* **Death detection with cross-layer notification.**  When a neighbour's
  beacons stop arriving for ``death_threshold`` consecutive beacon periods,
  LMAC declares it dead and publishes :class:`~repro.mac.crosslayer.
  NeighborLost` on the node's cross-layer bus; new neighbours similarly
  produce :class:`~repro.mac.crosslayer.NeighborFound`.  DirQ subscribes to
  these events to prune / extend its Range Tables (paper §4.2).
* **Payload transport.**  The upper layer sends unicast or broadcast
  payloads through :meth:`LMACProtocol.send`; they are carried in the next
  owned slot (modelled as a small fixed latency) and delivered to the
  destination's upper-layer handler.

Timing model
------------
The paper's metrics are message counts, not latencies, so this
implementation does not simulate every slot of every frame (which would be
prohibitively slow for 20 000-epoch runs in pure Python).  Instead, beacons
are emitted every ``beacon_interval`` epochs and payload transmissions are
sent immediately with a sub-epoch MAC access delay.  Slot ownership,
two-hop-free election, collision resolution and death detection are all
faithfully modelled; only the idle slots in between are elided.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..network.addresses import BROADCAST, NodeId
from ..network.channel import WirelessChannel
from ..network.links import NeighborTable
from ..simulation.engine import Simulator
from ..simulation.process import SimProcess
from .crosslayer import CrossLayerBus, NeighborFound, NeighborLost
from .frames import MAC_CONTROL_KIND, ControlSection, MACFrame
from .schedule import DEFAULT_SLOTS_PER_FRAME, SlotSchedule

UpperLayerHandler = Callable[[NodeId, Any], None]
"""Upper-layer receive hook: ``(sender_id, payload) -> None``."""


class _BeaconTarget:
    """One receiver's slice of a cached fast-beacon delivery plan.

    Full rows (``_BeaconPlan.rows``) are validated steady-state LMAC
    receivers; charge-only rows (``_BeaconPlan.charge``) are targets with
    no registered receiver and use only ``target``/``rx_entry``.  All
    referenced objects are identity-stable in the steady state, so
    per-tick revalidation is identity and version checks only.
    """

    __slots__ = (
        "target",
        "callback",
        "steady_get",
        "token",
        "schedule",
        "version",
        "first_hop",
        "slot_of",
        "timers_get",
        "entry",
        "counters",
        "sequences",
        "rx_entry",
    )


class _BeaconPlan:
    """Cached fast-beacon delivery plan for one sender (see _try_fast_beacon).

    ``dead`` holds targets that were dead at build time (free while dead;
    revival invalidates the plan), so ``targets`` -- and with it the
    per-beacon transmit cost -- is a plan constant.
    """

    __slots__ = (
        "graph",
        "degree",
        "slot",
        "occ",
        "rows",
        "charge",
        "dead",
        "targets",
        "tx_entry",
        "tx_cost",
        "rx_cost",
    )


class LMACProtocol(SimProcess):
    """LMAC instance running on one node.

    Parameters
    ----------
    sim:
        Simulation engine.
    channel:
        Shared wireless channel.
    node_id:
        Identifier of the node this MAC instance serves.
    rng:
        Random generator used for slot election tie-breaking.
    slots_per_frame:
        LMAC frame length.
    beacon_interval:
        Epochs between control beacons (the elided-frames coarsening knob).
    death_threshold:
        Consecutive missed beacons after which a neighbour is declared dead.
    crosslayer:
        Per-node cross-layer bus; a fresh one is created when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: WirelessChannel,
        node_id: NodeId,
        rng: Optional[np.random.Generator] = None,
        slots_per_frame: int = DEFAULT_SLOTS_PER_FRAME,
        beacon_interval: float = 10.0,
        death_threshold: int = 3,
        crosslayer: Optional[CrossLayerBus] = None,
    ):
        super().__init__(sim, name=f"lmac[{node_id}]")
        self.channel = channel
        self.node_id = node_id
        # Fallback is seeded from the node id, so even unmanaged
        # construction (unit tests, notebooks) is deterministic.
        if rng is None:
            rng = np.random.default_rng(node_id)  # reprolint: disable=RL104
        self.rng = rng
        self.schedule = SlotSchedule(node_id, slots_per_frame)
        self.neighbors = NeighborTable(node_id)
        self.crosslayer = crosslayer if crosslayer is not None else CrossLayerBus()
        self.beacon_interval = float(beacon_interval)
        self.death_threshold = int(death_threshold)
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if self.death_threshold < 1:
            raise ValueError("death_threshold must be >= 1")
        self._upper_handler: Optional[UpperLayerHandler] = None
        self._sequence = 0
        # Plain int counters harvested into obs metrics at trial end --
        # unconditional increments cost less than any enabled-check here.
        self.beacons_sent = 0
        self.slot_conflicts = 0
        self.slot_elections = 0
        self._last_sequence_seen: dict[NodeId, int] = {}
        self._beacons_since_heard: dict[NodeId, int] = {}
        self._ctrl_cache: Optional[ControlSection] = None
        #: Opt-in steady-state beacon batching (on for every DirQ trial).  When
        #: enabled, a beacon tick whose every observable effect is provably
        #: the steady-state bookkeeping applies those effects directly --
        #: no frame object, no delivery event, no per-receiver dispatch.
        #: See _try_fast_beacon for the eligibility proof obligations.
        self.fast_beacons = False
        self._beacon_plan: Optional[_BeaconPlan] = None
        # High-water mark of _beacons_since_heard after the last fast sweep
        # (None = unknown).  Counters only *decrease* between our ticks
        # (receptions reset them), so a low mark proves no neighbour can
        # reach the death threshold this tick without scanning them all.
        self._bsh_max: Optional[int] = None
        # Steady-state reception cache: sender -> (slot, occupied-slots
        # frozenset *object*, schedule version, neighbour entry).  A frame
        # whose control section matches the cached slot / occupancy object
        # while the schedule version is unchanged can skip the whole
        # neighbour-bookkeeping path -- see _on_channel_receive.
        self._steady: dict[NodeId, tuple] = {}
        self._mac_access_delay = 1e-4
        # Per-kind transmit labels, built once: send() runs for every frame
        # of a 20 000-epoch trial, so the label f-string is hoisted out.
        self._tx_labels: dict[str, str] = {}
        # Bound liveness check, saving one attribute hop per reception.
        self._channel_is_alive = channel.is_alive
        channel.register(node_id, self._on_channel_receive)

    # -- wiring -----------------------------------------------------------------

    def set_upper_handler(self, handler: UpperLayerHandler) -> None:
        """Install the upper-layer (DirQ / flooding) receive hook."""
        self._upper_handler = handler

    @property
    def own_slot(self) -> Optional[int]:
        return self.schedule.own_slot

    # -- lifecycle ----------------------------------------------------------------

    def on_start(self) -> None:
        """Elect an initial slot and start the periodic beacon timer."""
        self._elect_slot()
        # Desynchronise the first beacon slightly per node so that start-up
        # beacons do not all land on the same simulated instant.
        offset = float(self.rng.uniform(0.0, self.beacon_interval * 0.1))
        self.set_timer("beacon", offset + self._mac_access_delay, self._beacon_tick)

    def shutdown(self) -> None:
        """Stop all MAC activity (used when the node dies)."""
        self.cancel_all_timers()

    def wake(self) -> None:
        """(Re)start beaconing, e.g. for a node added after deployment.

        Safe to call on an already-running instance: the beacon timer is
        simply re-armed.
        """
        self._elect_slot()
        self.set_timer("beacon", self._mac_access_delay, self._beacon_tick)

    # -- sending ---------------------------------------------------------------------

    def send(
        self,
        destination: NodeId,
        payload: Any,
        kind: str,
        payload_bytes: int = 32,
    ) -> None:
        """Transmit an upper-layer payload in this node's next owned slot.

        ``destination`` may be a one-hop neighbour id or
        :data:`~repro.network.addresses.BROADCAST`.
        """
        if not self.channel.is_alive(self.node_id):
            return
        frame = MACFrame(
            source=self.node_id,
            destination=destination,
            control=self._control_section(),
            payload=payload,
            payload_kind=kind,
            payload_bytes=payload_bytes,
        )

        def transmit() -> None:
            if not self.channel.is_alive(self.node_id):
                return
            if destination == BROADCAST:
                self.channel.broadcast(self.node_id, frame, kind, payload_bytes)
            else:
                self.channel.unicast(self.node_id, destination, frame, kind, payload_bytes)

        # Waiting for the owned slot is modelled as a small constant latency.
        label = self._tx_labels.get(kind)
        if label is None:
            label = self._tx_labels[kind] = f"{self.name}.tx[{kind}]"
        self.sim.schedule_after(self._mac_access_delay, transmit, label=label)

    def broadcast(self, payload: Any, kind: str, payload_bytes: int = 32) -> None:
        """Convenience wrapper for a one-hop broadcast."""
        self.send(BROADCAST, payload, kind, payload_bytes)

    # -- beaconing and neighbourhood maintenance ----------------------------------------

    def _beacon_tick(self) -> None:
        if not self.channel.is_alive(self.node_id):
            return
        if not (self.fast_beacons and self._try_fast_beacon()):
            self._bsh_max = None
            self._emit_beacon()
            self._check_dead_neighbors()
        self.set_timer("beacon", self.beacon_interval, self._beacon_tick)

    def _try_fast_beacon(self) -> bool:
        """Apply one beacon tick's steady-state effects without a frame.

        Returns ``True`` when the whole tick (beacon emission, delivery to
        every receiver, and the dead-neighbour sweep) was applied directly;
        ``False`` demands the reference path.  Eligibility is conservative:
        the direct application is used only when it is provably
        bit-identical to emitting a real frame, which requires

        * a lossless channel (loss draws consume the channel RNG stream in
          transmission order) and a disabled tracer (the direct path emits
          no ``channel.tx``/``channel.rx`` records);
        * the delivery instant ``now + propagation_delay`` falling in the
          same runner processing window as ``now`` (the runner reads the
          ledger at the epoch's 0.5 / 0.95 / boundary checkpoints, so a
          reception charge must not migrate across one);
        * no neighbour about to be declared dead this tick (death publishes
          a cross-layer event whose exact simulated time matters);
        * every alive receiver being a plain LMAC stack in the steady state
          for this sender (valid fast-path cache entry, first-hop ownership
          intact -- i.e. the delivery would take the reception fast path);
        * no receiver's own beacon timer firing inside the propagation
          window (its dead-neighbour sweep must order with this delivery
          exactly as the event queue would order them).

        Under those conditions every effect of the tick is private
        per-(receiver, sender) state or epoch-aggregated accounting, so
        applying it at tick time instead of delivery time is unobservable.

        The per-receiver eligibility data is cached in a *beacon plan*
        (see :class:`_BeaconTarget`): in the steady state every object the
        checks dereference -- the receiver's bound method, its cached
        steady tuple, its schedule dicts, its ledger entry -- is identity
        stable, so each tick only revalidates identities and version
        counters instead of rebuilding the delivery list.
        """
        channel = self.channel
        if channel.loss_probability > 0.0 or channel.tracer.enabled:
            return False
        schedule = self.schedule
        slot = schedule.own_slot
        if slot is None:
            return False
        now = self.sim.clock.now
        prop = channel.propagation_delay
        frac = now - int(now)
        rx_frac = frac + prop
        if (
            (frac < 0.5 and rx_frac >= 0.5)
            or (frac < 0.95 and rx_frac >= 0.95)
            or rx_frac >= 1.0
        ):
            return False
        threshold = self.death_threshold
        bsh = self._beacons_since_heard
        bsh_get = bsh.get
        neighbor_entries = self.neighbors._entries
        bsh_max = self._bsh_max
        if bsh_max is None or bsh_max + 2 > threshold:
            # After the last sweep every counter was <= bsh_max; since then
            # they can only have been reset (receptions) or created at zero
            # (new neighbours), so bsh_max + 2 <= threshold proves the
            # sweep below cannot push any counter to the death threshold.
            for n in neighbor_entries:
                if bsh_get(n, 0) + 1 >= threshold:
                    return False
        occ = schedule.occupied_first_hop_frozen()
        nid = self.node_id
        graph = channel.graph
        plan = self._beacon_plan
        if (
            plan is None
            or plan.graph is not graph
            or plan.slot != slot
            or plan.occ is not occ
            or plan.degree != len(graph._adj[nid])
        ):
            plan = self._build_beacon_plan(graph, slot, occ)
            if plan is None:
                return False
        alive_get = channel._alive.get
        receivers_get = channel._receivers.get
        rx_deadline = now + prop
        # Any liveness or registration change among the planned targets
        # invalidates the plan (rare); in exchange the steady-state passes
        # below never re-derive the target count or re-check row kinds.
        for t in plan.dead:
            if alive_get(t):
                self._beacon_plan = None
                return False
        for row in plan.charge:
            t = row.target
            if not alive_get(t) or receivers_get(t) is not None:
                self._beacon_plan = None
                return False
        rows = plan.rows
        flips = None
        for row in rows:
            t = row.target
            if (
                not alive_get(t)
                or receivers_get(t) is not row.callback
                or row.steady_get(nid) is not row.token
                or row.schedule.version != row.version
            ):
                self._beacon_plan = None
                return False
            first_hop = row.first_hop
            current = first_hop.get(slot)
            if current != nid:
                # Two mutually-hidden neighbours sharing this slot alternate
                # ownership of the receiver's first-hop entry on every
                # beacon.  A pure owner flip (same recorded slot, entry
                # currently held by the other sharer) is exactly what
                # record_neighbor_slot would apply -- no frozen-view or
                # version invalidation -- so it is replayed on commit.
                if current is None or row.slot_of.get(nid) != slot:
                    self._beacon_plan = None
                    return False
                if flips is None:
                    flips = [first_hop]
                else:
                    flips.append(first_hop)
            handle = row.timers_get("beacon")
            if handle is not None:
                event = handle._event
                if not event.cancelled and event.time <= rx_deadline:
                    # Transient hazard: the plan itself is still valid.
                    return False

        # Eligible: commit the tick.  Sender-side effects happen at `now`,
        # exactly when _emit_beacon would apply them.
        if flips is not None:
            for first_hop in flips:
                first_hop[slot] = nid
        sequence = self._sequence + 1
        self._sequence = sequence
        self.beacons_sent += 1
        stats = channel.stats
        stats.broadcasts += 1
        if channel.metrics.enabled:
            channel.metrics.observe("channel.fanout", plan.targets)
        tx_entry = plan.tx_entry
        tx_entry.count += 1
        tx_entry.cost += plan.tx_cost
        rx_cost = plan.rx_cost
        rx_time = rx_deadline
        for row in plan.charge:
            rx_entry = row.rx_entry
            rx_entry.count += 1
            rx_entry.cost += rx_cost
        for row in rows:
            rx_entry = row.rx_entry
            rx_entry.count += 1
            rx_entry.cost += rx_cost
            entry = row.entry
            if rx_time > entry.last_heard:
                entry.last_heard = rx_time
            row.counters[nid] = 0
            row.sequences[nid] = sequence
        stats.deliveries += len(rows)
        # Dead-neighbour sweep: no counter reaches the threshold (checked
        # above), so the increment is the sweep's only effect.
        bsh_max = 0
        for n in neighbor_entries:
            v = bsh_get(n, 0) + 1
            bsh[n] = v
            if v > bsh_max:
                bsh_max = v
        self._bsh_max = bsh_max
        return True

    def _build_beacon_plan(self, graph, slot: int, occ) -> Optional["_BeaconPlan"]:
        """Validate every current receiver and snapshot the delivery plan.

        Returns ``None`` when some alive receiver is not in the steady
        state for this sender (so the reference path must run).  Dead
        graph neighbours get a sentinel entry: they cost nothing while
        dead, and their revival invalidates the plan so the rebuilt one
        can validate their fresh state.
        """
        channel = self.channel
        nid = self.node_id
        alive = channel._alive
        receivers = channel._receivers
        ledger = channel.ledger
        rx_key = ("rx", MAC_CONTROL_KIND)
        lmac_receive = LMACProtocol._on_channel_receive
        rows = []
        charge = []
        dead = []
        adjacency = graph._adj[nid]
        for t in adjacency:
            if not alive.get(t):
                # No ledger access: the reference path never charges a dead
                # target, so materialising its (zero) rx entry here would
                # perturb the per-kind energy breakdown.
                dead.append(t)
                continue
            row = _BeaconTarget()
            row.target = t
            row.rx_entry = ledger.node(t)._entries[rx_key]
            receiver = receivers.get(t)
            if receiver is None:
                charge.append(row)
                continue
            if getattr(receiver, "__func__", None) is not lmac_receive:
                return None
            mac = receiver.__self__
            cached = mac._steady.get(nid)
            sched = mac.schedule
            if (
                cached is None
                or cached[2] != sched.version
                or cached[1] is not occ
                or cached[0] != slot
            ):
                return None
            owner = sched._first_hop.get(slot)
            if owner != nid and (
                owner is None or sched._slot_of.get(nid) != slot
            ):
                return None
            row.callback = receiver
            row.steady_get = mac._steady.get
            row.token = cached
            row.schedule = sched
            row.version = sched.version
            row.first_hop = sched._first_hop
            row.slot_of = sched._slot_of
            row.timers_get = mac._timers.get
            row.entry = cached[3]
            row.counters = mac._beacons_since_heard
            row.sequences = mac._last_sequence_seen
            rows.append(row)
        plan = _BeaconPlan()
        plan.graph = graph
        plan.degree = len(adjacency)
        plan.slot = slot
        plan.occ = occ
        plan.rows = rows
        plan.charge = charge
        plan.dead = dead
        plan.targets = len(rows) + len(charge)
        plan.tx_entry = ledger.node(nid)._entries[("tx", MAC_CONTROL_KIND)]
        plan.tx_cost = channel.energy_model.transmit_cost(8, plan.targets)
        plan.rx_cost = channel.energy_model.receive_cost(8)
        self._beacon_plan = plan
        return plan

    def _emit_beacon(self) -> None:
        self._sequence += 1
        self.beacons_sent += 1
        frame = MACFrame(
            source=self.node_id,
            destination=BROADCAST,
            control=self._control_section(),
            payload=None,
            payload_kind=MAC_CONTROL_KIND,
            payload_bytes=8,
        )
        self.channel.broadcast(self.node_id, frame, MAC_CONTROL_KIND, 8)

    def _control_section(self) -> ControlSection:
        # ControlSection is immutable, so the same object is reused until
        # the slot, the occupancy view, or the beacon sequence changes.
        # Reuse also keeps the occupied-slots frozenset identity stable
        # across frames, which is what receivers' steady-state fast path
        # keys on.
        slot = self.schedule.own_slot
        occupied = self.schedule.occupied_first_hop_frozen()
        cached = self._ctrl_cache
        if (
            cached is not None
            and cached.slot == slot
            and cached.occupied_slots is occupied
            and cached.sequence == self._sequence
        ):
            return cached
        cached = ControlSection(
            slot=slot, occupied_slots=occupied, sequence=self._sequence
        )
        self._ctrl_cache = cached
        return cached

    def _check_dead_neighbors(self) -> None:
        """Increment missed-beacon counters and declare silent neighbours dead."""
        for neighbor in list(self.neighbors.neighbor_ids):
            missed = self._beacons_since_heard.get(neighbor, 0) + 1
            self._beacons_since_heard[neighbor] = missed
            if missed >= self.death_threshold:
                self._declare_dead(neighbor, missed)

    def _declare_dead(self, neighbor: NodeId, missed: int) -> None:
        self.neighbors.remove(neighbor)
        self.schedule.forget_neighbor(neighbor)
        self._beacons_since_heard.pop(neighbor, None)
        self._last_sequence_seen.pop(neighbor, None)
        self.sim.tracer.record(
            self.now, "lmac.neighbor_lost", self.node_id, neighbor=neighbor
        )
        self.crosslayer.publish(
            NeighborLost(
                node_id=self.node_id,
                neighbor_id=neighbor,
                time=self.now,
                missed_beacons=missed,
            )
        )

    # -- receiving -------------------------------------------------------------------------

    def _on_channel_receive(self, sender: NodeId, frame: Any) -> None:
        if not isinstance(frame, MACFrame):
            # Foreign traffic (e.g. the tree-setup protocol driving the
            # channel directly) is ignored by the MAC layer.
            return
        # No liveness re-check here: the channel's delivery loop verifies the
        # receiver is alive immediately before invoking this hook, and the
        # alive map cannot change within one delivery event (death happens
        # via runner epochs / scripted events, never inside a receiver).
        node_id = self.node_id
        control = frame.control
        cached = self._steady.get(sender)
        schedule = self.schedule
        slot = control.slot
        if (
            cached is not None
            and cached[2] == schedule.version
            and cached[1] is control.occupied_slots
            and cached[0] == slot
            and (slot is None or schedule._first_hop.get(slot) == sender)
        ):
            # Steady state: the sender re-announces the same slot and the
            # identical (cached, see occupied_first_hop_frozen) occupancy
            # set, nothing changed our own slot or neighbourhood since the
            # full path last ran for this sender, and the sender still owns
            # its first-hop map entry (two mutually-hidden neighbours can
            # share a slot and alternate that entry; each flip must run the
            # full path so the map history matches the brute sequence).
            # Every step of _observe_neighbor is then provably a no-op
            # except the three writes below.
            now = self.sim.clock.now
            entry = cached[3]
            if now > entry.last_heard:
                entry.last_heard = now
            self._beacons_since_heard[sender] = 0
            self._last_sequence_seen[sender] = control.sequence
        else:
            self._observe_neighbor(sender, control)
        if frame.payload is not None:
            destination = frame.destination
            if destination == node_id or destination == BROADCAST:
                if self._upper_handler is not None:
                    self._upper_handler(sender, frame.payload)

    def _observe_neighbor(self, sender: NodeId, control: ControlSection) -> None:
        now = self.sim.clock.now
        neighbors = self.neighbors
        is_new = sender not in neighbors
        entry = neighbors.observe(sender, now, slot=control.slot)
        self._beacons_since_heard[sender] = 0
        self._last_sequence_seen[sender] = control.sequence
        self.schedule.record_neighbor_slot(sender, control.slot)
        self.schedule.record_reported_occupancy(control.occupied_slots)
        if is_new:
            self.sim.tracer.record(
                now, "lmac.neighbor_found", self.node_id, neighbor=sender
            )
            self.crosslayer.publish(
                NeighborFound(
                    node_id=self.node_id,
                    neighbor_id=sender,
                    time=self.now,
                    slot=control.slot,
                )
            )
        self._resolve_slot_conflict(sender, control)
        schedule = self.schedule
        if control.slot != schedule.own_slot:
            # Cache this observation for the steady-state fast path.  A
            # control section claiming our own slot is never cached: the
            # conflict may have been left standing (lower id wins), and a
            # saturated re-election could even pick the same slot again --
            # both must re-run _resolve_slot_conflict on the next frame.
            self._steady[sender] = (
                control.slot,
                control.occupied_slots,
                schedule.version,
                entry,
            )
        else:
            self._steady.pop(sender, None)

    def _resolve_slot_conflict(self, sender: NodeId, control: ControlSection) -> None:
        """Re-elect if a neighbour claims our slot (lower id wins)."""
        if self.schedule.own_slot is None:
            self._elect_slot()
            return
        if control.slot == self.schedule.own_slot and sender != self.node_id:
            if self.node_id > sender:
                self.slot_conflicts += 1
                self.sim.tracer.record(
                    self.now,
                    "lmac.slot_conflict",
                    self.node_id,
                    slot=self.schedule.own_slot,
                    winner=sender,
                )
                self.schedule.release()
                self._elect_slot()

    def _elect_slot(self) -> None:
        """Claim a slot believed free within two hops (random among free)."""
        free = self.schedule.free_slots()
        if not free:
            # Saturated neighbourhood: fall back to a uniformly random slot;
            # conflicts will be resolved by the lower-id-wins rule.
            free = list(range(self.schedule.slots_per_frame))
        choice = int(free[int(self.rng.integers(0, len(free)))])
        self.slot_elections += 1
        self.schedule.claim(choice)
        self.sim.tracer.record(
            self.now, "lmac.slot_elected", self.node_id, slot=choice
        )
