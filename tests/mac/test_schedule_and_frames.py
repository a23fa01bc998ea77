"""Tests for TDMA schedule bookkeeping, frames, and the cross-layer bus."""

import pytest

from repro.mac.crosslayer import CrossLayerBus, NeighborFound, NeighborLost
from repro.mac.frames import MAC_CONTROL_KIND, ControlSection, MACFrame
from repro.mac.schedule import SlotSchedule
from repro.network.addresses import BROADCAST


class TestSlotSchedule:
    def test_claim_and_release(self):
        sched = SlotSchedule(owner=1, slots_per_frame=8)
        sched.claim(3)
        assert sched.own_slot == 3
        sched.release()
        assert sched.own_slot is None

    def test_claim_out_of_range_rejected(self):
        sched = SlotSchedule(owner=1, slots_per_frame=8)
        with pytest.raises(ValueError):
            sched.claim(8)

    def test_neighbor_slot_tracking(self):
        sched = SlotSchedule(owner=0, slots_per_frame=8)
        sched.record_neighbor_slot(5, 2)
        assert sched.slot_owner(2) == 5
        # Neighbour moves to another slot: stale claim is dropped.
        sched.record_neighbor_slot(5, 6)
        assert sched.slot_owner(2) is None
        assert sched.slot_owner(6) == 5

    def test_free_slots_excludes_two_hop_occupancy(self):
        sched = SlotSchedule(owner=0, slots_per_frame=4)
        sched.claim(0)
        sched.record_neighbor_slot(1, 1)
        sched.record_reported_occupancy({2})
        assert sched.free_slots() == [3]
        assert sched.occupied_first_hop() == {0, 1}
        assert sched.occupied_anywhere() == {0, 1, 2}

    def test_conflict_detection(self):
        sched = SlotSchedule(owner=7, slots_per_frame=4)
        sched.claim(2)
        assert sched.conflicts_with_neighbor() is None
        sched.record_neighbor_slot(3, 2)
        assert sched.conflicts_with_neighbor() == 3

    def test_forget_neighbor_frees_slots(self):
        sched = SlotSchedule(owner=0, slots_per_frame=4)
        sched.record_neighbor_slot(9, 1)
        sched.record_reported_occupancy({2, 3})
        sched.forget_neighbor(9)
        assert sched.slot_owner(1) is None
        assert sched.free_slots() == [0, 1, 2, 3]

    def test_invalid_frame_length(self):
        with pytest.raises(ValueError):
            SlotSchedule(owner=0, slots_per_frame=0)


class TestFrames:
    def test_broadcast_and_payload_flags(self):
        control = ControlSection(slot=1, occupied_slots=frozenset({1}), sequence=3)
        beacon = MACFrame(source=1, destination=BROADCAST, control=control)
        assert beacon.is_broadcast
        assert not beacon.has_payload
        assert beacon.payload_kind == MAC_CONTROL_KIND

        data = MACFrame(
            source=1, destination=2, control=control, payload={"q": 1}, payload_kind="query"
        )
        assert not data.is_broadcast
        assert data.has_payload


class TestCrossLayerBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = CrossLayerBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.neighbor_id)))
        bus.subscribe(lambda e: seen.append(("b", e.neighbor_id)))
        bus.publish(NeighborLost(node_id=1, neighbor_id=9, time=2.0))
        assert seen == [("a", 9), ("b", 9)]

    def test_duplicate_subscription_ignored(self):
        bus = CrossLayerBus()
        seen = []
        cb = lambda e: seen.append(e)  # noqa: E731
        bus.subscribe(cb)
        bus.subscribe(cb)
        bus.publish(NeighborFound(node_id=0, neighbor_id=2, time=1.0, slot=4))
        assert len(seen) == 1

    def test_unsubscribe(self):
        bus = CrossLayerBus()
        seen = []
        cb = lambda e: seen.append(e)  # noqa: E731
        bus.subscribe(cb)
        assert bus.unsubscribe(cb) is True
        assert bus.unsubscribe(cb) is False
        bus.publish(NeighborLost(node_id=0, neighbor_id=1, time=0.0))
        assert seen == []

    def test_history_and_filtering(self):
        bus = CrossLayerBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(NeighborLost(node_id=0, neighbor_id=1, time=0.0))
        bus.publish(NeighborFound(node_id=0, neighbor_id=2, time=1.0, slot=3))
        assert len(seen) == 2
        assert len([e for e in seen if isinstance(e, NeighborLost)]) == 1
        assert [e for e in seen if isinstance(e, NeighborFound)][0].neighbor_id == 2
