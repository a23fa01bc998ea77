#!/usr/bin/env python
"""Topology dynamics: node death, cross-layer adaptation, and node addition.

The paper's §4.2 describes how DirQ adapts to topology changes using the
cross-layer notifications it receives from LMAC: when a neighbour's TDMA
slot goes silent, LMAC declares it dead and DirQ prunes the corresponding
Range Table entries and propagates the change up the tree; new nodes are
discovered the same way and folded into the tree.

This example scripts both events on the paper's 50-node network:

* at epoch 400 three nodes die simultaneously;
* at epoch 800 a node that was switched off at deployment time is powered on.

It then reports the query delivery quality (fraction of true source nodes
reached) in the phases before, between, and after the events, plus the
cross-layer notifications observed by the dead nodes' former parents.

Run with::

    python examples/topology_dynamics.py
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, TopologyEvent
from repro.experiments.runner import ExperimentRunner
from repro.mac.crosslayer import NeighborFound, NeighborLost
from repro.metrics.accuracy import delivery_completeness, mean_overshoot
from repro.metrics.report import format_table


FAILURES = [7, 19, 33]
ACTIVATION = 42
FAILURE_EPOCH = 400
ACTIVATION_EPOCH = 800
NUM_EPOCHS = 1_200


def main() -> None:
    config = ExperimentConfig(
        num_nodes=50,
        num_epochs=NUM_EPOCHS,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=11,
        initially_dead={ACTIVATION},
        topology_events=[
            *[
                TopologyEvent(epoch=FAILURE_EPOCH, kind=TopologyEvent.KILL, node_id=nid)
                for nid in FAILURES
            ],
            TopologyEvent(
                epoch=ACTIVATION_EPOCH, kind=TopologyEvent.ACTIVATE, node_id=ACTIVATION
            ),
        ],
        mac_beacon_interval=10.0,
        mac_death_threshold=3,
    ).with_atc()

    runner = ExperimentRunner(config)
    world = runner.build()
    tree_before = world.tree
    parents_of_victims = {nid: tree_before.parent_of(nid) for nid in FAILURES}
    seen = {nid: [] for nid in world.macs}
    for nid, mac in world.macs.items():
        mac.crosslayer.subscribe(seen[nid].append)

    print(
        f"Running {NUM_EPOCHS} epochs: nodes {FAILURES} die at epoch {FAILURE_EPOCH}, "
        f"node {ACTIVATION} joins at epoch {ACTIVATION_EPOCH}..."
    )
    result = runner.run()

    phases = [
        ("before failures", 0, FAILURE_EPOCH - 1),
        ("failures -> join", FAILURE_EPOCH + 100, ACTIVATION_EPOCH - 1),
        ("after join", ACTIVATION_EPOCH + 100, NUM_EPOCHS),
    ]
    rows = []
    for label, first, last in phases:
        records = result.audit.records_between(first, last)
        rows.append(
            (
                label,
                len(records),
                delivery_completeness(records),
                mean_overshoot(records),
            )
        )
    print()
    print(
        format_table(
            headers=["phase", "queries", "source completeness", "overshoot pp"],
            rows=rows,
            float_format="{:.3f}",
            title="Query delivery quality across topology changes",
        )
    )

    print()
    print("Cross-layer notifications observed by the dead nodes' former parents:")
    for victim, parent in parents_of_victims.items():
        lost = [
            e
            for e in seen[parent]
            if isinstance(e, NeighborLost) and e.neighbor_id == victim
        ]
        when = f"t={lost[0].time:.0f}" if lost else "never"
        print(f"  node {parent:2d} lost child {victim:2d}: reported by LMAC at {when}")

    found_anywhere = sum(
        1
        for events in seen.values()
        for e in events
        if isinstance(e, NeighborFound)
        and e.neighbor_id == ACTIVATION
        and e.time > ACTIVATION_EPOCH
    )
    print(
        f"  node {ACTIVATION} announced itself to {found_anywhere} neighbours after joining"
    )

    print()
    print(
        f"Tree size: {tree_before.num_nodes} nodes before, "
        f"{result.tree.num_nodes} after (3 dead, 1 added); "
        f"overall cost ratio vs flooding: {result.cost_ratio:.2f}"
    )


if __name__ == "__main__":
    main()
