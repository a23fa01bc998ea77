"""Experiment configuration.

One :class:`ExperimentConfig` describes a complete simulation campaign: the
deployment (topology, sensors), the workload (query coverage, injection
period), the protocol under test (DirQ with fixed δ or ATC, or flooding),
and any scripted topology dynamics.  The defaults reproduce the paper's §7
setup: 50 nodes including one root, 4 correlated sensor types, a query
every 20 epochs, 20 000 epochs (scaled down for the benchmark harness).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from ..core.config import DirQConfig, ThresholdMode
from ..network.addresses import NodeId
from ..scenarios.spec import ScenarioConfig


class ProtocolName:
    """Which dissemination protocol an experiment runs."""

    DIRQ = "dirq"
    FLOODING = "flooding"

    ALL = (DIRQ, FLOODING)


@dataclasses.dataclass
class TopologyEvent:
    """A scripted topology change applied at a given epoch."""

    epoch: int
    kind: str  # "kill" or "activate"
    node_id: NodeId

    KILL = "kill"
    ACTIVATE = "activate"

    def __post_init__(self) -> None:
        if self.kind not in (self.KILL, self.ACTIVATE):
            raise ValueError(f"unknown topology event kind {self.kind!r}")
        if self.epoch < 0:
            raise ValueError("event epoch must be non-negative")


@dataclasses.dataclass
class ExperimentConfig:
    """Full description of one simulation run.

    Attributes
    ----------
    num_nodes:
        Total nodes including the root (the paper uses 50).
    comm_range, area_size:
        Unit-disk deployment parameters.
    seed:
        Master seed; all random streams derive from it.
    num_epochs:
        Length of the run (the paper uses 20 000; benchmarks scale this
        down).
    query_period:
        Epochs between query injections (paper: 20).
    target_coverage:
        Desired fraction of nodes involved per query (paper: 0.2/0.4/0.6).
    query_sensor_type:
        Restrict queries to a single sensor type; ``None`` draws uniformly.
    protocol:
        ``"dirq"`` or ``"flooding"``.
    dirq:
        DirQ protocol configuration (ignored for flooding).
    sensor_types:
        Sensor types to generate; defaults to the standard four.
    sensors_per_node:
        ``None`` mounts every type on every node (the paper's setting);
        an integer ``k`` mounts a random subset of ``k`` types per node
        (heterogeneous networks, Fig. 4); an explicit mapping node -> list
        of types gives full control.
    phenomena_specs:
        Optional overrides of the synthetic phenomena
        (:class:`~repro.sensors.types.SensorTypeSpec` per type name); the
        calibrated defaults of :func:`~repro.sensors.types.default_type_specs`
        are used otherwise.
    window_epochs:
        Metrics window (Fig. 6/7 use 100 epochs).
    epochs_per_day:
        Length of the diurnal cycle in the synthetic phenomena.
    channel_loss:
        Per-reception loss probability (0 = the paper's ideal channel;
        1 = the "all receptions fail" ablation).
    mac_beacon_interval, mac_death_threshold, slots_per_frame:
        LMAC parameters.
    topology_events:
        Scripted node deaths / activations.
    scenario:
        Optional dynamic-scenario bundle (churn, mobility, time-varying
        traffic, heterogeneous energy budgets); ``None`` reproduces the
        paper's static behaviour exactly.  When set, its parameters are
        part of the config hash; when unset the field is omitted from the
        hash payload so pre-scenario cache keys stay valid.
    initially_dead:
        Nodes present in the dataset and topology but switched off at t=0
        (they can be activated later to model post-deployment additions).
    send_responses:
        Whether source nodes send responses (excluded from cost figures).
    trace:
        Enable the structured tracer (tests/examples only; benchmarks keep
        it off).
    instrument:
        Observability level (see :mod:`repro.obs`): ``None`` (off),
        ``"metrics"`` (counters/histograms harvested into the trial's
        ``telemetry`` payload), or ``"full"`` (metrics + phase profiler +
        tracer).  **Hash-exempt**: flipping it never changes a
        ``config_hash``, cache key, or fingerprint -- instrumentation
        observes a trial, it never defines one.
    """

    #: Fields that postdate the original hash scheme: each is omitted from
    #: the canonical hash payload while ``None`` (see
    #: ``repro.experiments.batch._canonical``), so pre-existing configs
    #: keep their cache keys.  ``neighbor_method`` / ``tree_repair`` /
    #: ``phenomena_method`` select implementation strategies that are
    #: bit-identical in their defaults, but a config that pins one
    #: explicitly must hash differently so A/B runs never alias in the
    #: result cache.
    HASH_OMIT_WHEN_UNSET = (
        "scenario",
        "neighbor_method",
        "tree_repair",
        "phenomena_method",
    )

    #: Fields *always* excluded from the canonical hash payload, whatever
    #: their value (contrast HASH_OMIT_WHEN_UNSET, which only elides the
    #: ``None`` default).  ``instrument`` selects how much the obs layer
    #: records about a trial; the trial itself is bit-identical either
    #: way, so instrumented and uninstrumented runs must share cache keys
    #: and fingerprints.  Each entry needs a matching
    #: ``ClassName.field`` line in ``repro.experiments.batch.HASH_EXEMPT``
    #: (reprolint RL210 / RL505 enforce the pairing).
    HASH_EXCLUDE = ("instrument",)

    num_nodes: int = 50
    comm_range: float = 30.0
    area_size: float = 100.0
    seed: int = 1
    num_epochs: int = 2_000
    query_period: int = 20
    target_coverage: float = 0.4
    query_sensor_type: Optional[str] = None
    protocol: str = ProtocolName.DIRQ
    dirq: DirQConfig = dataclasses.field(default_factory=DirQConfig)
    sensor_types: Optional[Sequence[str]] = None
    sensors_per_node: Optional[object] = None
    phenomena_specs: Optional[Dict[str, object]] = None
    window_epochs: int = 100
    epochs_per_day: int = 2_000
    channel_loss: float = 0.0
    mac_beacon_interval: float = 10.0
    mac_death_threshold: int = 3
    slots_per_frame: int = 32
    topology_events: List[TopologyEvent] = dataclasses.field(default_factory=list)
    initially_dead: Set[NodeId] = dataclasses.field(default_factory=set)
    scenario: Optional[ScenarioConfig] = None
    send_responses: bool = False
    trace: bool = False
    root_id: NodeId = 0
    #: Unit-disk connectivity strategy: ``None`` (= "spatial", the grid
    #: hash) or "brute" (reference O(n^2) all-pairs).  Bit-identical
    #: topologies either way; the flag exists for A/B tests and profiling.
    neighbor_method: Optional[str] = None
    #: Spanning-tree maintenance on mobility re-links: ``None``
    #: (= "incremental" repair when the current tree is BFS-canonical) or
    #: "full" (rebuild from scratch every re-link).  Bit-identical trees.
    tree_repair: Optional[str] = None
    #: Phenomena synthesis: ``None`` (= "exact" dense-Cholesky Gaussian
    #: field) or "lowrank" (random-Fourier-feature approximation, the only
    #: tractable option at thousands of nodes).  Unlike the other two
    #: flags, "lowrank" draws a *different* (approximate) field, so it is
    #: never a silent default.
    phenomena_method: Optional[str] = None
    #: Observability level: ``None`` (off), "metrics", or "full".  Listed
    #: in HASH_EXCLUDE above -- never part of hashes or fingerprints.
    instrument: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2 (a root plus at least one node)")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.query_period < 1:
            raise ValueError("query_period must be >= 1")
        if not (0.0 < self.target_coverage <= 1.0):
            raise ValueError("target_coverage must be in (0, 1]")
        if self.protocol not in ProtocolName.ALL:
            raise ValueError(
                f"protocol must be one of {ProtocolName.ALL}, got {self.protocol!r}"
            )
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        if not (0.0 <= self.channel_loss <= 1.0):
            raise ValueError("channel_loss must be in [0, 1]")
        if self.root_id in self.initially_dead:
            raise ValueError("the root cannot start dead")
        if self.neighbor_method not in (None, "spatial", "brute"):
            raise ValueError(
                "neighbor_method must be None, 'spatial', or 'brute', "
                f"got {self.neighbor_method!r}"
            )
        if self.tree_repair not in (None, "incremental", "full"):
            raise ValueError(
                "tree_repair must be None, 'incremental', or 'full', "
                f"got {self.tree_repair!r}"
            )
        if self.phenomena_method not in (None, "exact", "lowrank"):
            raise ValueError(
                "phenomena_method must be None, 'exact', or 'lowrank', "
                f"got {self.phenomena_method!r}"
            )
        if self.instrument not in (None, "metrics", "full"):
            raise ValueError(
                "instrument must be None, 'metrics', or 'full', "
                f"got {self.instrument!r}"
            )

    # -- convenience constructors ------------------------------------------------

    def with_fixed_delta(self, delta_percent: float) -> "ExperimentConfig":
        """Copy of this config running DirQ with a fixed threshold."""
        return dataclasses.replace(
            self,
            protocol=ProtocolName.DIRQ,
            dirq=self.dirq.replace(
                threshold_mode=ThresholdMode.FIXED, delta_percent=delta_percent
            ),
        )

    def with_atc(self, target_cost_ratio: Optional[float] = None) -> "ExperimentConfig":
        """Copy of this config running DirQ with Adaptive Threshold Control."""
        changes = {"threshold_mode": ThresholdMode.ADAPTIVE}
        if target_cost_ratio is not None:
            changes["atc_target_cost_ratio"] = target_cost_ratio
        return dataclasses.replace(
            self, protocol=ProtocolName.DIRQ, dirq=self.dirq.replace(**changes)
        )

    def with_flooding(self) -> "ExperimentConfig":
        """Copy of this config running the flooding baseline."""
        return dataclasses.replace(self, protocol=ProtocolName.FLOODING)

    def with_scenario(self, scenario: Optional[ScenarioConfig]) -> "ExperimentConfig":
        """Copy of this config with the given dynamic scenario (or none)."""
        return dataclasses.replace(self, scenario=scenario)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


def paper_defaults(
    num_epochs: int = 20_000,
    target_coverage: float = 0.4,
    seed: int = 1,
) -> ExperimentConfig:
    """The paper's §7 configuration (full 20 000-epoch run by default)."""
    return ExperimentConfig(
        num_nodes=50,
        num_epochs=num_epochs,
        query_period=20,
        target_coverage=target_coverage,
        seed=seed,
    )
