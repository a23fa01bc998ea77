"""The benchmark's workloads and the op each one repeats.

Every workload is a campaign expansion (registry scenarios x protocol
variants x replicates, at a fixed epoch count, from the workload seed), so
its trials carry the same cache keys whichever front end runs them.  One op
has two parts:

* **cold** -- the trials are simulated.  The three simulation workloads
  drive ``ExperimentRunner(config).build()`` / ``.run()`` in this process,
  timing each call of each trial with ``time.process_time``; the campaign
  workload runs
  ``run_missing`` into a fresh store and cache at ``nproc`` (at most 2)
  process workers, timed in wall time.
* **warm** -- the same trial keys are requested again under new campaign
  names, so every trial is served from the result cache and recorded in
  the store, and nothing is simulated.  Each round is timed on its own.

An op fails if it raises, if an invariant checked from outside breaks, or
if a trial does not reproduce the fingerprint the run's warm-up computed
for the same key.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import os
import resource
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.experiments import paper_network
from repro.experiments.batch import BatchRunner, TrialResult, TrialSpec
from repro.experiments.campaign import CampaignSpec, run_missing
from repro.experiments.headline import sweep_specs
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultsStore
from repro.metrics.cost import compare_costs
from spans import NullTracer


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign expansion plus how an op runs it."""

    name: str
    scenarios: Tuple[str, ...]
    protocols: Tuple[str, ...]
    num_epochs: int
    replicates: int = 1
    #: True: cold trials run in this process through ExperimentRunner.
    #: False: cold trials run through run_missing on a process pool.
    in_process: bool = True
    #: Warm campaigns per op, each serving every trial of the expansion.
    warm_rounds: int = 20

    def campaign(self, seed: int, name: str) -> CampaignSpec:
        return CampaignSpec(
            name=name,
            scenarios=self.scenarios,
            protocols=self.protocols,
            replicates=self.replicates,
            num_epochs=self.num_epochs,
            seed=seed,
        )

    def trial_specs(self, seed: int) -> List[TrialSpec]:
        return self.campaign(seed, self.name).trial_specs()


#: Why each workload is here, and which layers it loads, is recorded in
#: BENCHMARK.json; the sizes below keep one op between ~2 and ~4 seconds
#: on a 2-vCPU host so every run takes several ops.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's §7 experiment: DirQ with ATC, then flooding, same seed.
        Workload("paper-headline", ("static-paper",), ("atc", "flooding"), 2000, warm_rounds=50),
        # 5 000 static nodes: engine heap, LMAC start-up and channel fan-out.
        Workload("scale-5000", ("scale-5000",), ("dirq",), 10, warm_rounds=8),
        # 500 nodes, 30 % mobile: the only workload with real tree maintenance.
        Workload("scale-500-mobile", ("scale-500-mobile",), ("dirq",), 100, warm_rounds=40),
        # Pool dispatch, pickling, cache and store: the orchestration layers.
        Workload(
            "campaign",
            ("churn-revive", "mobile-40", "bursty-20"),
            ("dirq", "atc", "flooding"),
            400,
            replicates=2,
            in_process=False,
            warm_rounds=30,
        ),
    )
}


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fingerprint(result: TrialResult) -> str:
    return result.fingerprint(include_key=False)


@dataclasses.dataclass
class Op:
    """Measurements, checks and digest of one op."""

    trials: int = 0
    epochs: int = 0
    build_wall: float = 0.0
    cold_wall: float = 0.0
    worker_cpu: float = 0.0
    #: Wall seconds of each warm round (every trial key served once).
    warm_round_walls: List[float] = dataclasses.field(default_factory=list)
    trial_walls: List[float] = dataclasses.field(default_factory=list)
    #: In-process trials: build and run CPU seconds, by trial key.
    build_by_key: Dict[str, float] = dataclasses.field(default_factory=dict)
    run_by_key: Dict[str, float] = dataclasses.field(default_factory=dict)
    cached: int = 0
    requested: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    fingerprints: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Exact simulated statistics, summed over the op's cold trials.
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    cost_ratio: Optional[float] = None
    #: ``instrument="metrics"`` counters summed over the cold trials.
    telemetry: Dict[str, float] = dataclasses.field(default_factory=dict)

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def digest(self) -> Dict[str, object]:
        """Fingerprint over every trial plus the exact counts (no timings)."""
        combined = hashlib.sha256(
            "".join(f"{k}:{v};" for k, v in sorted(self.fingerprints.items())).encode()
        ).hexdigest()
        out: Dict[str, object] = {"fingerprint": combined, **self.counts}
        if self.cost_ratio is not None:
            out["cost_ratio"] = self.cost_ratio
        return out


def check_world(world, result) -> List[str]:
    """Conservation invariants of one finished trial, checked from outside."""
    problems = []
    rx = world.ledger.total_count("rx")
    deliveries = world.channel.stats.deliveries
    if rx != deliveries:
        problems.append(f"ledger rx count {rx} != channel deliveries {deliveries}")
    if len(world.audit.records) != result.num_queries:
        problems.append(
            f"{len(world.audit.records)} audit records != {result.num_queries} queries"
        )
    channel_alive = {n for n in world.topology.node_ids if world.channel.is_alive(n)}
    if set(world.alive) != channel_alive:
        problems.append(
            f"alive set ({len(world.alive)}) != channel alive set ({len(channel_alive)})"
        )
    return problems


def _headline_ratio(results: List[TrialResult]) -> Optional[float]:
    """DirQ/flooding total cost on the same workload, when the op has both."""
    by_protocol = {str(r.spec.tags.get("protocol")): r for r in results}
    flooding = by_protocol.get("flooding")
    dirq = by_protocol.get("atc") or by_protocol.get("dirq")
    if flooding is None or dirq is None or len(results) != 2:
        return None
    return compare_costs(
        dirq_ledger=dirq.ledger,
        flooding_reference=flooding.breakdown.flood_cost,
        num_queries=flooding.num_queries,
        flooding_is_total=True,
    ).ratio


class Bench:
    """Runs ops of one workload at one seed inside a private directory."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.workers = workers()
        self.specs = workload.trial_specs(seed)
        self.reference: Dict[str, str] = {}
        self._ops = 0
        if workload.name == "paper-headline":
            # The op is exactly the pairing of the headline experiment.
            base = paper_network(num_epochs=workload.num_epochs, seed=seed)
            if [s.key for s in self.specs] != [s.key for s in sweep_specs(base)]:
                raise RuntimeError("paper-headline specs differ from headline.sweep_specs")

    # -- warm-up -------------------------------------------------------------

    def warm_up(self) -> None:
        """One untimed op; fixes the reference fingerprints of every key.

        For the in-process workloads it runs the trials through
        ``run_missing`` at one worker, which also fills the result cache
        that every op's warm part serves from.
        """
        if self.workload.in_process:
            with ResultsStore(self.run_dir / "warmup.sqlite") as store:
                results: List[TrialResult] = []
                run_missing(
                    self.workload.campaign(self.seed, "warmup"),
                    store,
                    BatchRunner(max_workers=1, cache_dir=self.run_dir / "cache"),
                    progress=results.append,
                )
            self.reference = {r.spec.key: fingerprint(r) for r in results}
        else:
            op = self.op()
            if op.problems:
                raise RuntimeError("warm-up op failed: " + "; ".join(op.problems))
            self.reference = dict(op.fingerprints)

    # -- set-up --------------------------------------------------------------

    def setup_round(self) -> Dict[str, float]:
        """CPU seconds of ``build()`` of one trial of each distinct cell, by key."""
        times: Dict[str, float] = {}
        for spec in self.specs:
            if spec.tags.get("replicate", 0):
                continue
            gc.collect()
            runner = ExperimentRunner(copy.deepcopy(spec.config))
            start = process_time()
            runner.build()
            times[spec.key] = process_time() - start
            del runner
        return times

    # -- one op --------------------------------------------------------------

    def op(self, tracer=None, instrument: Optional[str] = None) -> Op:
        tracer = tracer or NullTracer()
        self._ops += 1
        op_dir = self.run_dir / f"op{self._ops}"
        op = Op()
        with tracer.span("op"):
            if self.workload.in_process:
                cache = self.run_dir / "cache"
                with tracer.span("harness.cold"):
                    self._cold_in_process(op, instrument)
            else:
                cache = op_dir / "cache"
                with tracer.span("batch.cold"):
                    self._cold_campaign(op, op_dir, cache)
            with tracer.span("batch.warm"):
                self._warm(op, op_dir, cache)
        for key, value in op.fingerprints.items():
            expected = self.reference.get(key, value)  # the warm-up op sets it
            if expected != value:
                op.problems.append(f"trial {key} fingerprint {value[:12]} != {str(expected)[:12]}")
        return op

    def _cold_in_process(self, op: Op, instrument: Optional[str]) -> None:
        results = []
        for spec in self.specs:
            config = copy.deepcopy(spec.config)
            if instrument:
                config = config.replace(instrument=instrument)
            gc.collect()
            runner = ExperimentRunner(config)
            wall = perf_counter()
            start = process_time()
            runner.build()
            built = process_time()
            op.build_wall += perf_counter() - wall
            result = runner.run()
            done = process_time()
            op.trial_walls.append(perf_counter() - wall)
            op.build_by_key[spec.key] = built - start
            op.run_by_key[spec.key] = done - built
            op.trials += 1
            op.epochs += config.num_epochs
            world = runner.world
            op.problems.extend(f"{spec.label}: {p}" for p in check_world(world, result))
            trial = TrialResult.from_experiment(spec, result)
            op.fingerprints[spec.key] = fingerprint(trial)
            op.add_count("events", world.sim.executed)
            op.add_count("deliveries", world.channel.stats.deliveries)
            op.add_count(
                "updates_sent",
                sum(getattr(p, "updates_sent", 0) for p in world.protocols.values()),
            )
            op.add_count("queries", result.num_queries)
            op.add_count("relinks", result.num_relinks)
            op.add_count("samples", world.sampling.count())
            telemetry = (result.telemetry or {}).get("metrics", {}).get("counters", {})
            for name, value in telemetry.items():
                op.telemetry[name] = op.telemetry.get(name, 0) + value
            results.append(trial)
            del runner, world, result
        op.cold_wall = sum(op.trial_walls)
        op.cost_ratio = _headline_ratio(results)

    def _cold_campaign(self, op: Op, op_dir: Path, cache: Path) -> None:
        spec = self.workload.campaign(self.seed, "cold")
        results: List[TrialResult] = []
        with ResultsStore(op_dir / "campaigns.sqlite") as store:
            gc.collect()
            cpu = children_cpu()
            start = perf_counter()
            stats = run_missing(
                spec,
                store,
                BatchRunner(max_workers=self.workers, cache_dir=cache),
                progress=results.append,
            )
            op.cold_wall = perf_counter() - start
            op.worker_cpu = children_cpu() - cpu
            rows = store.count(spec.campaign_id)
            exported = store.export_jsonable(spec.campaign_id)["completed_trials"]
        op.trials = len(results)
        op.epochs = sum(r.config.num_epochs for r in results)
        op.requested += stats.total
        op.cached += stats.cached
        if stats.executed != spec.total_trials or rows != spec.total_trials:
            op.problems.append(
                f"cold campaign executed {stats.executed}, stored {rows}, "
                f"expected {spec.total_trials}"
            )
        if exported != spec.total_trials:
            op.problems.append(f"export holds {exported} of {spec.total_trials} trials")
        for r in results:
            op.trial_walls.append(r.runtime_seconds)
            op.fingerprints[r.spec.key] = fingerprint(r)
            if len(r.audit.records) != r.num_queries:
                op.problems.append(f"{r.label}: audit records != queries")
            op.add_count("queries", r.num_queries)
            op.add_count("relinks", r.num_relinks)
            op.add_count("rx", r.ledger.total_count("rx"))

    def _warm(self, op: Op, op_dir: Path, cache: Path) -> None:
        """Serve every trial key again under ``warm_rounds`` new campaigns.

        Each round starts from a collected heap and its results are dropped
        once checked, so one round's garbage does not slow the next.
        """
        ids = []
        with ResultsStore(op_dir / "campaigns.sqlite") as store:
            for k in range(self.workload.warm_rounds):
                spec = self.workload.campaign(self.seed, f"warm-{k}")
                results: List[TrialResult] = []
                gc.collect()
                start = perf_counter()
                stats = run_missing(
                    spec,
                    store,
                    BatchRunner(max_workers=self.workers, cache_dir=cache),
                    progress=results.append,
                )
                op.warm_round_walls.append(perf_counter() - start)
                op.requested += stats.total
                op.cached += stats.cached
                ids.append(spec.campaign_id)
                if stats.executed or len(results) != len(self.specs):
                    op.problems.append(
                        f"warm campaign {k} simulated {stats.executed} and served "
                        f"{len(results)} of {len(self.specs)} trials"
                    )
                # The first round's results against the cold ones of the same
                # key; every later round is checked through its store rows.
                for r in results if k == 0 else ():
                    if fingerprint(r) != op.fingerprints.get(r.spec.key):
                        op.problems.append(f"warm result {r.spec.key} differs from the cold one")
                del results
            stored = [
                {row["key"]: row["fingerprint"] for row in store.query(cid)} for cid in ids
            ]
        # A row's fingerprint is computed from the result the round served.
        expected = {s.key for s in self.specs}
        for k, rows in enumerate(stored):
            if set(rows) != expected:
                op.problems.append(f"warm campaign {k} stored {len(rows)} of {len(expected)} rows")
            elif rows != stored[0]:
                op.problems.append(f"warm campaign {k} served other results than round 0")
