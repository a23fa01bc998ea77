"""Columnar-vs-per-node A/B harness.

DirQ's columnar epoch tick is a pure implementation strategy: every
observable of a trial -- the cost breakdown, the per-window update series,
the query audit, the energy ledger down to per-(kind, direction) entries,
ATC's δ history, scenario telemetry -- must be *bit-identical* to the
per-node ``on_epoch`` loop, which lives on as the test oracle in
:mod:`tests.differential.oracle`.  This module is the single definition
of "identical": it runs both arms of a configuration and either returns
the list of observables that disagree (empty = equivalent) or asserts
equivalence with a per-observable diff.

The catch-all instrument is :meth:`TrialResult.fingerprint` with
``include_key=False``, the same digest the batch cache and the campaign
store use for bit-identity guarantees.  The granular comparisons exist so
a regression fails on the *first* observable that diverges, with both
values printed, instead of on an opaque digest.
"""

from __future__ import annotations

import contextlib
import copy
from typing import List, Tuple

from repro.experiments.batch import TrialResult, TrialSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

from tests.differential.oracle import per_node_oracle

#: The two arms: the per-node oracle (the reference) and the columnar tick
#: every trial runs.
PER_NODE = "per-node"
COLUMNAR = "columnar"


def run_arm(config: ExperimentConfig, arm: str) -> TrialResult:
    """Run one arm of the A/B pair and distil it into a `TrialResult`.

    Mirrors the batch worker entry point: the spec snapshots the config,
    and the runner gets a private deep copy so mutations during the build
    (``dirq.full_scale`` filled from the dataset) never leak between arms.
    """
    if arm not in (PER_NODE, COLUMNAR):
        raise ValueError(f"unknown arm {arm!r}")
    spec = TrialSpec(label=f"ab[{arm}]", config=config)
    seam = per_node_oracle() if arm == PER_NODE else contextlib.nullcontext()
    with seam:
        result = run_experiment(copy.deepcopy(spec.config))
    return TrialResult.from_experiment(spec, result)


#: Observable name -> extractor.  Ordered from the most diagnostic (a
#: ledger entry names the node, kind, and direction that drifted) to the
#: broadest; ``assert_bit_identical`` checks them in this order.
OBSERVABLES = (
    ("ledger.breakdown_by_kind", lambda r: r.ledger.breakdown_by_kind()),
    ("breakdown", lambda r: r.breakdown),
    ("update_series", lambda r: r.update_series),
    ("per_query_costs", lambda r: r.per_query_costs),
    ("num_queries", lambda r: r.num_queries),
    ("atc_delta_history", lambda r: r.atc_delta_history),
    ("alive_at_end", lambda r: r.alive_at_end),
    ("scenario_events", lambda r: r.scenario_events),
    ("num_relinks", lambda r: r.num_relinks),
    (
        # The per-query accuracy series: every audit record, with its
        # injection epoch, queried population, and exact receiver sets.
        "audit_records",
        lambda r: [
            (
                rec.query_id,
                rec.injection_epoch,
                rec.population,
                sorted(rec.sources),
                sorted(rec.should_receive),
                sorted(rec.received),
                sorted(rec.source_claims),
            )
            for rec in r.audit.records
        ],
    ),
)


def mismatched_observables(
    config: ExperimentConfig,
) -> Tuple[List[str], TrialResult, TrialResult]:
    """Run both arms; return the names of observables that differ."""
    per_node = run_arm(config, PER_NODE)
    columnar = run_arm(config, COLUMNAR)
    bad = [
        name
        for name, extract in OBSERVABLES
        if extract(per_node) != extract(columnar)
    ]
    if per_node.fingerprint(include_key=False) != columnar.fingerprint(
        include_key=False
    ):
        bad.append("fingerprint")
    return bad, per_node, columnar


def assert_bit_identical(config: ExperimentConfig, context: str = "") -> None:
    """Assert columnar == per-node on every observable, diffing the first."""
    prefix = f"{context}: " if context else ""
    bad, per_node, columnar = mismatched_observables(config)
    if not bad:
        return
    name = bad[0]
    extract = dict(OBSERVABLES).get(name)
    detail = ""
    if extract is not None:
        detail = (
            f"\n  per-node: {extract(per_node)!r}"
            f"\n  columnar: {extract(columnar)!r}"
        )
    raise AssertionError(
        f"{prefix}columnar tick diverged from the per-node oracle on "
        f"{bad} (config={describe(config)}){detail}"
    )


def describe(config: ExperimentConfig) -> str:
    """A paste-able summary of the fields a repro needs."""
    return (
        f"ExperimentConfig(num_nodes={config.num_nodes}, "
        f"num_epochs={config.num_epochs}, seed={config.seed}, "
        f"channel_loss={config.channel_loss}, "
        f"sensors_per_node={config.sensors_per_node!r}, "
        f"threshold_mode={config.dirq.threshold_mode!r}, "
        f"delta_percent={config.dirq.delta_percent}, "
        f"scenario={config.scenario!r}, "
        f"phenomena_method={config.phenomena_method!r})"
    )


def shrink_num_epochs(config: ExperimentConfig) -> ExperimentConfig:
    """Shrink a *failing* config to the fewest epochs that still fail.

    Bisects on ``num_epochs`` (the dominant cost axis), re-running the
    A/B pair at each candidate.  Used by the randomized property tests to
    print a minimal reproduction when a seed finds a divergence, so the
    committed regression test can be small.
    """
    failing = config.num_epochs
    lo = 1
    while lo < failing:
        mid = (lo + failing) // 2
        bad, _, _ = mismatched_observables(config.replace(num_epochs=mid))
        if bad:
            failing = mid
        else:
            lo = mid + 1
    return config.replace(num_epochs=failing)
