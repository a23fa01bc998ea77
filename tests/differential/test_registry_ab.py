"""Columnar-vs-per-node A/B over a representative registry slice.

One granular test per scenario (serial, in-process, per-observable diffs)
plus a batch-level run through :class:`BatchRunner` at 1 and 4 workers
that pins fingerprints across worker counts and asserts the warm-cache
re-run executes zero trials -- the same contract the CI ``differential``
job drives.
"""

from __future__ import annotations

import pytest

from repro.experiments.batch import BatchRunner, TrialSpec
from repro.scenarios.registry import build_config

from tests.differential.abharness import (
    COLUMNAR,
    PER_NODE,
    assert_bit_identical,
    run_arm,
)
from tests.differential.oracle import oracle_batch_workers

#: (scenario, epochs): epochs are scaled to keep each arm in the seconds
#: range while still crossing several ATC windows / churn cycles; the
#: 500-node scenarios run shorter because their build dominates.
#: scale-500-mobile re-links every 2 epochs, which pins the columnar
#: tick's unchanged-alive-list path against the oracle.
REGISTRY_SLICE = (
    ("static-paper", 300),
    ("harsh-mixed", 300),
    ("scale-500", 60),
    ("scale-500-mobile", 40),
    ("energy-tiered", 300),
)


@pytest.mark.parametrize("name,epochs", REGISTRY_SLICE, ids=lambda v: str(v))
def test_registry_scenario_bit_identical(name, epochs):
    """Fingerprint, ledger, and accuracy-series equality per scenario."""
    assert_bit_identical(build_config(name, num_epochs=epochs), context=name)


class TestWorkerInvariance:
    """The A/B suite must hold at 1 and 4 workers, cache included.

    Both arms share one cache key by design (the tick is not part of the
    config), so each arm gets its own cache directory; the per-node arm
    runs its trials through the oracle's batch worker entry.
    """

    SCENARIOS = (("static-paper", 200), ("harsh-mixed", 200))

    def _specs(self):
        return [
            TrialSpec(label=name, config=build_config(name, num_epochs=epochs))
            for name, epochs in self.SCENARIOS
        ]

    def _run_twice(self, runner):
        """A cold run, then a warm re-run that must execute nothing."""
        first = runner.run(self._specs())
        prints = [r.fingerprint(include_key=False) for r in first]
        again = runner.run(self._specs())
        assert runner.last_stats.executed == 0
        assert all(r.from_cache for r in again)
        assert [r.fingerprint(include_key=False) for r in again] == prints
        return prints

    @pytest.mark.parametrize("workers", [1, 4])
    def test_arms_agree_at_any_worker_count(self, workers, tmp_path):
        def runner(arm):
            return BatchRunner(
                max_workers=workers,
                executor="process",
                cache_dir=tmp_path / f"{arm}-w{workers}",
            )

        columnar = self._run_twice(runner("columnar"))
        with oracle_batch_workers():
            per_node = self._run_twice(runner("per-node"))
        # Results arrive in spec order in both arms.
        assert per_node == columnar

    def test_arms_share_one_cache_key(self):
        """The tick is not part of the config, so both arms of a trial
        hash to one cache key and to one keyed fingerprint -- which is
        why the test above gives each arm its own cache directory."""
        cfg = build_config("static-paper", num_epochs=60)
        per_node = run_arm(cfg, PER_NODE)
        columnar = run_arm(cfg, COLUMNAR)
        assert per_node.spec.key == columnar.spec.key
        assert per_node.fingerprint() == columnar.fingerprint()


def test_repeated_columnar_runs_reproduce():
    """The fast path is deterministic run-to-run, not just oracle-equal."""
    cfg = build_config("static-paper", num_epochs=200)
    first = run_arm(cfg, COLUMNAR).fingerprint(include_key=False)
    second = run_arm(cfg, COLUMNAR).fingerprint(include_key=False)
    assert first == second
