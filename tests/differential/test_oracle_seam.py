"""The differential suite is live: the oracle arm really runs per node.

Every trial runs the columnar tick, so an A/B whose "reference" arm
silently ran columnar too would compare the tick with itself and pass
vacuously.  These tests pin the seam: which tick each arm calls, that
beacon batching follows the tick, that an injected columnar fault is
caught, and how often the columnar tick rebuilds its row arrays.
"""

from __future__ import annotations

from repro.core.dirq_node import DirQNode
from repro.experiments.batch import BatchRunner, TrialSpec
from repro.experiments.columnar import ColumnarTick
from repro.mac.lmac import LMACProtocol
from repro.scenarios.registry import build_config
from repro.scenarios.static import small_network

from tests.differential.abharness import (
    COLUMNAR,
    PER_NODE,
    mismatched_observables,
    run_arm,
)
from tests.differential.oracle import oracle_batch_workers


def _count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` with a call counter; returns the counter dict."""
    counter = {"calls": 0}
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        counter["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return counter


class TestArmsRunTheirOwnTick:
    def _calls(self, monkeypatch, arm):
        per_node = _count_calls(monkeypatch, DirQNode, "on_epoch")
        columnar = _count_calls(monkeypatch, ColumnarTick, "tick")
        batched = _count_calls(monkeypatch, LMACProtocol, "_try_fast_beacon")
        run_arm(small_network(num_nodes=10, num_epochs=60), arm)
        return per_node["calls"], columnar["calls"], batched["calls"]

    def test_oracle_arm_runs_per_node_without_beacon_batching(self, monkeypatch):
        per_node, columnar, batched = self._calls(monkeypatch, PER_NODE)
        assert per_node == 10 * 60
        assert columnar == 0
        assert batched == 0

    def test_columnar_arm_runs_columnar_with_beacon_batching(self, monkeypatch):
        per_node, columnar, batched = self._calls(monkeypatch, COLUMNAR)
        assert per_node == 0
        assert columnar == 60
        assert batched > 0

    def test_oracle_batch_worker_runs_per_node(self, monkeypatch, tmp_path):
        per_node = _count_calls(monkeypatch, DirQNode, "on_epoch")
        spec = TrialSpec(
            label="oracle", config=small_network(num_nodes=10, num_epochs=60)
        )
        runner = BatchRunner(max_workers=1, executor="serial", cache_dir=tmp_path)
        with oracle_batch_workers():
            runner.run([spec])
        assert per_node["calls"] == 10 * 60


def test_injected_columnar_fault_is_caught(monkeypatch):
    """Guard the guard: a columnar tick that stops sampling for a while
    must diverge from the oracle (it would not if both arms ran columnar)."""
    original = ColumnarTick.tick

    def faulty(self, epoch):
        if not 40 <= epoch < 80:
            original(self, epoch)

    monkeypatch.setattr(ColumnarTick, "tick", faulty)
    bad, _, _ = mismatched_observables(
        small_network(num_nodes=12, num_epochs=120)
    )
    assert "fingerprint" in bad


class TestRebuilds:
    """The columnar tick rebuilds its rows only when the alive set moves."""

    def _trial(self, monkeypatch, cfg):
        rebuilds = _count_calls(monkeypatch, ColumnarTick, "_rebuild")
        installs = []
        original = ColumnarTick.set_protocols

        def record(self, protocols):
            installs.append([p.node_id for p in protocols])
            original(self, protocols)

        monkeypatch.setattr(ColumnarTick, "set_protocols", record)
        result = run_arm(cfg, COLUMNAR)
        changes = sum(a != b for a, b in zip(installs, installs[1:]))
        return rebuilds["calls"], changes, result

    def test_mobility_only_trial_rebuilds_once(self, monkeypatch):
        cfg = build_config("mobile-40", num_epochs=200)
        rebuilds, changes, result = self._trial(monkeypatch, cfg)
        assert result.num_relinks >= 10
        assert changes == 0
        assert rebuilds == 1

    def test_churn_trial_rebuilds_once_per_alive_set_change(self, monkeypatch):
        cfg = build_config("churn-revive", num_epochs=400)
        rebuilds, changes, result = self._trial(monkeypatch, cfg)
        assert result.scenario_events
        assert changes >= 2
        assert rebuilds == 1 + changes
