"""The runner's collector policy: each trial pauses the cyclic collector.

``build()`` and ``run()`` pause the collector and put it back as they
found it, also when the trial raises and when trials overlap on threads;
``build()`` first collects the young generations, so dead worlds of
earlier trials do not pile up in a process that runs trials back to back.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.config import TopologyEvent
from repro.experiments.runner import ExperimentRunner, _collector_paused
from repro.scenarios.registry import build_config


@pytest.fixture
def collector_enabled():
    """Run the test with the collector enabled; restore the caller's state."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def small_config():
    return build_config("static-paper", num_epochs=40)


def kill_config():
    return small_config().replace(
        topology_events=[TopologyEvent(epoch=5, kind=TopologyEvent.KILL, node_id=7)]
    )


def test_run_pauses_and_restores_an_enabled_collector(
    collector_enabled, monkeypatch
):
    seen = []
    apply_kill = ExperimentRunner._apply_kill

    def spy(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return apply_kill(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "_apply_kill", spy)
    ExperimentRunner(kill_config()).run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_leaves_a_disabled_collector_disabled(collector_enabled):
    gc.disable()
    runner = ExperimentRunner(small_config())
    runner.build()
    assert not gc.isenabled()
    runner.run()
    assert not gc.isenabled()


def test_raising_trial_restores_the_collector(collector_enabled, monkeypatch):
    def hook(self, *args, **kwargs):
        raise RuntimeError("scenario hook failed")

    monkeypatch.setattr(ExperimentRunner, "_apply_kill", hook)
    with pytest.raises(RuntimeError, match="scenario hook failed"):
        ExperimentRunner(kill_config()).run()
    assert gc.isenabled()


def test_raising_build_restores_the_collector(collector_enabled, monkeypatch):
    def broken_tree(*args, **kwargs):
        raise RuntimeError("tree failed")

    monkeypatch.setattr(runner_module, "build_bfs_tree", broken_tree)
    runner = ExperimentRunner(small_config())
    with pytest.raises(RuntimeError, match="tree failed"):
        runner.build()
    assert runner.world is None
    assert gc.isenabled()


def test_overlapping_trials_on_threads_leave_the_collector_enabled(
    collector_enabled, monkeypatch
):
    both_inside = threading.Barrier(2, timeout=60)
    apply_kill = ExperimentRunner._apply_kill

    def meet(self, *args, **kwargs):
        # Both trials are inside their pause at once.
        both_inside.wait()
        return apply_kill(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "_apply_kill", meet)
    errors = []

    def trial():
        try:
            ExperimentRunner(kill_config()).run()
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=trial) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    assert gc.isenabled()


def test_out_of_order_exits_share_one_pause(collector_enabled):
    first, second = _collector_paused(), _collector_paused()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert not gc.isenabled()
    second.__exit__(None, None, None)
    assert gc.isenabled()


def test_pause_depth_survives_thread_contention(collector_enabled):
    def churn():
        for _ in range(2_000):
            with _collector_paused():
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    # A lost update of the depth count would leave it non-zero, and the
    # collector disabled, after every pause has exited.
    assert runner_module._collector_depth == 0
    assert gc.isenabled()


def test_back_to_back_trials_do_not_pile_up_dead_worlds(collector_enabled):
    counts = []
    for seed in range(1, 5):
        ExperimentRunner(build_config("scale-500", num_epochs=10, seed=seed)).run()
        counts.append(len(gc.get_objects()))
    assert counts[3] <= 1.1 * counts[1], counts
