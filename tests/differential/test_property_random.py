"""Randomized-config property tests for the columnar tick.

Each case draws a configuration from a seeded generator -- network size,
channel loss, threshold mode and δ, sensor heterogeneity, churn -- and
asserts the columnar arm is bit-identical to the per-node oracle.  On failure
the case shrinks ``num_epochs`` by bisection and prints a paste-able
minimal reproduction, so a red CI run hands the next session a small
regression test instead of a random seed.
"""

from __future__ import annotations

import random

import pytest

from repro.scenarios.spec import ChurnConfig, ScenarioConfig
from repro.scenarios.static import small_network

from tests.differential.abharness import (
    describe,
    mismatched_observables,
    shrink_num_epochs,
)

#: Bump to re-roll the whole corpus; individual cases derive from it.
CORPUS_SEED = 20_260_808
NUM_CASES = 6


def draw_config(case_seed: int):
    """One random configuration; every choice comes from ``case_seed``."""
    rng = random.Random(CORPUS_SEED + case_seed)
    num_nodes = rng.randrange(8, 28)
    cfg = small_network(
        num_nodes=num_nodes,
        num_epochs=rng.randrange(120, 260),
        seed=rng.randrange(1, 10_000),
    )
    cfg = cfg.replace(
        channel_loss=rng.choice([0.0, 0.0, 0.1, 0.35]),
        query_period=rng.choice([10, 20]),
    )
    if rng.random() < 0.5:
        cfg = cfg.with_atc()
    else:
        cfg = cfg.with_fixed_delta(rng.choice([0.5, 2.0, 5.0, 12.0]))
    mode = rng.random()
    if mode < 0.3:
        # Heterogeneous mounts: k random sensor types per node.
        cfg = cfg.replace(sensors_per_node=rng.choice([1, 2, 3]))
    if rng.random() < 0.4:
        cfg = cfg.with_scenario(
            ScenarioConfig(
                name=f"prop-churn-{case_seed}",
                churn=ChurnConfig(
                    death_rate=rng.choice([0.002, 0.01]),
                    revive_after=rng.choice([None, 40]),
                ),
            )
        )
    return cfg


@pytest.mark.parametrize("case_seed", range(NUM_CASES))
def test_random_config_bit_identical(case_seed):
    cfg = draw_config(case_seed)
    bad, _, _ = mismatched_observables(cfg)
    if bad:
        shrunk = shrink_num_epochs(cfg)
        pytest.fail(
            f"case {case_seed} diverged on {bad}.\n"
            f"Shrunk reproduction ({shrunk.num_epochs} epochs):\n"
            f"  from tests.differential.abharness import assert_bit_identical\n"
            f"  assert_bit_identical({describe(shrunk)})\n"
            f"full config: {describe(cfg)}"
        )


def test_corpus_is_diverse():
    """The generator must actually exercise the interesting axes --
    lossy channels, fixed and adaptive thresholds, heterogeneous mounts,
    and churn -- so a green run means something."""
    cfgs = [draw_config(s) for s in range(NUM_CASES)]
    assert any(c.channel_loss > 0 for c in cfgs)
    assert any(c.channel_loss == 0 for c in cfgs)
    assert len({c.dirq.threshold_mode for c in cfgs}) == 2
    assert any(c.sensors_per_node is not None for c in cfgs)
    assert any(c.scenario is not None for c in cfgs)
