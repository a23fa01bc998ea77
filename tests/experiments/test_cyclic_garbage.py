"""No trial leaves cyclic garbage behind.

``ExperimentRunner`` runs each trial with the cyclic collector paused, so
anything the run path leaves in a reference cycle lives until the next
collection outside a trial.  Every registry scenario (bar the 5 000-node
one, which takes too long here) under each protocol must therefore run to
completion without creating a single unreachable cycle.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.grid import PROTOCOLS
from repro.experiments.runner import ExperimentRunner
from repro.scenarios.registry import build_config, scenario_names

EPOCHS = 120

SCENARIOS = [name for name in scenario_names() if name != "scale-5000"]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_trial_leaves_no_cyclic_garbage(scenario, protocol):
    config = PROTOCOLS[protocol](build_config(scenario, num_epochs=EPOCHS))
    runner = ExperimentRunner(config)
    runner.build()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = runner.run()
        # The runner still holds the world: only garbage the run made
        # unreachable is found here.
        garbage = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert result.num_queries > 0
    assert garbage == 0
