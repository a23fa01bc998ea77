"""Cache-identity pins for the removed ``tick_method`` field.

DirQ's epoch tick is columnar for every trial; the per-node loop it must
equal is a test oracle, not a config switch.  So the field is gone: it
never enters the canonical hash payload, every golden hash keeps its
pinned value, and a config or campaign that still names it fails loudly
instead of hashing to a new key.  ``CACHE_VERSION`` is unchanged because
results are unchanged.
"""

from __future__ import annotations

import pytest

from repro.experiments.batch import TrialSpec, _canonical, config_hash
from repro.experiments.campaign import CampaignSpec
from repro.experiments.config import ExperimentConfig
from repro.scenarios import static
from repro.scenarios.static import small_network

# Same golden values tests/scenarios/test_registry_and_runner.py pins:
# computed before tick_method (and the scenario subsystem) existed.
GOLDEN_DEFAULT_HASH = "ddf46843e039ea619dab"
GOLDEN_PAPER_HASH = "3dc18157e5e868d10b40"
GOLDEN_SMALL_KEY = "523dd1a10f7090c16772"


class TestTickMethodHashContract:
    def test_field_not_in_hash_omit_list(self):
        assert "tick_method" not in ExperimentConfig.HASH_OMIT_WHEN_UNSET
        assert "tick_method" not in ExperimentConfig.__dataclass_fields__

    def test_unset_flag_preserves_golden_hashes(self):
        assert config_hash(ExperimentConfig()) == GOLDEN_DEFAULT_HASH
        assert config_hash(static.paper_network()) == GOLDEN_PAPER_HASH
        spec = TrialSpec(
            label="golden", config=small_network(num_nodes=10, num_epochs=80)
        )
        assert spec.key == GOLDEN_SMALL_KEY

    def test_unset_flag_absent_from_canonical_payload(self):
        payload = _canonical(ExperimentConfig())
        assert "tick_method" not in payload

    def test_invalid_strategy_rejected(self):
        for method in ("periodic", "columnar", "vectorised", None):
            with pytest.raises(TypeError, match="tick_method"):
                ExperimentConfig(tick_method=method)


def test_campaign_cannot_sweep_tick_method():
    with pytest.raises(ValueError, match="cannot sweep 'tick_method'"):
        CampaignSpec(
            name="tick-sweep",
            scenarios=("static-paper",),
            protocols=("dirq",),
            sweep=(("tick_method", ("periodic", "columnar")),),
        )
