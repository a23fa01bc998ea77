"""Tests for the reprolint contract linter (``tools/reprolint``).

Each rule family gets at least one known-bad and one known-good fixture,
pragma suppression is exercised, and the CLI's JSON schema and exit codes
are pinned.  The corpus under ``tools/reprolint/corpus`` is additionally
checked by the linter's own ``--self-test``.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import textwrap
from pathlib import Path
from typing import List, Optional, Set

import pytest

from tools._common import REPO_ROOT
from tools.reprolint import cli, core
from tools.reprolint import (
    rules_determinism,
    rules_hashcov,
    rules_layering,
    rules_obs,
    rules_streams,
)
from tools.reprolint.rules_layering import ImportEdge

SPEC_PATH = REPO_ROOT / "src" / "repro" / "scenarios" / "spec.py"
CORPUS = sorted((Path(cli.CORPUS_DIR)).glob("*.py"))


def make_source(
    tmp_path: Path,
    source: str,
    *,
    name: str = "snippet.py",
    module: Optional[str] = None,
    determinism_critical: bool = False,
) -> core.SourceFile:
    """Write a snippet and load it as a policy-flagged SourceFile."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    src, parse_finding = core.load_source_file(path, tmp_path)
    assert parse_finding is None, parse_finding
    assert src is not None
    src.module = module
    src.determinism_critical = determinism_critical
    return src


def determinism_codes(src: core.SourceFile) -> List[str]:
    findings, _ = core.apply_pragmas(rules_determinism.check([src]), [src])
    return sorted(f.code for f in findings)


class TestDeterminismRules:
    def test_rl101_import_random(self, tmp_path):
        src = make_source(tmp_path, "import random\n")
        assert determinism_codes(src) == ["RL101"]

    def test_rl102_wall_clock_call(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert "RL102" in determinism_codes(src)

    def test_rl103_uuid_and_urandom(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import os
            import uuid

            def token():
                return os.urandom(8)
            """,
        )
        assert determinism_codes(src) == ["RL103", "RL103"]

    def test_rl104_direct_numpy_rng(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """,
        )
        assert "RL104" in determinism_codes(src)

    def test_rng_module_is_exempt(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import numpy as np

            def fresh(seq):
                return np.random.default_rng(seq)
            """,
        )
        src.rng_exempt = True
        assert determinism_codes(src) == []

    def test_rl105_collector_state_outside_runner(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import gc
            from gc import set_threshold

            def quiet():
                gc.collect()
                gc.disable()
            """,
        )
        assert determinism_codes(src) == ["RL105", "RL105"]

    def test_runner_owns_collector_state(self, tmp_path):
        src = make_source(tmp_path, "import gc\ngc.disable()\ngc.enable()\n")
        src.rel = "src/repro/experiments/runner.py"
        assert cli._apply_policy(src).gc_exempt
        assert determinism_codes(src) == []

    def test_rl110_set_iteration_in_critical_code(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def kill_all(dead: set):
                for nid in dead:
                    print(nid)
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_rl110_sorted_iteration_is_clean(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def kill_all(dead: set):
                for nid in sorted(dead):
                    print(nid)
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == []

    def test_rl110_only_applies_to_critical_modules(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def kill_all(dead: set):
                for nid in dead:
                    print(nid)
            """,
            determinism_critical=False,
        )
        assert determinism_codes(src) == []

    def test_line_pragma_suppresses(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()  # reprolint: disable=RL104
            """,
        )
        findings, suppressed = core.apply_pragmas(
            rules_determinism.check([src]), [src]
        )
        assert findings == []
        assert suppressed == 1

    def test_file_pragma_suppresses_family(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            # reprolint: disable-file=RL1
            import random
            import uuid
            """,
        )
        findings, suppressed = core.apply_pragmas(
            rules_determinism.check([src]), [src]
        )
        assert findings == []
        assert suppressed == 2

    def test_pragma_for_other_code_does_not_suppress(self, tmp_path):
        src = make_source(
            tmp_path,
            "import random  # reprolint: disable=RL104\n",
        )
        assert determinism_codes(src) == ["RL101"]


class TestHashCoverageRules:
    def _class_codes(self, source: str, exempt: Set[str] = frozenset()):
        tree = ast.parse(textwrap.dedent(source))
        codes: List[str] = []
        for node in rules_hashcov.iter_config_classes(tree):
            codes.extend(
                f.code
                for f in rules_hashcov.check_class_ast(
                    node, "snippet.py", set(exempt)
                )
            )
        return sorted(codes)

    def test_real_spec_module_is_clean(self):
        tree = ast.parse(SPEC_PATH.read_text(encoding="utf-8"))
        for node in rules_hashcov.iter_config_classes(tree):
            findings = rules_hashcov.check_class_ast(
                node, "src/repro/scenarios/spec.py", set()
            )
            assert findings == [], [f.render() for f in findings]

    def test_scratch_field_on_churnconfig_is_caught(self):
        # The acceptance demo: graft an unhashed scratch knob onto the
        # real ChurnConfig source and the linter must object.
        source = SPEC_PATH.read_text(encoding="utf-8")
        needle = "class ChurnConfig:"
        assert needle in source
        patched = source.replace(
            needle,
            needle + "\n    scratch_knob: ClassVar[float] = 0.5",
            1,
        )
        tree = ast.parse(patched)
        churn = next(
            node
            for node in rules_hashcov.iter_config_classes(tree)
            if node.name == "ChurnConfig"
        )
        findings = rules_hashcov.check_class_ast(churn, "spec.py", set())
        assert [f.code for f in findings] == ["RL201"]
        assert "scratch_knob" in findings[0].message

    def test_hash_exempt_silences_rl201(self):
        source = SPEC_PATH.read_text(encoding="utf-8")
        patched = source.replace(
            "class ChurnConfig:",
            "class ChurnConfig:\n    scratch_knob: ClassVar[float] = 0.5",
            1,
        )
        tree = ast.parse(patched)
        churn = next(
            node
            for node in rules_hashcov.iter_config_classes(tree)
            if node.name == "ChurnConfig"
        )
        findings = rules_hashcov.check_class_ast(
            churn, "spec.py", {"ChurnConfig.scratch_knob"}
        )
        assert findings == []

    def test_rl202_omit_entry_must_default_to_none(self):
        codes = self._class_codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class DemoConfig:
                HASH_OMIT_WHEN_UNSET = ("rate", "ghost")
                rate: float = 1.0
            """
        )
        # "rate" has a non-None default; "ghost" is not a field.
        assert codes == ["RL202", "RL202"]

    def test_rl203_smuggled_setattr(self):
        codes = self._class_codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class DemoConfig:
                HASH_OMIT_WHEN_UNSET = ()
                rate: float = 1.0

                def __post_init__(self):
                    object.__setattr__(self, "hidden", 2 * self.rate)
            """
        )
        assert codes == ["RL203"]

    def test_rl210_detects_canonical_gap(self):
        # check_hash_coverage is parameterized on the canonical function
        # precisely so this failure mode stays demonstrable: drop a field
        # from the payload and the field must be reported.
        from repro.scenarios.spec import ChurnConfig

        def canonical_missing_rate(obj):
            payload = {
                f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)
            }
            payload.pop("death_rate", None)
            return payload

        missing = rules_hashcov.check_hash_coverage(
            ChurnConfig, ChurnConfig(), canonical_missing_rate, set()
        )
        assert missing == ["death_rate"]
        # ... unless the gap is explicitly exempted.
        missing = rules_hashcov.check_hash_coverage(
            ChurnConfig,
            ChurnConfig(),
            canonical_missing_rate,
            {"ChurnConfig.death_rate"},
        )
        assert missing == []

    def test_rl210_real_canonical_covers_every_field(self):
        from repro.experiments.batch import HASH_EXEMPT, _canonical
        from repro.scenarios.spec import ChurnConfig

        missing = rules_hashcov.check_hash_coverage(
            ChurnConfig, ChurnConfig(), _canonical, set(HASH_EXEMPT)
        )
        assert missing == []

    def test_repo_dynamic_check_is_clean(self):
        src, parse_finding = core.load_source_file(
            REPO_ROOT / "src" / "repro" / "experiments" / "batch.py",
            REPO_ROOT,
        )
        assert parse_finding is None and src is not None
        findings = rules_hashcov.check([src], dynamic=True)
        assert findings == [], [f.render() for f in findings]


class TestLayeringRules:
    MODULE_FILES = {
        "repro.metrics.cost": ("src/repro/metrics/cost.py", 1),
        "repro.experiments.runner": ("src/repro/experiments/runner.py", 1),
        "repro.simulation.engine": ("src/repro/simulation/engine.py", 1),
        "repro.core.node": ("src/repro/core/node.py", 1),
        "repro.scenarios.spec": ("src/repro/scenarios/spec.py", 1),
        "repro.scenarios.registry": ("src/repro/scenarios/registry.py", 1),
    }

    def _codes(self, edges):
        return sorted(
            f.code
            for f in rules_layering.check_graph(edges, self.MODULE_FILES)
        )

    def test_rl301_direct_forbidden_edge(self):
        edges = [
            ImportEdge(
                "repro.metrics.cost", "repro.experiments.runner", "eager", 3
            )
        ]
        assert "RL301" in self._codes(edges)

    def test_rl301_transitive_chain_reported(self):
        # spec -> registry -> experiments: no direct edge, but the eager
        # chain still drags experiments into scenario-spec imports.
        edges = [
            ImportEdge(
                "repro.scenarios.spec", "repro.scenarios.registry", "eager", 2
            ),
            ImportEdge(
                "repro.scenarios.registry",
                "repro.experiments.runner",
                "eager",
                4,
            ),
        ]
        findings = rules_layering.check_graph(edges, self.MODULE_FILES)
        transitive = [f for f in findings if f.code == "RL301"]
        assert transitive
        assert any("->" in f.message for f in transitive)

    def test_rl302_eager_cycle(self):
        edges = [
            ImportEdge(
                "repro.core.node", "repro.simulation.engine", "eager", 1
            ),
            ImportEdge(
                "repro.simulation.engine", "repro.core.node", "eager", 1
            ),
        ]
        assert "RL302" in self._codes(edges)

    def test_lazy_edges_break_cycles(self):
        edges = [
            ImportEdge(
                "repro.core.node", "repro.simulation.engine", "eager", 1
            ),
            ImportEdge(
                "repro.simulation.engine", "repro.core.node", "lazy", 1
            ),
        ]
        codes = self._codes(edges)
        assert "RL302" not in codes

    def test_rl303_upward_import(self):
        edges = [
            ImportEdge(
                "repro.simulation.engine", "repro.core.node", "eager", 7
            )
        ]
        assert "RL303" in self._codes(edges)

    def test_downward_import_is_clean(self):
        edges = [
            ImportEdge(
                "repro.core.node", "repro.simulation.engine", "eager", 7
            ),
            ImportEdge(
                "repro.experiments.runner", "repro.metrics.cost", "eager", 9
            ),
        ]
        assert self._codes(edges) == []

    def test_real_tree_has_no_layering_findings(self):
        findings, _, _ = cli.lint_paths(
            [REPO_ROOT / "src" / "repro"], REPO_ROOT, dynamic=False
        )
        rl3 = [f for f in findings if f.code.startswith("RL3")]
        assert rl3 == [], [f.render() for f in rl3]


class TestStreamRules:
    def _check(self, src):
        return rules_streams.check([src], REPO_ROOT, repo_mode=False)

    def test_rl401_computed_name(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def build(streams, i):
                return streams.get(f"mac-{i}")
            """,
            module="repro.experiments.runner",
        )
        assert [f.code for f in self._check(src)] == ["RL401"]

    def test_rl402_unregistered_name(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def build(streams):
                return streams.get("totally-new-stream")
            """,
            module="repro.experiments.runner",
        )
        assert [f.code for f in self._check(src)] == ["RL402"]

    def test_rl403_foreign_module(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def sneaky(streams):
                return streams.get("topology")
            """,
            module="repro.mac.lmac",
        )
        assert [f.code for f in self._check(src)] == ["RL403"]

    def test_owner_module_is_clean(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def build(streams):
                return streams.get("topology")
            """,
            module="repro.experiments.runner",
        )
        assert self._check(src) == []

    def test_rl404_dead_registry_entry(self, tmp_path):
        registry_dir = tmp_path / "src" / "repro" / "simulation"
        registry_dir.mkdir(parents=True)
        registry_path = registry_dir / "rng.py"
        registry_path.write_text(
            textwrap.dedent(
                """
                STREAM_REGISTRY = {
                    "topology": "repro.experiments.runner",
                    "ghost": "repro.experiments.runner",
                }
                """
            ),
            encoding="utf-8",
        )
        registry_src, err = core.load_source_file(registry_path, tmp_path)
        assert err is None and registry_src is not None
        user = make_source(
            tmp_path,
            """
            def build(streams):
                return streams.get("topology")
            """,
            module="repro.experiments.runner",
        )
        findings = rules_streams.check(
            [registry_src, user], tmp_path, repo_mode=True
        )
        assert [f.code for f in findings] == ["RL404"]
        assert "ghost" in findings[0].message

    def test_rl405_missing_registry(self, tmp_path):
        user = make_source(
            tmp_path,
            """
            def build(streams):
                return streams.get("topology")
            """,
            module="repro.experiments.runner",
        )
        findings = rules_streams.check([user], tmp_path, repo_mode=True)
        assert [f.code for f in findings] == ["RL405"]

    def test_registry_matches_call_sites_in_repo(self):
        # Every registered stream is used, every use is registered: the
        # repo-wide RL4xx scan must be silent.
        findings, _, _ = cli.lint_paths(
            [REPO_ROOT / "src" / "repro"], REPO_ROOT, dynamic=False
        )
        rl4 = [f for f in findings if f.code.startswith("RL4")]
        assert rl4 == [], [f.render() for f in rl4]


class TestObsRules:
    def _check(self, src):
        return rules_obs.check([src], REPO_ROOT, repo_mode=False)

    def test_rl501_computed_metric_name(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def bump(metrics, kind):
                metrics.inc("engine." + kind)
            """,
        )
        assert [f.code for f in self._check(src)] == ["RL501"]

    def test_rl502_unregistered_metric(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def bump(metrics):
                metrics.inc("engine.bogus_counter")
            """,
        )
        assert [f.code for f in self._check(src)] == ["RL502"]

    def test_rl503_unregistered_trace_category(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def note(tracer, now):
                tracer.record(now, "bogus.category", 1)
            """,
        )
        assert [f.code for f in self._check(src)] == ["RL503"]

    def test_rl504_clock_read_in_payload(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            import time

            def bump(metrics):
                metrics.observe("channel.fanout", time.perf_counter())
            """,
        )
        assert [f.code for f in self._check(src)] == ["RL504"]

    def test_rl505_unjustified_hash_exclude(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            class ProbeConfig:
                HASH_EXCLUDE = ("secret_knob",)
            """,
        )
        findings = self._check(src)
        assert [f.code for f in findings] == ["RL505"]
        assert "secret_knob" in findings[0].message

    def test_registered_literals_are_clean(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            def ok(metrics, tracer, now, fanout):
                metrics.inc("engine.events_executed")
                metrics.observe("channel.fanout", fanout)
                tracer.record(now, "channel.tx", 1)
            """,
        )
        assert self._check(src) == []

    def test_repo_wide_obs_scan_is_silent(self):
        findings, _, _ = cli.lint_paths(
            [REPO_ROOT / "src" / "repro"], REPO_ROOT, dynamic=False
        )
        rl5 = [f for f in findings if f.code.startswith("RL5")]
        assert rl5 == [], [f.render() for f in rl5]


@pytest.mark.parametrize("snippet", CORPUS, ids=lambda p: p.name)
def test_corpus_snippet_matches_expectation(snippet, capsys):
    expected = cli._expected_codes(snippet.read_text(encoding="utf-8"))
    assert expected is not None, f"{snippet.name} lacks an expect= header"
    src, parse_finding = core.load_source_file(snippet, REPO_ROOT)
    if parse_finding is not None:
        found = {parse_finding.code}
    else:
        assert src is not None
        src.determinism_critical = True
        findings = []
        findings.extend(rules_determinism.check([src]))
        findings.extend(rules_hashcov.check([src], dynamic=False))
        findings.extend(rules_streams.check([src], REPO_ROOT, repo_mode=False))
        findings.extend(rules_obs.check([src], REPO_ROOT, repo_mode=False))
        findings, _ = core.apply_pragmas(findings, [src])
        found = {f.code for f in findings}
    assert found == set(expected)


def test_self_test_passes():
    buffer = io.StringIO()
    assert cli.run_self_test(stdout=buffer) == 0
    assert "self-test passed" in buffer.getvalue()


class TestCLI:
    BAD = Path(cli.CORPUS_DIR) / "bad_rl101_ambient_random.py"

    def test_repo_at_head_is_clean(self, capsys):
        assert cli.main([]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_bad_file_exits_nonzero(self, capsys):
        assert cli.main([str(self.BAD)]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out

    def test_every_bad_corpus_file_exits_nonzero(self, capsys):
        for snippet in CORPUS:
            if not snippet.name.startswith("bad_"):
                continue
            assert cli.main([str(snippet)]) == 1, snippet.name
        capsys.readouterr()

    def test_json_format_schema(self, capsys):
        assert cli.main([str(self.BAD), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == len(payload["findings"]) >= 1
        assert set(payload) == {
            "version", "count", "suppressed", "files", "findings",
        }
        for finding in payload["findings"]:
            assert set(finding) == {"code", "path", "line", "message"}
            assert finding["code"].startswith("RL")
            assert finding["line"] >= 1

    def test_select_filters_to_family(self, capsys):
        assert cli.main([str(self.BAD), "--select", "RL4"]) == 0
        capsys.readouterr()

    def test_ignore_drops_findings(self, capsys):
        assert cli.main([str(self.BAD), "--ignore", "RL101"]) == 0
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, capsys):
        assert cli.main(["definitely/not/a/path.py"]) == 2
        capsys.readouterr()

    def test_list_rules_covers_catalogue(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in core.RULES:
            assert code in out

    def test_self_test_flag(self, capsys):
        assert cli.main(["--self-test"]) == 0
        capsys.readouterr()

    def test_syntax_error_reports_rl001(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        assert cli.main([str(bad)]) == 1
        assert "RL001" in capsys.readouterr().out


class TestBucketTableRules:
    """RL110 extension: dict-of-sets bucket tables drained in raw order."""

    def test_annotated_bucket_dict_iteration_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set, Tuple

            def drain(buckets: Dict[Tuple[int, int], Set[int]]):
                for cell in buckets:
                    print(cell)
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_defaultdict_of_sets_assignment_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from collections import defaultdict

            def group(pairs):
                table = defaultdict(set)
                for key, nid in pairs:
                    table[key].add(nid)
                return [key for key in table]
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_bucket_subscript_iteration_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set

            def members(buckets: Dict[int, Set[int]], cell: int):
                return [nid for nid in buckets[cell]]
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_bucket_get_iteration_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set

            def members(buckets: Dict[int, Set[int]], cell: int):
                for nid in buckets.get(cell, frozenset()):
                    yield nid
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_items_and_keys_drains_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set

            def pairs(buckets: Dict[int, Set[int]]):
                for cell, members in buckets.items():
                    print(cell, members)
                for cell in buckets.keys():
                    print(cell)
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110", "RL110"]

    def test_sorted_bucket_iteration_is_clean(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set

            def drain(buckets: Dict[int, Set[int]], cell: int):
                for key in sorted(buckets):
                    yield key
                for nid in sorted(buckets[cell]):
                    yield nid
                for nid in sorted(buckets.get(cell, frozenset())):
                    yield nid
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == []

    def test_plain_dict_is_not_a_bucket_table(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict

            def drain(counts: Dict[str, int], key: str):
                for name in counts:
                    yield name
                print(counts[key])
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == []

    def test_self_attr_bucket_iteration_flagged(self, tmp_path):
        src = make_source(
            tmp_path,
            """
            from typing import Dict, Set

            class Grid:
                def __init__(self):
                    self._buckets: Dict[int, Set[int]] = {}

                def drain(self):
                    for cell in self._buckets:
                        yield cell
            """,
            determinism_critical=True,
        )
        assert determinism_codes(src) == ["RL110"]

    def test_collect_global_bucket_attrs_cross_file(self, tmp_path):
        declaring = make_source(
            tmp_path,
            """
            from collections import defaultdict

            class Index:
                def __init__(self):
                    self._cells = defaultdict(set)
            """,
            name="declares.py",
        )
        using = make_source(
            tmp_path,
            """
            class View:
                def walk(self, index):
                    for cell in index._cells:
                        yield cell
            """,
            name="uses.py",
            determinism_critical=True,
        )
        attrs = rules_determinism.collect_global_bucket_attrs([declaring])
        assert attrs == {"_cells"}
        findings, _ = core.apply_pragmas(
            rules_determinism.check([declaring, using]), [declaring, using]
        )
        assert [f.code for f in findings] == ["RL110"]
        assert findings[0].path.endswith("uses.py")
