"""Per-layer tracing from outside the program.

The traced run installs wrappers around public functions of each layer
(and around every event callback handed to ``Simulator.schedule_at``),
times them with ``time.perf_counter`` and accumulates self time online
with a stack: a span's self time is its duration minus the part its
child spans cover, so the self times of all spans of an op add up to the
op's traced time exactly.  Hot per-call spans are only accumulated;
coarse spans (op, build, run, epoch, relink pieces, campaign phases) are
also kept in memory with their start, end and parent and written out at
the end of the run.

A hook whose target does not exist in the program under test is skipped
and reported as unhooked, so the tracer keeps working when a refactor
removes an optional code path (e.g. the columnar tick).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name): plain spans around public functions.
#: Module-level functions the runner imports by name are hooked in the
#: runner's namespace, which is where the runner looks them up.
SIM_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "ExperimentRunner.build", "runner.build"),
    ("repro.experiments.runner", "random_geometric_topology", "setup.topology"),
    ("repro.sensors.dataset", "SensorDataset.generate", "setup.dataset"),
    ("repro.experiments.runner", "build_bfs_tree", "setup.tree"),
    ("repro.core.dirq_node", "DirQNode.on_epoch", "core.tick"),
    ("repro.core.flooding", "FloodingNode.on_epoch", "core.tick"),
    ("repro.experiments.columnar", "ColumnarTick.tick", "core.tick"),
    ("repro.core.dirq_node", "DirQNode.readvertise", "core.readvertise"),
    ("repro.core.dirq_root", "DirQRoot.inject_query", "core.inject"),
    ("repro.core.flooding", "FloodingRoot.inject_query", "core.inject"),
    ("repro.core.dirq_root", "DirQRoot.start_new_hour", "core.estimate"),
    # Batched channel delivery charges reception inline, not through
    # charge_rx, so energy.charge counts every tx and only unbatched rx.
    ("repro.energy.ledger", "NodeLedger.charge_tx", "energy.charge"),
    ("repro.energy.ledger", "NodeLedger.charge_rx", "energy.charge"),
    ("repro.workload.generator", "QueryWorkloadGenerator.generate", "workload.generate"),
    ("repro.experiments.runner", "evaluate_query", "workload.ground_truth"),
    ("repro.metrics.audit", "QueryAudit.register_query", "metrics.audit"),
    ("repro.metrics.audit", "QueryAudit.record_receipt", "metrics.audit"),
    ("repro.experiments.runner", "cost_breakdown", "metrics.result"),
    ("repro.scenarios.models", "MobilityModel.step", "tree.mobility_step"),
    ("repro.network.topology", "Topology.with_positions_delta", "tree.topology_delta"),
    ("repro.network.channel", "WirelessChannel.update_topology", "tree.channel_update"),
)

#: Orchestration hooks, installed on every workload.  The campaign workload
#: installs only these: its trials run in forked pool workers, whose spans
#: the parent process cannot see.
ORCH_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.batch", "TrialResult.from_experiment", "metrics.result"),
    ("repro.experiments.batch", "TrialResult.fingerprint", "metrics.result"),
    ("repro.experiments.campaign", "CampaignSpec.trial_specs", "campaign.expand"),
    ("repro.experiments.store", "ResultsStore.completed_keys", "store.completed_keys"),
    ("repro.experiments.store", "ResultsStore.record_trial", "store.record"),
    ("repro.experiments.store", "ResultsStore.export_jsonable", "store.export"),
)

#: Spans that are also kept as records (name, start, end, parent, op id).
COARSE = frozenset(
    {
        "op",
        "runner.build",
        "runner.run",
        "epoch",
        "tree.mobility_step",
        "tree.topology_delta",
        "tree.channel_update",
        "tree.rebuild",
        "harness.cold",
        "batch.cold",
        "batch.warm",
    }
)

#: Self-time rows whose span is the runner itself: the residual row.
RESIDUAL = ("op", "runner.run")


def _classify(label: str) -> str:
    """Layer of an event, from the label the program already gives it."""
    if label.startswith("deliver["):
        return "channel.deliver"
    if ".tx[" in label:
        return "mac.tx"
    if ".timer." in label:
        return "mac.timer" if label.startswith("lmac") else "core.timer"
    return "simulation.other"


def _resolve(module: str, path: str):
    """``(owner, attribute, raw descriptor)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Stack-based self-time accounting over hooked calls, for one op.

    Every span recorded by one instance carries the same ``op_id``.
    """

    def __init__(self, op_id: int = 0, simulation_layers: bool = True) -> None:
        self.op_id = op_id
        self.hooks = (SIM_HOOKS if simulation_layers else ()) + ORCH_HOOKS
        self.simulation_layers = simulation_layers
        self.unhooked: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.records: List[dict] = []
        self.epoch_ms: List[float] = []
        self.queue_peak = 0
        self.query_drain_s = 0.0
        self.rebuilds = 0
        self.incremental_rebuilds = 0
        self._marks: Optional[List[float]] = None

    def _enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child = self.stack.pop()
        end = perf_counter()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if name in COARSE:
            self.records.append(
                {
                    "op": self.op_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": self.stack[-1][0] if self.stack else None,
                }
            )
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, raw, replacement) -> None:
        if isinstance(raw, classmethod):
            replacement = classmethod(replacement)
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def _hook(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        found = _resolve(module, path)
        if found is None:
            self.unhooked.append(f"{module}.{path}")
            return
        owner, attr, raw = found
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        self._patch(owner, attr, raw, make(fn))

    def install(self) -> None:
        self.unhooked = []
        for module, path, name in self.hooks:
            self._hook(module, path, lambda fn, name=name: self._wrap(name, fn))
        if not self.simulation_layers:
            return
        self._hook("repro.experiments.runner", "ExperimentRunner.run", self._run_hook)
        self._hook("repro.experiments.runner", "rebuild_spanning_tree", self._rebuild_hook)
        self._hook("repro.simulation.engine", "Simulator.schedule_at", self._schedule_hook)
        self._hook("repro.simulation.engine", "Simulator.run_until", self._run_until_hook)
        self._hook("repro.network.channel", "WirelessChannel.register", self._register_hook)
        self._hook("repro.mac.lmac", "LMACProtocol.set_upper_handler", self._handler_hook)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- special hooks -------------------------------------------------------

    def _run_hook(self, fn: Callable) -> Callable:
        """``ExperimentRunner.run``: a span plus the per-epoch boundary marks."""

        def run(runner, *args, **kwargs):
            self._marks = []
            self._enter("runner.run")
            try:
                return fn(runner, *args, **kwargs)
            finally:
                self._exit()
                marks, self._marks = self._marks, None
                for start, end in zip(marks, marks[1:]):
                    self.epoch_ms.append((end - start) * 1e3)
                    self.records.append(
                        {
                            "op": self.op_id,
                            "name": "epoch",
                            "start": start,
                            "end": end,
                            "parent": "runner.run",
                        }
                    )

        return run

    def _rebuild_hook(self, fn: Callable) -> Callable:
        wrapped = self._wrap("tree.rebuild", fn)

        def rebuild(*args, **kwargs):
            self.rebuilds += 1
            if kwargs.get("previous") is not None:
                self.incremental_rebuilds += 1
            return wrapped(*args, **kwargs)

        return rebuild

    def _schedule_hook(self, fn: Callable) -> Callable:
        """``Simulator.schedule_at``: a leaf span, and the callback wrapped
        in a span named after the event's layer."""
        layers: Dict[str, str] = {}
        wrap_callback = self._wrap
        stack, self_s, calls = self.stack, self.self_s, self.calls

        def schedule_at(sim, time, callback, *args, **kwargs):
            label = kwargs.get("label", args[1] if len(args) > 1 else "")
            layer = layers.get(label)
            if layer is None:
                layer = layers[label] = _classify(label)
            start = perf_counter()
            try:
                return fn(sim, time, wrap_callback(layer, callback), *args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s["simulation.schedule"] += duration
                calls["simulation.schedule"] += 1
                if stack:
                    stack[-1][2] += duration

        return schedule_at

    def _run_until_hook(self, fn: Callable) -> Callable:
        def run_until(sim, until, *args, **kwargs):
            fraction = until - math.floor(until)
            if fraction == 0.0:
                if self._marks is not None:
                    self._marks.append(perf_counter())
                self.queue_peak = max(self.queue_peak, sim.queue_size)
            self._enter("simulation.dispatch")
            try:
                return fn(sim, until, *args, **kwargs)
            finally:
                duration = self._exit()
                if abs(fraction - 0.95) < 1e-9:
                    self.query_drain_s += duration

        return run_until

    def _register_hook(self, fn: Callable) -> Callable:
        def register(channel, node_id, receiver, *args, **kwargs):
            return fn(channel, node_id, self._wrap("mac.rx", receiver), *args, **kwargs)

        return register

    def _handler_hook(self, fn: Callable) -> Callable:
        def set_upper_handler(mac, handler, *args, **kwargs):
            return fn(mac, self._wrap("core.payload", handler), *args, **kwargs)

        return set_upper_handler

    # -- reporting -----------------------------------------------------------

    def rows(self) -> List[Tuple[str, int, float]]:
        """``(row, calls, self seconds)``; the residual row is ``runner``."""
        rows: Dict[str, List[float]] = {}
        for name, seconds in self.self_s.items():
            if not self.calls[name]:
                continue
            row = "runner (residual)" if name in RESIDUAL else name
            if name == "runner.build":
                row = "setup.nodes"
            entry = rows.setdefault(row, [0, 0.0])
            entry[0] += self.calls[name]
            entry[1] += seconds
        return sorted(
            ((row, int(c), s) for row, (c, s) in rows.items()),
            key=lambda r: -r[2],
        )

    def layer_table(self, title: str) -> str:
        total = self.total_s.get("op", 0.0)
        lines = [title, f"{'span (self time)':<26}{'calls':>10}{'self s':>11}{'share':>8}"]
        covered = 0.0
        for row, calls, seconds in self.rows():
            covered += seconds
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"{row:<26}{calls:>10}{seconds:>11.4f}{share:>7.1f}%")
        lines.append(
            f"{'sum of rows':<26}{'':>10}{covered:>11.4f}"
            f"  (op traced time {total:.4f} s)"
        )
        if self.unhooked:
            lines.append("unhooked (absent in this program): " + ", ".join(self.unhooked))
        return "\n".join(lines)

    def write_records(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
