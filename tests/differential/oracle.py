"""The per-node reference epoch tick, kept as a test oracle.

Trials run DirQ's columnar tick (``repro.experiments.columnar``).  The
reference it must equal bit for bit is the per-node loop

    for proto in alive_protocols:
        proto.on_epoch(epoch)

with LMAC beacon batching off.  :func:`per_node_oracle` substitutes that
loop at the runner's one construction seam,
``ExperimentRunner._dirq_epoch_tick``, for the duration of a ``with``
block.  :func:`execute_trial` is a picklable ``BatchRunner`` worker entry
that runs one trial under the oracle, so process pools use it whatever
their start method.

The patch is process-global and not thread-safe: run oracle trials
serially or in worker processes, never on a thread pool.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List

from repro.experiments import batch
from repro.experiments.runner import ExperimentRunner

#: The batch worker entry, captured before any test patches the module.
_columnar_execute_trial = batch._execute_trial


class PerNodeTick:
    """The runner's tick interface over the per-node ``on_epoch`` loop."""

    def __init__(self) -> None:
        self._protos: List = []

    def set_protocols(self, protocols: List) -> None:
        self._protos = list(protocols)

    def tick(self, epoch: int) -> None:
        for proto in self._protos:
            proto.on_epoch(epoch)

    def finalize(self) -> None:
        """Nothing is deferred: every counter is already on its object."""


def _per_node_tick(runner: ExperimentRunner, world) -> PerNodeTick:
    # Beacon batching stays off: each LMAC starts with fast_beacons False.
    return PerNodeTick()


@contextlib.contextmanager
def per_node_oracle() -> Iterator[None]:
    """Run every DirQ trial started inside the block on the oracle tick."""
    columnar = ExperimentRunner.__dict__["_dirq_epoch_tick"]
    ExperimentRunner._dirq_epoch_tick = _per_node_tick
    try:
        yield
    finally:
        ExperimentRunner._dirq_epoch_tick = columnar


def execute_trial(spec: batch.TrialSpec) -> batch.TrialResult:
    """``BatchRunner`` worker entry: one trial on the per-node oracle."""
    with per_node_oracle():
        return _columnar_execute_trial(spec)


@contextlib.contextmanager
def oracle_batch_workers() -> Iterator[None]:
    """Make ``BatchRunner`` execute trials through :func:`execute_trial`.

    The pool pickles the entry function by name, so spawned workers
    import this module and run the oracle too; forked ones inherit it.
    """
    batch._execute_trial = execute_trial
    try:
        yield
    finally:
        batch._execute_trial = _columnar_execute_trial
