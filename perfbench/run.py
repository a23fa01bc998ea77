"""The repository's benchmark: end-to-end metrics, or a per-layer traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-headline --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table
    python3 perfbench/run.py --list                         # every metric with its unit
    python3 perfbench/run.py --compare HEAD~1 --workload paper-headline --pairs 10

``--trace 0`` times whole ops with tracing off and prints the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` runs each op twice, untraced and
then traced (``instrument="metrics"`` plus the wrappers of ``spans.py``),
asserts that both give the same fingerprints, prints the layer table and
prints the per-layer metrics.  Either way the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and one record per run is appended to
``.perfbench/history.jsonl``.

Hygiene: one BLAS thread (set before numpy is imported), one untimed
warm-up op per process (lazy imports and BLAS start-up cost ~1 CPU-s on
the first build), garbage collected outside the timed regions, in-process
trials timed with ``time.process_time``, the cold campaign timed in wall
time at ``nproc`` (at most 2) workers.  Values are built from medians:
per trial key over the run's ops, per op for the campaign, per round for
the warm part (see ``end_to_end``); ``peak_rss_mb`` is read after the
first timed op, so it does not depend on how many ops fit in the run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

# One BLAS thread: on a host of few cores, BLAS helper threads spinning next
# to the simulation make its CPU time depend on the scheduler.  Set before
# the program (and numpy) is imported; pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"


def load_catalogue() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path.name} not found next to {HERE.name}/")
    return json.loads(path.read_text())


def use_source(src: Path) -> None:
    """Import the program under test from ``src`` (a checkout's ``src/``)."""
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def timed_op(bench, tracer=None, instrument=None):
    """``(op, CPU seconds of this process and its workers)``; ``op`` is None
    when the op raised."""
    from workloads import children_cpu

    start = process_time() + children_cpu()
    try:
        op = bench.op(tracer, instrument)
    except Exception:
        traceback.print_exc()
        return None, 0.0
    return op, process_time() + children_cpu() - start


def _key_medians(rows) -> dict:
    """Median over ops of each trial key's sample (rows: ``{key: seconds}``)."""
    keys = {key for row in rows for key in row}
    return {key: median(row[key] for row in rows if key in row) for key in keys}


def end_to_end(bench, ops, rss: float):
    """``(values, samples)`` of every end-to-end metric.

    Each value is built from medians, so one op or round slowed by the host
    does not move it: in-process times are the sum over trial keys of each
    key's median CPU seconds across the run's ops, and warm throughput is the
    median over every warm round of the run.  ``samples`` keeps the raw
    per-op (or per-round) figures for the run record.
    """
    ok = [op for op in ops if op is not None]
    if not ok:
        return {}, {}
    # Set up at least five times per key; the campaign's workers build out
    # of sight, so its set-up is measured on the same configs in this process.
    builds = [op.build_by_key for op in ok if op.build_by_key]
    while len(builds) < 5:
        builds.append(bench.setup_round())
    setup = sum(_key_medians(builds).values())
    rounds = [wall for op in ok for wall in op.warm_round_walls]
    if bench.workload.in_process:
        run = _key_medians([op.run_by_key for op in ok])
        build = _key_medians([op.build_by_key for op in ok])
        values = {
            "epochs_per_s": ok[0].epochs / sum(run.values()),
            "trials_per_s": len(run) / (sum(run.values()) + sum(build.values())),
        }
        samples = {"run_cpu_s": [sum(op.run_by_key.values()) for op in ok]}
    else:
        values = {
            "epochs_per_s": median(op.epochs / op.worker_cpu for op in ok),
            "trials_per_s": median(op.trials / op.cold_wall for op in ok),
        }
        samples = {"cold_wall_s": [op.cold_wall for op in ok]}
    values.update(
        setup_s=setup,
        peak_rss_mb=rss,
        warm_trials_per_s=len(bench.specs) / median(rounds),
    )
    samples.update(setup_s=[sum(row.values()) for row in builds], warm_round_s=rounds)
    return values, samples


def layer_metrics(tracer, op, overhead: float, workers: int, in_process: bool) -> dict:
    from spans import percentile

    def tele(name: str) -> float:
        return float(op.telemetry.get(name, 0))

    calls, self_s, total = tracer.calls, tracer.self_s, tracer.total_s
    tx = tele("channel.broadcasts") + tele("channel.unicasts")
    deliveries = tele("channel.deliveries")
    sent, suppressed = tele("dirq.updates_sent"), tele("dirq.updates_suppressed")
    schedules = calls["simulation.schedule"]
    setup_children = sum(total[n] for n in ("setup.topology", "setup.dataset", "setup.tree"))
    pooled = not in_process
    return {
        "runner.epoch_ms_p50": percentile(tracer.epoch_ms, 50),
        "runner.epoch_ms_p99": percentile(tracer.epoch_ms, 99),
        "runner.self_s": self_s["op"] + self_s["runner.run"],
        "setup.topology_s": total["setup.topology"],
        "setup.dataset_s": total["setup.dataset"],
        "setup.tree_s": total["setup.tree"],
        "setup.nodes_s": max(0.0, total["runner.build"] - setup_children),
        "simulation.events": tele("engine.events_executed"),
        "simulation.cancelled": tele("engine.events_cancelled"),
        "simulation.schedule_calls": float(schedules),
        "simulation.schedule_us": 1e6 * self_s["simulation.schedule"] / schedules if schedules else 0.0,
        "simulation.queue_peak": float(tracer.queue_peak),
        "simulation.dispatch_self_s": self_s["simulation.dispatch"],
        "channel.tx": tx,
        "channel.deliveries": deliveries,
        "channel.drops": sum(
            tele(n) for n in ("channel.drops_loss", "channel.drops_dead_node", "channel.drops_no_link")
        ),
        "channel.fanout": deliveries / tx if tx else 0.0,
        "channel.deliver_self_s": self_s["channel.deliver"],
        "mac.rx_calls": float(calls["mac.rx"]),
        "mac.rx_self_s": self_s["mac.rx"],
        "mac.tx_self_s": self_s["mac.tx"],
        "mac.timer_self_s": self_s["mac.timer"],
        "mac.beacons": tele("mac.beacons_sent"),
        "mac.slot_conflicts": tele("mac.slot_conflicts"),
        "core.tick_calls": float(calls["core.tick"]),
        "core.tick_self_s": self_s["core.tick"],
        "core.update_ratio": sent / (sent + suppressed) if sent + suppressed else 0.0,
        "core.payload_self_s": self_s["core.payload"],
        "core.readvertise_calls": float(calls["core.readvertise"]),
        "core.inject_s": total["core.inject"] + tracer.query_drain_s,
        "core.estimate_s": total["core.estimate"],
        "sensors.samples": float(op.counts.get("samples", 0)),
        "energy.charges": float(calls["energy.charge"]),
        "energy.charge_self_s": self_s["energy.charge"],
        "workload.generate_s": total["workload.generate"],
        "workload.ground_truth_s": total["workload.ground_truth"],
        "metrics.audit_s": total["metrics.audit"],
        "metrics.result_s": total["metrics.result"],
        "scenarios.relinks": float(op.counts.get("relinks", 0)),
        "tree.mobility_step_s": total["tree.mobility_step"],
        "tree.topology_delta_s": total["tree.topology_delta"],
        "tree.channel_update_s": total["tree.channel_update"],
        "tree.rebuild_s": total["tree.rebuild"],
        "tree.incremental_ratio": (
            tracer.incremental_rebuilds / tracer.rebuilds if tracer.rebuilds else 0.0
        ),
        "batch.trial_s_p50": median(op.trial_walls),
        "batch.worker_cpu_s": op.worker_cpu,
        "batch.parallel_efficiency": (
            op.worker_cpu / (op.cold_wall * workers) if pooled and op.cold_wall else 0.0
        ),
        "batch.overhead_s": (
            max(0.0, op.cold_wall - sum(op.trial_walls) / workers) if pooled else 0.0
        ),
        "campaign.expand_s": total["campaign.expand"],
        "store.completed_keys_s": total["store.completed_keys"],
        "store.record_s": total["store.record"],
        "store.export_s": total["store.export"],
        "cache.hit_ratio": op.cached / op.requested if op.requested else 0.0,
        "trace.overhead": overhead,
    }


def measure(bench, seconds: int, trace: bool):
    """Repeat ops for ``seconds``; with ``trace``, each op is followed by a
    traced twin.  Returns ``(ops, peak RSS after the first op, tracers,
    per-layer rows)``; a failed op is ``None``."""
    from spans import Tracer
    from workloads import peak_rss_mb

    ops, tracers, rows, rss = [], [], [], None
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        op, cpu = timed_op(bench)
        ops.append(op)
        if rss is None:
            rss = peak_rss_mb()
        if not trace or op is None:
            continue
        tracer = Tracer(op_id=len(ops), simulation_layers=bench.workload.in_process)
        with tracer.installed():
            traced, traced_cpu = timed_op(bench, tracer, "metrics")
        ops.append(traced)
        if traced is None:
            continue
        if traced.fingerprints != op.fingerprints:
            traced.problems.append("traced fingerprints differ from untraced ones")
        tracers.append(tracer)
        rows.append(
            layer_metrics(
                tracer, traced, traced_cpu / cpu, bench.workers, bench.workload.in_process
            )
        )
    return ops, rss, tracers, rows


def run_once(args, catalogue: dict) -> dict:
    """Run one workload at one seed; prints the report, returns the result."""
    from workloads import WORKLOADS, Bench

    workload = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[section]}
    STATE.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        bench = Bench(workload, args.seed, run_dir)
        warmup = perf_counter()
        bench.warm_up()
        warmup_s = perf_counter() - warmup
        ops, rss, tracers, rows = measure(bench, args.seconds, bool(args.trace))
        if args.trace:
            samples = {name: [row[name] for row in rows] for name in units} if rows else {}
            values = {name: median(v) for name, v in samples.items()}
        else:
            values, samples = end_to_end(bench, ops, rss or 0.0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [op for op in ops if op is not None]
    failed = sum(1 for op in ops if op is None or op.problems)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    if tracers:
        scope = "all layers" if workload.in_process else (
            "orchestration layers (trials run in pool workers)"
        )
        print(tracers[0].layer_table(
            f"layer table: {workload.name}, seed {args.seed}, op traced with {scope}"
        ))
        print(
            f"tracing overhead: traced op CPU / untraced op CPU = "
            f"{metrics['trace.overhead']['value']:.2f}x (median of {len(tracers)} pairs)"
        )
        for tracer in tracers[1:]:
            tracers[0].records.extend(tracer.records)
        tracers[0].write_records(STATE / f"spans-{workload.name}-seed{args.seed}.jsonl")
    if good and workload.in_process:
        print(
            f"setup: build CPU {median(sum(op.build_by_key.values()) for op in good):.4f} s vs wall "
            f"{median(op.build_wall for op in good):.4f} s per op"
        )
    print(f"warm-up op: {warmup_s:.2f} s wall, untimed")
    digest = good[0].digest() if good else {}
    print("digest (simulated statistics, exact): " + json.dumps(digest, sort_keys=True))
    for op in good:
        for problem in op.problems:
            print(f"CHECK FAILED: {problem}")
    if args.trace:
        print(f"per-layer values: medians of {len(rows)} traced ops")
    else:
        print(f"samples: {len(good)} ops, {len(samples.get('warm_round_s', []))} warm rounds")
    for name, metric in metrics.items():
        print(f"{name:<28}{metric['value']:>16.6g}  {metric['unit']}")
    result = {
        "correct": failed == 0 and bool(good),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    if good:
        digest["trials"] = dict(sorted(good[0].fingerprints.items()))
    append_history(args, result, digest, samples)
    return result


# ---------------------------------------------------------------------------
# Per-run record
# ---------------------------------------------------------------------------


def _host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _commit(src: Path):
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def append_history(args, result: dict, digest: dict, samples: dict) -> None:
    """Append (never overwrite) one record of this run."""
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": _commit(args.src),
        **_host(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "samples": samples,
        "digest": digest,
    }
    STATE.mkdir(exist_ok=True)
    with (STATE / "history.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Modes over several runs
# ---------------------------------------------------------------------------


def subprocess_run(workload: str, seed: int, seconds: int, trace: int, src: Path) -> dict:
    """One run in its own process (so peak RSS is this workload's alone)."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--src", str(src),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def run_all(args, catalogue: dict) -> int:
    """Every workload in turn; one table of every metric by name and unit."""
    ok = True
    print(f"{'workload':<18}{'metric':<28}{'value':>16}  unit")
    for workload in (w["name"] for w in catalogue["workloads"]):
        result = subprocess_run(workload, args.seed, args.seconds, args.trace, args.src)
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<18}{name:<28}{metric['value']:>16.6g}  {metric['unit']}")
        print(
            f"{workload:<18}{'failed/attempted ops':<28}"
            f"{result['failed']:>10}/{result['attempted']:<5}  correct={result['correct']}"
        )
    return 0 if ok else 1


def list_metrics(catalogue: dict) -> int:
    for section in ("end_to_end", "per_layer"):
        print(f"[{section}]")
        for m in catalogue[section]:
            extra = f"  bound {m['bound']}" if "bound" in m else ""
            better = f"  ({m['better']} is better)" if "better" in m else ""
            print(f"  {m['name']:<28}{m['unit']:<8}{better}{extra}")
    print("[workloads]")
    for w in catalogue["workloads"]:
        print(f"  {w['name']:<18}{w['why']}")
    return 0


def main(argv=None) -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=catalogue["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="program source to benchmark (default: this checkout's src/)")
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    parser.add_argument("--compare", metavar="REV",
                        help="paired runs of REV (in a git worktree) against this tree")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    args.src = args.src.resolve()

    if args.list:
        return list_metrics(catalogue)
    if args.compare:
        from compare import compare

        return compare(args, catalogue)
    if args.workload == "all":
        return run_all(args, catalogue)
    use_source(args.src)
    result = run_once(args, catalogue)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
