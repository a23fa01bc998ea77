"""Paired comparison of a git revision against the working tree.

``python3 perfbench/run.py --compare REV [--workload W|all] [--pairs 10]``
checks REV out in a detached ``git worktree`` under ``.perfbench/``, then
runs both sides with this tree's benchmark code: pair ``i`` uses seed
``--seed + i`` on both sides and alternates which side runs first.  Each
workload and end-to-end metric gets its own row with each side's median
and quartiles, the ratio of the medians (working tree over REV) and the
share of pairs the working tree wins; ties count for neither side.
"""

from __future__ import annotations

import statistics
import subprocess
from pathlib import Path

from run import ROOT, STATE, subprocess_run


def _git(*args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=120
    )
    if out.returncode != 0:
        raise SystemExit(f"error: git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.4g}, {q3:.4g}]"


def _verdict(base, head, metric, wins: int) -> str:
    """The gain rule: the working tree wins at least 9 of 10 pairs and the
    medians differ by more than REV's own quartile spread; a regression is
    a median worse than REV's by more than the metric's bound."""
    q1, _, q3 = statistics.quantiles(base, n=4)
    b, h = statistics.median(base), statistics.median(head)
    sign = 1 if metric["better"] == "higher" else -1
    if wins >= 0.9 * len(base) and sign * (h - b) > q3 - q1:
        return "gain"
    if sign * (b - h) > metric["bound"] * b:
        return "regression"
    return "within bound"


def compare(args, catalogue: dict) -> int:
    if args.pairs < 2:
        raise SystemExit("error: --pairs must be at least 2")
    sha = _git("rev-parse", "--verify", f"{args.compare}^{{commit}}")
    tree = STATE / f"worktree-{sha[:12]}"
    STATE.mkdir(exist_ok=True)
    _git("worktree", "add", "--detach", str(tree), sha)
    workloads = (
        [w["name"] for w in catalogue["workloads"]]
        if args.workload == "all"
        else [args.workload]
    )
    ok = True
    try:
        rows = []
        for workload in workloads:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                sides = [("base", tree / "src"), ("head", args.src)]
                if i % 2:
                    sides.reverse()
                for side, src in sides:
                    result = subprocess_run(workload, args.seed + i, args.seconds, 0, src)
                    ok = ok and result["correct"]
                    runs[side].append(result)
            for metric in catalogue["end_to_end"]:
                name = metric["name"]
                base = [r["metrics"][name]["value"] for r in runs["base"]]
                head = [r["metrics"][name]["value"] for r in runs["head"]]
                sign = 1 if metric["better"] == "higher" else -1
                wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
                ratio = statistics.median(head) / statistics.median(base)
                rows.append(
                    f"{workload:<18}{name:<20}{_summary(base):<30}{_summary(head):<30}"
                    f"{ratio:>9.3f}{wins:>5}/{len(base):<4}{_verdict(base, head, metric, wins)}"
                )
        print(f"base = {args.compare} ({sha[:12]}), head = {Path(args.src)}")
        print(
            f"{'workload':<18}{'metric':<20}{'base median [q1, q3]':<30}"
            f"{'head median [q1, q3]':<30}{'head/base':>9}{'wins':>10}  verdict"
        )
        print("\n".join(rows))
    finally:
        _git("worktree", "remove", "--force", str(tree))
    return 0 if ok else 1
