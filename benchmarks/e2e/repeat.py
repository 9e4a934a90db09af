"""Repeat the untraced benchmark and judge how well it repeats.

    python3 benchmarks/e2e/repeat.py --runs 10
    python3 benchmarks/e2e/repeat.py --runs 10 --against ../parent-checkout

Without ``--against`` every workload runs ``--runs`` times on this checkout,
each time with another seed.  Per end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), their distance as a
share of the median (the *spread*) beside the metric's bound, and the
medians of the first and second half of the runs.  It exits non-zero when a
spread exceeds its bound or when the second half is worse than the first by
more than the bound: the two tests the driver applies to ten runs, twice
(the driver lets ``setup_s`` off the spread test; this tool does not).

With ``--against DIR`` each run is a pair: this checkout and the checkout in
``DIR`` (the parent commit) run the same workload and seed back to back,
alternating which side goes first.  Per metric it prints both sides'
medians and quartiles, the share of pairs this checkout wins, and a verdict
by the rule in the choosing-metrics guide: *gain* needs nine wins in ten and
a median difference larger than the parent's own quartile distance;
*regression* is a median worse than the parent's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as decl  # noqa: E402


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced run in the checkout at ``root``; its metric values."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} in {root} failed "
                 f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(name: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    delta = (other - base) / base
    return delta if decl.E2E[name]["better"] == "lower" else -delta


def judge_repeats(workload: str, runs: list[dict[str, float]]) -> bool:
    half = len(runs) // 2
    ok = True
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}"
          f"{'half 1':>12}{'half 2':>12}")
    for name, meta in decl.E2E.items():
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        first = statistics.median(values[:half])
        second = statistics.median(values[-half:])
        flags = []
        if spread > meta["bound"]:
            flags.append("SPREAD")
        if worse_by(name, first, second) > meta["bound"]:
            flags.append("HALVES")
        ok = ok and not flags
        print(f"  {name:<30}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>8.1%}"
              f"{meta['bound']:>7.0%}{first:>12.5g}{second:>12.5g}  {' '.join(flags)}")
    return ok


def judge_pairs(workload: str, ours: list[dict], theirs: list[dict]) -> bool:
    ok = True
    print(f"\n{workload}: {len(ours)} pairs (this checkout vs parent)")
    print(f"  {'metric':<30}{'this med':>12}{'[q1':>11}{'q3]':>11}{'parent med':>12}"
          f"{'[q1':>11}{'q3]':>11}{'wins':>6}  verdict")
    for name, meta in decl.E2E.items():
        a, b = [r[name] for r in ours], [r[name] for r in theirs]
        aq1, amed, aq3 = quartiles(a)
        bq1, bmed, bq3 = quartiles(b)
        better = [worse_by(name, x, y) > 0 for x, y in zip(a, b) if x != y]
        wins = sum(better) / len(better) if better else 0.0
        change = worse_by(name, bmed, amed)        # > 0: this checkout is worse
        spread = max((aq3 - aq1) / amed, (bq3 - bq1) / bmed)
        if change > meta["bound"]:
            verdict, ok = "REGRESSION", False
        elif wins >= 0.9 and abs(amed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif spread > meta["bound"] and not all(better):
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "no change"
        print(f"  {name:<30}{amed:>12.5g}{aq1:>11.5g}{aq3:>11.5g}{bmed:>12.5g}"
              f"{bq1:>11.5g}{bq3:>11.5g}{wins:>6.0%}  {verdict} ({-change:+.1%})")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs (or pairs) per workload")
    ap.add_argument("--workload", action="append", choices=list(decl.WORKLOADS),
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=float, default=decl.RUN_SECONDS)
    ap.add_argument("--against", metavar="DIR", help="checkout of the parent commit")
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 (quartiles of two halves)")

    ok = True
    for workload in args.workload or list(decl.WORKLOADS):
        ours, theirs = [], []
        for i in range(args.runs):
            seed = args.seed + i
            sides = [(ROOT, ours)]
            if args.against:
                sides.append((os.path.abspath(args.against), theirs))
                if i % 2:
                    sides.reverse()
            for root, sink in sides:
                sink.append(run_once(root, workload, seed, args.seconds))
            print(f"{workload} run {i + 1}/{args.runs} done", file=sys.stderr)
        if args.against:
            ok = judge_pairs(workload, ours, theirs) and ok
        else:
            ok = judge_repeats(workload, ours) and ok
    print("\nwithin bounds" if ok else "\nOUT OF BOUNDS (see the flags and verdicts above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
