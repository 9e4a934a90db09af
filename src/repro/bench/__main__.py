"""CLI: regenerate every table and figure of the paper's evaluation.

Usage::

    python -m repro.bench                 # all experiments, rendered tables
    python -m repro.bench table3          # one experiment
    python -m repro.bench --json          # machine-readable results
    python -m repro.bench --json figure5  # one experiment as JSON
    python -m repro.bench --reports       # also write BENCH_<phase>.json files
    python -m repro.bench --help          # usage; runs nothing
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import EXPERIMENTS, SYNTHESES, run_experiment, write_phase_reports


def _to_json(result) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": [[str(c) for c in row] for row in result.rows],
        "checks": result.checks,
        "notes": result.notes,
        "all_checks_pass": result.all_checks_pass,
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of the paper's evaluation.",
    )
    ap.add_argument("experiments", nargs="*", metavar="experiment",
                    help="experiment ids (default: all, about two minutes)")
    ap.add_argument("--json", action="store_true", help="machine-readable results")
    ap.add_argument("--reports", action="store_true",
                    help="also write BENCH_<phase>.json files")
    args = ap.parse_args(argv)  # --help or an unknown flag exits here, before any run
    targets = args.experiments or list(EXPERIMENTS) + list(SYNTHESES)
    failed = 0
    json_out = []
    results = {}
    for eid in targets:
        result = run_experiment(eid)
        results[eid] = result
        if args.json:
            json_out.append(_to_json(result))
        else:
            print(result.render())
            print()
        if not result.all_checks_pass:
            failed += 1
    if args.json:
        print(json.dumps(json_out, indent=2))
    if args.reports:
        for phase, path in write_phase_reports(results).items():
            print(f"wrote {phase} phase report: {path}", file=sys.stderr)
    if failed:
        print(f"{failed} experiment(s) had failing shape checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
