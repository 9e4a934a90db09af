"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload pipeline_hnsw --seed 1

``--trace 0`` (default) measures the end-to-end metrics with no wrapper
installed; ``--trace 1`` installs the benchmark's own spans, prints the
per-layer table and writes ``e2e-<workload>.trace.json`` under
``benchmarks/e2e/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any operation or correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics as decl  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(decl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=decl.RUN_SECONDS,
                    help="length of the timed phases; scales op counts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The timed phases run on one core.  ``repro.core`` is threads under one
    # GIL; given two cores the kernel sometimes stacks them on one and
    # sometimes spreads them, a round of queries then runs at 320 or at 120
    # queries/s, and the share of each changes from minute to minute: ten
    # free runs spread up to 43 % (README, "Load model").  The free-running
    # phase reports the two-core numbers from the same run.
    # Pinned before numpy is first imported (through ``workloads``), so that
    # its BLAS pool sizes itself for one core instead of spinning on it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    try:
        res, tally = workloads.run(args.workload, args.seed, args.seconds, workdir,
                                   cpus, recorder)
        if args.trace:
            layer_values, layer_table = tracing.per_layer(recorder, res)
        workloads.check_serving(res, tally)
        workloads.tear_down(res.env)
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"timed wall {res.extra['timed_s']:.2f} s")
    if args.trace:
        trace_path = os.path.join(OUT, f"e2e-{args.workload}.trace.json")
        recorder.dump(trace_path, res.extra["timed_t0"])
        print(f"{len(recorder.spans)} spans written to {os.path.relpath(trace_path)}\n")
        print(layer_table, "\n")
        reported = {n: (layer_values[n], decl.PER_LAYER[n]["unit"]) for n in decl.PER_LAYER}
    else:
        reported = {n: (res.metrics[n], decl.E2E[n]["unit"]) for n in decl.E2E}
    for name, (value, unit) in reported.items():
        samples = res.samples.get(name)
        note = f"   n={samples}" if samples else ""
        print(f"{name:<40}{value:>16.6g} {unit}{note}")
    if not args.trace:
        print(f"free-running on {len(cpus)} cores: "
              f"{res.extra['free_query_qps']:.4g} queries/s, "
              f"p50 {res.extra['free_query_p50_ms']:.4g} ms, "
              f"{res.extra['free_insert_points_per_s']:.5g} points/s inserted")
    for note in tally.notes:
        print("FAILED:", note)
    print(f"operations: {tally.failed} failed of {tally.attempted} attempted")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in reported.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
