# Convenience targets for the reproduction.

.PHONY: install test test-maint-stress bench bench-e2e bench-micro bench-insert bench-insert-smoke bench-fault bench-fault-smoke bench-query bench-query-smoke bench-quant bench-quant-smoke bench-maint bench-maint-smoke bench-reshard bench-reshard-smoke bench-cache bench-cache-smoke paper examples clean

install:
	pip install -e . || python setup.py develop

# Mirrors the tier-1 verification command in ROADMAP.md.
test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

# The repo's one end-to-end benchmark (benchmarks/e2e/README.md), one
# workload per run: bulk_ingest, pipeline_hnsw, serving_skewed or mixed_rw.
WORKLOAD ?= pipeline_hnsw
SEED ?= 1
bench-e2e:
	python3 benchmarks/e2e/run.py --workload $(WORKLOAD) --seed $(SEED)

# Real-database micro-benchmarks (batched vs per-query, parallel fan-out
# and builds) — plain pytest so the latency/overlap asserts also run.
bench-micro:
	PYTHONPATH=src python -m pytest benchmarks/test_micro_real_db.py -q

# Insertion-pipeline bench: Figure-2 batch/concurrency sweep, parallel
# fan-out + columnar WAL group commit vs the serial seed path, crash replay.
bench-insert:
	PYTHONPATH=src python -m pytest benchmarks/test_insertion_pipeline.py -q

# Tiny assert-only variant for CI (no wall-clock speedup thresholds).
bench-insert-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_insertion_pipeline.py -q

# Chaos harness: kill/heal workers mid-sweep, assert bit-identical results
# under rf=2 and graceful degradation under rf=1.
bench-fault:
	PYTHONPATH=src python -m pytest benchmarks/test_fault_tolerance.py -q

bench-fault-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_fault_tolerance.py -q

# Query-coalescing bench: §3.4 concurrency regime — concurrent clients vs
# one-at-a-time fan-outs under injected RPC latency, bit-identity asserted.
bench-query:
	PYTHONPATH=src python -m pytest benchmarks/test_query_coalescing.py -q

bench-query-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_query_coalescing.py -q

# Quantized-scoring bench: integer-domain scan vs the decode-tile baseline
# at 100k x 256, allocation bound (no per-query float32 decode), recall@10
# parity under exact rescore.
bench-quant:
	PYTHONPATH=src python -m pytest benchmarks/test_quantized_scoring.py -q

bench-quant-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_quantized_scoring.py -q

# Write-path stall bench: p99 upsert latency while a background
# copy-on-write pass builds an HNSW index, plus bit-identity of
# background-maintained results vs the synchronous optimize().
bench-maint:
	PYTHONPATH=src python -m pytest benchmarks/test_maintenance_stall.py -q

bench-maint-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_maintenance_stall.py -q

# Live resharding bench: 3->4 worker scale-out under concurrent writers
# and searchers — zero lost/duplicated points, bit-identity vs a static
# twin, bounded search p99 during migration, copy-throttle accuracy.
bench-reshard:
	PYTHONPATH=src python -m pytest benchmarks/test_resharding.py -q

bench-reshard-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_resharding.py -q

# Result-cache bench: Zipf-skewed term-query replay with and without the
# generation-fenced cache — >=3x p50 speedup at >=60% hit rate, <5% p50
# overhead at 0% hit rate, bit-identity after write invalidation.
bench-cache:
	PYTHONPATH=src python -m pytest benchmarks/test_query_cache.py -q

bench-cache-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_query_cache.py -q

# Concurrent maintenance stress: writers + searchers + vacuum/merge swaps,
# with a full no-lost-points invariant sweep at the end.
test-maint-stress:
	PYTHONPATH=src python -m pytest tests/core/test_maintenance_stress.py -q

paper:
	python -m repro.bench

examples:
	python examples/quickstart.py
	python examples/biological_rag.py
	python examples/embedding_campaign.py
	python examples/distributed_scaling.py
	python examples/chunked_retrieval.py
	python examples/architecture_comparison.py
	python examples/reproduce_paper.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
