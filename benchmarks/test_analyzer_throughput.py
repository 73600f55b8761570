"""Analyzer throughput benchmarks.

The paper's full traces hold billions of operations; the analyses must
stream.  These benches measure the per-record cost of each analyzer on
the benchmark trace so regressions in the hot loops are visible:

* classification + op-distribution accounting (Tables II/III) — both
  the record-at-a-time reference path and the columnar chunk path;
* trace (de)serialization round-trip (binary v1 and columnar v2);
* the vectorized correlation pair counter (Figures 4-7);
* per-block statistics;
* the process-parallel sharded scheduler at ``workers=2,4``.

The timed kernels are the registered workloads from
:mod:`repro.bench.suite` — the same definitions ``repro bench run``
executes and baselines — so the pytest floors and the CI perf-gate
gate one implementation.  Set ``BENCH_JSON=...`` to emit records/s as
a JSON artifact (merged across bench files; see conftest).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import load_default_suite
from repro.core.parallel import analyze_chunks, analyze_trace
from repro.obs.registry import MetricsRegistry

REGISTRY = load_default_suite()


def _workload(name, bench_ctx):
    return REGISTRY.get(name).setup(bench_ctx)


def test_opdist_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("opdist_reference", bench_ctx)
    total = benchmark(workload.run)
    assert total == workload.ops == len(bench_ctx.bare_records)
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("opdist_reference", rate)
    print(f"\nopdist: {rate / 1e6:.2f} M records/s over {workload.ops:,} records")
    assert rate > 100_000  # floor: 100k records/s (record-at-a-time path)


def test_opdist_columnar_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("opdist_columnar", bench_ctx)
    total = benchmark(workload.run)
    assert total == workload.ops == len(bench_ctx.columnar_trace)
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("opdist_columnar", rate)
    print(
        f"\nopdist columnar: {rate / 1e6:.2f} M records/s "
        f"over {workload.ops:,} records"
    )
    # floor: 1M records/s — 10x the reference path's floor.  The
    # bincount reduction actually sustains >50M records/s; 1M keeps the
    # assertion robust on slow CI runners while still catching any
    # regression back to per-record dispatch.
    assert rate > 1_000_000


def test_opdist_columnar_tracked_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("opdist_columnar_tracked", bench_ctx)
    total = benchmark(workload.run)
    assert total == workload.ops
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("opdist_columnar_tracked", rate)
    print(f"\nopdist columnar+keys: {rate / 1e6:.2f} M records/s")
    assert rate > 500_000  # per-key tracking still beats the reference floor 5x


def test_trace_serialization_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("serialization_v1", bench_ctx)
    count = benchmark(workload.run)
    assert count == workload.ops
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("serialization_v1", rate)
    print(f"\nserialization: {rate / 1e6:.2f} M records/s round-trip")


def test_trace_v2_serialization_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("serialization_v2", bench_ctx)
    count = benchmark(workload.run)
    assert count == workload.ops
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("serialization_v2", rate)
    print(f"\nv2 serialization: {rate / 1e6:.2f} M records/s round-trip")
    assert rate > 1_000_000  # columnar blocks (de)serialize at array speed


def test_correlation_throughput(benchmark, bench_ctx):
    workload = _workload("correlation_read", bench_ctx)
    total = benchmark.pedantic(workload.run, rounds=2, iterations=1)
    assert total > 0


def test_blockstats_throughput(benchmark, bench_trace_pair):
    from repro.core.blockstats import BlockStatsAnalyzer

    _, bare_result = bench_trace_pair
    records = bare_result.records

    def analyze():
        return BlockStatsAnalyzer().consume(records).num_blocks

    blocks = benchmark(analyze)
    assert blocks >= 150


def test_blockstats_columnar_throughput(benchmark, bench_ctx, record_rate):
    workload = _workload("blockstats_columnar", bench_ctx)
    blocks = benchmark(workload.run)
    assert blocks >= 150
    rate = workload.ops / benchmark.stats.stats.mean
    record_rate("blockstats_columnar", rate)
    print(f"\nblockstats columnar: {rate / 1e6:.2f} M records/s")


def test_instrumentation_overhead(bench_ctx, record_rate):
    """Metrics accounting must stay off the hot path: the per-chunk
    counter increments in ``analyze_chunks`` may cost < 5% of columnar
    analysis throughput.  Best-of-5 each way filters scheduler noise."""
    trace = bench_ctx.columnar_trace
    # Repeat the chunk stream so each timed run lasts long enough for
    # the comparison to rise above timer noise.
    repeats = 50
    chunks = list(trace.chunks) * repeats

    def run(registry):
        start = time.perf_counter()
        built = analyze_chunks(
            chunks, analyzers=("opdist",), track_keys=False, registry=registry
        )
        elapsed = time.perf_counter() - start
        assert built["opdist"].total_ops == len(trace) * repeats
        return elapsed

    bare = min(run(None) for _ in range(5))
    instrumented = min(run(MetricsRegistry()) for _ in range(5))
    overhead_pct = max(0.0, (instrumented - bare) / bare * 100.0)
    record_rate("obs_overhead_pct", overhead_pct)
    print(
        f"\ninstrumentation overhead: {overhead_pct:.2f}% "
        f"(bare {bare * 1e3:.2f} ms, instrumented {instrumented * 1e3:.2f} ms)"
    )
    assert overhead_pct < 5.0, f"instrumentation overhead {overhead_pct:.2f}% >= 5%"


# ---------------------------------------------------------------------------
# Parallel scheduler
# ---------------------------------------------------------------------------
#
# The synthetic multi-chunk trace shape lives in the full profile of
# repro.bench.context (enough per-chunk per-key Python work for process
# parallelism to pay for its fork/IPC overhead).


@pytest.fixture(scope="session")
def sequential_baseline(bench_ctx, record_rate):
    path = bench_ctx.parallel_trace_path
    start = time.perf_counter()
    results = analyze_trace(path, workers=1)
    elapsed = time.perf_counter() - start
    total = results["opdist"].total_ops
    profile = bench_ctx.profile
    assert total == profile.parallel_chunks * profile.parallel_records_per_chunk
    record_rate("parallel_workers1", total / elapsed)
    return elapsed, total


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_scheduler_throughput(
    bench_ctx, sequential_baseline, record_rate, workers
):
    seq_elapsed, seq_total = sequential_baseline
    start = time.perf_counter()
    results = analyze_trace(bench_ctx.parallel_trace_path, workers=workers)
    elapsed = time.perf_counter() - start
    total = results["opdist"].total_ops
    assert total == seq_total  # sharded reduction covers every record
    rate = total / elapsed
    record_rate(f"parallel_workers{workers}", rate)
    speedup = seq_elapsed / elapsed
    print(
        f"\nparallel workers={workers}: {rate / 1e6:.2f} M records/s "
        f"({speedup:.2f}x vs workers=1)"
    )
    cores = os.cpu_count() or 1
    if cores >= workers:
        # With enough cores the sharded scheduler must show a measurable
        # speedup over the in-process pass.
        assert speedup > 1.1, (
            f"no parallel speedup at workers={workers}: {speedup:.2f}x"
        )
    elif cores == 1:
        pytest.skip(
            f"single-core machine: measured {speedup:.2f}x, not asserting speedup"
        )


# ---------------------------------------------------------------------------
# Analysis hot path: partial-aggregate cache
# ---------------------------------------------------------------------------


def _best_of(workload, rounds=3):
    """Min-of-N wall time for one workload (same filtering as the
    parallel benches use against scheduler noise)."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = workload.run()
        times.append(time.perf_counter() - start)
        assert total == workload.ops
    return min(times)


def test_aggcache_warm_speedup(bench_ctx, record_rate):
    """Warm cached re-analysis must be >= 2x the cold (compute + store)
    run — the headline target of the partial-aggregate cache."""
    cold = _workload("aggcache_cold", bench_ctx)
    warm = _workload("aggcache_warm", bench_ctx)
    cold_elapsed = _best_of(cold)
    warm_elapsed = _best_of(warm)
    record_rate("aggcache_cold", cold.ops / cold_elapsed)
    record_rate("aggcache_warm", warm.ops / warm_elapsed)
    speedup = cold_elapsed / warm_elapsed
    print(
        f"\naggcache: cold {cold_elapsed * 1e3:.1f} ms, "
        f"warm {warm_elapsed * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 2.0, f"warm cache only {speedup:.2f}x over cold (< 2x)"
