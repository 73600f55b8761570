"""The migrated benchmark suite.

These are the workloads that previously lived only as pytest-benchmark
tests under ``benchmarks/`` — the analyzer hot loops
(``test_analyzer_throughput.py``), the parallel-scheduler scaling
points, and the §V ablation kernels — re-expressed as registry
entries so ``repro bench run`` can execute them standalone, baseline
them, and gate CI on them.  The pytest files keep their semantic
assertions and now drive the same setup functions, so there is exactly
one definition of each timed kernel.

Importing this module populates
:data:`repro.bench.registry.DEFAULT_REGISTRY`.
"""

from __future__ import annotations

import io
from collections import Counter

from repro.bench.context import BenchContext
from repro.bench.registry import Workload, benchmark
from repro.core.trace import OpType

#: Cache-simulation shape shared with benchmarks/test_ablation_*.py.
CACHE_CAPACITY = 2048
REGION_CAPACITY = 32
TRAIN_FRACTION = 0.3


def replay_store(store, records):
    """Drive a KV store with the logical operation stream of a trace.

    Shared by the hybrid-store ablation here and in
    ``benchmarks/test_ablation_hybrid_store.py``.
    """
    value_cache: dict[int, bytes] = {}
    for record in records:
        op = record.op
        if op is OpType.WRITE or op is OpType.UPDATE:
            value = value_cache.get(record.value_size)
            if value is None:
                value = b"\xab" * record.value_size
                value_cache[record.value_size] = value
            store.put(record.key, value)
        elif op is OpType.DELETE:
            store.delete(record.key)
        elif op is OpType.READ:
            store.get_or_none(record.key)
        else:  # scan
            for index, _ in enumerate(store.scan(record.key)):
                if index >= 64:
                    break
    return store


def world_state_reads(records):
    """READ keys in the world-state classes (correlation/cache benches)."""
    from repro.core.classes import WORLD_STATE_CLASSES, KVClass, classify_key

    classes = set(WORLD_STATE_CLASSES) | {KVClass.CODE}
    return [
        record.key
        for record in records
        if record.op is OpType.READ and classify_key(record.key) in classes
    ]


# ---------------------------------------------------------------------------
# analyzer throughput (from benchmarks/test_analyzer_throughput.py)
# ---------------------------------------------------------------------------


@benchmark(group="analyzer")
def opdist_reference(ctx: BenchContext) -> Workload:
    """Record-at-a-time classification + op-distribution accounting."""
    from repro.core.opdist import OpDistAnalyzer

    records = ctx.bare_records
    return Workload(
        run=lambda: OpDistAnalyzer(track_keys=False).consume(records).total_ops,
        ops=len(records),
        check=lambda total: _expect(total, len(records)),
    )


@benchmark(group="analyzer")
def opdist_columnar(ctx: BenchContext) -> Workload:
    """Vectorized chunked op-distribution (the bincount reduction)."""
    from repro.core.opdist import OpDistAnalyzer

    trace = ctx.columnar_trace
    return Workload(
        run=lambda: OpDistAnalyzer(track_keys=False)
        .consume_chunks(trace.chunks)
        .total_ops,
        ops=len(trace),
        check=lambda total: _expect(total, len(trace)),
    )


@benchmark(group="analyzer")
def opdist_columnar_tracked(ctx: BenchContext) -> Workload:
    """Chunked op-distribution with per-key tracking enabled."""
    from repro.core.opdist import OpDistAnalyzer

    trace = ctx.columnar_trace
    return Workload(
        run=lambda: OpDistAnalyzer(track_keys=True)
        .consume_chunks(trace.chunks)
        .total_ops,
        ops=len(trace),
        check=lambda total: _expect(total, len(trace)),
    )


@benchmark(group="analyzer")
def serialization_v1(ctx: BenchContext) -> Workload:
    """Binary v1 trace write + streamed read round trip."""
    from repro.core.trace import TraceReader, records_to_bytes

    records = ctx.bare_records

    def roundtrip():
        blob = records_to_bytes(records)
        return sum(1 for _ in TraceReader(io.BytesIO(blob)))

    return Workload(
        run=roundtrip,
        ops=len(records),
        check=lambda count: _expect(count, len(records)),
    )


@benchmark(group="analyzer")
def serialization_v2(ctx: BenchContext) -> Workload:
    """Chunked columnar v2 trace write + read round trip."""
    from repro.core.trace import ColumnarTraceReader, ColumnarTraceWriter

    trace = ctx.columnar_trace

    def roundtrip():
        buffer = io.BytesIO()
        writer = ColumnarTraceWriter(buffer)
        for chunk in trace.chunks:
            writer.write_chunk(chunk)
        writer.finish()
        reader = ColumnarTraceReader(io.BytesIO(buffer.getvalue()))
        return sum(len(chunk) for chunk in reader.chunks())

    return Workload(
        run=roundtrip,
        ops=len(trace),
        check=lambda count: _expect(count, len(trace)),
    )


@benchmark(group="analyzer")
def blockstats_columnar(ctx: BenchContext) -> Workload:
    """Chunked per-block statistics."""
    from repro.core.blockstats import BlockStatsAnalyzer

    trace = ctx.columnar_trace

    def analyze():
        analyzer = BlockStatsAnalyzer()
        for chunk in trace.chunks:
            analyzer.consume_chunk(chunk)
        return analyzer.num_blocks

    return Workload(
        run=analyze,
        ops=len(trace),
        check=lambda blocks: _expect_at_least(blocks, ctx.profile.blocks),
    )


@benchmark(group="analyzer")
def correlation_read(ctx: BenchContext) -> Workload:
    """Vectorized read-correlation pair counting (Figures 4-5 kernel)."""
    from repro.core.correlation import CorrelationAnalyzer, CorrelationConfig

    records = ctx.bare_records

    def correlate():
        analyzer = CorrelationAnalyzer(
            CorrelationConfig(op=OpType.READ, distances=(0, 4, 64, 1024))
        )
        analyzer.consume(records)
        results = analyzer.compute()
        return sum(sum(r.class_pair_counts.values()) for r in results.values())

    return Workload(
        run=correlate,
        ops=len(records),
        check=lambda total: _expect_at_least(total, 1),
    )


# ---------------------------------------------------------------------------
# parallel scheduler scaling (from test_analyzer_throughput.py)
# ---------------------------------------------------------------------------


def _parallel_workload(ctx: BenchContext, workers: int) -> Workload:
    from repro.core.parallel import analyze_trace

    path = ctx.parallel_trace_path
    expected = ctx.profile.parallel_chunks * ctx.profile.parallel_records_per_chunk
    return Workload(
        run=lambda: analyze_trace(path, workers=workers, analyzers=("opdist",))[
            "opdist"
        ].total_ops,
        ops=expected,
        check=lambda total: _expect(total, expected),
    )


@benchmark(group="parallel")
def parallel_workers1(ctx: BenchContext) -> Workload:
    """Sharded analysis, in-process path (the scaling baseline)."""
    return _parallel_workload(ctx, workers=1)


@benchmark(group="parallel")
def parallel_workers2(ctx: BenchContext) -> Workload:
    """Sharded analysis across 2 worker processes."""
    return _parallel_workload(ctx, workers=2)


@benchmark(group="parallel")
def parallel_workers4(ctx: BenchContext) -> Workload:
    """Sharded analysis across 4 worker processes."""
    return _parallel_workload(ctx, workers=4)


# ---------------------------------------------------------------------------
# analysis hot path: partial-aggregate cache
# ---------------------------------------------------------------------------


def _cached_analysis_workload(ctx: BenchContext, warm: bool) -> Workload:
    """Cache-enabled analysis of the synthetic parallel trace.

    ``warm=False`` clears the cache at the top of every measured run, so
    each iteration pays compute + entry stores (the first-run cost);
    ``warm=True`` pre-populates once in setup and every measured run is
    served from cached per-chunk partials (read + CRC + merge only).
    The warm/cold ratio is the cache's whole value proposition and is
    asserted in ``benchmarks/test_analyzer_throughput.py``.
    """
    from repro.core.aggcache import AggregateCache, analyze_trace_cached
    from repro.obs import MetricsRegistry

    path = ctx.parallel_trace_path
    expected = ctx.profile.parallel_chunks * ctx.profile.parallel_records_per_chunk
    registry = MetricsRegistry()
    cache = AggregateCache(
        ctx.tmpdir / ("aggcache-warm" if warm else "aggcache-cold"), registry=registry
    )
    if warm:
        analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), registry=registry
        )

    def run():
        if not warm:
            cache.clear()
        return analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), registry=registry
        )["opdist"].total_ops

    return Workload(
        run=run, ops=expected, check=lambda total: _expect(total, expected)
    )


@benchmark(group="aggcache")
def aggcache_cold(ctx: BenchContext) -> Workload:
    """Cache-enabled analysis from an empty cache (compute + store)."""
    return _cached_analysis_workload(ctx, warm=False)


@benchmark(group="aggcache")
def aggcache_warm(ctx: BenchContext) -> Workload:
    """Warm re-analysis served entirely from cached per-chunk partials."""
    return _cached_analysis_workload(ctx, warm=True)


# ---------------------------------------------------------------------------
# replay engine (from benchmarks/test_replay_throughput.py)
# ---------------------------------------------------------------------------


def _replay_workload(ctx: BenchContext, backend: str, workers: int) -> Workload:
    """Closed-loop replay of the synthetic replay trace.

    Serial runs use the inline executor; sharded runs use the process
    executor (thread sharding is the pacing/backpressure mode, not a
    throughput mode under the GIL).  Fingerprinting is disabled so the
    timed region is the replay itself; latency is sampled 1-in-64 to
    keep the observation overhead out of the measured kernel.
    """
    from repro.obs import MetricsRegistry
    from repro.replay import ReplayConfig, replay_trace

    path = ctx.replay_trace_path
    expected = ctx.profile.replay_records
    config = ReplayConfig(
        backend=backend,
        workers=workers,
        executor="process" if workers > 1 else "thread",
        fingerprint=False,
        latency_sample=64,
    )
    return Workload(
        run=lambda: replay_trace(
            path, config, registry=MetricsRegistry()
        ).total_records,
        ops=expected,
        check=lambda total: _expect(total, expected),
    )


@benchmark(group="replay")
def replay_serial_memdb(ctx: BenchContext) -> Workload:
    """Serial inline replay on memdb (the sharding baseline)."""
    return _replay_workload(ctx, "memdb", workers=1)


@benchmark(group="replay")
def replay_workers2_memdb(ctx: BenchContext) -> Workload:
    """Process-sharded replay on memdb, 2 workers."""
    return _replay_workload(ctx, "memdb", workers=2)


@benchmark(group="replay")
def replay_workers4_memdb(ctx: BenchContext) -> Workload:
    """Process-sharded replay on memdb, 4 workers."""
    return _replay_workload(ctx, "memdb", workers=4)


@benchmark(group="replay")
def replay_serial_lsm(ctx: BenchContext) -> Workload:
    """Serial inline replay on the LSM simulator."""
    return _replay_workload(ctx, "lsm", workers=1)


@benchmark(group="replay")
def replay_workers4_lsm(ctx: BenchContext) -> Workload:
    """Process-sharded replay on the LSM simulator, 4 workers."""
    return _replay_workload(ctx, "lsm", workers=4)


# ---------------------------------------------------------------------------
# §V ablation kernels (from benchmarks/test_ablation_*.py)
# ---------------------------------------------------------------------------


@benchmark(group="ablation")
def ablation_hybrid_store(ctx: BenchContext) -> Workload:
    """Replay the BareTrace stream into the paper's hybrid KV design."""
    from repro.hybrid import HybridKVStore
    from repro.kvstore.lsm import LSMConfig

    lsm_config = LSMConfig(
        memtable_bytes=64 * 1024, l0_compaction_trigger=4, level_base_bytes=256 * 1024
    )
    records = ctx.bare_records
    return Workload(
        run=lambda: len(replay_store(HybridKVStore(lsm_config=lsm_config), records)),
        ops=len(records),
        check=lambda live: _expect_at_least(live, 1),
    )


@benchmark(group="ablation")
def ablation_correlation_cache(ctx: BenchContext) -> Workload:
    """Correlation-aware cache replay over the BareTrace read stream."""
    from repro.cachesim import (
        CacheSimulator,
        CorrelationAwareCache,
        CorrelationTable,
    )
    from repro.core.classes import WORLD_STATE_CLASSES, KVClass

    records = ctx.bare_records
    classes = set(WORLD_STATE_CLASSES) | {KVClass.CODE}
    cutoff = int(len(records) * TRAIN_FRACTION)
    table = CorrelationTable(window=4, max_partners=3)
    table.learn(world_state_reads(records[:cutoff]))

    def run():
        policy = CorrelationAwareCache(CACHE_CAPACITY, table)
        return CacheSimulator(policy).replay(records, classes=classes).reads

    return Workload(run=run, ops=len(records), check=lambda r: _expect_at_least(r, 1))


@benchmark(group="ablation")
def ablation_colocation(ctx: BenchContext) -> Workload:
    """Build + evaluate a correlation-clustered storage placement."""
    from repro.cachesim.correlation_cache import CorrelationTable
    from repro.hybrid import CorrelationLayout, LayoutEvaluator

    reads = world_state_reads(ctx.bare_records)
    cutoff = int(len(reads) * TRAIN_FRACTION)
    train, replay = reads[:cutoff], reads[cutoff:]

    def run():
        table = CorrelationTable(window=2, max_partners=4)
        table.learn(train)
        layout = CorrelationLayout(region_capacity=REGION_CAPACITY)
        layout.build(table, train, Counter(train))
        layout.place_remaining(reads)
        report = LayoutEvaluator().evaluate(
            "correlation-aware", replay, layout.region_of
        )
        return report.regions_used

    return Workload(run=run, ops=len(reads), check=lambda used: _expect_at_least(used, 1))


@benchmark(group="ablation", slow=True)
def ablation_path_vs_hash(ctx: BenchContext) -> Workload:
    """Full sync with the legacy hash scheme shadow-mirrored (slow)."""
    from repro.sync.driver import DBConfig, FullSyncDriver, SyncConfig
    from repro.workload.generator import WorkloadGenerator

    profile = ctx.profile

    def run():
        config = SyncConfig(
            db=DBConfig.bare_trace_config(),
            warmup_blocks=profile.warmup_blocks,
            mirror_hash_scheme=True,
        )
        driver = FullSyncDriver(
            config, WorkloadGenerator(ctx.workload_config), name="mirror"
        )
        result = driver.run(profile.blocks)
        return driver.hash_scheme_mirror.total_nodes + len(result.records)

    return Workload(run=run, check=lambda total: _expect_at_least(total, 1))


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------


def _expect(actual, expected) -> None:
    if actual != expected:
        raise AssertionError(f"benchmark check failed: {actual!r} != {expected!r}")


def _expect_at_least(actual, floor) -> None:
    if actual < floor:
        raise AssertionError(f"benchmark check failed: {actual!r} < {floor!r}")


# ---------------------------------------------------------------------------
# migration engine (repro migrate)
# ---------------------------------------------------------------------------


def _migrate_source_pairs(profile) -> int:
    """Pairs in the synthetic migration source, scaled like replay_keys."""
    return profile.replay_keys


def _migrate_workload(ctx: BenchContext, backend_from: str, backend_to: str) -> Workload:
    """In-memory bulk migration throughput for one backend pair.

    The timed region is a whole engine run — ranged bulk copy, one
    quiesced catch-up round, and the paused cutover — against a
    deterministic source store, with verification off so the measured
    kernel is the data movement, not the sha256 pass.
    """
    from repro.migrate import MigrationConfig, MigrationEngine
    from repro.obs import MetricsRegistry
    from repro.replay.backends import make_store

    num_pairs = _migrate_source_pairs(ctx.profile)
    pairs = [
        (b"m" + i.to_bytes(4, "big"), (b"m" + i.to_bytes(4, "big")) * 9)
        for i in range(num_pairs)
    ]

    def run() -> int:
        source = make_store(backend_from)
        for key, value in pairs:
            source.put(key, value)
        engine = MigrationEngine(
            source,
            make_store(backend_to),
            MigrationConfig(
                backend_from=backend_from,
                backend_to=backend_to,
                range_pairs=2048,
                lag_threshold=0,
                verify=False,
            ),
            registry=MetricsRegistry(),
        )
        report = engine.run()
        if not report.completed:
            raise AssertionError("migration did not complete")
        return report.pairs_copied

    return Workload(
        run=run, ops=num_pairs, check=lambda copied: _expect(copied, num_pairs)
    )


@benchmark(group="migrate")
def migrate_bulk_memdb_to_lsm(ctx: BenchContext) -> Workload:
    """Bulk migration throughput: memdb source into the LSM simulator."""
    return _migrate_workload(ctx, "memdb", "lsm")


@benchmark(group="migrate")
def migrate_bulk_lsm_to_hybrid(ctx: BenchContext) -> Workload:
    """Bulk migration throughput: LSM source into the hybrid store."""
    return _migrate_workload(ctx, "lsm", "hybrid")


@benchmark(group="migrate")
def migrate_bulk_btree_to_hashlog(ctx: BenchContext) -> Workload:
    """Bulk migration throughput: B+tree source into the hash log."""
    return _migrate_workload(ctx, "btree", "hashlog")


@benchmark(group="migrate")
def migrate_cutover_verified(ctx: BenchContext) -> Workload:
    """Cutover cost: pause + final drain + three-level verify + flip.

    A small pre-copied store keeps the bulk phase trivial, so the
    measured time is dominated by what the workload actually blocks on
    during a live migration: the admission pause window.  The check
    reads the measured pause back out of the report.
    """
    from repro.migrate import MigrationConfig, MigrationEngine
    from repro.obs import MetricsRegistry
    from repro.replay.backends import make_store

    num_pairs = max(512, _migrate_source_pairs(ctx.profile) // 8)
    pairs = [
        (b"c" + i.to_bytes(4, "big"), (b"c" + i.to_bytes(4, "big")) * 5)
        for i in range(num_pairs)
    ]

    def run() -> float:
        source = make_store("memdb")
        for key, value in pairs:
            source.put(key, value)
        engine = MigrationEngine(
            source,
            make_store("memdb"),
            MigrationConfig(lag_threshold=0, verify=True),
            registry=MetricsRegistry(),
        )
        report = engine.run()
        if not (report.completed and report.verify is not None and report.verify.match):
            raise AssertionError("verified cutover did not complete cleanly")
        return report.cutover_pause_s

    return Workload(run=run, ops=1, check=lambda pause: _expect_at_least(pause, 0.0))


# ---------------------------------------------------------------------------
# beam sync
# ---------------------------------------------------------------------------


def _beamsync_workload(ctx: BenchContext, profiles: list[str]) -> Workload:
    """Beam-sync a block window from simulated peers over a cached pivot.

    The serving peer is built once per context; each timed run rebuilds
    the peer wrappers and the beam node, so what's measured is the
    fetch/heal/execute path itself (the peer network runs in virtual
    time — no real sleeps inflate the numbers).
    """
    from repro.peers import SchedulerConfig, build_peer_network
    from repro.sync.beamsync import BeamSyncConfig, BeamSyncDriver

    peer_node = ctx.beam_peer_node
    beam_blocks = max(2, ctx.profile.blocks // 5)

    def run() -> int:
        peers = build_peer_network(peer_node, profiles, seed=7)
        driver = BeamSyncDriver(
            workload_config=ctx.workload_config,
            beam_config=BeamSyncConfig(scheduler=SchedulerConfig(max_attempts=12)),
        )
        result = driver.sync_from(peers, beam_blocks=beam_blocks)
        return result.nodes_fetched

    return Workload(run=run, check=lambda fetched: _expect_at_least(fetched, 1))


@benchmark(group="beamsync")
def beamsync_healthy(ctx: BenchContext) -> Workload:
    """Beam sync from three healthy peers (the fast-path baseline)."""
    return _beamsync_workload(ctx, ["healthy", "healthy", "healthy"])


@benchmark(group="beamsync")
def beamsync_degraded(ctx: BenchContext) -> Workload:
    """Beam sync through a degraded network: one slow, one dropping peer."""
    return _beamsync_workload(ctx, ["healthy", "slow", "dropping"])
