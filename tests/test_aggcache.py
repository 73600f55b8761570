"""Partial-aggregate cache tests.

The cache's contract is absolute: a warm run must produce results
semantically identical to a cold run (any workers, any analyzer set),
and a changed chunk, a bumped analyzer version, or a damaged entry must
*never* be served stale — they recompute.  The equivalence assertions
reuse the analyzer-level helpers from ``test_parallel`` so "identical"
means the same thing here as it does for the sharded scheduler.
"""

from __future__ import annotations

import os
import pickle

import pytest

from tests.test_parallel import (
    _assert_blockstats_equal,
    _assert_iostats_equal,
    _assert_opdist_equal,
    _random_records,
)

from repro.core.aggcache import (
    CACHE_FORMAT_VERSION,
    AggregateCache,
    analyze_trace_cached,
    analyze_trace_maybe_cached,
    default_cache_dir,
)
from repro.core.opdist import OpDistAnalyzer
from repro.core.parallel import RetryPolicy, WorkerFault, analyze_trace
from repro.core.trace import read_trace_footer, write_trace, write_trace_v2
from repro.errors import AnalysisError, TraceFormatError
from repro.obs.registry import MetricsRegistry

ANALYZERS = ("opdist", "blockstats", "iostats")

_EQUAL = {
    "opdist": _assert_opdist_equal,
    "blockstats": _assert_blockstats_equal,
    "iostats": _assert_iostats_equal,
}


def _assert_opdist_counts_equal(a, b):
    """Distribution-only opdist comparison (for ``track_keys=False``,
    where the per-key activity accessors refuse to answer)."""
    assert a.total_ops == b.total_ops
    from repro.core.classes import CLASS_LIST

    for kv_class in CLASS_LIST:
        da, db = a.distribution(kv_class), b.distribution(kv_class)
        assert (da.writes, da.updates, da.reads, da.scans, da.deletes) == (
            db.writes,
            db.updates,
            db.reads,
            db.scans,
            db.deletes,
        ), kv_class


def _assert_results_equal(a, b, track_keys=True):
    for name in ANALYZERS:
        if name == "opdist" and not track_keys:
            _assert_opdist_counts_equal(a[name], b[name])
        else:
            _EQUAL[name](a[name], b[name])


def _write_sample_trace(path, n=2000, seed=11, chunk_size=173):
    records = _random_records(n=n, seed=seed)
    write_trace_v2(path, records, chunk_size=chunk_size)
    return records


def _fresh_cache(tmp_path, label="cache", **kwargs):
    registry = MetricsRegistry()
    cache = AggregateCache(tmp_path / label, registry=registry, **kwargs)
    return cache, registry


def _counter(registry, name):
    return registry.snapshot().get_value(name)


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("track_keys", [True, False])
    def test_warm_identical_to_cold(self, tmp_path, workers, track_keys):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        baseline = analyze_trace(
            str(path), analyzers=ANALYZERS, track_keys=track_keys
        )
        cache, registry = _fresh_cache(tmp_path, f"c{workers}{track_keys}")
        cold = analyze_trace_cached(
            path,
            cache=cache,
            workers=workers,
            analyzers=ANALYZERS,
            track_keys=track_keys,
            registry=registry,
        )
        warm = analyze_trace_cached(
            path,
            cache=cache,
            workers=workers,
            analyzers=ANALYZERS,
            track_keys=track_keys,
            registry=registry,
        )
        _assert_results_equal(cold, baseline, track_keys=track_keys)
        _assert_results_equal(warm, baseline, track_keys=track_keys)

    def test_cold_populates_and_warm_hits(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        num_chunks = len(read_trace_footer(path).chunks)
        expected = num_chunks * len(ANALYZERS)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        assert _counter(registry, "repro_aggcache_misses_total") == expected
        assert _counter(registry, "repro_aggcache_stores_total") == expected
        assert _counter(registry, "repro_aggcache_hits_total") == 0
        analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        assert _counter(registry, "repro_aggcache_hits_total") == expected
        assert _counter(registry, "repro_aggcache_misses_total") == expected
        entries, total = cache.stats()
        assert entries == expected
        assert total > 0

    def test_warm_cache_shared_across_worker_counts(self, tmp_path):
        """Entries are keyed by chunk content, not by how the run that
        produced them was sharded."""
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        baseline = analyze_trace(str(path), analyzers=ANALYZERS)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        before = _counter(registry, "repro_aggcache_misses_total")
        warm4 = analyze_trace_cached(
            path, cache=cache, workers=4, analyzers=ANALYZERS, registry=registry
        )
        assert _counter(registry, "repro_aggcache_misses_total") == before
        _assert_results_equal(warm4, baseline)


class TestInvalidation:
    def test_single_byte_corruption_strict_raises(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        offset, _ = read_trace_footer(path).chunks[0]
        data = bytearray(path.read_bytes())
        data[offset + 1 + 4] ^= 0xFF  # first payload byte, stored CRC intact
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            analyze_trace_cached(
                path, cache=cache, analyzers=ANALYZERS, registry=registry
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_byte_corruption_lenient_never_stale(self, tmp_path, workers):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path, f"c{workers}")
        analyze_trace_cached(
            path, cache=cache, workers=workers, analyzers=ANALYZERS, registry=registry
        )
        full = analyze_trace(str(path), analyzers=ANALYZERS)
        offset, _ = read_trace_footer(path).chunks[0]
        data = bytearray(path.read_bytes())
        data[offset + 1 + 4] ^= 0xFF
        path.write_bytes(bytes(data))
        lenient = analyze_trace_cached(
            path,
            cache=cache,
            workers=workers,
            analyzers=ANALYZERS,
            lenient=True,
            registry=registry,
        )
        uncached = analyze_trace(str(path), analyzers=ANALYZERS, lenient=True)
        _assert_results_equal(lenient, uncached)
        # The corrupted chunk really was dropped, not served from cache.
        assert lenient["opdist"].total_ops < full["opdist"].total_ops

    def test_rewritten_chunk_with_matching_stored_crc_misses(self, tmp_path):
        """Even a forged stored CRC cannot alias a stale entry: the key
        is the *computed* CRC of the bytes actually read."""
        import zlib

        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        before = analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        offset, _ = read_trace_footer(path).chunks[0]
        footer = read_trace_footer(path)
        next_offset = (
            footer.chunks[1][0] if len(footer.chunks) > 1 else None
        )
        assert next_offset is not None
        data = bytearray(path.read_bytes())
        # Flip one payload byte of an ops column entry (an op value is
        # 0..4; xor with 1 keeps it in range so the chunk still parses),
        # then rewrite the stored CRC to match the corrupted payload.
        payload = bytes(data[offset + 1 + 4 : next_offset])
        mutated = bytearray(payload)
        # First ops byte sits after the 8-byte counts header; +1 mod 5
        # always changes the op while staying a valid OpType.
        mutated[8] = (mutated[8] + 1) % 5
        data[offset + 1 + 4 : next_offset] = mutated
        data[offset + 1 : offset + 5] = zlib.crc32(bytes(mutated)).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        after = analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        # The mutated chunk recomputed (a miss), and the result reflects
        # the new bytes — one op moved between buckets.
        assert _counter(registry, "repro_aggcache_misses_total") == (
            len(footer.chunks) + 1
        ) * len(ANALYZERS)
        assert after["opdist"].total_ops == before["opdist"].total_ops
        with pytest.raises(AssertionError):
            _assert_opdist_equal(after["opdist"], before["opdist"])

    def test_appended_chunks_reuse_old_entries(self, tmp_path):
        """Growing a trace only pays for the new chunks — entries are
        content-addressed, so they survive a rewrite (even to another
        path) as long as whole chunks are unchanged."""
        chunk_size = 100
        records = _random_records(n=400, seed=5)
        extra = _random_records(n=200, seed=6)
        old_path = tmp_path / "old.bin"
        new_path = tmp_path / "new.bin"
        write_trace_v2(old_path, records, chunk_size=chunk_size)
        write_trace_v2(new_path, records + extra, chunk_size=chunk_size)
        old_chunks = len(read_trace_footer(old_path).chunks)
        new_chunks = len(read_trace_footer(new_path).chunks)
        assert new_chunks > old_chunks
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            old_path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        grown = analyze_trace_cached(
            new_path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        assert _counter(registry, "repro_aggcache_hits_total") == old_chunks * len(
            ANALYZERS
        )
        assert _counter(registry, "repro_aggcache_misses_total") == new_chunks * len(
            ANALYZERS
        )
        baseline = analyze_trace(str(new_path), analyzers=ANALYZERS)
        _assert_results_equal(grown, baseline)

    def test_analyzer_version_bump_orphans_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        num_chunks = len(read_trace_footer(path).chunks)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), registry=registry
        )
        monkeypatch.setattr(OpDistAnalyzer, "CACHE_VERSION", OpDistAnalyzer.CACHE_VERSION + 1)
        result = analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), registry=registry
        )
        assert _counter(registry, "repro_aggcache_hits_total") == 0
        assert _counter(registry, "repro_aggcache_misses_total") == 2 * num_chunks
        baseline = analyze_trace(str(path), analyzers=("opdist",))
        _assert_opdist_equal(result["opdist"], baseline["opdist"])

    def test_track_keys_partitions_the_cache(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), track_keys=True, registry=registry
        )
        analyze_trace_cached(
            path, cache=cache, analyzers=("opdist",), track_keys=False, registry=registry
        )
        assert _counter(registry, "repro_aggcache_hits_total") == 0


class TestEntryStore:
    def test_corrupt_entry_rejected_and_recomputed(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        victims = sorted(cache.directory.glob("*.agg"))
        assert victims
        blob = bytearray(victims[0].read_bytes())
        blob[-1] ^= 0xFF  # damage the pickled payload; CRC check must catch it
        victims[0].write_bytes(bytes(blob))
        baseline = analyze_trace(str(path), analyzers=ANALYZERS)
        warm = analyze_trace_cached(
            path, cache=cache, analyzers=ANALYZERS, registry=registry
        )
        assert _counter(registry, "repro_aggcache_invalid_total") == 1
        _assert_results_equal(warm, baseline)
        # The damaged entry was deleted and rewritten; next run is all-hit.
        analyze_trace_cached(path, cache=cache, analyzers=ANALYZERS, registry=registry)
        assert _counter(registry, "repro_aggcache_invalid_total") == 1

    def test_get_rejects_truncated_magic_and_version(self, tmp_path):
        cache, registry = _fresh_cache(tmp_path)
        cache.put("k1", {"x": 1})
        path = cache._path_for("k1")
        assert cache.get("k1") == {"x": 1}
        path.write_bytes(b"EK")  # truncated below any valid header
        assert cache.get("k1") is None
        cache.put("k1", {"x": 1})
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0xFF  # format version byte
        path.write_bytes(bytes(blob))
        assert cache.get("k1") is None
        assert _counter(registry, "repro_aggcache_invalid_total") == 2

    def test_key_echo_rejects_foreign_entry(self, tmp_path):
        cache, registry = _fresh_cache(tmp_path)
        cache.put("original-key", [1, 2, 3])
        original = cache._path_for("original-key")
        # Simulate a hash-prefix collision: another key's bytes land in
        # this key's file.  The embedded key echo must reject it.
        foreign = AggregateCache(tmp_path / "other", registry=MetricsRegistry())
        foreign.put("other-key", [9])
        original.write_bytes(foreign._path_for("other-key").read_bytes())
        assert cache.get("original-key") is None

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        analyze_trace_cached(path, cache=cache, analyzers=ANALYZERS, registry=registry)
        leftovers = [
            name
            for name in os.listdir(cache.directory)
            if not name.endswith(".agg")
        ]
        assert leftovers == []

    def test_lru_eviction_bounds_size_and_keeps_recent(self, tmp_path):
        # Populate through an unbounded handle with controlled mtimes,
        # then trip eviction from a bounded handle on the same directory
        # (entries are plain files, so handles compose freely).
        writer = AggregateCache(tmp_path / "lru", registry=MetricsRegistry())
        payload = list(range(200))  # ~few hundred bytes pickled
        for index in range(50):
            writer.put(f"key-{index}", payload)
            os.utime(
                writer._path_for(f"key-{index}"), (1_000_000 + index, 1_000_000 + index)
            )
        registry = MetricsRegistry()
        bounded = AggregateCache(tmp_path / "lru", max_bytes=4096, registry=registry)
        bounded.put("key-50", payload)
        entries, total = bounded.stats()
        assert total <= 4096
        assert entries < 50
        assert _counter(registry, "repro_aggcache_evictions_total") > 0
        # The freshest entry survives, the oldest is long gone.
        assert bounded.get("key-50") is not None
        assert bounded.get("key-0") is None

    def test_entry_keys_are_distinct_per_dimension(self):
        base = AggregateCache.entry_key(0xDEADBEEF, "opdist", 1, True)
        assert f":f{CACHE_FORMAT_VERSION}:" in base
        variants = {
            base,
            AggregateCache.entry_key(0xDEADBEF0, "opdist", 1, True),
            AggregateCache.entry_key(0xDEADBEEF, "iostats", 1, True),
            AggregateCache.entry_key(0xDEADBEEF, "opdist", 2, True),
            AggregateCache.entry_key(0xDEADBEEF, "opdist", 1, False),
        }
        assert len(variants) == 5

    def test_clear_removes_everything(self, tmp_path):
        cache, _ = _fresh_cache(tmp_path)
        for index in range(5):
            cache.put(f"key-{index}", index)
        assert cache.clear() == 5
        assert cache.stats() == (0, 0)
        assert cache.get("key-0") is None

    def test_default_cache_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert AggregateCache().directory == tmp_path / "envcache"

    def test_rejects_nonpositive_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            AggregateCache(tmp_path, max_bytes=0, registry=MetricsRegistry())


class TestFrontDoor:
    def test_v1_trace_falls_back_uncached(self, tmp_path):
        path = tmp_path / "t1.bin"
        records = _random_records(n=500, seed=3)
        write_trace(path, records)
        cache, registry = _fresh_cache(tmp_path)
        result = analyze_trace_maybe_cached(
            str(path), cache=cache, analyzers=ANALYZERS, registry=registry
        )
        baseline = analyze_trace(str(path), analyzers=ANALYZERS)
        _assert_results_equal(result, baseline)
        assert cache.stats() == (0, 0)  # nothing cached for v1 inputs

    def test_no_cache_matches_cached(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        cached = analyze_trace_maybe_cached(
            str(path), cache=cache, analyzers=ANALYZERS, registry=registry
        )
        plain = analyze_trace_maybe_cached(
            str(path), cache=None, analyzers=ANALYZERS
        )
        _assert_results_equal(cached, plain)

    def test_record_iterable_falls_back(self, tmp_path):
        records = _random_records(n=300, seed=9)
        cache, _ = _fresh_cache(tmp_path)
        result = analyze_trace_maybe_cached(
            records, cache=cache, analyzers=("opdist",)
        )
        assert result["opdist"].total_ops == len(records)
        assert cache.stats() == (0, 0)

    def test_partials_roundtrip_pickle(self, tmp_path):
        """Cached partials survive pickling with full fidelity — the
        property the on-disk format rests on."""
        path = tmp_path / "t.bin"
        _write_sample_trace(path, n=600)
        baseline = analyze_trace(str(path), analyzers=ANALYZERS)
        for name in ANALYZERS:
            clone = pickle.loads(pickle.dumps(baseline[name]))
            _EQUAL[name](clone, baseline[name])


class TestCachedWorkerDeath:
    """A cold cached run's miss jobs share ``analyze_trace``'s pool, so
    the ``retry``/``fault`` arguments of the front door reach it: a dead
    worker is requeued or falls back to serial, and counted, exactly as
    on the uncached route."""

    FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.01)
    PROGRESS = ("repro_analysis_chunks_total", "repro_analysis_records_total")

    def _serial_and_pooled(self, tmp_path, **kwargs):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        serial_cache, serial_registry = _fresh_cache(tmp_path, "serial")
        serial = analyze_trace_maybe_cached(
            str(path), cache=serial_cache, analyzers=ANALYZERS, registry=serial_registry
        )
        cache, registry = _fresh_cache(tmp_path, "pooled")
        pooled = analyze_trace_maybe_cached(
            str(path),
            cache=cache,
            workers=4,
            analyzers=ANALYZERS,
            registry=registry,
            **kwargs,
        )
        _assert_results_equal(pooled, serial)
        for name in self.PROGRESS:
            assert _counter(registry, name) == _counter(serial_registry, name)
        return path, cache, registry

    def test_transient_kill_requeued_and_every_miss_published(self, tmp_path):
        trip = tmp_path / "trip"
        fault = WorkerFault(shard_index=1, parent_pid=os.getpid(), trip_path=str(trip))
        path, cache, registry = self._serial_and_pooled(
            tmp_path, fault=fault, retry=self.FAST_RETRY
        )
        assert trip.exists()  # the fault really fired
        assert _counter(registry, "repro_analysis_worker_deaths_total") == 1
        assert _counter(registry, "repro_analysis_requeues_total") >= 1
        assert _counter(registry, "repro_analysis_serial_fallbacks_total") == 0
        expected = len(read_trace_footer(path).chunks) * len(ANALYZERS)
        assert _counter(registry, "repro_aggcache_stores_total") == expected
        assert cache.stats()[0] == expected
        analyze_trace_cached(path, cache=cache, analyzers=ANALYZERS, registry=registry)
        assert _counter(registry, "repro_aggcache_hits_total") == expected

    def test_poisoned_shard_falls_back_to_serial(self, tmp_path):
        fault = WorkerFault(shard_index=2, parent_pid=os.getpid())
        _, _, registry = self._serial_and_pooled(
            tmp_path, fault=fault, retry=RetryPolicy(max_retries=1, backoff_base_s=0.01)
        )
        assert _counter(registry, "repro_analysis_worker_deaths_total") >= 1
        assert _counter(registry, "repro_analysis_serial_fallbacks_total") >= 1

    def test_fallback_disabled_raises(self, tmp_path):
        path = tmp_path / "t.bin"
        _write_sample_trace(path)
        cache, registry = _fresh_cache(tmp_path)
        with pytest.raises(AnalysisError, match="kept killing"):
            analyze_trace_maybe_cached(
                str(path),
                cache=cache,
                workers=4,
                analyzers=ANALYZERS,
                registry=registry,
                fault=WorkerFault(shard_index=0, parent_pid=os.getpid()),
                retry=RetryPolicy(
                    max_retries=1, backoff_base_s=0.01, serial_fallback=False
                ),
            )


class TestCacheCLI:
    def test_cache_show_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "clicache"
        cache = AggregateCache(cache_dir, registry=MetricsRegistry())
        cache.put("k", [1, 2])
        code = main(["cache", "show", "--cache-dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        code = main(["cache", "clear", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "removed 1" in capsys.readouterr().out
        code = main(["cache", "show", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_analyze_no_cache_leaves_directory_empty(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.bin"
        _write_sample_trace(path, n=600)
        cache_dir = tmp_path / "clicache"
        code = main(
            ["analyze", str(path), "--no-cache", "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        assert "Operation distribution" in capsys.readouterr().out
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_analyze_warm_run_reports_hits(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.bin"
        _write_sample_trace(path, n=600)
        cache_dir = tmp_path / "clicache"
        metrics = tmp_path / "m.json"
        assert main(["analyze", str(path), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "analyze",
                    str(path),
                    "--cache-dir",
                    str(cache_dir),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        from repro.obs import read_snapshot_json

        snap = read_snapshot_json(metrics)
        assert snap.value("repro_aggcache_hits_total") > 0

    def test_analyze_missing_trace_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["analyze", str(tmp_path / "missing.bin")])
        assert code == 2
        assert capsys.readouterr().err


class TestConcurrentPublish:
    """Racing publishers of the same entry must never tear a read.

    ``put`` publishes via temp-write-then-``os.replace``; the temp name
    must be unique across *instances* as well as threads.  (A per-
    instance sequence collides: two caches in one process share the pid
    and both start at 0, so racing publishers of the same key would
    interleave writes into one temp file — publishing a torn blob and
    crashing the loser's rename with FileNotFoundError.)
    """

    @pytest.mark.slow
    def test_racing_publishers_same_key_no_torn_reads(self, tmp_path):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        directory = tmp_path / "shared"
        # Distinct instances on one directory: the cross-instance case.
        writers = [
            AggregateCache(directory, registry=MetricsRegistry()) for _ in range(4)
        ]
        reader = AggregateCache(directory, registry=MetricsRegistry())
        key = AggregateCache.entry_key(0xABCD, "opdist", 1, True)
        valid = {i: {"writer": i, "payload": list(range(50 + i))} for i in range(4)}

        start = threading.Barrier(5)
        stop = threading.Event()
        put_errors: list = []
        torn: list = []

        def publish(index: int) -> None:
            cache = writers[index]
            start.wait()
            for _ in range(150):
                try:
                    cache.put(key, valid[index])
                except Exception as exc:  # the old naming raced here
                    put_errors.append(exc)
                    return

        def poll() -> None:
            start.wait()
            while not stop.is_set():
                value = reader.get(key)
                # a miss is fine (first put may not have landed; a torn
                # blob is deleted as invalid) — a *wrong* value is not
                if value is not None and value not in valid.values():
                    torn.append(value)
                    return

        with ThreadPoolExecutor(max_workers=5) as pool:
            futures = [pool.submit(publish, i) for i in range(4)]
            poller = pool.submit(poll)
            for future in futures:
                future.result(timeout=60)
            stop.set()
            poller.result(timeout=60)

        assert not put_errors, put_errors
        assert not torn, torn
        # the survivor is intact and owned by one of the writers
        final = reader.get(key)
        assert final in valid.values()
        # no temp litter left behind
        assert not list(directory.glob(".*.tmp"))

    def test_temp_names_unique_across_instances(self, tmp_path):
        """Two instances in one process never pick the same temp name
        (the module-level sequence, not a per-instance counter)."""
        import repro.core.aggcache as aggcache_mod

        seen = set()
        original = os.replace

        def spy(src, dst):
            assert src not in seen, f"temp name reused: {src}"
            seen.add(src)
            return original(src, dst)

        a = AggregateCache(tmp_path / "d", registry=MetricsRegistry())
        b = AggregateCache(tmp_path / "d", registry=MetricsRegistry())
        key = AggregateCache.entry_key(1, "opdist", 1, True)
        try:
            aggcache_mod.os.replace = spy
            for _ in range(10):
                a.put(key, {"x": 1})
                b.put(key, {"x": 2})
        finally:
            aggcache_mod.os.replace = original
        assert len(seen) == 20
