"""Streamed trace analysis (:func:`repro.core.analysis.stream_trace_analysis`).

The stream is the serial loop behind both ``repro serve``'s analyze
jobs and :func:`~repro.core.aggcache.analyze_trace_cached` with
``workers=1``, so its last step must equal every one-shot path — same
analyzers, same progress counters, same corrupt-chunk handling —
whatever the batch size or resume point.
"""

from __future__ import annotations

import pytest

from tests.test_aggcache import ANALYZERS, _assert_results_equal, _fresh_cache
from tests.test_parallel import _random_records

from repro.core.aggcache import analyze_trace_cached
from repro.core.analysis import stream_trace_analysis
from repro.core.parallel import analyze_trace
from repro.core.trace import read_trace_footer, write_trace_v2
from repro.obs.registry import MetricsRegistry

CHUNK = 173
RECORDS = 2000
ALL = "all"


@pytest.fixture()
def records():
    return _random_records(n=RECORDS, seed=11)


@pytest.fixture()
def trace(tmp_path, records):
    path = tmp_path / "t.v2"
    write_trace_v2(path, records, chunk_size=CHUNK)
    return path, len(read_trace_footer(path).chunks)


def _steps(path, **kwargs):
    return list(stream_trace_analysis(path, analyzers=ANALYZERS, **kwargs))


def _progress(registry):
    snapshot = registry.snapshot()
    return (
        snapshot.get_value("repro_analysis_chunks_total"),
        snapshot.get_value("repro_analysis_records_total"),
    )


def _cache_traffic(registry):
    snapshot = registry.snapshot()
    return tuple(
        snapshot.get_value(f"repro_aggcache_{kind}_total")
        for kind in ("hits", "misses", "stores")
    )


class TestLastStep:
    @pytest.mark.parametrize("batch_chunks", [1, 3, ALL])
    def test_equals_one_shot_paths(self, tmp_path, trace, batch_chunks):
        path, num_chunks = trace
        batch = num_chunks if batch_chunks == ALL else batch_chunks
        one_shot_registry = MetricsRegistry()
        one_shot = analyze_trace(
            str(path), analyzers=ANALYZERS, registry=one_shot_registry
        )
        expected = _progress(one_shot_registry)
        assert expected == (num_chunks, RECORDS)

        registry = MetricsRegistry()
        steps = _steps(path, batch_chunks=batch, registry=registry)
        assert len(steps) == -(-num_chunks // batch)
        assert [step.chunks_done for step in steps] == [
            min(num_chunks, batch * (index + 1)) for index in range(len(steps))
        ]
        last = steps[-1]
        assert last.complete and last.records_done == RECORDS
        _assert_results_equal(last.analyzers, one_shot)
        assert _progress(registry) == expected

        # Through a cache, cold then warm: the stream and
        # analyze_trace_cached agree with the one-shot result, with each
        # other's cache traffic, and with its progress counters.
        stream_cache, stream_cache_registry = _fresh_cache(tmp_path, "stream")
        cached_cache, cached_cache_registry = _fresh_cache(tmp_path, "cached")
        for _ in ("cold", "warm"):
            registry = MetricsRegistry()
            last = _steps(
                path, batch_chunks=batch, cache=stream_cache, registry=registry
            )[-1]
            _assert_results_equal(last.analyzers, one_shot)
            assert _progress(registry) == expected
            registry = MetricsRegistry()
            cached = analyze_trace_cached(
                path, cache=cached_cache, analyzers=ANALYZERS, registry=registry
            )
            _assert_results_equal(cached, one_shot)
            assert _progress(registry) == expected
            assert _cache_traffic(stream_cache_registry) == _cache_traffic(
                cached_cache_registry
            )
        entries = num_chunks * len(ANALYZERS)
        assert _cache_traffic(stream_cache_registry) == (entries, entries, entries)


class TestResume:
    @pytest.mark.parametrize("start", [0, 1, 5, -1, "end"])
    def test_start_chunk_equals_tail_analysis(self, trace, records, start):
        path, num_chunks = trace
        start = {-1: num_chunks - 1, "end": num_chunks}.get(start, start)
        tail = records[start * CHUNK :]
        registry = MetricsRegistry()
        steps = _steps(path, batch_chunks=3, start_chunk=start, registry=registry)
        last = steps[-1]
        assert last.complete
        assert last.chunks_done == num_chunks
        assert last.records_done == len(tail)
        assert _progress(registry) == (num_chunks - start, len(tail))
        reference = analyze_trace(tail, chunk_size=CHUNK, analyzers=ANALYZERS)
        _assert_results_equal(last.analyzers, reference)


class TestCorruptChunk:
    @pytest.mark.parametrize("victim", [0, 4])
    def test_lenient_paths_drop_exactly_that_chunk(self, tmp_path, trace, records, victim):
        path, num_chunks = trace
        offset, _ = read_trace_footer(path).chunks[victim]
        data = bytearray(path.read_bytes())
        data[offset + 1 + 4] ^= 0xFF  # first payload byte; stored CRC intact
        path.write_bytes(bytes(data))
        survivors = records[: victim * CHUNK] + records[(victim + 1) * CHUNK :]
        reference = analyze_trace(survivors, chunk_size=CHUNK, analyzers=ANALYZERS)
        expected = (num_chunks - 1, len(survivors))

        registry = MetricsRegistry()
        last = _steps(path, lenient=True, registry=registry)[-1]
        assert last.chunks_done == num_chunks
        assert last.records_done == len(survivors)
        _assert_results_equal(last.analyzers, reference)
        assert _progress(registry) == expected

        for workers in (1, 2):
            cache, _ = _fresh_cache(tmp_path, f"c{workers}")
            registry = MetricsRegistry()
            result = analyze_trace_cached(
                path,
                cache=cache,
                workers=workers,
                analyzers=ANALYZERS,
                lenient=True,
                registry=registry,
            )
            _assert_results_equal(result, reference)
            assert _progress(registry) == expected


class TestValidation:
    def test_batch_chunks_must_be_positive(self, trace):
        path, _ = trace
        with pytest.raises(ValueError, match="batch_chunks"):
            next(stream_trace_analysis(path, batch_chunks=0))

    @pytest.mark.parametrize("extra", [1, 5])
    def test_start_chunk_beyond_total(self, trace, extra):
        path, num_chunks = trace
        with pytest.raises(ValueError, match="beyond"):
            next(stream_trace_analysis(path, start_chunk=num_chunks + extra))

    def test_negative_start_chunk(self, trace):
        path, _ = trace
        with pytest.raises(ValueError, match="start_chunk"):
            next(stream_trace_analysis(path, start_chunk=-1))
