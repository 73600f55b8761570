"""Shared fixtures.

The expensive artifact — a CacheTrace/BareTrace pair from a full sync
run — is produced once per session at a small scale and shared by the
integration-level tests (findings, analysis, reports).
"""

from __future__ import annotations

import contextlib
import tracemalloc

import pytest

from repro.core.analysis import TraceAnalysis
from repro.sync.driver import run_trace_pair
from repro.workload.generator import WorkloadConfig


@pytest.fixture(autouse=True)
def _isolated_aggcache(tmp_path, monkeypatch):
    """Keep the partial-aggregate cache out of the real user cache dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "aggcache"))


@pytest.fixture(autouse=True)
def _isolated_metrics_registry():
    """Give every test a fresh process-wide MetricsRegistry.

    Anything that falls back to ``repro.obs.get_registry()`` — the CLI
    paths, ``--metrics-out`` dumps, default-registry analyzers — would
    otherwise accumulate counters across tests, making results depend
    on execution order.  Swap in a clean registry per test and restore
    the previous one afterwards.
    """
    from repro.obs import set_registry
    from repro.obs.registry import MetricsRegistry

    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


@pytest.fixture
def allocation_bound():
    """Context manager asserting that its block allocates at most a small
    multiple of ``file_bytes`` (the size of the file it reads) plus a
    constant for the interpreter's own bookkeeping and one bounded read
    piece — a decoder trusting a damaged length would ask for far more."""

    @contextlib.contextmanager
    def check(file_bytes: int):
        tracemalloc.start()
        try:
            yield
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * file_bytes + (4 << 20)
        assert peak < bound, f"peak {peak} B reading a {file_bytes} B file"

    return check


SMALL_WORKLOAD = WorkloadConfig(
    seed=1234,
    initial_eoa_accounts=1500,
    initial_contracts=250,
    txs_per_block=16,
)


@pytest.fixture(scope="session")
def trace_pair():
    """(cache_result, bare_result) from one small full-sync pair."""
    return run_trace_pair(
        SMALL_WORKLOAD, num_blocks=80, warmup_blocks=40, cache_bytes=128 * 1024
    )


@pytest.fixture(scope="session")
def cache_analysis(trace_pair):
    cache_result, _ = trace_pair
    return TraceAnalysis(
        "CacheTrace",
        cache_result.records,
        cache_result.store_snapshot,
        correlation_distances=(0, 1, 4, 16, 64, 256, 1024),
    )


@pytest.fixture(scope="session")
def bare_analysis(trace_pair):
    _, bare_result = trace_pair
    return TraceAnalysis(
        "BareTrace",
        bare_result.records,
        bare_result.store_snapshot,
        correlation_distances=(0, 1, 4, 16, 64, 256, 1024),
    )
