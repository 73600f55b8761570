"""Process-parallel sharded trace analysis.

The per-class aggregations behind Tables II-IV and the per-block/byte
statistics are embarrassingly parallel: every analyzer in
:data:`ANALYZER_FACTORIES` exposes a ``consume_chunk`` fast path and a
``merge`` reduction, so a trace can be split into contiguous shards of
columnar chunks, analyzed in worker processes, and reduced in shard
order (ordering matters only for
:class:`~repro.core.blockstats.BlockStatsAnalyzer`, whose
``reads_after_first_put`` accounting is order-sensitive).

Sharding strategies, picked automatically by :func:`analyze_trace`:

* **file shards** — for v2 traces with a footer, workers receive
  ``(path, chunk offsets)`` and read their chunks straight from disk
  through one :class:`~repro.core.trace.RandomAccessChunkReader` on
  their own thread (no pickling of trace data);
* **chunk shards** — in-memory chunks are pickled to the pool (used for
  v1 files, record iterables and :class:`ColumnarTrace` inputs);
* **in-process fallback** — ``workers=1`` consumes the chunk stream
  lazily on the calling thread, with no multiprocessing involved.

All three produce results identical to the sequential record-at-a-time
reference path (asserted in ``tests/test_parallel.py``).

Worker-death resilience (:func:`_run_shards`, the one process pool
behind both this module and the cache-aware pooled path in
:mod:`repro.core.aggcache`): a worker process that dies (OOM-killed,
segfaulted, machine hiccup) breaks the whole process pool, losing every
in-flight shard.  The scheduler treats that as transient — the affected
shards are requeued onto a fresh pool with exponential backoff (see
:class:`RetryPolicy`), and shards that keep killing their workers fall
back to an in-process serial pass so one poisoned shard cannot sink the
whole analysis.  A worker that instead raises an ordinary exception is
deterministic — retrying would fail identically — so it surfaces
immediately as :class:`~repro.errors.AnalysisError` with the original
exception chained.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence, TypeVar, Union

from repro.core.blockstats import BlockStatsAnalyzer
from repro.core.columnar import DEFAULT_CHUNK_SIZE, ColumnarTrace, TraceChunk, chunk_records
from repro.core.iostats import IOStatsAnalyzer
from repro.core.opdist import OpDistAnalyzer
from repro.core.trace import (
    RandomAccessChunkReader,
    TraceRecord,
    open_trace_chunks,
    read_trace_footer,
)
from repro.errors import AnalysisError, TraceFormatError
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY, RegistrySnapshot

#: Analyzer names accepted by :func:`analyze_trace`; each factory takes
#: ``track_keys`` (ignored by analyzers that have no per-key state).
ANALYZER_FACTORIES: Dict[str, Callable[[bool], object]] = {
    "opdist": lambda track_keys: OpDistAnalyzer(track_keys=track_keys),
    "blockstats": lambda track_keys: BlockStatsAnalyzer(),
    "iostats": lambda track_keys: IOStatsAnalyzer(),
}

DEFAULT_ANALYZERS = ("opdist", "blockstats", "iostats")

TraceSource = Union[str, Path, ColumnarTrace, Iterable[TraceRecord]]


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler reacts to dying workers.

    A shard whose worker dies is requeued up to ``max_retries`` times,
    sleeping ``backoff_base_s * backoff_factor**attempt`` between
    rounds; when retries are exhausted the shard is analyzed serially in
    the calling process (unless ``serial_fallback`` is off, in which
    case the analysis fails with :class:`~repro.errors.AnalysisError`).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    serial_fallback: bool = True


@dataclass(frozen=True)
class WorkerFault:
    """Deterministic worker-killer, the test hook for the retry path.

    When a worker picks up the shard with ``shard_index``, it dies via
    ``os._exit`` — the closest in-process analog of an OOM kill, since
    no exception propagates and the pool just loses the process.  Two
    safety latches keep the fault injection honest:

    * the fault only trips in a process other than ``parent_pid``, so
      the serial in-process fallback (and ``workers=1``) can never kill
      the test runner itself;
    * with ``trip_path`` set, the fault trips only while the file can be
      created atomically — the first victim claims it, and retries of
      the same shard survive (models a transient worker death rather
      than a poisoned shard).
    """

    shard_index: int
    parent_pid: int
    trip_path: Optional[str] = None
    exit_code: int = 17

    def maybe_trip(self, shard_index: int) -> None:
        if shard_index != self.shard_index or os.getpid() == self.parent_pid:
            return
        if self.trip_path is not None:
            try:
                fd = os.open(self.trip_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
        os._exit(self.exit_code)


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker needs to analyze one shard (picklable)."""

    index: int
    names: tuple
    track_keys: bool
    #: in-memory chunks, or None when reading from the file
    chunks: Optional[tuple]
    path: Optional[str]
    offsets: Optional[tuple]
    lenient: bool = False
    fault: Optional[WorkerFault] = None


def _make_analyzers(names: Sequence[str], track_keys: bool) -> Dict[str, object]:
    unknown = [name for name in names if name not in ANALYZER_FACTORIES]
    if unknown:
        raise ValueError(f"unknown analyzers: {unknown}")
    return {name: ANALYZER_FACTORIES[name](track_keys) for name in names}


def analyze_chunks(
    chunks: Iterable[TraceChunk],
    analyzers: Sequence[str] = DEFAULT_ANALYZERS,
    track_keys: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Sequential chunked analysis (the ``workers=1`` fallback).

    When ``registry`` is given, chunk/record progress counters are
    recorded into it.  They are incremented identically whether the
    chunks are consumed here (serial) or inside a sharded worker, which
    is what makes merged sharded registries byte-identical to a serial
    run's (asserted in ``tests/test_parallel.py``).
    """
    built = _make_analyzers(analyzers, track_keys)
    consumers = list(built.values())
    if registry is None:
        for chunk in chunks:
            for analyzer in consumers:
                analyzer.consume_chunk(chunk)
        return built
    chunk_counter = registry.counter(
        "repro_analysis_chunks_total", help="Trace chunks consumed by analysis"
    )
    record_counter = registry.counter(
        "repro_analysis_records_total", help="Trace records consumed by analysis"
    )
    for chunk in chunks:
        for analyzer in consumers:
            analyzer.consume_chunk(chunk)
        chunk_counter.inc()
        record_counter.inc(len(chunk))
    return built


def _analyze_shard(task: _ShardTask) -> tuple[Dict[str, object], RegistrySnapshot]:
    """Pool job: analyze one shard (inline chunks or file offsets).

    File shards read their offsets through one
    :class:`~repro.core.trace.RandomAccessChunkReader` on this thread;
    a lenient read drops a corrupt chunk.  Fills a private registry (a
    worker process must not touch the parent's) and ships its snapshot
    home alongside the analyzers; the parent absorbs the snapshots in
    shard order.
    """
    local = MetricsRegistry()
    start = time.perf_counter()
    if task.chunks is not None:
        built = analyze_chunks(task.chunks, task.names, task.track_keys, local)
    else:
        with RandomAccessChunkReader(task.path, lenient=task.lenient) as reader:
            chunks = (
                chunk
                for chunk in map(reader.read_chunk, task.offsets)
                if chunk is not None
            )
            built = analyze_chunks(chunks, task.names, task.track_keys, local)
    local.histogram(
        "repro_analysis_shard_seconds", help="Wall time per analysis shard"
    ).observe(time.perf_counter() - start)
    local.counter(
        "repro_analysis_shards_total", help="Analysis shards completed"
    ).inc()
    return built, local.snapshot()


def _split_shards(items: Sequence, shards: int) -> list[Sequence]:
    """Split into up to ``shards`` contiguous, near-equal slices."""
    shards = min(shards, len(items))
    if shards <= 0:
        return []
    base, extra = divmod(len(items), shards)
    out = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def _merge_in_order(
    partials: Sequence[tuple[Dict[str, object], RegistrySnapshot]],
    registry: MetricsRegistry = NULL_REGISTRY,
) -> Dict[str, object]:
    """Reduce shard results in shard order (analyzers and registries)."""
    merged, first_snapshot = partials[0]
    registry.absorb(first_snapshot)
    for partial, snapshot in partials[1:]:
        for name, analyzer in merged.items():
            analyzer.merge(partial[name])
        registry.absorb(snapshot)
    return merged


_Result = TypeVar("_Result")


def _in_worker(job: Callable[[_ShardTask], _Result], task: _ShardTask) -> _Result:
    """Pool entry point: trip an injected fault, then run ``job``."""
    if task.fault is not None:
        task.fault.maybe_trip(task.index)
    return job(task)


def _run_shards(
    job: Callable[[_ShardTask], _Result],
    tasks: Sequence[_ShardTask],
    retry: RetryPolicy,
    registry: MetricsRegistry = NULL_REGISTRY,
) -> list[_Result]:
    """Run ``job`` over shard tasks on a process pool, surviving worker deaths.

    ``job`` must be a module-level function (it is pickled by name);
    results come back in task order.

    A dead worker breaks the entire pool, so every unfinished shard of
    that round — innocent or not — is requeued onto a fresh pool.  The
    per-shard attempt counters bound the damage: after ``max_retries``
    requeues a shard runs serially in this process, where a
    :class:`WorkerFault` latch is inert by construction.  Deterministic
    worker exceptions are not retried at all.
    """
    results: list = [None] * len(tasks)
    pending = list(range(len(tasks)))
    attempts = [0] * len(tasks)
    round_index = 0
    while pending:
        broken: list[int] = []
        with ProcessPoolExecutor(max_workers=len(pending)) as pool:
            futures = [
                (index, pool.submit(_in_worker, job, tasks[index])) for index in pending
            ]
            for index, future in futures:
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    broken.append(index)
                except Exception as exc:
                    raise AnalysisError(
                        f"analysis shard {tasks[index].index} failed in its "
                        f"worker process: {exc}"
                    ) from exc
        if not broken:
            break
        registry.counter(
            "repro_analysis_worker_deaths_total",
            help="Pool-breaking worker deaths observed",
        ).inc()
        retriable: list[int] = []
        for index in broken:
            attempts[index] += 1
            if attempts[index] <= retry.max_retries:
                retriable.append(index)
                registry.counter(
                    "repro_analysis_requeues_total",
                    help="Shards requeued after a worker death",
                ).inc()
            else:
                if not retry.serial_fallback:
                    raise AnalysisError(
                        f"analysis shard {tasks[index].index} kept killing its "
                        f"worker after {attempts[index]} attempts and serial "
                        "fallback is disabled"
                    )
                registry.counter(
                    "repro_analysis_serial_fallbacks_total",
                    help="Shards analyzed serially after exhausting retries",
                ).inc()
                results[index] = job(tasks[index])
        pending = retriable
        if pending:
            time.sleep(retry.backoff_base_s * retry.backoff_factor**round_index)
            round_index += 1
    return results


def analyze_trace(
    source: TraceSource,
    *,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    analyzers: Sequence[str] = DEFAULT_ANALYZERS,
    track_keys: bool = True,
    lenient: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault: Optional[WorkerFault] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Run the mergeable analyzers over a trace, optionally in parallel.

    ``source`` may be a trace file path (v1 or v2), a
    :class:`ColumnarTrace`, or any iterable of records.  ``lenient``
    skips corrupt v2 chunks (logged) instead of failing the analysis.
    ``retry`` tunes worker-death handling (see :class:`RetryPolicy`);
    ``fault`` injects a :class:`WorkerFault` for testing it.  Returns a
    dict mapping analyzer name to the fully reduced analyzer instance.

    Progress and scheduler metrics land in ``registry`` (the
    process-wide one by default; pass
    :data:`~repro.obs.registry.NULL_REGISTRY` to opt out).  Sharded
    workers fill private registries whose snapshots are absorbed here in
    shard order, so the merged counters equal a serial run's.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    retry = retry if retry is not None else RetryPolicy()
    if registry is None:
        from repro.obs import get_registry

        registry = get_registry()

    path: Optional[str] = None
    if isinstance(source, (str, Path)):
        path = str(source)

    if path is not None:
        chunks = open_trace_chunks(path, chunk_size=chunk_size, lenient=lenient)
    elif isinstance(source, ColumnarTrace):
        chunks = source.chunks
    else:
        chunks = chunk_records(source, chunk_size)
    if workers == 1:
        return analyze_chunks(
            chunks, analyzers=analyzers, track_keys=track_keys, registry=registry
        )

    names = tuple(analyzers)
    _make_analyzers(names, track_keys)  # validate names before forking
    footer = None
    if path is not None:
        try:
            footer = read_trace_footer(path)
        except TraceFormatError:
            pass
    if footer is not None:  # file shards: workers read their own chunks
        offsets = [offset for offset, _ in footer.chunks]
        shards = [(None, tuple(shard)) for shard in _split_shards(offsets, workers)]
    else:
        chunks = list(chunks)
        shards = [(tuple(shard), None) for shard in _split_shards(chunks, workers)]
    tasks = [
        _ShardTask(
            index=index,
            names=names,
            track_keys=track_keys,
            chunks=shard_chunks,
            path=path,
            offsets=shard_offsets,
            lenient=lenient,
            fault=fault,
        )
        for index, (shard_chunks, shard_offsets) in enumerate(shards)
    ]
    if not tasks:
        return _make_analyzers(names, track_keys)
    if len(tasks) == 1 and not fault:
        built, snapshot = _analyze_shard(tasks[0])
        registry.absorb(snapshot)
        return built
    results = _run_shards(_analyze_shard, tasks, retry, registry)
    return _merge_in_order(results, registry)


def default_workers() -> int:
    """A reasonable worker count for the current machine."""
    return max(1, os.cpu_count() or 1)
