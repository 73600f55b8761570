"""Persistent per-chunk partial-aggregate cache for trace analysis.

The analysis workloads behind the paper's tables re-scan the same trace
corpus over and over — after appending new chunks, after tweaking a
report, in CI.  Every v2 chunk is immutable once written and every
analyzer in :data:`~repro.core.parallel.ANALYZER_FACTORIES` already
factors through a ``consume_chunk`` / ``merge`` partial-aggregate
contract, so the per-chunk partials are perfect cache material: a warm
re-run only *reads* each chunk (to compute its CRC) and merges cached
partials instead of re-deriving them.

Cache key
    ``(chunk payload CRC32, analyzer name, analyzer CACHE_VERSION,
    cache format version, track_keys)``.  The CRC is always the one
    *computed* from the bytes just read — the stored CRC field is used
    only as a cheap probe hint and is re-verified before any cached
    partial is served — so a corrupted or rewritten chunk can never
    alias a stale entry.  Bumping an analyzer's ``CACHE_VERSION`` (or
    :data:`CACHE_FORMAT_VERSION`) orphans its old entries.

On-disk entry format (one file per entry, name = SHA-256 of the key)::

    "EKVA" format_version(u8) key_len(u16) payload_crc32(u32)
    key(utf-8) payload(pickled analyzer partial)

Entries are written to a temp file and published with an atomic
``os.replace``; a reader can never observe a torn entry.  Anything that
fails validation (magic, version, key echo, payload CRC, unpickling) is
deleted and treated as a miss.  Total size is bounded: after each store
the least-recently-used entries (hits refresh mtime) are evicted until
the directory fits ``max_bytes``.

:func:`analyze_trace_cached` is the cache-aware analysis driver;
:func:`analyze_trace_maybe_cached` is the drop-in front door that falls
back to :func:`~repro.core.parallel.analyze_trace` whenever the cache
is disabled or the source is not a footer-indexed v2 trace file.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analysis import _chunk_partials, stream_trace_analysis
from repro.core.columnar import DEFAULT_CHUNK_SIZE
from repro.core.parallel import (
    ANALYZER_FACTORIES,
    DEFAULT_ANALYZERS,
    RetryPolicy,
    TraceSource,
    WorkerFault,
    _make_analyzers,
    _run_shards,
    _ShardTask,
    _split_shards,
    analyze_trace,
)
from repro.core.trace import RandomAccessChunkReader, read_trace_footer
from repro.errors import TraceFormatError
from repro.obs.registry import MetricsRegistry

_LOG = logging.getLogger("repro.aggcache")

#: Version of the on-disk entry format *and* of the cache key scheme;
#: bumping it invalidates every existing entry.
CACHE_FORMAT_VERSION = 1

_ENTRY_MAGIC = b"EKVA"
_ENTRY_HEADER = struct.Struct("<HI")  # key length, payload crc32
_ENTRY_SUFFIX = ".agg"

#: Default size bound for a cache directory.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Process-wide monotonic sequence for temp-file names.  A per-instance
#: counter is not enough: two :class:`AggregateCache` objects in the
#: same process (e.g. two server jobs, or two threads in a test) share
#: the pid and would both start at 0, so concurrent publishes of the
#: same key could open the *same* temp file and interleave their writes
#: — publishing a torn blob and making the loser's ``os.replace`` fail.
#: ``itertools.count`` is atomic under the GIL; combined with the
#: thread id the temp name is unique per in-flight write.
_TMP_SEQ = itertools.count(1)


def default_cache_dir() -> Path:
    """The cache directory used when none is given explicitly.

    ``REPRO_CACHE_DIR`` overrides; otherwise ``$XDG_CACHE_HOME/repro``
    (or ``~/.cache/repro``) ``/aggcache``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "aggcache"


def analyzer_cache_version(name: str, track_keys: bool = True) -> int:
    """The ``CACHE_VERSION`` declared by analyzer ``name`` (0 if none)."""
    return int(getattr(ANALYZER_FACTORIES[name](track_keys), "CACHE_VERSION", 0))


class AggregateCache:
    """Bounded, persistent store of pickled per-chunk analyzer partials.

    Safe to share a directory between processes: entries are immutable
    once published (atomic rename), and every read fully validates the
    entry before trusting it.  Instrumentation lands in ``registry``
    (pass the process-wide one to surface it in ``repro stats``).
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if registry is None:
            from repro.obs import get_registry

            registry = get_registry()
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        if self.directory.exists():
            if not self.directory.is_dir():
                raise ValueError(
                    f"cache directory {self.directory} exists but is not a directory"
                )
            if not os.access(self.directory, os.R_OK | os.W_OK | os.X_OK):
                raise ValueError(f"cache directory {self.directory} is not accessible")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._hits = registry.counter(
            "repro_aggcache_hits_total", help="Partial-aggregate cache hits"
        )
        self._misses = registry.counter(
            "repro_aggcache_misses_total", help="Partial-aggregate cache misses"
        )
        self._stores = registry.counter(
            "repro_aggcache_stores_total", help="Partial-aggregate cache entries written"
        )
        self._evictions = registry.counter(
            "repro_aggcache_evictions_total",
            help="Partial-aggregate cache entries evicted (LRU size bound)",
        )
        self._invalid = registry.counter(
            "repro_aggcache_invalid_total",
            help="Partial-aggregate cache entries rejected by validation",
        )
        self._read_bytes = registry.counter(
            "repro_aggcache_read_bytes_total", help="Bytes read from the cache"
        )
        self._written_bytes = registry.counter(
            "repro_aggcache_written_bytes_total", help="Bytes written to the cache"
        )
        self._entries_gauge = registry.gauge(
            "repro_aggcache_entries", help="Partial-aggregate cache entry count"
        )
        self._bytes_gauge = registry.gauge(
            "repro_aggcache_bytes", help="Partial-aggregate cache total size in bytes"
        )
        #: entry file name -> size; lazily initialized from a directory
        #: scan, then maintained incrementally (stale entries tolerated).
        self._sizes: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def entry_key(crc: int, name: str, version: int, track_keys: bool) -> str:
        """The cache key for one (chunk, analyzer, config) combination."""
        return (
            f"{crc & 0xFFFFFFFF:08x}:{name}:v{int(version)}"
            f":f{CACHE_FORMAT_VERSION}:tk{int(bool(track_keys))}"
        )

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return self.directory / f"{digest}{_ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[object]:
        """The cached partial for ``key``, or ``None`` on miss.

        A hit refreshes the entry's mtime (the LRU clock).  Entries
        failing any validation step are deleted and count as both
        ``invalid`` and a miss — never served.
        """
        path = self._path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self._misses.inc()
            return None
        partial = self._decode(data, key)
        if partial is None:
            self._invalid.inc()
            self._misses.inc()
            self._remove(path)
            return None
        self._hits.inc()
        self._read_bytes.inc(len(data))
        try:
            os.utime(path)
        except OSError:
            pass
        return partial

    def _decode(self, data: bytes, key: str) -> Optional[object]:
        prefix = len(_ENTRY_MAGIC) + 1
        if len(data) < prefix + _ENTRY_HEADER.size:
            return None
        if data[: len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            return None
        if data[len(_ENTRY_MAGIC)] != CACHE_FORMAT_VERSION:
            return None
        key_len, payload_crc = _ENTRY_HEADER.unpack_from(data, prefix)
        key_start = prefix + _ENTRY_HEADER.size
        stored_key = data[key_start : key_start + key_len]
        payload = data[key_start + key_len :]
        # The key echo defends against SHA-prefix collisions and any
        # future change to the key scheme that reuses a file name.
        if stored_key.decode("utf-8", "replace") != key:
            return None
        if zlib.crc32(payload) != payload_crc:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def put(self, key: str, partial: object) -> None:
        """Persist one partial atomically (write temp file, rename)."""
        payload = pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL)
        key_bytes = key.encode("utf-8")
        blob = b"".join(
            (
                _ENTRY_MAGIC,
                bytes([CACHE_FORMAT_VERSION]),
                _ENTRY_HEADER.pack(len(key_bytes), zlib.crc32(payload)),
                key_bytes,
                payload,
            )
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path_for(key)
        tmp = self.directory / (
            f".{path.stem}.{os.getpid()}.{threading.get_ident()}"
            f".{next(_TMP_SEQ)}.tmp"
        )
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        self._stores.inc()
        self._written_bytes.inc(len(blob))
        self._index()[path.name] = len(blob)
        self._maybe_evict()
        self._publish_gauges()

    # ------------------------------------------------------------------
    # size bounding / maintenance
    # ------------------------------------------------------------------

    def _index(self) -> Dict[str, int]:
        if self._sizes is None:
            sizes: Dict[str, int] = {}
            try:
                with os.scandir(self.directory) as it:
                    for entry in it:
                        if entry.name.endswith(_ENTRY_SUFFIX) and entry.is_file():
                            sizes[entry.name] = entry.stat().st_size
            except OSError:
                pass
            self._sizes = sizes
        return self._sizes

    def _remove(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        if self._sizes is not None:
            self._sizes.pop(path.name, None)

    def _maybe_evict(self) -> None:
        sizes = self._index()
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return
        aged: List[Tuple[float, str, int]] = []
        for name, size in sizes.items():
            try:
                mtime = (self.directory / name).stat().st_mtime
            except OSError:
                mtime = 0.0
            aged.append((mtime, name, size))
        aged.sort()
        for _, name, size in aged:
            if total <= self.max_bytes:
                break
            self._remove(self.directory / name)
            self._evictions.inc()
            total -= size

    def _publish_gauges(self) -> None:
        sizes = self._index()
        self._entries_gauge.set(len(sizes))
        self._bytes_gauge.set(sum(sizes.values()))

    def stats(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the cache directory, rescanned."""
        self._sizes = None
        sizes = self._index()
        self._publish_gauges()
        return len(sizes), sum(sizes.values())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        self._sizes = None
        removed = 0
        for name in list(self._index()):
            self._remove(self.directory / name)
            removed += 1
        self._publish_gauges()
        return removed


# ---------------------------------------------------------------------------
# cache-aware analysis
# ---------------------------------------------------------------------------


def _compute_partials_job(
    task: _ShardTask,
) -> List[Optional[Tuple[int, int, Dict[str, object]]]]:
    """Pool job: per-chunk partials for the cache-aware pooled path.

    Runs the cache-or-compute step with no cache (the parent probed it
    already and publishes what comes back) over every offset of
    ``task``.  Returns one ``(computed payload crc, record count,
    {name: partial})`` per offset, ``None`` where a lenient read dropped
    the chunk — chunk-granular partials (unlike
    :func:`~repro.core.parallel._analyze_shard`'s shard-merged ones) so
    the parent can both cache them and merge them in global footer
    order.
    """
    with RandomAccessChunkReader(task.path, lenient=task.lenient) as reader:
        return [
            _chunk_partials(reader, offset, task.names, task.track_keys)
            for offset in task.offsets
        ]


def analyze_trace_cached(
    path: Union[str, Path],
    *,
    cache: AggregateCache,
    workers: int = 1,
    analyzers: Sequence[str] = DEFAULT_ANALYZERS,
    track_keys: bool = True,
    lenient: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Analyze a footer-indexed v2 trace through the partial cache.

    Every chunk either *hits* — all requested analyzers have a cached
    partial under the chunk's verified payload CRC — or is recomputed
    from the freshly read bytes (and its partials stored for next time).
    Partials are merged in footer order whatever their provenance, so
    order-sensitive analyzers (blockstats) see chunks exactly as a
    serial scan would, and warm results are byte-identical to cold ones.

    ``workers=1`` is the last step of
    :func:`~repro.core.analysis.stream_trace_analysis`: chunks are read
    on this thread through one open handle, and cache lookups and miss
    computes happen chunk by chunk.  ``workers>1`` probes each chunk's
    *stored* CRC first (five bytes) and only pays a full read for probe
    hits — which are then verified against the computed CRC before
    anything cached is served — while misses fan out in contiguous
    groups to the process pool of
    :func:`~repro.core.parallel.analyze_trace`, under its worker-death
    policy (:class:`~repro.core.parallel.RetryPolicy` defaults).

    Raises :class:`~repro.errors.TraceFormatError` if ``path`` has no
    v2 footer; use :func:`analyze_trace_maybe_cached` to fall back to
    the uncached path automatically.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > 1:
        return _analyze_trace_pooled(
            path,
            cache=cache,
            workers=workers,
            analyzers=analyzers,
            track_keys=track_keys,
            lenient=lenient,
            registry=registry,
        )
    for step in stream_trace_analysis(
        path,
        analyzers=analyzers,
        track_keys=track_keys,
        lenient=lenient,
        cache=cache,
        registry=registry,
    ):
        pass
    return step.analyzers


def _analyze_trace_pooled(
    path: Union[str, Path],
    *,
    cache: AggregateCache,
    workers: int,
    analyzers: Sequence[str],
    track_keys: bool,
    lenient: bool,
    registry: Optional[MetricsRegistry],
    retry: Optional[RetryPolicy] = None,
    fault: Optional[WorkerFault] = None,
) -> Dict[str, object]:
    """The ``workers>1`` branch of :func:`analyze_trace_cached`."""
    if registry is None:
        from repro.obs import get_registry

        registry = get_registry()
    names = tuple(analyzers)
    probes = _make_analyzers(names, track_keys)  # validates names
    versions = {
        name: int(getattr(probe, "CACHE_VERSION", 0)) for name, probe in probes.items()
    }
    footer = read_trace_footer(path)
    path = str(path)

    #: per footer chunk: {name: partial} (filled as hits/computes land),
    #: or None when a lenient read dropped the chunk.
    slots: List[Optional[Dict[str, object]]] = []
    counts: List[int] = []
    #: (slot, offset) of every chunk the cache cannot serve whole
    misses: List[Tuple[int, int]] = []

    # Probe phase: stored CRCs are 5-byte reads, so a cold parallel run
    # leaves the heavy reading to the workers; a probe hit pays one full
    # read here and is served only after the computed CRC confirms the
    # stored one (read_raw raises/returns None on mismatch — a forged
    # stored CRC cannot reach the cache).
    with RandomAccessChunkReader(path, lenient=lenient) as reader:
        for offset, count in footer.chunks:
            slot = len(slots)
            stored = reader.stored_crc(offset)
            if stored is not None:
                partials: Dict[str, object] = {}
                for name in names:
                    key = cache.entry_key(stored, name, versions[name], track_keys)
                    got = cache.get(key)
                    if got is not None:
                        partials[name] = got
                if len(partials) == len(names):
                    raw = reader.read_raw(offset)
                    slots.append(None if raw is None else partials)
                    counts.append(0 if raw is None else raw.num_records)
                    continue
            slots.append({})
            counts.append(count)
            misses.append((slot, offset))
    if misses:
        groups = _split_shards(misses, workers)
        tasks = [
            _ShardTask(
                index=index,
                names=names,
                track_keys=track_keys,
                chunks=None,
                path=path,
                offsets=tuple(offset for _, offset in group),
                lenient=lenient,
                fault=fault,
            )
            for index, group in enumerate(groups)
        ]
        results = _run_shards(
            _compute_partials_job, tasks, retry or RetryPolicy(), registry
        )
        for group, steps in zip(groups, results):
            for (slot, _), step in zip(group, steps):
                if step is None:
                    slots[slot] = None
                    counts[slot] = 0
                    continue
                crc, _, partials = step
                for name, partial in partials.items():
                    cache.put(
                        cache.entry_key(crc, name, versions[name], track_keys), partial
                    )
                slots[slot] = partials

    chunk_counter = registry.counter(
        "repro_analysis_chunks_total", help="Trace chunks consumed by analysis"
    )
    record_counter = registry.counter(
        "repro_analysis_records_total", help="Trace records consumed by analysis"
    )
    merged: Optional[Dict[str, object]] = None
    for index, partials in enumerate(slots):
        if partials is None:
            continue
        chunk_counter.inc()
        record_counter.inc(counts[index])
        if merged is None:
            merged = {name: partials[name] for name in names}
        else:
            for name in names:
                merged[name].merge(partials[name])
    if merged is None:
        return probes
    return merged


def analyze_trace_maybe_cached(
    source: TraceSource,
    *,
    cache: Optional[AggregateCache] = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    analyzers: Sequence[str] = DEFAULT_ANALYZERS,
    track_keys: bool = True,
    lenient: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault: Optional[WorkerFault] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Cache-aware front door for trace analysis.

    Routes to :func:`analyze_trace_cached` when a cache is supplied and
    ``source`` is a footer-indexed v2 trace file; everything else (no
    cache, v1 files, in-memory chunks or record iterables) falls back to
    :func:`~repro.core.parallel.analyze_trace` unchanged.  With
    ``workers>1`` both routes share one process pool, so ``retry`` and
    ``fault`` govern worker deaths on either.
    """
    if cache is not None and isinstance(source, (str, Path)):
        try:
            read_trace_footer(source)
        except (TraceFormatError, OSError):
            pass
        else:
            if workers > 1:
                return _analyze_trace_pooled(
                    source,
                    cache=cache,
                    workers=workers,
                    analyzers=analyzers,
                    track_keys=track_keys,
                    lenient=lenient,
                    registry=registry,
                    retry=retry,
                    fault=fault,
                )
            return analyze_trace_cached(
                source,
                cache=cache,
                workers=workers,
                analyzers=analyzers,
                track_keys=track_keys,
                lenient=lenient,
                registry=registry,
            )
    return analyze_trace(
        source,
        workers=workers,
        chunk_size=chunk_size,
        analyzers=analyzers,
        track_keys=track_keys,
        lenient=lenient,
        retry=retry,
        fault=fault,
        registry=registry,
    )
