"""One-stop trace analysis bundle.

:class:`TraceAnalysis` runs every analyzer the findings engine needs
over one trace (plus an optional end-of-run store snapshot) and caches
the results.  The findings engine and report renderers consume two of
these — one for the CacheTrace analog, one for the BareTrace analog.

The trace is held internally as a :class:`~repro.core.columnar.ColumnarTrace`
— compact numpy columns instead of millions of Python record objects —
so the input may equally be a record sequence/iterable, a pre-built
columnar trace, or a path to a saved trace file (binary v1 or v2).
Only the columnar chunks are retained for the lazy correlation passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.columnar import DEFAULT_CHUNK_SIZE, ColumnarTrace
from repro.core.correlation import (
    DEFAULT_DISTANCES,
    CorrelationAnalyzer,
    CorrelationConfig,
    DistanceResult,
)
from repro.core.opdist import OpDistAnalyzer
from repro.core.parallel import ANALYZER_FACTORIES, _make_analyzers
from repro.core.sizes import SizeAnalyzer
from repro.core.trace import OpType, RandomAccessChunkReader, TraceRecord
from repro.errors import TraceFormatError

if TYPE_CHECKING:
    from repro.core.aggcache import AggregateCache

TraceInput = Union[str, Path, ColumnarTrace, Sequence[TraceRecord], Iterable[TraceRecord]]


class TraceAnalysis:
    """All analyses for one trace, computed in a single pass + on demand.

    Attributes:
        name: label for reports ("CacheTrace" / "BareTrace").
        opdist: operation-distribution analyzer (Tables II/III/IV, Fig 3).
        sizes: size analyzer over the end-of-run store snapshot
            (Table I, Fig 2); populated when a snapshot is supplied.
        trace: the retained columnar trace (feeds the correlation passes).
    """

    def __init__(
        self,
        name: str,
        trace: TraceInput,
        store_snapshot: Optional[Iterable[tuple[bytes, bytes]]] = None,
        correlation_distances: Sequence[int] = DEFAULT_DISTANCES,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache: Optional["AggregateCache"] = None,
    ) -> None:
        self.name = name
        self._chunk_size = chunk_size
        self._trace_path: Optional[Path] = None
        self._trace: Optional[ColumnarTrace] = None
        if isinstance(trace, (str, Path)):
            # Keep only the path: the single-pass analyzers stream the
            # file (through the partial-aggregate cache when one is
            # given), and the full columnar trace is materialized only
            # if a lazy correlation pass actually asks for it — a warm
            # cached run never loads the trace at all.
            self._trace_path = Path(trace)
        elif isinstance(trace, ColumnarTrace):
            self._trace = trace
        else:
            self._trace = ColumnarTrace.from_records(trace, chunk_size=chunk_size)
        if self._trace_path is not None:
            from repro.core.aggcache import analyze_trace_maybe_cached

            results = analyze_trace_maybe_cached(
                str(self._trace_path),
                cache=cache,
                chunk_size=chunk_size,
                analyzers=("opdist",),
                track_keys=True,
            )
            self.opdist = results["opdist"]
        else:
            self.opdist = OpDistAnalyzer(track_keys=True).consume_chunks(
                self._trace.chunks
            )
        self.sizes = SizeAnalyzer()
        if store_snapshot is not None:
            self.sizes.add_store_snapshot(store_snapshot)
        self._distances = tuple(correlation_distances)
        self._correlations: dict[OpType, dict[int, DistanceResult]] = {}
        self._analyzers: dict[OpType, CorrelationAnalyzer] = {}

    @property
    def trace(self) -> ColumnarTrace:
        """The retained columnar trace (loaded from file on first use)."""
        if self._trace is None:
            self._trace = ColumnarTrace.from_file(
                self._trace_path, chunk_size=self._chunk_size
            )
        return self._trace

    def read_ratio(self, kv_class) -> float:
        """Table IV read ratio: % of the class's KV pairs read >= once.

        The denominator is the class's *store population* (all pairs in
        the KV store, most of which predate the measurement window and
        are never touched), matching the paper's definition — not just
        the keys that appear in the trace.
        """
        activity = self.opdist.activity(kv_class)
        read_keys = len(activity.read_counts)
        population = self.sizes.stats_for(kv_class).num_pairs
        denominator = max(population, len(activity.keys_seen))
        if denominator == 0:
            return 0.0
        return 100.0 * read_keys / denominator

    def correlation(self, op: OpType) -> dict[int, DistanceResult]:
        """Distance-indexed correlation results for ``op`` (cached)."""
        cached = self._correlations.get(op)
        if cached is None:
            analyzer = CorrelationAnalyzer(
                CorrelationConfig(op=op, distances=self._distances)
            )
            analyzer.consume_chunks(self.trace.chunks)
            cached = analyzer.compute()
            self._analyzers[op] = analyzer
            self._correlations[op] = cached
        return cached

    def correlation_analyzer(self, op: OpType) -> CorrelationAnalyzer:
        """The analyzer behind :meth:`correlation` (forces computation)."""
        self.correlation(op)
        return self._analyzers[op]

    @property
    def records(self) -> list[TraceRecord]:
        """The trace as record objects (materialized on demand)."""
        return list(self.trace.iter_records())

    @property
    def num_records(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class AnalysisProgress:
    """One streamed step of :func:`stream_trace_analysis`.

    ``analyzers`` holds the *merged-so-far* analyzer instances — the
    same objects across every step, mutated in footer order — so after
    the final step they are byte-identical to what a one-shot
    :func:`~repro.core.parallel.analyze_trace` over the same file
    returns.  Consumers that retain per-step state must extract what
    they need before advancing the generator.
    """

    chunks_done: int
    total_chunks: int
    records_done: int
    analyzers: Dict[str, object]

    @property
    def complete(self) -> bool:
        return self.chunks_done >= self.total_chunks


def _chunk_partials(
    reader: RandomAccessChunkReader,
    offset: int,
    names: Sequence[str],
    track_keys: bool,
    cache: Optional["AggregateCache"] = None,
    versions: Optional[Dict[str, int]] = None,
) -> Optional[tuple[int, int, Dict[str, object]]]:
    """The cache-or-compute step for the chunk at ``offset``.

    Each analyzer's partial is served from ``cache`` (keyed by the
    payload CRC computed from the bytes just read, and ``versions``)
    when present; the rest are computed from the parsed chunk and
    published to ``cache``.  Without a cache every partial is computed.
    Returns ``(payload crc, record count, {name: partial})``, or
    ``None`` when a lenient ``reader`` drops the chunk as corrupt.
    """
    raw = reader.read_raw(offset)
    if raw is None:
        return None
    partials: Dict[str, object] = {}
    if cache is not None:
        for name in names:
            got = cache.get(cache.entry_key(raw.crc, name, versions[name], track_keys))
            if got is not None:
                partials[name] = got
    missing = [name for name in names if name not in partials]
    if missing:
        try:
            chunk = raw.parse()
        except TraceFormatError:
            if not reader.lenient:
                raise
            return None
        for name in missing:
            analyzer = ANALYZER_FACTORIES[name](track_keys)
            analyzer.consume_chunk(chunk)
            if cache is not None:
                cache.put(
                    cache.entry_key(raw.crc, name, versions[name], track_keys), analyzer
                )
            partials[name] = analyzer
    return raw.crc, raw.num_records, partials


def stream_trace_analysis(
    path: Union[str, Path],
    *,
    analyzers: Sequence[str] = ("opdist",),
    batch_chunks: int = 8,
    start_chunk: int = 0,
    track_keys: bool = True,
    lenient: bool = False,
    cache: Optional["AggregateCache"] = None,
    registry=None,
) -> Iterator[AnalysisProgress]:
    """Incrementally analyze a footer-indexed v2 trace, batch by batch.

    The resumable/streaming entry point behind ``repro serve``'s
    analyze jobs, and the serial loop of
    :func:`~repro.core.aggcache.analyze_trace_cached`: chunks are read
    through one :class:`~repro.core.trace.RandomAccessChunkReader` and
    consumed in footer order in batches of ``batch_chunks``, and an
    :class:`AnalysisProgress` is yielded after each batch with the
    merged-so-far partial aggregates — so a client sees incremental
    answers whose final step exactly equals a one-shot analysis.
    ``start_chunk`` resumes from a chunk index (e.g. after a dropped
    connection, given the client remembers how far it got).

    When a :class:`~repro.core.aggcache.AggregateCache` is supplied,
    each chunk's partials are served from / published to the cache.

    Raises :class:`~repro.errors.TraceFormatError` for traces without a
    v2 footer (stream resumption needs random access).
    """
    if batch_chunks < 1:
        raise ValueError("batch_chunks must be >= 1")
    if start_chunk < 0:
        raise ValueError("start_chunk must be >= 0")
    names = tuple(analyzers)
    probes = _make_analyzers(names, track_keys)  # validates names
    versions = {
        name: int(getattr(probe, "CACHE_VERSION", 0)) for name, probe in probes.items()
    }
    with RandomAccessChunkReader(path, lenient=lenient) as reader:
        offsets = [offset for offset, _ in reader.footer().chunks]
        total = len(offsets)
        if start_chunk > total:
            raise ValueError(f"start_chunk {start_chunk} beyond {total} chunks")

        if registry is None:
            from repro.obs import get_registry

            registry = get_registry()
        chunk_counter = registry.counter(
            "repro_analysis_chunks_total", help="Trace chunks consumed by analysis"
        )
        record_counter = registry.counter(
            "repro_analysis_records_total", help="Trace records consumed by analysis"
        )

        merged: Optional[Dict[str, object]] = None
        chunks_done = start_chunk
        records_done = 0

        def progress() -> AnalysisProgress:
            return AnalysisProgress(
                chunks_done=chunks_done,
                total_chunks=total,
                records_done=records_done,
                analyzers=merged if merged is not None else dict(probes),
            )

        while chunks_done < total:
            for offset in offsets[chunks_done : chunks_done + batch_chunks]:
                chunks_done += 1
                step = _chunk_partials(
                    reader, offset, names, track_keys, cache, versions
                )
                if step is None:  # lenient: corrupt chunk dropped
                    continue
                _, count, partials = step
                if merged is None:
                    merged = {name: partials[name] for name in names}
                else:
                    for name in names:
                        merged[name].merge(partials[name])
                chunk_counter.inc()
                record_counter.inc(count)
                records_done += count
            yield progress()
        if chunks_done == start_chunk:  # empty tail: still report completion
            yield progress()
