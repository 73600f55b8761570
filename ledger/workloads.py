"""The five ledger workloads.

Each workload is a closed loop on one thread: *generate inputs* (from
the seed, once per run), then repeat *set up* → *timed unit* a fixed
number of times (:func:`unit_count`).  A unit does a fixed amount of
work for a given seed and size, so counts repeat exactly between units
and between runs, and each piece of the work is timed by its fastest
observation across the units of a run (see :class:`Units`).

``sync_*`` units import blocks through the whole storage stack,
``analyze_cold`` units run the trace analyses and the findings report,
``replay_lsm_*`` units replay a captured trace into a preloaded LSM
store.  See README.md for why these five and what each one bypasses.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Iterator, Optional

import catalogue
from spans import Recorder

WORKLOADS = ("sync_bare", "sync_cache", "analyze_cold", "replay_lsm_bare", "replay_lsm_cache")

#: Units per run never drop below this, so every median has a spread.
MIN_UNITS = 3

#: Seconds one timed unit took on the sandbox the benchmark was sized on.
#: ``--seconds`` buys units at these prices (:func:`unit_count`), so the
#: number of observations behind a metric depends on the workload and on
#: ``--seconds`` only — never on how fast the measured commit is, which
#: would give a faster commit more chances at a low minimum.
NOMINAL_UNIT_S = {
    "sync_bare": 3.0,
    "sync_cache": 3.5,
    "analyze_cold": 0.5,
    "replay_lsm_bare": 1.3,
    "replay_lsm_cache": 3.0,
}

#: Traced units per traced run; the least disturbed one is reported.
TRACED_UNITS = 2

#: put/delete calls slower than this are foreground stalls (a memtable
#: flush and the compactions it triggers run inside the call).
STALL_NS = 1_000_000


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests pass tiny ones."""

    eoa_accounts: int = 6000
    contracts: int = 700
    txs_per_block: int = 24
    warmup_blocks: int = 60
    blocks: int = 100
    #: 256 KiB against ~10 MB of state: the working set is ~40x the cache
    cache_bytes: int = 256 * 1024


@dataclass
class Check:
    """One named correctness check, over every time it was made."""

    name: str
    ok: bool = True
    times: int = 0
    detail: str = ""  # of the first failure


@dataclass
class Outcome:
    """What one run of one workload produced."""

    workload: str
    units: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, Check] = field(default_factory=dict)
    #: measured with spans off: the end-to-end metrics and the diagnostics
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: measured by the traced pass
    per_layer: dict[str, float] = field(default_factory=dict)
    #: extra numbers for the result file (quartiles, sample counts, facts)
    detail: dict[str, Any] = field(default_factory=dict)
    spans: Optional[dict] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one correctness check as attempted, and as failed if not ok."""
        entry = self.checks.setdefault(name, Check(name))
        entry.times += 1
        self.attempted += 1
        if not ok:
            self.failed += 1
            if entry.ok:
                entry.ok, entry.detail = False, detail


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# the store proxy
# ---------------------------------------------------------------------------


def make_timed_store(api, inner):
    """A KVStore that forwards to ``inner`` and keeps each call's latency.

    It is the benchmark's instrument at the storage interface: handed to
    ``replay_trace(store_factory=)`` it sees exactly the operations the
    backend sees.
    """

    class TimedStore(api.KVStore):
        def __init__(self) -> None:
            self.ns = {"get": [], "put": [], "delete": [], "has": [], "scan": []}
            #: start time of every call, in call order
            self.stamps: list[int] = []
            self.get_misses = 0

        def get(self, key):
            start = perf_counter_ns()
            self.stamps.append(start)
            try:
                return inner.get(key)
            finally:
                self.ns["get"].append(perf_counter_ns() - start)

        def get_or_none(self, key):
            start = perf_counter_ns()
            self.stamps.append(start)
            value = inner.get_or_none(key)
            self.ns["get"].append(perf_counter_ns() - start)
            if value is None:
                self.get_misses += 1
            return value

        def put(self, key, value):
            start = perf_counter_ns()
            self.stamps.append(start)
            inner.put(key, value)
            self.ns["put"].append(perf_counter_ns() - start)

        def delete(self, key):
            start = perf_counter_ns()
            self.stamps.append(start)
            inner.delete(key)
            self.ns["delete"].append(perf_counter_ns() - start)

        def has(self, key):
            start = perf_counter_ns()
            self.stamps.append(start)
            found = inner.has(key)
            self.ns["has"].append(perf_counter_ns() - start)
            return found

        def scan(self, start, end=None) -> Iterator[tuple[bytes, bytes]]:
            # A scan works while it is consumed: time each next(), not
            # the consumer's code between items.
            iterator = inner.scan(start, end)
            self.stamps.append(perf_counter_ns())
            spent = 0
            try:
                while True:
                    began = perf_counter_ns()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        spent += perf_counter_ns() - began
                        return
                    spent += perf_counter_ns() - began
                    yield item
            finally:
                iterator.close()
                self.ns["scan"].append(spent)

        def __len__(self) -> int:
            return len(inner)

        def close(self) -> None:
            inner.close()

    return TimedStore()


# ---------------------------------------------------------------------------
# sync
# ---------------------------------------------------------------------------


def make_driver(api, sizes: Sizes, seed: int, mode: str):
    workload_config = api.WorkloadConfig(
        seed=seed,
        initial_eoa_accounts=sizes.eoa_accounts,
        initial_contracts=sizes.contracts,
        txs_per_block=sizes.txs_per_block,
    )
    if mode == "bare":
        db_config = api.DBConfig.bare_trace_config()
    else:
        db_config = api.DBConfig.cache_trace_config(sizes.cache_bytes)
    sync_config = api.SyncConfig(db=db_config, warmup_blocks=sizes.warmup_blocks)
    return api.FullSyncDriver(
        sync_config,
        api.WorkloadGenerator(workload_config),
        name="BareTrace" if mode == "bare" else "CacheTrace",
    )


@dataclass
class SyncRun:
    """One set-up + timed sync unit."""

    setup_s: float
    timed_ns: int
    block_ns: list[int]
    plan_ns: int
    blocks_failed: int
    error: str
    state_root: bytes
    records: list
    pre_snapshot: list
    end_snapshot: list
    growth_bytes: int
    lookup_depths: dict[int, int]
    cache_hits: int
    cache_lookups: int


def _cache_counts(driver) -> tuple[int, int]:
    hits = lookups = 0
    for stats in driver.db.cache_stats().values():
        hits += stats["hits"]
        lookups += stats["hits"] + stats["misses"]
    return int(hits), int(lookups)


def run_sync(api, sizes: Sizes, seed: int, mode: str, recorder: Optional[Recorder] = None) -> SyncRun:
    """Set up a node (genesis + warm-up + start-up reads), then import
    ``sizes.blocks`` blocks and shut down, timing each block and the
    whole window.  With a recorder the window runs under spans."""
    began = perf_counter()
    driver = make_driver(api, sizes, seed, mode)
    pre = driver.run(0, clean_shutdown=False)
    setup_s = perf_counter() - began
    backend = driver.db.store.inner

    start_bytes = backend.approx_bytes
    depths_before = dict(driver.state.lookup_depths)
    hits_before, lookups_before = _cache_counts(driver)
    head = pre.head_number
    block_ns: list[int] = []
    plan_ns = 0
    blocks_failed = 0
    error = ""
    state_root = b""
    generator = driver.workload
    gc.collect()

    def window() -> None:
        nonlocal plan_ns, blocks_failed, error, state_root
        for number in range(head + 1, head + 1 + sizes.blocks):
            start = perf_counter_ns()
            plan = generator.make_block_plan(number)
            planned = perf_counter_ns()
            try:
                block = driver.import_block(plan)
            except api.ReproError as exc:
                # A rejected block leaves the chain without a parent for
                # the next one: every remaining block of the unit fails.
                blocks_failed = head + 1 + sizes.blocks - number
                error = f"block {number}: {exc!r}"
                return
            done = perf_counter_ns()
            plan_ns += planned - start
            block_ns.append(done - start)
            state_root = block.header.state_root
        driver.shutdown()

    _, _, timed_ns = timed_window(
        window, recorder, ("sync.driver", "window"), backend, "kvstore.memdb"
    )

    depths = {
        depth: count - depths_before.get(depth, 0)
        for depth, count in driver.state.lookup_depths.items()
    }
    hits, lookups = _cache_counts(driver)
    return SyncRun(
        setup_s=setup_s,
        timed_ns=timed_ns,
        block_ns=block_ns,
        plan_ns=plan_ns,
        blocks_failed=blocks_failed,
        error=error,
        state_root=state_root,
        records=driver.db.collector.records,
        pre_snapshot=pre.store_snapshot,
        end_snapshot=list(backend.scan(b"")),
        growth_bytes=backend.approx_bytes - start_bytes,
        lookup_depths=depths,
        cache_hits=hits - hits_before,
        cache_lookups=lookups - lookups_before,
    )


def timed_window(fn, recorder: Optional[Recorder], root: tuple[str, str],
                 store=None, store_layer: str = ""):
    """Call ``fn()`` as one timed window: ``(result, start ns, elapsed ns)``.

    With a recorder the program's callables (and ``store``'s methods) are
    wrapped for the length of the window and ``root`` is its root span;
    installing and removing the wrappers stays outside the timing.
    """
    if recorder is None:
        began_ns = perf_counter_ns()
        result = fn()
        return result, began_ns, perf_counter_ns() - began_ns
    with recorder.installed():
        if store is not None:
            recorder.wrap_store(store, store_layer)
        began_ns = perf_counter_ns()
        with recorder.span(*root):
            result = fn()
        return result, began_ns, perf_counter_ns() - began_ns


def write_trace(api, path: Path, records) -> tuple[float, str, int]:
    """Serialize records as trace v2: (seconds, sha256, file bytes)."""
    began = perf_counter()
    api.write_trace_v2(path, records)
    seconds = perf_counter() - began
    blob = path.read_bytes()
    return seconds, hashlib.sha256(blob).hexdigest(), len(blob)


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


class Units:
    """The units of one run and the estimates made from them.

    Every unit of a run does identical work, piece by piece (block *i*,
    operation *j*, analysis stage *k*).  The sandbox's noise is additive
    — other tenants take the processor away for seconds at a time, they
    never give time back — so the timing of each piece is estimated by
    its *fastest* observation across units, and the run's throughput
    and latency percentiles are computed from those composites.  The
    plain per-unit numbers are kept in the result file beside them.
    ``count`` is fixed before the first unit runs (:func:`unit_count`):
    a minimum over more observations reads lower, so parent and change
    must be given the same number.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.setups: list[float] = []
        self.walls_ns: list[int] = []
        #: fastest observation of each consecutive part of the timed window
        self.pieces: list[int] = []
        #: fastest observation of each latency sample
        self.items: list[int] = []

    def more(self) -> bool:
        return len(self.walls_ns) < self.count

    def add(self, setup_s: float, wall_ns: int, pieces: list[int], items: list[int]) -> None:
        # Whatever of the window the pieces do not cover is one more piece.
        pieces = pieces + [wall_ns - sum(pieces)]
        if self.walls_ns:
            pieces = [min(pair) for pair in zip(self.pieces, pieces)]
            items = [min(pair) for pair in zip(self.items, items)]
        self.pieces, self.items = pieces, items
        self.setups.append(setup_s)
        self.walls_ns.append(wall_ns)

    def window_s(self) -> float:
        """The timed window, each piece at its fastest observation."""
        return sum(self.pieces) / 1e9

    def report(self, out: Outcome, work: int, tail_q: float) -> None:
        """Fill the spans-off metrics every workload reports."""
        out.units = len(self.walls_ns)
        items = sorted(self.items)
        walls = [ns / 1e9 for ns in self.walls_ns]
        out.end_to_end["setup_s"] = statistics.median(self.setups)
        out.end_to_end["work_per_s"] = ratio(work, self.window_s())
        out.end_to_end["item_p50_us"] = percentile(items, 0.50) / 1e3
        out.end_to_end["item_tail_us"] = percentile(items, tail_q) / 1e3
        out.detail.update(
            work_per_unit=work,
            setup_s_quartiles=quartiles(self.setups),
            unit_wall_s_quartiles=quartiles(walls),
            work_per_s_by_unit_quartiles=quartiles([work / wall for wall in walls]),
            item_samples=len(items),
            item_tail_percentile=tail_q,
            item_max_us=items[-1] / 1e3 if items else 0.0,
        )


def unit_count(workload: str, seconds: float, at_least: int = MIN_UNITS) -> int:
    """How many units ``--seconds`` of timed work is, at nominal prices."""
    return max(at_least, round(seconds / NOMINAL_UNIT_S[workload]))


def untraced_units(workload: str, seconds: float, traced: bool) -> Units:
    """A traced run spends half its budget on untraced units — the
    reference its overhead is measured against — before TRACED_UNITS
    traced ones."""
    if traced:
        return Units(unit_count(workload, seconds / 2, TRACED_UNITS))
    return Units(unit_count(workload, seconds))


def _zero_per_layer() -> dict[str, float]:
    """Every per-layer metric, at zero: a layer a workload leaves idle
    reports 0 rather than going missing."""
    return {name: 0.0 for name, _, _ in catalogue.TRACED}


def _span_metrics(out: Outcome, recorder: Recorder, traced_s: float,
                  untraced: Units, traced: Units) -> None:
    """Per-layer self time and calls of one traced unit (``recorder``,
    ``traced_s``), and the trace's own health."""
    out.per_layer = metrics = _zero_per_layer()
    self_sum = 0.0
    for layer, (self_s, calls) in recorder.layer_totals().items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = float(calls)
        self_sum += self_s
    metrics["trace.self_sum_share"] = ratio(self_sum, traced_s)
    metrics["trace.overhead_share"] = ratio(traced.window_s(), untraced.window_s()) - 1.0
    metrics["trace.unresolved"] = float(len(recorder.unresolved))
    metrics["trace.traced_wall_s"] = traced_s
    out.spans = recorder.table()


# ---------------------------------------------------------------------------
# workload: sync_bare / sync_cache
# ---------------------------------------------------------------------------


def _sync_layer_metrics(api, m: dict[str, float], run: SyncRun, recorder: Recorder) -> None:
    blocks = max(1, len(run.block_ns))
    m["workload.plan_us_per_block"] = run.plan_ns / 1e3 / blocks
    m["rlp.encoded_bytes_per_block"] = (
        sum(cell.bytes for cell in recorder.cells if cell.layer == "rlp") / blocks
    )
    m["trie.get_s"] = recorder.inclusive_s("trie", "PathTrie.get")
    m["trie.update_s"] = recorder.inclusive_s("trie", "PathTrie.update", "PathTrie.delete")
    m["trie.commit_s"] = recorder.inclusive_s("trie", "PathTrie.commit")
    # Account lookups only (StateDB.lookup_depths): nodes resolved per
    # lookup when the trie serves it, 1 when the snapshot does.
    m["trie.node_reads_per_get"] = ratio(
        sum(depth * count for depth, count in run.lookup_depths.items()),
        sum(run.lookup_depths.values()),
    )
    m["gethdb.caches.hit_rate"] = ratio(run.cache_hits, run.cache_lookups)
    snapshot_gets = recorder.calls(
        "gethdb.snapshot", "SnapshotTree.get_account", "SnapshotTree.get_storage"
    )
    to_disk = recorder.edge_calls("gethdb.snapshot", "gethdb.database", "GethDatabase.read")
    m["gethdb.snapshot.hit_rate"] = ratio(snapshot_gets - to_disk, snapshot_gets)
    m["gethdb.state.trie_flush_s"] = recorder.inclusive_s("gethdb.state", "StateDB.flush_trie_nodes")
    ops = {op: 0 for op in api.OpType}
    for record in run.records:
        ops[record.op] += 1
    op = api.OpType
    m["gethdb.database.kv_reads_per_block"] = ops[op.READ] / blocks
    m["gethdb.database.kv_writes_per_block"] = (ops[op.WRITE] + ops[op.UPDATE]) / blocks
    m["gethdb.database.kv_deletes_per_block"] = ops[op.DELETE] / blocks
    m["gethdb.database.kv_scans_per_block"] = ops[op.SCAN] / blocks
    m["gethdb.database.state_growth_bytes_per_block"] = run.growth_bytes / blocks
    m["kvstore.tracing.ns_per_op"] = ratio(
        m["kvstore.tracing.self_s"] * 1e9, m["kvstore.tracing.calls"]
    )
    m["kvstore.memdb.get_s"] = recorder.inclusive_s("kvstore.memdb", "get", "get_or_none", "has")
    m["kvstore.memdb.put_s"] = recorder.inclusive_s("kvstore.memdb", "put")
    m["kvstore.memdb.delete_s"] = recorder.inclusive_s("kvstore.memdb", "delete")
    m["kvstore.memdb.scan_s"] = recorder.inclusive_s("kvstore.memdb", "scan")
    m["sync.driver.block_import_max_ms"] = max(run.block_ns, default=0) / 1e6


def workload_sync(api, mode: str, sizes: Sizes, seed: int, seconds: float, traced: bool,
                  workdir: Path, golden: Optional[dict]) -> Outcome:
    out = Outcome(workload=f"sync_{mode}")
    units = untraced_units(out.workload, seconds, traced)
    roots, shas = set(), set()
    records = 0

    def account(run: SyncRun) -> tuple[float, int]:
        nonlocal records
        out.attempted += sizes.blocks
        out.failed += run.blocks_failed
        if run.error:
            out.detail["error"] = run.error
        encode_s, sha, trace_bytes = write_trace(api, workdir / "trace.v2", run.records)
        roots.add(run.state_root.hex())
        shas.add(sha)
        records = len(run.records)
        return encode_s, trace_bytes

    while units.more():
        run = run_sync(api, sizes, seed, mode)
        units.add(run.setup_s, run.timed_ns, run.block_ns, run.block_ns)
        account(run)

    if traced:
        candidates, traced_units = [], Units(TRACED_UNITS)
        for _ in range(TRACED_UNITS):
            recorder = Recorder()
            run = run_sync(api, sizes, seed, mode, recorder)
            traced_units.add(run.setup_s, run.timed_ns, run.block_ns, run.block_ns)
            candidates.append((run.timed_ns, run, recorder, account(run)))
        _, run, recorder, (encode_s, trace_bytes) = min(candidates, key=lambda c: c[0])
        _span_metrics(out, recorder, run.timed_ns / 1e9, units, traced_units)
        _sync_layer_metrics(api, out.per_layer, run, recorder)
        out.per_layer["core.trace.encode_s"] = encode_s
        out.per_layer["core.trace.bytes_per_record"] = ratio(trace_bytes, records)

    # Same seed, same sizes: every unit (traced or not) must produce the
    # same chain and the same KV trace, byte for byte.
    out.check("state_root_repeats", len(roots) == 1, f"{sorted(roots)}")
    out.check("trace_sha256_repeats", len(shas) == 1, f"{sorted(shas)}")
    out.check("records_emitted", records > 0)
    if golden is not None:
        out.check("golden_state_root", roots == {golden["state_root"]}, golden["state_root"])
        key = f"trace_sha256_{mode}"
        out.check("golden_trace_sha256", shas == {golden[key]}, golden[key])
    out.detail.update(
        state_root=min(roots), trace_sha256=min(shas), records_per_unit=records
    )
    # The composite has one sample per block, 100: p90 keeps 10 beyond it.
    units.report(out, sizes.blocks, 0.90)
    return out


# ---------------------------------------------------------------------------
# inputs for the downstream workloads
# ---------------------------------------------------------------------------


@dataclass
class TraceInput:
    """A captured trace and the store states around it."""

    mode: str
    path: Path
    records: int
    #: index of the first record of each block (records carry the block
    #: being processed when the operation was issued)
    block_starts: list[int]
    file_bytes: int
    encode_s: float
    sha256: str
    state_root: bytes
    pre_snapshot: list
    end_snapshot: list
    seconds: float


def make_trace_input(api, sizes: Sizes, seed: int, mode: str, workdir: Path) -> TraceInput:
    """Run one sync (untimed input generation) and save its trace."""
    began = perf_counter()
    run = run_sync(api, sizes, seed, mode)
    if run.blocks_failed:
        raise RuntimeError(f"input generation failed: {run.error}")
    path = workdir / f"{mode}.v2"
    encode_s, sha, file_bytes = write_trace(api, path, run.records)
    block_starts = [
        index for index, record in enumerate(run.records)
        if index == 0 or record.block != run.records[index - 1].block
    ]
    return TraceInput(
        mode=mode, path=path, records=len(run.records), block_starts=block_starts,
        file_bytes=file_bytes,
        encode_s=encode_s, sha256=sha, state_root=run.state_root,
        pre_snapshot=run.pre_snapshot, end_snapshot=run.end_snapshot,
        seconds=perf_counter() - began,
    )


# ---------------------------------------------------------------------------
# workload: analyze_cold
# ---------------------------------------------------------------------------


@contextmanager
def timed_stage(stage_ns: dict[str, int], name: str, span=None) -> Iterator[None]:
    """Record one analysis stage's nanoseconds (inside ``span`` if given)."""
    start = perf_counter_ns()
    try:
        with span if span is not None else nullcontext():
            yield
    finally:
        stage_ns[name] = perf_counter_ns() - start


def analyze_pass(api, cache_in: TraceInput, bare_in: TraceInput,
                 recorder: Optional[Recorder] = None):
    """One cold pass over both traces: fresh objects, no aggregate cache.

    The six stages are the products a user asks the analyzer for; each is
    one latency sample.  Returns the per-stage nanoseconds (in stage
    order), the two analyses, the findings report and its text.
    """
    stage_ns: dict[str, int] = {}
    read, update = api.OpType.READ, api.OpType.UPDATE
    with timed_stage(stage_ns, "analysis_cache"):
        cache = api.TraceAnalysis(
            "CacheTrace", cache_in.path, store_snapshot=cache_in.end_snapshot, cache=None
        )
    with timed_stage(stage_ns, "analysis_bare"):
        bare = api.TraceAnalysis(
            "BareTrace", bare_in.path, store_snapshot=bare_in.end_snapshot, cache=None
        )
    with timed_stage(stage_ns, "read_corr_cache"):
        cache.correlation(read)
    with timed_stage(stage_ns, "read_corr_bare"):
        bare.correlation(read)
    with timed_stage(stage_ns, "update_corr_cache"):
        cache.correlation(update)
    # The harness calls the findings engine itself, so it opens the span.
    span = recorder.span("core.findings", "evaluate_findings") if recorder else None
    with timed_stage(stage_ns, "findings", span):
        report = api.evaluate_findings(cache, bare)
        text = report.render()
    return stage_ns, cache, bare, report, text


def workload_analyze(api, sizes: Sizes, seed: int, seconds: float, traced: bool,
                     workdir: Path, golden: Optional[dict]) -> Outcome:
    out = Outcome(workload="analyze_cold")
    bare_in = make_trace_input(api, sizes, seed, "bare", workdir)
    cache_in = make_trace_input(api, sizes, seed, "cache", workdir)
    records = bare_in.records + cache_in.records

    units = untraced_units(out.workload, seconds, traced)
    vectors = set()
    opdist_ok = True
    text = ""
    setup_s = 0.0
    while units.more():
        if len(units.setups) < MIN_UNITS:
            # Set-up is one warm pass: page cache, lazy imports and numpy
            # code paths are hot before cold-object passes are timed.
            # Three are enough for its median; later units reuse it.
            began = perf_counter()
            analyze_pass(api, cache_in, bare_in)
            setup_s = perf_counter() - began
        gc.collect()
        (stage_ns, cache, bare, report, text), _, wall_ns = timed_window(
            lambda: analyze_pass(api, cache_in, bare_in), None, ("", "")
        )
        stages = list(stage_ns.values())
        units.add(setup_s, wall_ns, stages, stages)
        vectors.add(tuple(bool(f.passed) for f in report))
        opdist_ok = opdist_ok and (
            cache.opdist.total_ops == cache_in.records
            and bare.opdist.total_ops == bare_in.records
        )
        out.attempted += records
    units.setups = units.setups[:MIN_UNITS]

    if traced:
        candidates, traced_units = [], Units(TRACED_UNITS)
        for _ in range(TRACED_UNITS):
            recorder = Recorder()
            gc.collect()
            (stage_ns, _, _, report, text), _, wall_ns = timed_window(
                lambda: analyze_pass(api, cache_in, bare_in, recorder),
                recorder, ("core.analysis", "pass"),
            )
            stages = list(stage_ns.values())
            traced_units.add(0.0, wall_ns, stages, stages)
            candidates.append((wall_ns, stage_ns, recorder))
            out.attempted += records
            vectors.add(tuple(bool(f.passed) for f in report))
        wall_ns, stage_ns, recorder = min(candidates, key=lambda c: c[0])
        _span_metrics(out, recorder, wall_ns / 1e9, units, traced_units)
        m = out.per_layer
        m["core.trace.encode_s"] = bare_in.encode_s + cache_in.encode_s
        m["core.trace.decode_s"] = recorder.inclusive_s("core.trace", off_thread=True)
        m["core.trace.bytes_per_record"] = ratio(bare_in.file_bytes + cache_in.file_bytes, records)
        m["core.correlation.read_s"] = (stage_ns["read_corr_cache"] + stage_ns["read_corr_bare"]) / 1e9
        m["core.correlation.update_s"] = stage_ns["update_corr_cache"] / 1e9

    vector = min(vectors)
    out.check("opdist_total_equals_records", opdist_ok)
    out.check("findings_vector_repeats", len(vectors) == 1, f"{sorted(vectors)}")
    out.check("findings_report_rendered", len(vector) == 11 and "Finding" in text)
    out.check(
        "state_root_bare_equals_cache",
        bare_in.state_root == cache_in.state_root,
        f"{bare_in.state_root.hex()} vs {cache_in.state_root.hex()}",
    )
    if golden is not None:
        out.check("golden_findings_vector", list(vector) == golden["findings"], f"{golden['findings']}")
        out.check("golden_state_root", bare_in.state_root.hex() == golden["state_root"])
        out.check("golden_trace_sha256_bare", bare_in.sha256 == golden["trace_sha256_bare"])
        out.check("golden_trace_sha256_cache", cache_in.sha256 == golden["trace_sha256_cache"])
    out.detail.update(
        findings=list(vector),
        state_root=bare_in.state_root.hex(),
        trace_sha256_bare=bare_in.sha256,
        trace_sha256_cache=cache_in.sha256,
        input_s=bare_in.seconds + cache_in.seconds,
    )
    # The composite has one sample per stage: the median product and,
    # at p90 of six, the slowest product.
    units.report(out, records, 0.90)
    return out


# ---------------------------------------------------------------------------
# workload: replay_lsm_bare / replay_lsm_cache
# ---------------------------------------------------------------------------

@dataclass
class ReplayRun:
    setup_s: float
    timed_ns: int
    startup_ns: int
    block_ns: list[int]
    report: Any
    proxy: Any
    lsm: Any
    before: dict
    after: dict


def run_replay(api, source: TraceInput, recorder: Optional[Recorder] = None) -> ReplayRun:
    """Preload a fresh LSM store with the pre-window state (set-up), then
    replay the trace into it through the timing proxy (timed)."""
    began = perf_counter()
    lsm = api.make_store("lsm")
    for key, value in source.pre_snapshot:
        lsm.put(key, value)
    setup_s = perf_counter() - began
    proxy = make_timed_store(api, lsm)
    before = lsm.metrics.snapshot()
    config = api.ReplayConfig(backend="lsm", workers=1, fingerprint=False)
    gc.collect()

    report, began_ns, timed_ns = timed_window(
        lambda: api.replay_trace(source.path, config, store_factory=lambda shard: proxy),
        recorder, ("replay.engine", "replay_trace"), proxy, "kvstore.lsm",
    )
    # The window in consecutive parts: up to the first store call, then
    # one part per block of the trace (store and engine time alike).  The
    # engine makes one store call per record; should that change, a
    # block still ends at its share of the calls.
    stamps = proxy.stamps
    startup_ns, block_ns = 0, []
    if stamps:
        scale = len(stamps) / source.records
        marks = [stamps[int(start * scale)] for start in source.block_starts]
        marks.append(began_ns + timed_ns)
        startup_ns = marks[0] - began_ns
        block_ns = [later - earlier for earlier, later in zip(marks, marks[1:])]
    return ReplayRun(
        setup_s, timed_ns, startup_ns, block_ns, report, proxy, lsm, before,
        lsm.metrics.snapshot(),
    )


def _lsm_counts(run: ReplayRun) -> dict[str, float]:
    """Write, read and space cost of the timed window, from exact counts.

    Reported together: a change that lowers one usually raises another.
    """
    delta = {name: run.after[name] - run.before[name] for name in run.after}
    written = (
        delta["wal_bytes_written"] + delta["flush_bytes_written"]
        + delta["compaction_bytes_written"] + delta["gc_bytes_written"]
    )
    live_bytes = sum(len(k) + len(v) for k, v in run.lsm.scan(b""))
    table_bytes = sum(level.data_bytes for level in run.lsm.level_stats())
    probes = delta["sstable_lookups"] + delta["block_cache_hits"] + delta["bloom_filter_negatives"]
    return {
        "kvstore.lsm.write_amp": ratio(written, delta["user_bytes_written"]),
        # table lookups per get (StoreMetrics.read_amplification)
        "kvstore.lsm.read_amp": ratio(delta["sstable_lookups"], delta["user_gets"]),
        "kvstore.lsm.space_amp": ratio(table_bytes, live_bytes),
        "kvstore.lsm.compactions": float(delta["compactions"]),
        "kvstore.lsm.compaction_bytes_written": float(delta["compaction_bytes_written"]),
        "kvstore.lsm.flush_bytes_written": float(delta["flush_bytes_written"]),
        "kvstore.lsm.wal_bytes_written": float(delta["wal_bytes_written"]),
        "kvstore.lsm.bloom_negative_rate": ratio(delta["bloom_filter_negatives"], probes),
        "kvstore.lsm.block_cache_hit_rate": ratio(
            delta["block_cache_hits"], delta["block_cache_hits"] + delta["block_cache_misses"]
        ),
        "kvstore.lsm.live_tombstones": float(run.lsm.live_tombstones()),
        "kvstore.lsm.read_miss_share": ratio(run.proxy.get_misses, len(run.proxy.ns["get"])),
    }


def workload_replay(api, mode: str, sizes: Sizes, seed: int, seconds: float, traced: bool,
                    workdir: Path, golden: Optional[dict]) -> Outcome:
    out = Outcome(workload=f"replay_lsm_{mode}")
    source = make_trace_input(api, sizes, seed, mode, workdir)

    # Reference for the final-state check: same preload, same trace,
    # into the dict-backed store (untimed).
    reference = api.make_store("memdb")
    for key, value in source.pre_snapshot:
        reference.put(key, value)
    api.replay_trace(
        source.path,
        api.ReplayConfig(backend="memdb", workers=1, fingerprint=False),
        store_factory=lambda shard: reference,
    )
    expected = api.store_fingerprint(reference)
    counts: list[dict[str, float]] = []

    def account(run: ReplayRun) -> None:
        report = run.report
        out.attempted += report.total_records
        out.failed += report.failed + report.dropped
        out.check(
            "replay_applied_every_record",
            report.applied == source.records and report.failed == 0 and report.dropped == 0,
            f"applied {report.applied} of {source.records}, failed {report.failed}, "
            f"dropped {report.dropped}",
        )
        fingerprint = api.store_fingerprint(run.lsm)
        out.check("lsm_state_equals_memdb", fingerprint == expected, f"{fingerprint} vs {expected}")
        counts.append(_lsm_counts(run))

    units = untraced_units(out.workload, seconds, traced)
    while units.more():
        run = run_replay(api, source)
        units.add(run.setup_s, run.timed_ns, [run.startup_ns] + run.block_ns, run.block_ns)
        account(run)

    if traced:
        candidates, traced_units = [], Units(TRACED_UNITS)
        for _ in range(TRACED_UNITS):
            recorder = Recorder()
            run = run_replay(api, source, recorder)
            account(run)
            traced_units.add(run.setup_s, run.timed_ns, [run.startup_ns] + run.block_ns, [])
            candidates.append((run.timed_ns, run, recorder))
        _, run, recorder = min(candidates, key=lambda c: c[0])
        _span_metrics(out, recorder, run.timed_ns / 1e9, units, traced_units)
        m = out.per_layer
        m.update(counts[-1])
        ns = run.proxy.ns
        gets, puts, scans = sorted(ns["get"]), sorted(ns["put"]), sorted(ns["scan"])
        writes = ns["put"] + ns["delete"]
        m["kvstore.lsm.get_s"] = recorder.inclusive_s("kvstore.lsm", "get", "get_or_none", "has")
        m["kvstore.lsm.put_s"] = recorder.inclusive_s("kvstore.lsm", "put")
        m["kvstore.lsm.delete_s"] = recorder.inclusive_s("kvstore.lsm", "delete")
        m["kvstore.lsm.scan_s"] = recorder.inclusive_s("kvstore.lsm", "scan")
        m["kvstore.lsm.stall_s"] = sum(v for v in writes if v > STALL_NS) / 1e9
        m["kvstore.lsm.stall_max_ms"] = max(writes, default=0) / 1e6
        m["replay.get_p50_us"] = percentile(gets, 0.50) / 1e3
        m["replay.get_p99_us"] = percentile(gets, 0.99) / 1e3
        m["replay.get_p999_us"] = percentile(gets, 0.999) / 1e3
        m["replay.put_p99_us"] = percentile(puts, 0.99) / 1e3
        m["replay.scan_p50_us"] = percentile(scans, 0.50) / 1e3
        m["replay.scan_p95_us"] = percentile(scans, 0.95) / 1e3
        m["replay.engine.ns_per_op"] = ratio(m["replay.engine.self_s"] * 1e9, run.report.applied)
        m["core.trace.encode_s"] = source.encode_s
        m["core.trace.decode_s"] = recorder.inclusive_s("core.trace", off_thread=True)
        m["core.trace.bytes_per_record"] = ratio(source.file_bytes, source.records)

    out.check("counts_repeat_across_units", all(c == counts[0] for c in counts), f"{counts}")
    if golden is not None:
        out.check("golden_trace_sha256", source.sha256 == golden[f"trace_sha256_{mode}"])
    out.detail.update(
        trace_sha256=source.sha256,
        preloaded_pairs=len(source.pre_snapshot),
        input_s=source.seconds,
        lsm_counts=counts[0],
    )
    # The composite has one sample per block of the trace, 100: p90
    # keeps 10 beyond it.  Per-call latencies are per-layer (replay.*).
    units.report(out, source.records, 0.90)
    return out


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def run_workload(api, name: str, seed: int, seconds: float, traced: bool, workdir: Path,
                 sizes: Optional[Sizes] = None, golden: Optional[dict] = None) -> Outcome:
    """Run one workload once.  ``golden`` (the recorded outputs for this
    seed and size) is compared only when given."""
    sizes = sizes if sizes is not None else Sizes()
    if name in ("sync_bare", "sync_cache"):
        return workload_sync(api, name[5:], sizes, seed, seconds, traced, workdir, golden)
    if name == "analyze_cold":
        return workload_analyze(api, sizes, seed, seconds, traced, workdir, golden)
    if name in ("replay_lsm_bare", "replay_lsm_cache"):
        return workload_replay(api, name[11:], sizes, seed, seconds, traced, workdir, golden)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
