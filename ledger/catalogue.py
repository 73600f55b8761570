"""Every metric the ledger emits: name, unit, direction (and bound).

``BENCHMARK.json`` declares the same lists; ``test_ledger.py`` asserts
the two agree in both directions and that a run emits exactly these.
"""

from __future__ import annotations

import json
from pathlib import Path

import surface


def run_seconds() -> int:
    """The run length the benchmark fixes (``BENCHMARK.json``)."""
    declared = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(declared.read_text())["run_seconds"]


#: (name, unit, better, bound) — reported by every workload with spans off.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change is a regression: ISSUE.md's 0.10 (0.15 for
#: set-up).  A metric that cannot hold its bound on two run-sets of one
#: commit is moved to the per-layer list; its bound is never widened.
END_TO_END = [
    ("setup_s", "s", "lower", 0.15),
    ("work_per_s", "1/s", "higher", 0.10),
    ("item_p50_us", "us", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_LAYER_EXTRAS = [
    ("workload.plan_us_per_block", "us", "lower"),
    ("rlp.encoded_bytes_per_block", "B", "lower"),
    ("trie.get_s", "s", "lower"),
    ("trie.update_s", "s", "lower"),
    ("trie.commit_s", "s", "lower"),
    ("trie.node_reads_per_get", "count", "lower"),
    ("gethdb.caches.hit_rate", "ratio", "higher"),
    ("gethdb.snapshot.hit_rate", "ratio", "higher"),
    ("gethdb.state.trie_flush_s", "s", "lower"),
    ("gethdb.database.kv_reads_per_block", "count", "lower"),
    ("gethdb.database.kv_writes_per_block", "count", "lower"),
    ("gethdb.database.kv_deletes_per_block", "count", "lower"),
    ("gethdb.database.kv_scans_per_block", "count", "lower"),
    ("gethdb.database.state_growth_bytes_per_block", "B", "lower"),
    ("kvstore.tracing.ns_per_op", "ns", "lower"),
    ("kvstore.memdb.get_s", "s", "lower"),
    ("kvstore.memdb.put_s", "s", "lower"),
    ("kvstore.memdb.delete_s", "s", "lower"),
    ("kvstore.memdb.scan_s", "s", "lower"),
    ("kvstore.lsm.get_s", "s", "lower"),
    ("kvstore.lsm.put_s", "s", "lower"),
    ("kvstore.lsm.delete_s", "s", "lower"),
    ("kvstore.lsm.scan_s", "s", "lower"),
    ("kvstore.lsm.stall_s", "s", "lower"),
    ("kvstore.lsm.stall_max_ms", "ms", "lower"),
    ("kvstore.lsm.compactions", "count", "lower"),
    ("kvstore.lsm.compaction_bytes_written", "B", "lower"),
    ("kvstore.lsm.flush_bytes_written", "B", "lower"),
    ("kvstore.lsm.wal_bytes_written", "B", "lower"),
    ("kvstore.lsm.bloom_negative_rate", "ratio", "higher"),
    ("kvstore.lsm.block_cache_hit_rate", "ratio", "higher"),
    ("kvstore.lsm.live_tombstones", "count", "lower"),
    ("kvstore.lsm.read_miss_share", "ratio", "lower"),
    ("kvstore.lsm.write_amp", "ratio", "lower"),
    ("kvstore.lsm.read_amp", "ratio", "lower"),
    ("kvstore.lsm.space_amp", "ratio", "lower"),
    ("replay.get_p50_us", "us", "lower"),
    ("replay.get_p99_us", "us", "lower"),
    ("replay.get_p999_us", "us", "lower"),
    ("replay.put_p99_us", "us", "lower"),
    ("replay.scan_p50_us", "us", "lower"),
    ("replay.scan_p95_us", "us", "lower"),
    ("replay.engine.ns_per_op", "ns", "lower"),
    ("sync.driver.block_import_max_ms", "ms", "lower"),
    ("core.trace.encode_s", "s", "lower"),
    ("core.trace.decode_s", "s", "lower"),
    ("core.trace.bytes_per_record", "B", "lower"),
    ("core.correlation.read_s", "s", "lower"),
    ("core.correlation.update_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unresolved", "count", "lower"),
    ("trace.self_sum_share", "ratio", "higher"),
    ("trace.traced_wall_s", "s", "lower"),
]

#: (name, unit, better) — what the traced pass measures.
TRACED = [
    entry
    for layer in surface.LAYERS
    for entry in ((f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower"))
] + _LAYER_EXTRAS

#: Measured with spans off like the end-to-end metrics, but not gated:
#: demoted by the rule above.  ``item_tail_us`` (p90 of the per-block
#: times) sits where the slow blocks begin — every-16-blocks flushes,
#: compaction cascades — and how many of those a chain has varies with
#: the seed: 12–20 % spread over ten seeds on ``replay_lsm_cache``.
DIAGNOSTICS = [("item_tail_us", "us", "lower")]

#: (name, unit, better) — reported by every workload with ``--trace 1``.
PER_LAYER = TRACED + DIAGNOSTICS

#: Metrics that are counts of what the program did, not timings: for a
#: given seed and size they repeat exactly from run to run.
EXACT = {
    name
    for name, unit, _ in PER_LAYER
    if (name.endswith(".calls") or unit in ("count", "B", "ratio"))
    and not name.startswith("trace.")
}

#: Exact counts gated at bound 0 (``compare.py``): read, write and space
#: cost trade against each other, so a change must not worsen any of them.
AMPLIFICATION = ("kvstore.lsm.write_amp", "kvstore.lsm.read_amp", "kvstore.lsm.space_amp")
