"""The one table of program names the ledger depends on.

Every other file in ``ledger/`` reaches the program only through this
module, and this module names the program only in the strings below —
so a refactor PR can grep one file to learn which public names the
benchmark needs.  Two tables:

* :data:`END_TO_END` — symbols the workloads call.  A missing one stops
  the run with an error that names it.
* :data:`SPAN_TABLE` — callables the traced pass wraps, by layer.  A
  missing one is counted in ``trace.unresolved`` and skipped: later PRs
  may not edit ``ledger/``, so a rename must not crash the benchmark.

No spec may contain an underscore-prefixed component (checked by
``test_ledger.py``).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any

#: ``<checkout>/src`` — the program is imported from source, never installed.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

END_TO_END = {
    "WorkloadConfig": "repro.workload.generator:WorkloadConfig",
    "WorkloadGenerator": "repro.workload.generator:WorkloadGenerator",
    "DBConfig": "repro.gethdb.database:DBConfig",
    "SyncConfig": "repro.sync.driver:SyncConfig",
    "FullSyncDriver": "repro.sync.driver:FullSyncDriver",
    "KVStore": "repro.kvstore.api:KVStore",
    "OpType": "repro.core.trace:OpType",
    "write_trace_v2": "repro.core.trace:write_trace_v2",
    "TraceAnalysis": "repro.core.analysis:TraceAnalysis",
    "evaluate_findings": "repro.core.findings:evaluate_findings",
    "ReplayConfig": "repro.replay.engine:ReplayConfig",
    "replay_trace": "repro.replay.engine:replay_trace",
    "make_store": "repro.replay.backends:make_store",
    "store_fingerprint": "repro.replay.verify:store_fingerprint",
    "ReproError": "repro.errors:ReproError",
}

#: (layer, spec, kind).  kind: "call" times the call; "iter" times each
#: ``next()`` of the returned iterator (a scan does its work while it is
#: consumed, not when it is created); "bytes" is "call" that also sums
#: ``len(result)``; "thread" is "call" for a callable that a helper
#: thread calls too (those calls are timed apart, outside the span stack).
SPAN_TABLE = [
    ("workload", "repro.workload.generator:WorkloadGenerator.make_block_plan", "call"),
    ("chain", "repro.workload.generator:BlockPlan.build_block", "call"),
    ("chain", "repro.sync.driver:encode_receipts", "call"),
    ("chain", "repro.sync.driver:block_bloom", "call"),
    ("chain", "repro.chain.validation:validate_body", "call"),
    ("chain", "repro.chain.validation:validate_execution_outcome", "call"),
    ("rlp", "repro.rlp:encode", "bytes"),
    ("rlp", "repro.rlp:decode", "call"),
    ("trie", "repro.trie.trie:PathTrie.get", "call"),
    ("trie", "repro.trie.trie:PathTrie.update", "call"),
    ("trie", "repro.trie.trie:PathTrie.delete", "call"),
    ("trie", "repro.trie.trie:PathTrie.commit", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.get_account", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.get_storage_hashed", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.get_code", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.set_account", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.set_storage_hashed", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.set_code", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.destruct_account", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.commit", "call"),
    ("gethdb.state", "repro.gethdb.state:StateDB.flush_trie_nodes", "call"),
    ("gethdb.snapshot", "repro.gethdb.snapshot:SnapshotTree.get_account", "call"),
    ("gethdb.snapshot", "repro.gethdb.snapshot:SnapshotTree.get_storage", "call"),
    ("gethdb.snapshot", "repro.gethdb.snapshot:SnapshotTree.update", "call"),
    ("gethdb.caches", "repro.gethdb.caches:LRUCache.get", "call"),
    ("gethdb.caches", "repro.gethdb.caches:LRUCache.put", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.read", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.read_uncached", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.peek", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.write", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.write_now", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.delete", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.delete_now", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.scan", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.scan_prefix", "call"),
    ("gethdb.database", "repro.gethdb.database:GethDatabase.commit_batch", "call"),
    ("gethdb.freezer", "repro.gethdb.freezer:Freezer.maybe_freeze", "call"),
    ("gethdb.txindexer", "repro.gethdb.txindexer:TxIndexer.index_block", "call"),
    ("gethdb.txindexer", "repro.gethdb.txindexer:TxIndexer.unindex", "call"),
    ("gethdb.bloombits", "repro.gethdb.bloombits:BloomBitsIndexer.add_block", "call"),
    ("gethdb.bloombits", "repro.gethdb.bloombits:BloomBitsIndexer.read_progress", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.get", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.get_or_none", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.put", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.delete", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.has", "call"),
    ("kvstore.tracing", "repro.kvstore.tracing:TracingKVStore.scan", "iter"),
    ("core.trace", "repro.replay.engine:open_trace_chunks", "iter"),
    ("core.trace", "repro.core.trace:RandomAccessChunkReader.read_chunk", "thread"),
    ("core.trace", "repro.core.trace:ColumnarTraceReader.chunks", "iter"),
    ("core.columnar", "repro.core.columnar:ColumnarTrace.from_file", "call"),
    ("core.opdist", "repro.core.opdist:OpDistAnalyzer.consume_chunk", "call"),
    ("core.opdist", "repro.core.opdist:OpDistAnalyzer.consume_chunks", "call"),
    ("core.sizes", "repro.core.sizes:SizeAnalyzer.add_store_snapshot", "call"),
    ("core.correlation", "repro.core.correlation:CorrelationAnalyzer.consume_chunks", "call"),
    ("core.correlation", "repro.core.correlation:CorrelationAnalyzer.compute", "call"),
]

#: Layers that are timed by the harness itself rather than through
#: :data:`SPAN_TABLE`: the store object (``kvstore.memdb`` /
#: ``kvstore.lsm``), the root span of each timed region
#: (``sync.driver`` / ``replay.engine`` / ``core.analysis``) and the
#: findings call the harness makes (``core.findings``).
LAYERS = sorted(
    {layer for layer, _, _ in SPAN_TABLE}
    | {
        "kvstore.memdb",
        "kvstore.lsm",
        "sync.driver",
        "replay.engine",
        "core.analysis",
        "core.findings",
    }
)


class SurfaceError(RuntimeError):
    """An end-to-end symbol the benchmark needs no longer resolves."""


def resolve(spec: str) -> tuple[Any, str]:
    """Resolve ``module:a.b`` to ``(owner, "b")`` — the object holding
    the final attribute and that attribute's name, so a caller can read
    or replace it.  Raises ImportError/AttributeError when missing."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, leaf)
    return owner, leaf


def load() -> SimpleNamespace:
    """Import the program from ``SRC_DIR`` and return its end-to-end symbols."""
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    api = SimpleNamespace()
    for name, spec in END_TO_END.items():
        try:
            owner, leaf = resolve(spec)
        except (ImportError, AttributeError) as exc:
            raise SurfaceError(
                f"ledger surface: end-to-end symbol {name!r} ({spec}) "
                f"does not resolve: {exc}"
            ) from exc
        setattr(api, name, getattr(owner, leaf))
    return api
