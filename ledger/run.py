"""Run one ledger workload once and print its metrics.

    python3 ledger/run.py --workload sync_bare --seed 2024 --seconds 8 --trace 0

``--seconds`` buys a fixed number of timed units at the workload's nominal
unit time (``workloads.unit_count``); it defaults to ``BENCHMARK.json``'s
``run_seconds``.  ``--trace 0`` measures the end-to-end metrics with spans
off; ``--trace 1`` runs the traced pass and prints the per-layer metrics.
Every metric is printed by name with its unit, the correctness checks are
listed, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a check fails (the result is still printed, with ``correct``
false) and 2, with no result, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import catalogue
import surface
import workloads

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE.parent / ".ledger_work"
DEFAULT_SEED = 2024


def load_golden(seed: int):
    """Recorded outputs for the default seed and size; None otherwise."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "golden.json").read_text())


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def run(name: str, seed: int, seconds: float, traced: bool, sizes=None, golden=None) -> dict:
    """Run one workload in this process; returns the full result."""
    api = surface.load()
    # Scratch files (the trace files) live inside the checkout — the
    # benchmark may read and write nowhere else — and are removed before
    # the run returns.
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        outcome = workloads.run_workload(
            api, name, seed, seconds, traced, workdir, sizes=sizes, golden=golden
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is using it
            pass
    outcome.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    declared = catalogue.PER_LAYER if traced else catalogue.END_TO_END
    values = {**outcome.end_to_end, **outcome.per_layer}
    metrics = {
        entry[0]: {"value": values[entry[0]], "unit": entry[1]} for entry in declared
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "units": outcome.units,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "diagnostics": {name: values[name] for name, _, _ in catalogue.DIAGNOSTICS},
        "checks": [asdict(check) for check in outcome.checks.values()],
        "detail": outcome.detail,
        "spans": outcome.spans,
        "environment": environment(),
    }


def render(result: dict) -> str:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {result['trace']}  units {result['units']}"
    ]
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<{width}}  {metric['value']:>16.6g} {metric['unit']}")
    if not result["trace"]:
        for name, unit, _ in catalogue.DIAGNOSTICS:
            lines.append(f"  {name:<{width}}  {result['diagnostics'][name]:>16.6g} {unit}  (not gated)")
    for key, value in result["detail"].items():
        lines.append(f"  ({key}: {value})")
    reads = result["metrics"].get("trie.node_reads_per_get")
    if reads is not None and result["workload"] == "sync_bare":
        lines.append("  " + path_length_note(reads["value"], workloads.Sizes()))
    for check in result["checks"]:
        verdict = "ok" if check["ok"] else f"FAILED  {check['detail']}"
        lines.append(f"  check {check['name']} (x{check['times']}): {verdict}")
    lines.append(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"failed_share {result['failed'] / max(1, result['attempted']):.6f}"
    )
    return "\n".join(lines)


def path_length_note(measured: float, sizes) -> str:
    """Measured account-trie nodes per lookup beside the path-length
    model of Kuznetsov et al. (arXiv 2408.14217): a lookup in a trie of n
    uniformly hashed keys visits about log16(n) branch nodes and then the
    leaf.  A gap above one node is flagged, never failed."""
    accounts = sizes.eoa_accounts + sizes.contracts
    model = math.log(accounts, 16) + 1
    gap = measured - model
    flag = "  FLAG: gap above one node" if abs(gap) > 1 else ""
    return (
        f"model: trie.node_reads_per_get {measured:.3f} vs log16({accounts}) + leaf "
        f"= {model:.3f} (gap {gap:+.3f}){flag}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=catalogue.run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result (spans, checks) as JSON")
    args = parser.parse_args(argv)

    # The order of a few trace records (storage-trie deletes after a
    # self-destruct) follows set iteration order, which follows the
    # interpreter's per-process hash seed.  Inputs must be a function of
    # --seed alone, so the run pins the hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"}
        )

    try:
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), golden=load_golden(args.seed)
        )
    except surface.SurfaceError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(render(result))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
