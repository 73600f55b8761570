"""Tests of the ledger itself (outside tier-1): ``python -m pytest ledger -q``.

Every workload is driven at a tiny size passed as a parameter — there is
no size flag on the command line, the benchmark's sizes are fixed.
"""

from __future__ import annotations

import ast
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import run as ledger_run  # noqa: E402
import spans  # noqa: E402
import surface  # noqa: E402
import workloads  # noqa: E402

# 62 warm-up blocks: the window starts just before block 64, where the
# freezer (and with it the store's range scans) wakes up.
TINY = workloads.Sizes(
    eoa_accounts=200, contracts=30, txs_per_block=8, warmup_blocks=62, blocks=8,
    cache_bytes=16 * 1024,
)
SEED = 5
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(name: str, traced: bool) -> dict:
    return ledger_run.run(name, SEED, 0.05, traced, sizes=TINY)


@pytest.fixture(scope="module")
def results() -> dict:
    """One untraced and two traced tiny runs of every workload."""
    return {
        name: (tiny_run(name, False), tiny_run(name, True), tiny_run(name, True))
        for name in workloads.WORKLOADS
    }


def test_benchmark_json_matches_catalogue():
    assert DECLARED["paths"] == ["ledger"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]]
    assert declared == catalogue.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]]
    assert declared == catalogue.PER_LAYER
    assert len(catalogue.PER_LAYER) <= 128
    names = [entry[0] for entry in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_emitted_names_equal_declared_names(results, name):
    untraced, traced, _ = results[name]
    assert set(untraced["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    for result in (untraced, traced):
        for metric, entry in result["metrics"].items():
            assert math.isfinite(entry["value"]), metric
    for metric, entry in untraced["metrics"].items():
        assert entry["value"] > 0, metric  # end-to-end metrics are never 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_are_correct(results, name):
    for result in results[name]:
        failed = [check for check in result["checks"] if not check["ok"]]
        assert result["correct"] and result["failed"] == 0 and not failed, failed
        assert result["attempted"] >= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_span_self_times_sum_to_the_traced_wall(results, name):
    _, traced, _ = results[name]
    assert traced["metrics"]["trace.unresolved"]["value"] == 0
    assert abs(traced["metrics"]["trace.self_sum_share"]["value"] - 1.0) <= 0.02


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(results, name):
    _, first, second = results[name]
    for metric in sorted(catalogue.EXACT):
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def test_every_per_layer_metric_is_computed_somewhere(results):
    """A declared name that no workload ever moves off zero is a name
    nothing computes."""
    idle = {
        metric
        for metric, _, _ in catalogue.PER_LAYER
        if all(results[name][1]["metrics"][metric]["value"] == 0 for name in workloads.WORKLOADS)
    }
    # No name failed to resolve, and at tiny sizes nothing stalls or compacts.
    allowed = {"trace.unresolved", "kvstore.lsm.stall_s", "kvstore.lsm.compactions",
               "kvstore.lsm.compaction_bytes_written"}
    assert idle <= allowed, sorted(idle - allowed)


def test_hot_spots_have_their_own_rows(results):
    """The two scans the prototype convicted are visible by themselves."""
    assert results["sync_cache"][1]["metrics"]["kvstore.memdb.scan_s"]["value"] > 0
    assert results["replay_lsm_cache"][1]["metrics"]["kvstore.lsm.scan_s"]["value"] > 0
    assert results["sync_bare"][1]["metrics"]["gethdb.caches.calls"]["value"] == 0
    assert results["sync_cache"][1]["metrics"]["gethdb.caches.calls"]["value"] > 0


# -- surface guard ----------------------------------------------------------


def ledger_sources() -> list[Path]:
    return sorted(HERE.glob("*.py"))


def test_program_is_reached_only_through_the_surface_table():
    for path in ledger_sources():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "repro", f"{path.name} imports {module}"


def test_no_underscore_attribute_is_touched():
    for path in ledger_sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            assert dunder or own, f"{path.name}:{node.lineno} touches .{node.attr}"
    specs = list(surface.END_TO_END.values()) + [spec for _, spec, _ in surface.SPAN_TABLE]
    for spec in specs:
        module, _, path = spec.partition(":")
        for part in module.split(".") + path.split("."):
            assert not part.startswith("_"), spec


def test_missing_end_to_end_symbol_is_named(monkeypatch):
    monkeypatch.setitem(surface.END_TO_END, "replay_trace", "repro.replay.engine:replay_tracee")
    with pytest.raises(surface.SurfaceError, match="replay_trace.*replay_tracee"):
        surface.load()


def test_missing_span_entry_is_counted_not_raised():
    surface.load()
    recorder = spans.Recorder()
    table = [("rlp", "repro.rlp:encode", "bytes"), ("rlp", "repro.rlp:gone", "call"),
             ("trie", "repro.no_such_module:f", "call")]
    with recorder.installed(table):
        owner, leaf = surface.resolve("repro.rlp:encode")
        with recorder.span("root", "r"):
            assert getattr(owner, leaf)(b"abc") == b"\x83abc"
    assert recorder.unresolved == ["repro.rlp:gone", "repro.no_such_module:f"]
    assert recorder.cell("rlp", "encode").calls == 1
    assert recorder.cell("rlp", "encode").bytes == 4
    assert not hasattr(getattr(*surface.resolve("repro.rlp:encode")), "__wrapped__")


def test_iterator_spans_time_next_calls_and_close_promptly():
    recorder = spans.Recorder()
    events = []

    def numbers():
        try:
            yield from range(10)
        finally:
            events.append("closed")

    wrapped = recorder.wrap_iter(numbers, recorder.cell("layer", "numbers"))
    with recorder.span("root", "r"):
        for value in wrapped():
            if value == 2:
                break
        events.append("after loop")
    assert events == ["closed", "after loop"]
    cell = recorder.cell("layer", "numbers")
    assert cell.calls == 1
    root = recorder.cell("root", "r")
    assert cell.self_ns + root.self_ns == root.total_ns


# -- compare ----------------------------------------------------------------


def run_set(scale: dict[str, float], jitter: float = 0.0, seconds: int = 8,
            first_seed: int = 0, counts: dict[str, float] = {}) -> dict:
    """Ten untraced runs of one workload and one traced run on the first seed."""
    runs = []
    for seed in range(first_seed, first_seed + 10):
        wobble = 1.0 + jitter * ((seed % 5) - 2)
        metrics = {
            name: {"value": 100.0 * scale.get(name, 1.0) * wobble, "unit": unit}
            for name, unit, _, _ in catalogue.END_TO_END
        }
        runs.append({"workload": "replay_lsm_bare", "seed": seed, "trace": 0,
                     "result": {"metrics": metrics}})
    layers = {
        name: {"value": counts.get(name, 2.0), "unit": unit} for name, unit, _ in catalogue.PER_LAYER
    }
    runs.append({"workload": "replay_lsm_bare", "seed": first_seed, "trace": 1,
                 "result": {"metrics": layers}})
    return {"seconds": seconds, "runs": runs}


def verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}


def test_compare_verdicts():
    base = run_set({})
    assert set(verdicts(base, base).values()) == {"ok"}
    slower = verdicts(base, run_set({"work_per_s": 0.5, "item_p50_us": 1.5}))
    assert slower["work_per_s"] == "regressed" and slower["item_p50_us"] == "regressed"
    assert slower["peak_rss_mb"] == "ok"
    faster = verdicts(base, run_set({"work_per_s": 1.5}))
    assert faster["work_per_s"] == "improved"
    # One rule for every metric, set-up time included.
    noisy = verdicts(run_set({}, jitter=0.2), run_set({}, jitter=0.2))
    assert set(noisy.values()) == {"unresolved"}


def test_compare_counts_seed_by_seed():
    base = run_set({})
    rows, compared = compare.compare_counts(base, base)
    assert compared == len(catalogue.EXACT)
    assert {row["metric"] for row in rows} == set(catalogue.AMPLIFICATION)
    assert {row["verdict"] for row in rows} == {"ok"}
    moved = run_set({}, counts={"kvstore.lsm.write_amp": 2.5, "kvstore.lsm.read_amp": 1.5,
                                "rlp.calls": 3.0, "trie.get_s": 9.0})
    rows, _ = compare.compare_counts(base, moved)
    found = {row["metric"]: row["verdict"] for row in rows}
    assert found == {"kvstore.lsm.write_amp": "regressed", "kvstore.lsm.read_amp": "improved",
                     "kvstore.lsm.space_amp": "ok", "rlp.calls": "changed"}


def test_compare_exit_status_and_refusals(tmp_path, capsys):
    def saved(name: str, run_set_: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(run_set_))
        return str(path)

    base = saved("a.json", run_set({}))
    assert compare.main([base, base]) == 0
    assert compare.main([base, saved("b.json", run_set({"work_per_s": 0.5}))]) == 1
    worse_amp = run_set({}, counts={"kvstore.lsm.space_amp": 2.5})
    assert compare.main([base, saved("c.json", worse_amp)]) == 1
    assert compare.main([base, str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert compare.main([base, saved("d.json", run_set({}, seconds=4))]) == 2
    assert "run lengths differ" in capsys.readouterr().err
    assert compare.main([base, saved("e.json", run_set({}, first_seed=1))]) == 2
    assert "runs differ" in capsys.readouterr().err


def test_unit_count_follows_seconds_and_workload_only():
    """The observations behind a metric never depend on the measured speed."""
    counts = {name: workloads.unit_count(name, catalogue.run_seconds()) for name in workloads.WORKLOADS}
    assert counts == {"sync_bare": 3, "sync_cache": 3, "analyze_cold": 16,
                      "replay_lsm_bare": 6, "replay_lsm_cache": 3}
    assert workloads.unit_count("analyze_cold", 0.05) == workloads.MIN_UNITS
