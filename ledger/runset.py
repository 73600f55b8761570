"""Collect a run-set: every workload, several seeds, as the driver runs them.

    python3 ledger/runset.py --out A.json     # 5 workloads x (10 seeds + 1 traced), ~22 min
    python3 ledger/runset.py --runs 3         # a quicker look at every metric

Per workload: ``--runs`` untraced runs on consecutive seeds from the
default seed (the one ``golden.json`` was recorded for), then one traced
run on the default seed.  The run length is ``BENCHMARK.json``'s
``run_seconds``.  Each run is its own ``run.py`` process (peak memory and
import cost are per process).  The result file holds every run's metrics
plus the interpreter, platform and core count; ``compare.py`` reads two
of them.

The summary printed at the end gives, per workload and end-to-end metric,
the median, the quartiles and the spread (interquartile distance as a
share of the median) over the seeds — the number the acceptance rule is
about: a spread above the metric's bound makes every later comparison
on that metric unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import catalogue
import run as ledger_run
import workloads

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    wall_s = perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    return {
        "workload": workload, "seed": seed, "trace": trace, "wall_s": wall_s,
        "result": json.loads(lines[-1]),
    }


def summarize(runs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) over the untraced runs."""
    rows = []
    for workload in workloads.WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for name, unit, better, bound in catalogue.END_TO_END:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, median, q3 = workloads.quartiles(values)
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "better": better,
                "bound": bound, "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": workloads.ratio(q3 - q1, median),
            })
    return rows


def render(rows: list[dict], runs: list[dict]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<13} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'unit':<4} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        if row["spread"] <= row["bound"] / 3:
            verdict = "steady"
        elif row["spread"] <= row["bound"]:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
        lines.append(
            f"{row['workload']:<17} {row['metric']:<13} {row['median']:>12.5g} "
            f"{row['q1']:>12.5g} {row['q3']:>12.5g} {row['unit']:<4} "
            f"{row['spread']:>7.3f} {row['bound']:>6.2f}  {verdict}"
        )
    walls = [r["wall_s"] for r in runs]
    lines.append(
        f"{len(runs)} runs, process wall median {statistics.median(walls):.1f} s, "
        f"max {max(walls):.1f} s, total {sum(walls):.0f} s"
    )
    # ROADMAP's "one number": one run of every workload, end to end
    # (input generation, set-ups, timed units, checks).
    pipeline = sum(
        statistics.median(r["wall_s"] for r in runs if r["workload"] == w and r["trace"] == 0)
        for w in workloads.WORKLOADS
    )
    lines.append(f"pipeline_s (one untraced run of each workload above) {pipeline:.1f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the run-set as JSON")
    parser.add_argument("--runs", type=int, default=10, help="untraced runs (seeds) per workload")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3: quartiles need them")

    seconds = catalogue.run_seconds()
    first = ledger_run.DEFAULT_SEED
    runs = []
    for workload in workloads.WORKLOADS:
        for seed, trace in [(first + i, 0) for i in range(args.runs)] + [(first, 1)]:
            entry = one_run(workload, seed, seconds, trace)
            runs.append(entry)
            shown = ", ".join(
                f"{name}={metric['value']:.5g}"
                for name, metric in entry["result"]["metrics"].items()
                if trace == 0 or name.endswith(".self_s")
            )
            print(f"{workload} seed {seed} trace {trace} [{entry['wall_s']:.1f} s] {shown}", flush=True)
    rows = summarize(runs)
    print(render(rows, runs))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": ledger_run.environment(), "seconds": seconds,
             "summary": rows, "runs": runs}, indent=1,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
