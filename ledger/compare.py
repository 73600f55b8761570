"""Compare two run-sets (``runset.py --out``): parent A against change B.

    python3 ledger/compare.py A.json B.json

The run-sets must have been collected with the same run length and the
same seeds; otherwise they are refused.  Two tables:

**Timings** — one row per (workload, end-to-end metric): both medians
with their quartiles, the worsening of B's median as a share of A's
(negative = B is better), the metric's bound and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better than A's by more than the bound,
  or every run of B reads better than every run of A;
* ``unresolved`` — the run-to-run spread of A or B (interquartile
  distance over the median) is wider than the bound, so "no change"
  cannot be told from a regression;
* ``ok``         — none of the above.

**Counts** — the exact-count metrics (``catalogue.EXACT``) of the traced
runs, seed by seed.  For one seed they repeat exactly, so any difference
is the change's doing.  The three amplification counts are gated at
bound 0 (``regressed`` / ``improved`` / ``ok``) and always shown where
they are not zero; any other count that differs is shown as ``changed``.

Exit status 1 when any row is ``regressed``, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import catalogue
import workloads


def values_by_pair(run_set: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the untraced runs' values."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in run_set["runs"]:
        if run["trace"] != 0:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def mismatch(a: dict, b: dict) -> Optional[str]:
    """Why the two run-sets cannot be compared, or None.

    The number of units behind every timing follows from the run length,
    and counts repeat only for one seed: both must be the same.
    """
    if a["seconds"] != b["seconds"]:
        return f"run lengths differ: {a['seconds']} s against {b['seconds']} s"
    plans = [
        sorted((run["workload"], run["trace"], run["seed"]) for run in side["runs"])
        for side in (a, b)
    ]
    if plans[0] != plans[1]:
        only = sorted(set(plans[0]) ^ set(plans[1]))
        return f"(workload, trace, seed) runs differ, first: {only[:3]}"
    return None


def compare(a: dict, b: dict) -> list[dict]:
    side_a, side_b = values_by_pair(a), values_by_pair(b)
    rows = []
    for workload in workloads.WORKLOADS:
        for name, unit, better, bound in catalogue.END_TO_END:
            va, vb = side_a.get((workload, name)), side_b.get((workload, name))
            if not va or not vb:
                continue
            a_q1, a_med, a_q3 = workloads.quartiles(va)
            b_q1, b_med, b_q3 = workloads.quartiles(vb)
            sign = 1.0 if better == "lower" else -1.0
            worsening = sign * workloads.ratio(b_med - a_med, a_med)
            spread = max(
                workloads.ratio(a_q3 - a_q1, a_med), workloads.ratio(b_q3 - b_q1, b_med)
            )
            if better == "lower":
                every_run_better = max(vb) < min(va)
            else:
                every_run_better = min(vb) > max(va)
            if worsening > bound:
                verdict = "regressed"
            elif every_run_better or worsening < -bound:
                verdict = "improved"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "bound": bound,
                "a_median": a_med, "a_q1": a_q1, "a_q3": a_q3, "a_runs": len(va),
                "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3, "b_runs": len(vb),
                "worsening": worsening, "spread": spread, "verdict": verdict,
            })
    return rows


def compare_counts(a: dict, b: dict) -> tuple[list[dict], int]:
    """Rows for the exact counts worth showing, and how many were compared."""
    traced_b = {
        (run["workload"], run["seed"]): run["result"]["metrics"]
        for run in b["runs"] if run["trace"] == 1
    }
    rows, compared = [], 0
    for run in a["runs"]:
        other = traced_b.get((run["workload"], run["seed"]))
        if run["trace"] != 1 or other is None:
            continue
        for name, unit, better in catalogue.PER_LAYER:
            if name not in catalogue.EXACT:
                continue
            compared += 1
            va, vb = run["result"]["metrics"][name]["value"], other[name]["value"]
            if name in catalogue.AMPLIFICATION:
                if va == vb == 0:
                    continue
                worse = vb > va if better == "lower" else vb < va
                verdict = "ok" if va == vb else "regressed" if worse else "improved"
            elif va != vb:
                verdict = "changed"
            else:
                continue
            rows.append({
                "workload": run["workload"], "seed": run["seed"], "metric": name,
                "unit": unit, "a": va, "b": vb, "verdict": verdict,
            })
    return rows, compared


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<13} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
        f"{'unit':<4} {'worse':>7} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        a = f"{row['a_median']:.5g} [{row['a_q1']:.5g}, {row['a_q3']:.5g}]"
        b = f"{row['b_median']:.5g} [{row['b_q1']:.5g}, {row['b_q3']:.5g}]"
        lines.append(
            f"{row['workload']:<17} {row['metric']:<13} {a:>34} {b:>34} {row['unit']:<4} "
            f"{row['worsening']:>+7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def render_counts(rows: list[dict], compared: int) -> str:
    lines = [f"{'workload':<17} {'seed':>5} {'exact count':<46} {'A':>14} {'B':>14} {'unit':<5}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<17} {row['seed']:>5} {row['metric']:<46} "
            f"{row['a']:>14.8g} {row['b']:>14.8g} {row['unit']:<5}  {row['verdict']}"
        )
    differing = sum(row["verdict"] != "ok" for row in rows)
    lines.append(f"{compared} exact counts compared seed by seed, {differing} differ")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = (json.loads(Path(path).read_text()) for path in argv)
        refusal = mismatch(a, b)
        rows = compare(a, b)
        count_rows, compared = compare_counts(a, b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: cannot read run-sets: {exc!r}", file=sys.stderr)
        return 2
    if refusal:
        print(f"compare: the run-sets are not comparable: {refusal}", file=sys.stderr)
        return 2
    if not rows:
        print("compare: the run-sets hold no untraced run", file=sys.stderr)
        return 2
    print(render(rows))
    print()
    print(render_counts(count_rows, compared))
    return 1 if any(row["verdict"] == "regressed" for row in rows + count_rows) else 0


if __name__ == "__main__":
    sys.exit(main())
