"""Compare two result sets of the benchmark, per workload and end-to-end metric.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of ``<workload>-s<seed>-t<trace>.json`` files
as written by ``sweep.py``. Runs are paired by seed. The verdict for each
workload x metric follows this rule:

* ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in the change's favour, by more
  than the parent's interquartile range;
* ``unresolved``: otherwise, when either side's interquartile range is
  wider than the metric's bound (share of the median), unless every
  change run is better than every parent run (``better-all-runs``);
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``no-regression``: none of the above.

A workload whose change runs fail a larger share of operations than the
parent's is flagged, and none of its gains count.

The judged values are the reported ones, whose times are scaled by the
reference kernel in ``calibrate.py``. The same rule is also applied to the
unscaled values each run keeps in its details, and printed beside the
verdict for information only: a change that slows what runs after it in
the same process would slow the reference too and cancel out of the
scaled figure, but not out of the unscaled one.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(result_dir) -> dict:
    """{(workload, trace): {seed: {"details": ..., "result": ...}}}."""
    runs: dict = {}
    for path in sorted(Path(result_dir).glob("*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        d = run["details"]
        runs.setdefault((d["workload"], d["trace"]), {})[d["seed"]] = run
    return runs


def values(runs: dict, metric: str) -> dict:
    return {seed: r["result"]["metrics"][metric]["value"] for seed, r in runs.items()}


def unscaled_values(runs: dict, metric: str) -> dict:
    return {seed: r["details"]["unscaled"][metric] for seed, r in runs.items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def failed_share(runs: dict) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs.values())
    return sum(r["result"]["failed"] for r in runs.values()) / attempted


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """Verdict for one workload x metric; ``parent``/``change`` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds]
    if not pairs:  # different seeds: pair in run order
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    p_iqr = p_q3 - p_q1
    spread = max(p_iqr / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    worse_by = -sign * (c_med - p_med) / abs(p_med)
    if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_iqr:
        word = "gain"
    elif spread > bound:
        all_better = min(sign * c for c in change.values()) > max(sign * p for p in parent.values())
        word = "better-all-runs" if all_better else "unresolved"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "no-regression"
    return {
        "verdict": word,
        "parent_median": p_med,
        "change_median": c_med,
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
    }


def compare(parent_dir, change_dir, root: Path = ROOT) -> list[dict]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        more_failures = failed_share(change[key]) > failed_share(parent[key])
        for m in spec(root)["end_to_end"]:
            v = verdict(values(parent[key], m["name"]), values(change[key], m["name"]), m["better"], m["bound"])
            if more_failures and v["verdict"] == "gain":
                v["verdict"] = "gain-void-more-failures"
            raw = verdict(unscaled_values(parent[key], m["name"]), unscaled_values(change[key], m["name"]),
                          m["better"], m["bound"])
            rows.append({"workload": workload, "metric": m["name"], "bound": m["bound"],
                         "more_failures": more_failures, **v,
                         "unscaled": {k: raw[k] for k in ("verdict", "worse_by", "spread")}})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':16} {'metric':12} {'parent':>11} {'change':>11} {'worse_by':>9} "
          f"{'spread':>7} {'bound':>5} {'wins':>6}  {'verdict':15} unscaled (information only)")
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:12} {r['parent_median']:11.5g} {r['change_median']:11.5g} "
              f"{r['worse_by']:+9.3f} {r['spread']:7.3f} {r['bound']:5.2f} {r['wins']:>3}/{r['pairs']:<2}  "
              f"{r['verdict'] + (' (more failures)' if r['more_failures'] else ''):15} "
              f"{r['unscaled']['verdict']} (worse_by {r['unscaled']['worse_by']:+.3f}, "
              f"spread {r['unscaled']['spread']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
