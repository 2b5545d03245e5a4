"""Run the benchmark over several seeds on every workload; save and summarize the result set.

Usage (from the repository root):

    python3 perfbench/sweep.py --out DIR [--seeds 1-10] [--trace 0|1] [--baseline FILE]

Each run's details and result go to ``DIR/<workload>-s<seed>-t<trace>.json``,
the format ``compare.py`` reads. Seeds are the outer loop, so drift on the
machine touches every workload alike. The summary gives, per workload and
metric, the median, the quartiles and the spread (interquartile range as a
share of the median) against the metric's bound. ``--baseline`` also writes
the summary, the machine, the input properties and the layer map to FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
from tracer import LAYER_MAP

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout.splitlines()
    return {"details": json.loads(lines[-2])["details"], "result": json.loads(lines[-1])}


def summarize(runs: dict, bench: dict) -> dict:
    """{workload: {metric: stats}} for every (workload, trace) in ``runs``."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    out: dict = {}
    for (workload, trace), by_seed in sorted(runs.items()):
        names = [m["name"] for m in bench["per_layer"]] if trace else list(e2e)
        for name in names:
            vals = sorted(compare.values(by_seed, name).values())
            q1, med, q3 = compare.quartiles(vals) if len(vals) > 1 else (vals[0],) * 3
            stats = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                     "spread": (q3 - q1) / abs(med) if med else 0.0}
            if name in e2e:
                stats["bound"] = e2e[name]["bound"]
            out.setdefault(workload, {})[name] = stats
        failed = sum(r["result"]["failed"] for r in by_seed.values())
        attempted = sum(r["result"]["attempted"] for r in by_seed.values())
        out[workload][f"error_rate.trace{trace}"] = {"failed": failed, "attempted": attempted,
                                                     "value": failed / attempted}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result-set directory")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=str(HERE.parent), help="checkout to run (default: this one)")
    parser.add_argument("--baseline", default=None, help="also write the summary to this file")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    bench = compare.spec(root)
    names = [w["name"] for w in bench["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(args.seeds):
        for workload in names:
            run = run_one(root, workload, seed, bench["run_seconds"], args.trace)
            (out / f"{workload}-s{seed}-t{args.trace}.json").write_text(json.dumps(run), encoding="utf-8")
            print(f"seed {seed} {workload}: failed {run['result']['failed']}/{run['result']['attempted']}",
                  flush=True)

    runs = compare.load(out)
    summary = summarize(runs, bench)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if "median" not in s:
                print(f"{workload:16} {name:40} {s['value']:<12.6g} ratio    ({s['failed']}/{s['attempted']} failed)")
                continue
            flag = ""
            if "bound" in s:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:16} {name:40} {s['median']:<12.6g} {units[name]:8} median of {s['n']}, "
                  f"spread {s['spread']:.4f} {flag}")
    if args.baseline:
        first = next(iter(next(iter(runs.values())).values()))["details"]
        baseline = {
            "machine": first["machine"],
            "run_seconds": bench["run_seconds"],
            "inputs": {w: next(iter(r.values()))["details"]["inputs"] for (w, _), r in runs.items()},
            "layer_map": {name: {"moves": m[0], "on": m[1]} for name, m in LAYER_MAP.items() if m},
            "summary": summary,
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
