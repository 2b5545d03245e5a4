"""gamowlab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's scenario files from the seed, then
starts fresh Python processes one at a time: a closed-loop worker (one
client running one scenario after another through
``gamowlab.scenario.run_file``), extra set-up-only processes, and cold
``python -m gamowlab run`` CLI processes. Every output is checked by the
benchmark's own oracles. With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run. Earlier lines print every metric by
name and unit, and the run's details (input properties, tail percentile
and sample count, machine, error rate).

BLAS runs on one thread: the load is a single client, the matrices are
at most 128x128, and one thread keeps the count below ``nproc`` on any
machine.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import compare  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5  # fresh processes timed for setup_s, the worker's own included
CLI_RUNS = 15
IMPORT_RUNS = 7
PROCESS_TIMEOUT_S = 150

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait(proc: subprocess.Popen, timeout: float = PROCESS_TIMEOUT_S) -> int:
    """Block until ``proc`` ends, killing it after ``timeout`` seconds.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    quantize the measured wall time; a blocking wait with a watchdog does not.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


def _worker(mode: str, workdir: Path, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(workdir), str(SRC), repr(seconds)]
    rc = _wait(subprocess.Popen(cmd, env=_env()), seconds + PROCESS_TIMEOUT_S)
    if rc:
        raise SystemExit(f"worker {mode} exited with {rc}")
    return json.loads((workdir / f"worker-{mode}.json").read_text(encoding="utf-8"))


def _timed_process(cmd: list[str]) -> tuple[float, int]:
    t0 = time.perf_counter()
    rc = _wait(subprocess.Popen(cmd, env=_env(), stdout=subprocess.DEVNULL))
    return time.perf_counter() - t0, rc


def _cli_runs(entry: dict, workdir: Path) -> tuple[list[float], list[float], list[str]]:
    """Cold ``python -m gamowlab run`` on one scenario, CLI_RUNS times in a row.

    A reference process runs before the first and after every CLI run.
    Returns the wall times, the mean reference time on both sides of each,
    and the failures.
    """
    times, refs, failures = [], [], []
    out = workdir / "cli-out"
    reference = [sys.executable, *calibrate.REF_PROCESS_ARGS]
    before, _ = _timed_process(reference)
    for _ in range(CLI_RUNS):
        shutil.rmtree(out, ignore_errors=True)
        elapsed, rc = _timed_process([sys.executable, "-m", "gamowlab", "run", entry["path"], "--out", str(out)])
        after, _ = _timed_process(reference)
        times.append(elapsed)
        refs.append((before + after) / 2)
        before = after
        problem = f"exit code {rc}" if rc else oracles.check(entry["expect"], out)
        if problem is not None:
            failures.append(f"cli: {problem}")
    return times, refs, failures


def _import_runs() -> list[float]:
    code = "import time; t = time.perf_counter(); import gamowlab; print(time.perf_counter() - t)"
    return [
        float(subprocess.run([sys.executable, "-c", code], env=_env(), timeout=PROCESS_TIMEOUT_S,
                             check=True, capture_output=True, text=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]


def _machine(blas_threads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def _tail(times: list[float], percentile: float) -> float:
    """Nearest-rank ``percentile`` of ``times``."""
    ordered = sorted(times)
    return ordered[math.ceil(percentile / 100 * len(ordered)) - 1]


def _metrics(values: dict, kind: str) -> dict:
    """The BENCHMARK.json metrics of ``kind``, each with its unit, from ``values``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in compare.spec(ROOT)[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = ROOT / ".perfbench-work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = workloads.generate(workload, seed, workdir / "scenarios")
    _, trace_count, tail_percentile, kernel = workloads.WORKLOADS[workload]
    manifest.update(trace_count=trace_count, tail_percentile=tail_percentile, reference_kernel=kernel)
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    first = manifest["scenarios"][0]

    worker = _worker("trace" if trace else "measure", workdir, seconds)
    cli_times, cli_refs, cli_failures = _cli_runs(first, workdir)
    failures = worker["failures"] + cli_failures
    attempted = worker["attempted"] + len(cli_times)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "inputs": manifest["inputs"],
        "machine": _machine(worker["blas_threads"]),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
        "cli_samples": cli_times,
    }
    if trace:
        imports = _import_runs()
        values = dict(worker["layer"])
        values["cli.import_s"] = statistics.median(imports)
        values["cli.startup_s"] = statistics.median(cli_times) - worker["inprocess_first_s"]
        details.update(import_samples=imports, inprocess_first_s=worker["inprocess_first_s"])
        metrics = _metrics(values, "per_layer")
    else:
        setups = [worker] + [_worker("setup", workdir, seconds) for _ in range(SETUP_RUNS - 1)]
        raw = {
            "times": worker["times"],
            "setup": [w["setup_s"] for w in setups],
            "cli": cli_times,
        }
        scaled = {
            "times": calibrate.scale(worker["times"], worker["refs"], manifest["reference_kernel"]),
            "setup": [w["setup_s"] * calibrate.KERNELS["mixed"][1] / w["setup_ref_s"] for w in setups],
            "cli": [t * calibrate.REF_PROCESS_NOMINAL_S / r for t, r in zip(cli_times, cli_refs)],
        }
        pct = manifest["tail_percentile"]
        values, raw_values = (
            {
                "items_per_s": worker["items"] / sum(v["times"]),
                "run_s_p50": statistics.median(v["times"]),
                "run_s_tail": _tail(v["times"], pct),
                "setup_s": statistics.median(v["setup"]),
                "peak_rss_mb": worker["peak_rss_mb"],
                "cli_run_s": statistics.median(v["cli"]),
            }
            for v in (scaled, raw)
        )
        details.update(
            tail_percentile=pct,
            reference_kernel=manifest["reference_kernel"],
            samples=len(worker["times"]),
            reference_s_median=statistics.median(worker["refs"]),
            unscaled=raw_values,
            setup_samples=raw["setup"],
        )
        metrics = _metrics(values, "end_to_end")
    for sub in ("scenarios", "out", "cli-out", "warmup"):
        shutil.rmtree(workdir / sub, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gamowlab" / "__init__.py").is_file():
        print(f"gamowlab sources not found under {SRC}", file=sys.stderr)
        return 2
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {details['error_rate']:.6g} ratio")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
