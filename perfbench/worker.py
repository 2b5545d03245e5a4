"""One fresh process that measures gamowlab on a generated workload.

Usage: python3 worker.py MODE WORKDIR SRC SECONDS

MODE is ``setup`` (import plus one warm-up call, then exit), ``measure``
(closed loop of ``scenario.run_file`` calls for SECONDS) or ``trace``
(a fixed list of scenarios, each run untraced and traced). WORKDIR holds
``manifest.json`` from the generator; the result goes to
``WORKDIR/worker-MODE.json``. gamowlab is imported from SRC only.

Nothing but the standard library is imported before gamowlab, so
``setup_s`` covers the whole cost of importing the package (numpy
included) and one warm-up call.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _setup(src: Path, first: str, workdir: Path):
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import gamowlab.scenario

    if not Path(gamowlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gamowlab imported from {gamowlab.__file__}, not from {src}")
    gamowlab.scenario.run_file(first, workdir / "warmup")
    return time.perf_counter() - t0


def _blas_threads() -> int | None:
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


class Runner:
    """Times ``run_file`` on one scenario and checks its outputs with the oracle."""

    def __init__(self, workdir: Path):
        import gamowlab.scenario
        import oracles

        self.scenario, self.oracles = gamowlab.scenario, oracles
        self.out = workdir / "out"
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, entry: dict) -> float:
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            rc = self.scenario.run_file(entry["path"], self.out)
        except Exception as exc:  # a crash is a failed call; the loop goes on
            elapsed = time.perf_counter() - t0
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = f"raised {type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            problem = f"exit code {rc}" if rc != 0 else self.oracles.check(entry["expect"], self.out)
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{Path(entry['path']).name}: {problem}")
        return elapsed

    def output_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.out.iterdir()) if self.out.is_dir() else 0


def _measure(runner: Runner, scenarios: list, seconds: float, tail_percentile: float, kernel: str) -> dict:
    # Run past the deadline if needed, so the tail has ten samples beyond it.
    import calibrate

    min_calls = math.ceil(10 / (1 - tail_percentile / 100))
    times, refs, items = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        entry = scenarios[len(times) % len(scenarios)]
        failed_before = len(runner.failures)
        times.append(runner.call(entry))
        refs.append(calibrate.reference_s(kernel, calibrate.REF_SHARE * times[-1]))
        if len(runner.failures) == failed_before:
            items += entry["items"]
    return {"times": times, "refs": refs, "items": items}


def _trace(runner: Runner, scenarios: list, count: int, workdir: Path) -> dict:
    import tracer

    tr = tracer.Tracer()
    untraced = traced = 0.0
    for i, entry in enumerate(scenarios[:count]):
        # Alternate which run goes first so warm caches favour neither.
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_run:
                untraced += runner.call(entry)
                continue
            tr.install()
            tr.scenario_id = i
            try:
                traced += runner.call(entry)
            finally:
                tr.uninstall()
            tr.counters["scenario.input_bytes"] += Path(entry["path"]).stat().st_size
            tr.counters["scenario.output_bytes"] += runner.output_bytes()
    left = tr.wrapped_left()
    if left:
        raise SystemExit(f"tracing left wrappers bound: {left}")
    first = statistics.median(runner.call(scenarios[0]) for _ in range(3))
    tr.write_spans(workdir / "spans.csv")
    return {"layer": tr.metrics(traced, untraced), "inprocess_first_s": first}


def main(argv: list[str]) -> int:
    mode, workdir, src, seconds = argv[0], Path(argv[1]), Path(argv[2]), float(argv[3])
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    scenarios = manifest["scenarios"]
    quiet = open(os.devnull, "w", encoding="utf-8")
    sys.stdout = quiet  # run_file prints a summary line per call
    try:
        result = {"setup_s": _setup(src, scenarios[0]["path"], workdir)}
        import calibrate

        result["setup_ref_s"] = calibrate.local_reference_s()
        if mode != "setup":
            runner = Runner(workdir)
            if mode == "measure":
                result.update(_measure(runner, scenarios, seconds, manifest["tail_percentile"],
                                       manifest["reference_kernel"]))
            else:
                result.update(_trace(runner, scenarios, manifest["trace_count"], workdir))
            result.update(attempted=runner.attempted, failures=runner.failures)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["blas_threads"] = _blas_threads()
    finally:
        sys.stdout = sys.__stdout__
        quiet.close()
    (workdir / f"worker-{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
