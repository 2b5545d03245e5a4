"""Print one sha256 over everything a fixed set of scenario runs shows, to check that a change keeps it.

Usage, once per checkout, from the repository root:

    PYTHONPATH=<checkout>/src python3 tools/output_digest.py

The gamowlab package is the one on the path. The scenarios are the benchmark
pools of seeds 1-3 of every workload, written by ``perfbench/workloads.py``
into a temporary directory, the three demo scenarios the package writes, and
three two-resonance probes with seeded random Hermitian observables, one per
evolution variant, since every benchmark pool and demo scenario is HERMITIAN:

* ``two_resonance_overflow``, HERMITIAN: a fast width of 2 on the grid
  [0, 200] pushes the alpha/beta scale e^{2 t Gamma} past the float range;
* ``two_resonance_invertible``: the pseudo-adjoint conjugation
  U(t) O U(-t), whose terms grow like e^{+t Gamma}, on the grid [-1, 6];
* ``two_resonance_semigroup_d``: the U O U^dag extrapolation and its
  filtered warning, on the grid [-1, 6].

The two grids through t = 0 keep widths at 2 or below, so nothing leaves the
float range. Each scenario runs through ``scenario.run_file`` in this
process. The digest covers, per scenario in a fixed order: its name relative
to the temporary directory, its input bytes, its exit code, its stdout with
that directory's path replaced, every warning it raised, and the name and
bytes of every output file. The output is the scenario count, the BLAS thread
count and the digest. ``perfbench/`` is only read: no bytecode is written for
it.

BLAS runs on one thread, set before numpy is imported, as in
``perfbench/run.py``: a large matrix product splits its sums by the thread
count, so the same scenario can give other last bits under another count.
A digest is only comparable with one from the same machine, numpy and BLAS
build, and thread count.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from gamowlab import scenario  # noqa: E402

SEEDS = (1, 2, 3)


def _probes() -> dict[str, dict]:
    rng = np.random.default_rng(1806)

    def probe(resonances, variant, t_start, t_end, steps):
        return {
            "kind": "resonance",
            "resonances": [{"energy": e, "width": w} for e, w in resonances],
            "variant": variant,
            "grid": {"t_start": t_start, "t_end": t_end, "steps": steps},
            "eps": 1e-3,
            "observables": [workloads._encode(workloads._hermitian(rng, 4)) for _ in range(2)],
        }

    return {
        "two_resonance_overflow": probe([(0.3, 0.2), (-0.7, 2.0)], "hermitian", 0.0, 200.0, 101),
        "two_resonance_invertible": probe([(0.5, 0.4), (-1.25, 2.0)], "invertible", -1.0, 6.0, 71),
        "two_resonance_semigroup_d": probe([(0.0, 1.0), (0.5, 0.3)], "semigroup_d", -1.0, 6.0, 71),
    }


def _scenarios(tmp: Path) -> list[Path]:
    paths = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            manifest = workloads.generate(workload, seed, tmp / f"seed{seed}")
            paths += [Path(entry["path"]) for entry in manifest["scenarios"]]
    paths += scenario.write_demo_files(tmp / "demos")
    (tmp / "probe").mkdir()
    for name, payload in _probes().items():
        probe = tmp / "probe" / f"{name}.json"
        probe.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        paths.append(probe)
    return paths


def _record(path: Path, tmp: Path) -> dict:
    name = path.relative_to(tmp).as_posix()
    out = tmp / "out" / name
    stdout = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        code = scenario.run_file(path, out)
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "name": name,
        "input": hashlib.sha256(path.read_bytes()).hexdigest(),
        "code": code,
        "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    }


def main() -> int:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir).resolve()
        paths = _scenarios(tmp)
        for path in paths:
            digest.update(json.dumps(_record(path, tmp), sort_keys=True).encode() + b"\n")
    print(f"{len(paths)} scenarios, {BLAS_THREADS} BLAS thread, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
