"""Print one sha256 over everything a fixed set of scenario runs shows, to check that a change keeps it.

Usage, once per checkout, from the repository root:

    PYTHONPATH=<checkout>/src python3 tools/output_digest.py

The gamowlab package is the one on the path. The scenarios are the benchmark
pools of seeds 1-3 of every workload, written by ``perfbench/workloads.py``
into a temporary directory, the three demo scenarios the package writes, and
probes of what neither reaches. Every benchmark pool and demo scenario is
HERMITIAN, so three two-resonance probes with seeded random Hermitian
observables take one evolution variant each:

* ``two_resonance_overflow``, HERMITIAN: a fast width of 2 on the grid
  [0, 200] pushes the alpha/beta scale e^{2 t Gamma} past the float range;
* ``two_resonance_invertible``: the pseudo-adjoint conjugation
  U(t) O U(-t), whose terms grow like e^{+t Gamma}, on the grid [-1, 6];
* ``two_resonance_semigroup_d``: the U O U^dag extrapolation and its
  filtered warning, on the grid [-1, 6].

The two grids through t = 0 keep widths at 2 or below, so nothing leaves the
float range. Every pool and demo triple meets at principal angles far from
the rank cutoff, so three lattice probes put meets next to it:

* ``near_lines_1e-10`` and ``near_lines_1e-06``: the lines through (1, 0),
  (cos theta, sin theta) and (0, 1) in C^2, at theta = 1e-10 rad (inside
  the cutoff's 1.4e-10 rad, so the first two lines meet) and 1e-6 rad;
* ``near_ranges_c16``: rank-8 ranges in C^16 that share 7 directions, the
  8th tilted by 0, 1.5e-4 and -1.5e-4 rad.

Every damping pool has k = 8 Hermitian observables over 100 steps with
entries of order one (real Pauli vectors, so the pair norms take the
real route of ``cmatrix._pair_cross_norms``), so eight damping probes with seeded random observables,
Hermitian in all but the last, reach the paths the pools miss:

* ``damping_k64_n300``: k = 64 over 300 steps, one step per chunk of
  pair norms;
* ``damping_k2_n5000``: k = 2 over 5,000 steps, many chunks of many steps;
* ``damping_scale_1e-150`` and ``damping_scale_1e+150``: k = 8 over 100
  steps with entries scaled by 1e-150 and 1e+150, whose squared commutator
  parts leave the float range, so each member leaves the real route for
  the norm kernel's rescale path;
* ``damping_scale_1e-160``: the same at 1e-160, whose cross products are
  subnormal;
* ``damping_scale_1e+154``: the same at 1e+154, whose commutators pass the
  float range at run time (exit 3);
* ``damping_commuting_pair``: k = 8 over 100 steps with X_1 = 2 X_0, so one
  pair's commutator is exactly zero at every step and that member alone
  leaves the real route for the norm kernel;
* ``damping_non_hermitian``: k = 8 over 100 steps with complex observables,
  whose Pauli vectors are complex, so the run takes the complex route and
  the cross products multiply nonzero imaginary parts.

Every pool, demo and probe above exits 0 but ``damping_scale_1e+154``, so
two more probes end in the other exit codes:

* ``invalid_projector``: a lattice scenario whose first matrix is I / 2,
  which fails validation (exit 2);
* ``invertible_growth``: the demo resonance scenario with one width-2
  resonance, INVERTIBLE conjugation and the grid [0, 400] in 3 steps,
  whose evolved entries pass the float range at run time (exit 3).

Every resonance pool, demo and probe above fits its decay line on a grid
that starts at or near t = 0 and spans order one to a few hundred, so three
probes take the demo resonance scenario, its sigma_x, sigma_y pair with no
random draw, to grids at the ends of the float range:

* ``fit_far_grid``: width 3e-8 on [1e10, 1e10 + 1e-3], whose times agree in
  their first 13 digits;
* ``fit_tiny_span``: width 0.5 on [0, 1e-200], over which every log norm is
  equal;
* ``fit_huge_span``: width 1e-310 on [-1e300, 0], whose slope -2e-310 is
  subnormal.

Each scenario runs through ``scenario.run_file`` in this process. The digest
covers, per scenario in a fixed order: its name relative to the temporary
directory, its input bytes, its exit code, its stdout (the summary or the
diagnostic) with that directory's path replaced, every warning it raised,
and the name and bytes of every output file. The output is a line naming
the CPU class, numpy's dispatched CPU features in use and the core OpenBLAS
chose, then the scenario count and the digest. ``perfbench/`` is only read:
no bytecode is written for it. Compare two digests only if their CPU lines
match and they come from the same numpy and BLAS build: numpy's ``exp``
and BLAS kernels round differently on other CPU classes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from gamowlab import scenario  # noqa: E402

SEEDS = (1, 2, 3)


def _probes(demo_resonance: dict) -> dict[str, dict]:
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

    def damping(k, n_max, scale=1.0, twin=False, hermitian=True):
        mats = [(workloads._hermitian(rng, 2) if hermitian else workloads._complex(rng, (2, 2))) * scale for _ in range(k)]
        if twin:
            mats[1] = 2 * mats[0]  # [X_0, X_1] = 0 exactly
        return {
            "kind": "damping",
            "p": 0.03,
            "n_max": n_max,
            "eps": 1e-6,
            "observables": [workloads._encode(m) for m in mats],
        }

    def fit(width, t_start, t_end):
        return {
            **demo_resonance,
            "resonances": [{"energy": 0.0, "width": width}],
            "grid": {"t_start": t_start, "t_end": t_end, "steps": 101},
        }

    def lattice(mats):
        return {"kind": "lattice", "observables": [workloads._encode(m) for m in mats]}

    def lines(theta):
        directions = ([1.0, 0.0], [np.cos(theta), np.sin(theta)], [0.0, 1.0])
        return lattice([workloads._projector(np.array([v]).T) for v in directions])

    u = workloads._unitary(np.random.default_rng(41), 16)
    ranges = []
    for theta in (0.0, 1.5e-4, -1.5e-4):
        basis = u[:, :8].copy()
        basis[:, 7] = np.cos(theta) * u[:, 7] + np.sin(theta) * u[:, 8]
        ranges.append(workloads._projector(basis))
    return {
        "two_resonance_overflow": probe([(0.3, 0.2), (-0.7, 2.0)], "hermitian", 0.0, 200.0, 101),
        "two_resonance_invertible": probe([(0.5, 0.4), (-1.25, 2.0)], "invertible", -1.0, 6.0, 71),
        "two_resonance_semigroup_d": probe([(0.0, 1.0), (0.5, 0.3)], "semigroup_d", -1.0, 6.0, 71),
        "near_lines_1e-10": lines(1e-10),
        "near_lines_1e-06": lines(1e-6),
        "near_ranges_c16": lattice(ranges),
        "damping_k64_n300": damping(64, 300),
        "damping_k2_n5000": damping(2, 5000),
        **{f"damping_scale_{scale:.0e}": damping(8, 100, scale) for scale in (1e-150, 1e150, 1e-160, 1e154)},
        "damping_commuting_pair": damping(8, 100, twin=True),
        "damping_non_hermitian": damping(8, 100, hermitian=False),
        "invalid_projector": lattice([np.eye(2) / 2, np.eye(2), np.zeros((2, 2))]),
        "invertible_growth": {
            **demo_resonance,
            "resonances": [{"energy": 0.0, "width": 2.0}],
            "variant": "invertible",
            "grid": {"t_start": 0.0, "t_end": 400.0, "steps": 3},
        },
        "fit_far_grid": fit(3e-8, 1e10, 1e10 + 1e-3),
        "fit_tiny_span": fit(0.5, 0.0, 1e-200),
        "fit_huge_span": fit(1e-310, -1e300, 0.0),
    }


def _scenarios(tmp: Path) -> list[Path]:
    paths = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            manifest = workloads.generate(workload, seed, tmp / f"seed{seed}")
            paths += [Path(entry["path"]) for entry in manifest["scenarios"]]
    paths += scenario.write_demo_files(tmp / "demos")
    demo_resonance = json.loads((tmp / "demos" / "demo_resonance.json").read_text(encoding="utf-8"))
    (tmp / "probe").mkdir()
    for name, payload in _probes(demo_resonance).items():
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


def _cpu_class() -> str:
    """numpy's dispatched CPU features in use and the core of numpy's bundled OpenBLAS, ``unknown`` if it names none."""
    umath = np._core._multiarray_umath
    features = " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    core = "unknown"
    if corename is not None:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy dispatch: {features}; OpenBLAS core: {core}"


def main() -> int:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir).resolve()
        paths = _scenarios(tmp)
        for path in paths:
            digest.update(json.dumps(_record(path, tmp), sort_keys=True).encode() + b"\n")
    print(_cpu_class())
    print(f"{len(paths)} scenarios, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
