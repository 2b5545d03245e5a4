"""Seeded scenario generators for the four benchmark workloads.

Each workload turns ``(name, seed)`` into a pool of scenario JSON files,
the oracle expectations for them and a record of the input properties.
The same seed gives byte-identical files. Only numpy and the benchmark's
own oracles are used here; the program under test never runs.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

import oracles

# name: (scenarios in the pool, scenarios in the traced run, tail percentile,
# reference kernel in calibrate.KERNELS that scales its call times).
# The closed loop cycles through the pool; the traced run takes a fixed
# count so its call and flop counts repeat exactly. The tail percentile is
# the highest with ten samples beyond it at the run length, except on
# lattice_triples: its ~900 calls of ~8 ms would allow p98, but over two
# ten-run sets on a shared 2-core box p98 spread by 0.10-0.19 of the
# median, p95 by 0.05-0.09 and p90 by 0.03-0.04; only p90 keeps its spread
# within a third of the tail's bound.
WORKLOADS = {
    "damping_stack": (16, 8, 90, "small"),
    "resonance_long": (12, 6, 90, "small"),
    "resonance_wide": (8, 4, 75, "gemm"),
    "lattice_triples": (64, 64, 90, "mixed"),
}

DAMPING_K = 8
DAMPING_N_MAX = 100
LONG_N, LONG_STEPS = 2, 1001
WIDE_N, WIDE_STEPS = 64, 51
T_END = 8.0
LATTICE_DIM = 16
RANK_LO, RANK_HI = 4, 12


def _rng(workload: str, seed: int) -> np.random.Generator:
    # crc32 rather than hash(): str hashes are salted per process.
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _complex(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian(rng, dim: int) -> np.ndarray:
    g = _complex(rng, (dim, dim))
    return (g + g.conj().T) / 2.0


def _unitary(rng, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(_complex(rng, (dim, dim)))
    return q


def _projector(basis: np.ndarray) -> np.ndarray:
    p = basis @ basis.conj().T
    return (p + p.conj().T) / 2.0


def _encode(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in mat]


def _damping(rng, _i: int):
    p = float(rng.uniform(0.01, 0.05))
    obs = [_hermitian(rng, 2) for _ in range(DAMPING_K)]
    scen = {
        "kind": "damping",
        "p": p,
        "n_max": DAMPING_N_MAX,
        "eps": 1e-6,
        "observables": [_encode(o) for o in obs],
    }
    expect = {"kind": "damping", "norms": oracles.damping_norms(p, DAMPING_N_MAX, obs)}
    return scen, expect, DAMPING_K * DAMPING_N_MAX


def _resonance(n: int, steps: int):
    def make(rng, _i: int):
        energies = rng.uniform(-2.0, 2.0, size=n)
        widths = rng.uniform(0.1, 1.0, size=n)
        o1, o2 = _hermitian(rng, 2 * n), _hermitian(rng, 2 * n)
        scen = {
            "kind": "resonance",
            "resonances": [{"energy": float(e), "width": float(w)} for e, w in zip(energies, widths)],
            "variant": "hermitian",
            "grid": {"t_start": 0.0, "t_end": T_END, "steps": steps},
            "eps": 1e-3,
            "observables": [_encode(o1), _encode(o2)],
        }
        times = np.linspace(0.0, T_END, steps)
        expect = {
            "kind": "resonance",
            "times": times.tolist(),
            "norms": oracles.resonance_norms(energies, widths, o1, o2, times),
        }
        return scen, expect, steps

    return make


def _generic_ranks(rng) -> tuple[int, int, int]:
    # Redraw until both distributive laws fail for generic subspaces.
    while True:
        ranks = tuple(int(r) for r in rng.integers(RANK_LO, RANK_HI + 1, size=3))
        exp = oracles.generic_lattice(LATTICE_DIM, *ranks)
        if exp["meet"] == "VIOLATED" and exp["join"] == "VIOLATED":
            return ranks


def _lattice(rng, i: int):
    d = LATTICE_DIM
    if i % 2 == 0:
        ranks = _generic_ranks(rng)
        mats = [_projector(_unitary(rng, d)[:, :r]) for r in ranks]
        expect = oracles.generic_lattice(d, *ranks)
    else:
        basis = _unitary(rng, d)
        subsets = [
            sorted(int(j) for j in rng.choice(d, size=int(rng.integers(RANK_LO, RANK_HI + 1)), replace=False))
            for _ in range(3)
        ]
        ranks = tuple(len(s) for s in subsets)
        mats = [_projector(basis[:, s]) for s in subsets]
        expect = oracles.commuting_lattice(*(set(s) for s in subsets))
    expect["ranks_in"] = list(ranks)
    scen = {"kind": "lattice", "observables": [_encode(m) for m in mats]}
    return scen, expect, 1


_MAKERS = {
    "damping_stack": _damping,
    "resonance_long": _resonance(LONG_N, LONG_STEPS),
    "resonance_wide": _resonance(WIDE_N, WIDE_STEPS),
    "lattice_triples": _lattice,
}


def generate(workload: str, seed: int, outdir) -> dict:
    """Write the workload's scenario pool under ``outdir``; return the manifest.

    The manifest lists each scenario's path, oracle expectation and item
    count (observable-steps, grid points or triples), and the input
    properties the results record.
    """
    rng = _rng(workload, seed)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(WORKLOADS[workload][0]):
        scen, expect, items = _MAKERS[workload](rng, i)
        path = out / f"{workload}-{i:03d}.json"
        path.write_text(json.dumps(scen, separators=(",", ":")) + "\n", encoding="utf-8")
        entries.append({"path": str(path), "expect": expect, "items": items})
    return {"workload": workload, "seed": seed, "scenarios": entries, "inputs": _properties(workload, entries)}


def _properties(workload: str, entries: list) -> dict:
    sizes = [Path(e["path"]).stat().st_size for e in entries]
    props = {"pool": len(entries), "input_bytes_mean": sum(sizes) / len(sizes)}
    if workload == "damping_stack":
        props.update(k=DAMPING_K, d=2, steps=DAMPING_N_MAX)
    elif workload.startswith("resonance"):
        n, steps = (LONG_N, LONG_STEPS) if workload == "resonance_long" else (WIDE_N, WIDE_STEPS)
        props.update(N=n, d=2 * n, steps=steps, variant="hermitian")
    else:
        ranks = [r for e in entries for r in e["expect"]["ranks_in"]]
        commuting = sum(e["expect"]["compatible"] == "true" for e in entries)
        props.update(
            d=LATTICE_DIM,
            rank_mix={str(r): ranks.count(r) for r in sorted(set(ranks))},
            commuting_share=commuting / len(entries),
        )
    return props
