"""Output oracles, written independently of gamowlab.

The ``*_norms`` and ``*_lattice`` functions compute what a correct run
must write, from the generator's own parameters. :func:`check` compares
a run's output directory with that expectation. None of this imports
gamowlab, so a defect in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Relative tolerance on every compared float. Iterated and closed-form
#: evaluations agree to ~1e-14; 1e-9 leaves room for roundoff only.
RTOL = 1e-9

RESONANCE_HEADER = "t,norm,log_norm,alpha_re,alpha_im,beta_re,beta_im,ansatz_residual,taqm_valid"


def damping_norms(p: float, n_max: int, observables) -> list[float]:
    """Worst pairwise commutator norm per step of the n-fold damped evolution.

    Uses the closed form O_n = [[O00, s^n O01], [s^n O10, f^n O11 + O00 (1 - f^n)]]
    with s = sqrt(1 - p) and f = 1 - p.
    """
    n = np.arange(n_max + 1)
    half = np.sqrt(1.0 - p) ** n
    full = (1.0 - p) ** n
    obs = np.asarray(observables, dtype=complex)
    ev = np.empty((n.size, len(obs), 2, 2), dtype=complex)
    ev[:, :, 0, 0] = obs[None, :, 0, 0]
    ev[:, :, 0, 1] = half[:, None] * obs[None, :, 0, 1]
    ev[:, :, 1, 0] = half[:, None] * obs[None, :, 1, 0]
    ev[:, :, 1, 1] = full[:, None] * obs[None, :, 1, 1] + obs[None, :, 0, 0] * (1.0 - full[:, None])
    worst = np.zeros(n.size)
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            a, b = ev[:, i], ev[:, j]
            c = a @ b - b @ a
            worst = np.maximum(worst, np.sqrt((np.abs(c) ** 2).sum(axis=(1, 2))))
    return worst.tolist()


def resonance_norms(energies, widths, o1, o2, times) -> list[float]:
    """Frobenius norm of [O1(t), O2(t)] under the HERMITIAN conjugation.

    With D = diag(u), u = (e^{-itz_1}, e^{+itz_1^*}, e^{-itz_2}, ...), the
    evolved commutator has entries u_i u_k (O1 D^2 O2 - O2 D^2 O1)_ik.
    """
    z = np.asarray(energies) - 0.5j * np.asarray(widths)
    t = np.asarray(times)[:, None]
    u = np.empty((t.shape[0], 2 * z.size), dtype=complex)
    u[:, 0::2] = np.exp(-1j * t * z)
    u[:, 1::2] = np.exp(1j * t * z.conj())
    u2 = (u * u)[:, None, :]
    m = (o1[None] * u2) @ o2 - (o2[None] * u2) @ o1
    c = u[:, :, None] * m * u[:, None, :]
    return np.sqrt((np.abs(c) ** 2).sum(axis=(1, 2))).tolist()


def _verdict(lhs: int, rhs: int) -> str:
    # One side always contains the other, so equal ranks mean equal projectors.
    return "SATISFIED" if lhs == rhs else "VIOLATED"


def generic_lattice(d: int, ra: int, rb: int, rc: int) -> dict:
    """Verdicts and ranks for three subspaces in general position.

    Generic subspaces give meet rank max(0, r_a + r_b - d) and join rank
    min(d, r_a + r_b); the nested expressions follow from
    dim(X + Y) = dim X + dim Y - dim(X ^ Y).
    """
    def span(*r: int) -> int:
        return min(d, sum(r))

    def cap(x: int, y: int) -> int:
        return x + y - span(x, y)

    abc = max(0, ra + rb + rc - 2 * d)
    ranks = [
        ra + span(rb, rc) - span(ra, rb, rc),
        cap(ra, rb) + cap(ra, rc) - abc,
        ra + cap(rb, rc) - abc,
        span(ra, rb) + span(ra, rc) - span(ra, rb, rc),
    ]
    return {
        "kind": "lattice",
        "meet": _verdict(ranks[0], ranks[1]),
        "join": _verdict(ranks[2], ranks[3]),
        "ranks": ranks,
        "compatible": "false",
    }


def commuting_lattice(a: set, b: set, c: set) -> dict:
    """Verdicts and ranks for projectors diagonal in one basis (index sets)."""
    ranks = [len(a & (b | c)), len((a & b) | (a & c)), len(a | (b & c)), len((a | b) & (a | c))]
    return {
        "kind": "lattice",
        "meet": _verdict(ranks[0], ranks[1]),
        "join": _verdict(ranks[2], ranks[3]),
        "ranks": ranks,
        "compatible": "true",
    }


def lattice_text(expect: dict) -> str:
    r = expect["ranks"]
    return "\n".join(
        [
            f"meet distributivity: {expect['meet']}",
            f"join distributivity: {expect['join']}",
            "distributive inequalities: OK",
            f"rank a^(bvc) = {r[0]}",
            f"rank (a^b)v(a^c) = {r[1]}",
            f"rank av(b^c) = {r[2]}",
            f"rank (avb)^(avc) = {r[3]}",
            f"pairwise compatible: {expect['compatible']}",
        ]
    ) + "\n"


def _close(got: float, want: float, floor: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * max(abs(want), floor)


def _csv_rows(outdir: Path, header: str) -> list[list[str]]:
    lines = (outdir / "commutators.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def check(expect: dict, outdir) -> str | None:
    """Return None when the outputs in ``outdir`` match ``expect``, else the first mismatch."""
    out = Path(outdir)
    try:
        if expect["kind"] == "lattice":
            text = (out / "lattice.txt").read_text(encoding="utf-8")
            return None if text == lattice_text(expect) else f"lattice.txt differs: {text!r}"
        norms = expect["norms"]
        if expect["kind"] == "damping":
            rows = _csv_rows(out, "n,norm")
            times, floor = range(len(norms)), 1.0
        else:
            rows = _csv_rows(out, RESONANCE_HEADER)
            times, floor = expect["times"], 1e-300
        if len(rows) != len(norms):
            return f"{len(rows)} rows, expected {len(norms)}"
        for k, (row, t, norm) in enumerate(zip(rows, times, norms)):
            if not _close(float(row[0]), t, floor) or not _close(float(row[1]), norm, floor):
                return f"row {k}: got ({row[0]}, {row[1]}), expected ({t!r}, {norm!r})"
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    return None
