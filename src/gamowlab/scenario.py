"""Declarative scenario files: schema, validation and execution.

A scenario is a JSON object with a ``kind`` of ``damping``, ``resonance``
or ``lattice``. Complex matrix entries are written as two-element
``[re, im]`` arrays, so a 2x2 identity reads
``[[[1,0],[0,0]],[[0,0],[1,0]]]``.

damping:   p, n_max, observables (two or more 2x2 matrices), eps
resonance: resonances ([{energy, width}, ...]), variant, observables
           (exactly two 2N x 2N matrices), grid ({t_start, t_end, steps}),
           eps, optional fit_window
lattice:   observables (exactly three projector matrices of equal size)

Outputs are written with shortest round-trip float formatting and fixed
row order, so identical scenarios produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channels, commutators, qlattice
from .cmatrix import pair_commutator_norms
from .evolution import EvolutionVariant
from .gamow import GamowSpace, Resonance, new_space

__all__ = ["Scenario", "load_scenario", "validate_file", "run_file", "write_demo_files"]

_KINDS = ("damping", "resonance", "lattice")
_VARIANTS = tuple(v.value for v in EvolutionVariant)


@dataclass(frozen=True)
class Scenario:
    kind: str
    observables: tuple[np.ndarray, ...]
    p: float | None = None
    n_max: int | None = None
    eps: float | None = None
    resonances: tuple[Resonance, ...] = ()
    variant: EvolutionVariant | None = None
    t_start: float | None = None
    t_end: float | None = None
    steps: int | None = None
    fit_window: float | None = None

    def space(self) -> GamowSpace:
        return new_space(self.resonances)


def _parse_matrix(raw, label: str, diagnostics: list[str]) -> np.ndarray | None:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        diagnostics.append(f"{label}: entries must be [re, im] pairs of numbers")
        return None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        diagnostics.append(
            f"{label}: must be a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
        return None
    if not np.all(np.isfinite(arr)):
        diagnostics.append(f"{label}: entries must be finite")
        return None
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_matrix(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def _require_number(data, key: str, diagnostics: list[str], label: str | None = None) -> float | None:
    val = data.get(key)
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        diagnostics.append(f"{label or key}: must be a finite number")
        return None
    return float(val)


def _validate_dict(data) -> tuple[list[str], Scenario | None]:
    diagnostics: list[str] = []
    if not isinstance(data, dict):
        return ["scenario: top level must be a JSON object"], None
    kind = data.get("kind")
    if kind not in _KINDS:
        return [f"kind: must be one of {'|'.join(_KINDS)}, got {kind!r}"], None

    raw_obs = data.get("observables")
    observables: list[np.ndarray] = []
    if not isinstance(raw_obs, list) or len(raw_obs) == 0:
        diagnostics.append("observables: must be a nonempty list of matrices")
    else:
        for i, raw in enumerate(raw_obs):
            mat = _parse_matrix(raw, f"observables[{i}]", diagnostics)
            if mat is not None:
                observables.append(mat)
    if diagnostics:
        return diagnostics, None

    if kind == "damping":
        p = _require_number(data, "p", diagnostics)
        if p is not None and not 0.0 <= p <= 1.0:
            diagnostics.append(f"p: must lie in [0, 1], got {p}")
        n_max = data.get("n_max")
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
            diagnostics.append(f"n_max: must be an integer >= 1, got {n_max!r}")
        eps = _require_number(data, "eps", diagnostics)
        if eps is not None and eps <= 0:
            diagnostics.append(f"eps: must be > 0, got {eps}")
        if len(observables) < 2:
            diagnostics.append("observables: damping scenarios need at least two matrices")
        for i, mat in enumerate(observables):
            if mat.shape != (2, 2):
                diagnostics.append(
                    f"observables[{i}]: must be 2x2 for damping scenarios, got "
                    f"{mat.shape[0]}x{mat.shape[1]}"
                )
        if diagnostics:
            return diagnostics, None
        return [], Scenario(
            kind=kind, observables=tuple(observables), p=p, n_max=n_max, eps=eps
        )

    if kind == "resonance":
        raw_res = data.get("resonances")
        resonances: list[Resonance] = []
        if not isinstance(raw_res, list) or len(raw_res) == 0:
            diagnostics.append("resonances: must be a nonempty list of {energy, width} objects")
        else:
            for i, item in enumerate(raw_res):
                if not isinstance(item, dict):
                    diagnostics.append(f"resonances[{i}]: must be an object with energy and width")
                    continue
                energy = item.get("energy")
                width = item.get("width")
                if not isinstance(energy, (int, float)) or isinstance(energy, bool):
                    diagnostics.append(f"resonances[{i}].energy: must be a number")
                    continue
                if not isinstance(width, (int, float)) or isinstance(width, bool):
                    diagnostics.append(f"resonances[{i}].width: must be a number")
                    continue
                if width <= 0:
                    diagnostics.append(f"resonances[{i}].width: must be > 0, got {width}")
                    continue
                resonances.append(Resonance(energy=float(energy), width=float(width)))
        variant_name = data.get("variant")
        if variant_name not in _VARIANTS:
            diagnostics.append(f"variant: must be one of {'|'.join(_VARIANTS)}, got {variant_name!r}")
        grid = data.get("grid")
        t_start = t_end = None
        steps = None
        if not isinstance(grid, dict):
            diagnostics.append("grid: must be an object with t_start, t_end and steps")
        else:
            t_start = _require_number(grid, "t_start", diagnostics, label="grid.t_start")
            t_end = _require_number(grid, "t_end", diagnostics, label="grid.t_end")
            steps = grid.get("steps")
            if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
                diagnostics.append(f"grid.steps: must be an integer >= 2, got {steps!r}")
            if t_start is not None and t_end is not None and not t_end > t_start:
                diagnostics.append(f"grid: t_end must exceed t_start, got [{t_start}, {t_end}]")
        eps = _require_number(data, "eps", diagnostics)
        if eps is not None and eps <= 0:
            diagnostics.append(f"eps: must be > 0, got {eps}")
        fit_window = None
        if "fit_window" in data:
            fit_window = _require_number(data, "fit_window", diagnostics)
            if fit_window is not None and not 0.0 < fit_window <= 1.0:
                diagnostics.append(f"fit_window: must lie in (0, 1], got {fit_window}")
        if len(observables) != 2:
            diagnostics.append(
                f"observables: resonance scenarios need exactly two matrices, got {len(observables)}"
            )
        if not diagnostics:
            dim = 2 * len(resonances)
            for i, mat in enumerate(observables):
                if mat.shape != (dim, dim):
                    diagnostics.append(
                        f"observables[{i}]: must be {dim}x{dim} to match {len(resonances)} "
                        f"resonance(s), got {mat.shape[0]}x{mat.shape[1]}"
                    )
        if diagnostics:
            return diagnostics, None
        return [], Scenario(
            kind=kind,
            observables=tuple(observables),
            eps=eps,
            resonances=tuple(resonances),
            variant=EvolutionVariant(variant_name),
            t_start=t_start,
            t_end=t_end,
            steps=steps,
            fit_window=fit_window,
        )

    # lattice
    if len(observables) != 3:
        diagnostics.append(
            f"observables: lattice scenarios need exactly three projectors, got {len(observables)}"
        )
    else:
        dims = {m.shape for m in observables}
        if len(dims) != 1:
            diagnostics.append("observables: lattice projectors must share a dimension")
        else:
            for i, mat in enumerate(observables):
                try:
                    qlattice.Projector(mat)
                except ValueError as exc:
                    diagnostics.append(f"observables[{i}]: {exc}")
    if diagnostics:
        return diagnostics, None
    return [], Scenario(kind="lattice", observables=tuple(observables))


def load_scenario(path) -> tuple[list[str], Scenario | None]:
    """Parse and validate a scenario file; diagnostics are the findings."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"file: cannot read {path}: {exc}"], None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"file: invalid JSON: {exc}"], None
    return _validate_dict(data)


def validate_file(path) -> list[str]:
    """Full schema and invariant check without running the scenario."""
    diagnostics, _ = load_scenario(path)
    return diagnostics


def _fmt(x: float) -> str:
    return repr(float(x))


def _run_damping(sc: Scenario, outdir: Path) -> str:
    ch = channels.damping_channel(sc.p)
    evolved = np.stack(sc.observables)
    rows = []
    first_below: int | None = None
    for n in range(sc.n_max + 1):
        if n > 0:
            evolved = channels.apply_heisenberg(ch, evolved)
        worst = max(pair_commutator_norms(evolved).tolist())
        rows.append((n, worst))
        if first_below is None and worst < sc.eps:
            first_below = n
    lines = ["n,norm"]
    lines += [f"{n},{_fmt(norm)}" for n, norm in rows]
    (outdir / "commutators.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    reached = f"commuting at n={first_below}" if first_below is not None else "eps not reached"
    return (
        f"damping: p={sc.p}, n_max={sc.n_max}, worst-pair norm "
        f"{rows[0][1]:.6g} -> {rows[-1][1]:.6g}, {reached}"
    )


def _run_resonance(sc: Scenario, outdir: Path) -> str:
    space = sc.space()
    times = np.linspace(sc.t_start, sc.t_end, sc.steps)
    traj = commutators.trajectory(space, sc.observables[0], sc.observables[1], times, sc.variant)
    slow = int(np.argmin(space.widths))
    lines = ["t,norm,log_norm,alpha_re,alpha_im,beta_re,beta_im,ansatz_residual,taqm_valid"]
    for k, t in enumerate(times):
        rep = commutators.ansatz_report(space, traj, k)
        norm = traj.norms[k]
        log_norm = math.log(norm) if norm > 0 else float("-inf")
        alpha = rep.alphas[slow]
        beta = rep.betas[slow]
        lines.append(
            f"{_fmt(t)},{_fmt(norm)},{_fmt(log_norm)},{_fmt(alpha.real)},{_fmt(alpha.imag)},"
            f"{_fmt(beta.real)},{_fmt(beta.imag)},{_fmt(rep.residual)},{str(t >= 0).lower()}"
        )
    (outdir / "commutators.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    fit = commutators.envelope_fit(traj, sc.fit_window)
    expected = -2.0 * min(space.widths)
    deviation = abs(fit.slope - expected)
    below = np.nonzero(traj.norms < sc.eps)[0]
    t_c = float(times[below[0]]) if below.size else None
    t_c_text = _fmt(t_c) if t_c is not None else f"not reached by t_end={_fmt(sc.t_end)}"
    fit_lines = [
        f"slope = {_fmt(fit.slope)}",
        f"intercept = {_fmt(fit.intercept)}",
        f"expected_slope = {_fmt(expected)}",
        f"abs_deviation = {_fmt(deviation)}",
        f"t_c(eps={_fmt(sc.eps)}) = {t_c_text}",
    ]
    (outdir / "fit.txt").write_text("\n".join(fit_lines) + "\n", encoding="utf-8")
    return (
        f"resonance: N={space.n_resonances}, variant={sc.variant.value}, "
        f"slope={fit.slope:.9g}, expected={expected:.9g}, |dev|={deviation:.3g}, t_c={t_c_text}"
    )


def _run_lattice(sc: Scenario, outdir: Path) -> str:
    a, b, c = (qlattice.Projector(m) for m in sc.observables)
    report = qlattice.distributivity_check(a, b, c)
    meet_word = "SATISFIED" if report.meet_equal else "VIOLATED"
    join_word = "SATISFIED" if report.join_equal else "VIOLATED"
    ineq_word = "OK" if report.inequality_holds else "NUMERICAL-RANK-BUG"
    lines = [
        f"meet distributivity: {meet_word}",
        f"join distributivity: {join_word}",
        f"distributive inequalities: {ineq_word}",
        f"rank a^(bvc) = {report.lhs_meet.rank}",
        f"rank (a^b)v(a^c) = {report.rhs_meet.rank}",
        f"rank av(b^c) = {report.lhs_join.rank}",
        f"rank (avb)^(avc) = {report.rhs_join.rank}",
        f"pairwise compatible: {str(qlattice.compatible(a, b) and qlattice.compatible(a, c) and qlattice.compatible(b, c)).lower()}",
    ]
    (outdir / "lattice.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return (
        f"lattice: meet distributivity: {meet_word}, join distributivity: {join_word}, "
        f"inequalities: {ineq_word}"
    )


def run_file(path, outdir) -> int:
    """Run a scenario file; returns 0 (ok), 2 (validation) or 3 (runtime)."""
    diagnostics, sc = load_scenario(path)
    if diagnostics:
        for d in diagnostics:
            print(f"invalid scenario: {d}")
        return 2
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if sc.kind == "damping":
            summary = _run_damping(sc, out)
        elif sc.kind == "resonance":
            summary = _run_resonance(sc, out)
        else:
            summary = _run_lattice(sc, out)
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}")
        return 3
    print(summary)
    return 0


def write_demo_files(outdir) -> list[Path]:
    """Write the three worked example scenarios as ready-to-run files."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p_plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    demos = {
        "demo_damping.json": {
            "kind": "damping",
            "p": 0.5,
            "n_max": 20,
            "eps": 1e-10,
            "observables": [_encode_matrix(sigma_x), _encode_matrix(sigma_y)],
        },
        "demo_resonance.json": {
            "kind": "resonance",
            "resonances": [{"energy": 0.0, "width": 0.5}],
            "variant": "hermitian",
            "grid": {"t_start": 0.0, "t_end": 5.0, "steps": 101},
            "eps": 0.1,
            "observables": [_encode_matrix(sigma_x), _encode_matrix(sigma_y)],
        },
        "demo_lattice.json": {
            "kind": "lattice",
            "observables": [_encode_matrix(p0), _encode_matrix(p_plus), _encode_matrix(p_minus)],
        },
    }
    written = []
    for name, payload in demos.items():
        path = out / name
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        written.append(path)
    return written
